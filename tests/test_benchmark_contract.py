"""The traced benchmark run wraps names of fcdispatch.dispatch; keep them.

perfbench/spans.py replaces module globals of fcdispatch.dispatch by name.
A refactor that drops one of them breaks only the traced benchmark run,
which the test suite does not start, so this check loads the tracer's name
list and asserts every entry is still a callable of the module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_are_callables_of_dispatch_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # The package re-exports the function dispatch, which hides the submodule
    # of the same name from attribute access.
    module = importlib.import_module("fcdispatch.dispatch")
    missing = [name for name in spans.WRAPPED if not callable(getattr(module, name, None))]
    assert not missing
