"""Correctness gate: one verdict per operation, run outside the timed region.

An online solve or one-shot dispatch fails when it raised, when its status
is wrong for where the demand lies, when verify_kkt rejects it, when it
disagrees with lambda_bisection by more than 1e-6 x max(1 A, the largest
branch current), or when its power misses the demand by more than 1e-9
relative. A CLI run fails on a wrong exit code or on stdout that is not
byte-identical to the in-process serialization of the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ORACLE_RTOL = 1e-6
POWER_RTOL = 1e-9
REFUSED = "raised "


@dataclass
class Outcome:
    """What one call returned: a result object, or the exception it raised."""

    result: object = None
    error: BaseException | None = None

    def same_as(self, other: "Outcome") -> bool:
        if self.error is not None or other.error is not None:
            return (
                self.error is not None
                and other.error is not None
                and type(self.error) is type(other.error)
                and str(self.error) == str(other.error)
            )
        return self.result == other.result


class Gate:
    """Checks outcomes against the reference oracles of the program."""

    def __init__(self, fc_dispatch, fc_reference):
        self._dispatch = fc_dispatch
        self._reference = fc_reference

    def check_solve(self, stacks, p: float, expected_status: str, outcome: Outcome) -> str | None:
        """None when the outcome is correct, else the reason it fails."""
        if outcome.error is not None:
            return f"{REFUSED}{type(outcome.error).__name__}: {outcome.error}"
        res = outcome.result
        if res.status.value != expected_status:
            return f"status {res.status.value}, expected {expected_status}"
        if expected_status != "optimal":
            return None
        try:
            if not self._dispatch.verify_kkt(res, stacks).ok:
                return "verify_kkt rejects the result"
            total = sum(s.power(i) for s, i in zip(stacks, res.currents))
            if not abs(total - p) <= POWER_RTOL * max(1.0, abs(p)):
                return "power residual above 1e-9 of the demand"
            ref = self._reference.lambda_bisection(stacks, p)
        except ValueError as err:
            return f"check raised ValueError: {err}"
        tol = ORACLE_RTOL * max(1.0, max(ref.currents))
        if len(res.currents) != len(ref.currents) or any(
            abs(i - j) > tol for i, j in zip(res.currents, ref.currents)
        ):
            return "disagrees with lambda_bisection"
        return None

    @staticmethod
    def check_cli(returncode: int, stdout: bytes, expected_code: int, expected_stdout: bytes) -> str | None:
        if returncode != expected_code:
            return f"exit code {returncode}, expected {expected_code}"
        if stdout != expected_stdout:
            return "stdout differs from the in-process serialization"
        return None


@dataclass
class Ledger:
    """Every operation of a run, keyed by its input.

    Repeated inputs keep only their first outcome; later ones are compared
    with it (outside the timed region), and any that differ are checked on
    their own, so each operation still gets a verdict of its own.
    """

    first: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    deviants: list = field(default_factory=list)

    def record(self, key, outcome: Outcome) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        known = self.first.get(key)
        if known is None:
            self.first[key] = outcome
        elif not outcome.same_as(known):
            self.deviants.append((key, outcome))

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    def settle(self, check) -> tuple[int, dict]:
        """Apply check(key, outcome) -> reason|None to every operation.

        Returns the number of failed operations and a count per reason.
        """
        reasons: dict = {}
        deviant_counts: dict = {}
        failed = 0

        def fail(reason, n):
            nonlocal failed
            failed += n
            reasons[reason] = reasons.get(reason, 0) + n

        for key, outcome in self.deviants:
            deviant_counts[key] = deviant_counts.get(key, 0) + 1
            reason = check(key, outcome)
            if reason is not None:
                fail(reason, 1)
        for key, outcome in self.first.items():
            reason = check(key, outcome)
            if reason is not None:
                fail(reason, self.counts[key] - deviant_counts.get(key, 0))
        return failed, reasons
