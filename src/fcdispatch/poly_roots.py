"""Real roots of cubics (and degenerate quadratics/linears) with polish.

Closed-form solutions are selected by discriminant sign: three real roots go
through the trigonometric form, a single real root through Cardano with the
stable cube-root pairing. Every root is then refined by a few Newton steps on
the original polynomial, so returned residuals are near machine precision
even for poorly scaled coefficients.

All the roots are wanted only by the paper's three-candidate segment cubic,
solve_segment_sqrt in paper.py, which is kept as a cross-check and is this
module's only importer. The online dispatch path solves its cubic in the
level without this module: the segment's level window brackets the one root
it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Leading coefficients at or below this fraction of the largest coefficient
# are treated as zero and the degree drops.
_DEGENERACY_REL = 1e-14
# Roots closer than this (relative) merge into one with summed multiplicity.
# Near a double root the computable accuracy is only ~sqrt(machine eps), so
# the tolerance must sit above that scale or exact tangencies split in two.
_MERGE_REL = 1e-7


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of c3*x**3 + c2*x**2 + c1*x + c0."""

    c3: float
    c2: float
    c1: float
    c0: float


def _newton_polish(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    for _ in range(5):
        p = ((c3 * x + c2) * x + c1) * x + c0
        dp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if dp == 0.0 or not math.isfinite(p):
            break
        step = p / dp
        if x - step == x:
            break
        x -= step
    return x


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[tuple[float, int]]:
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [(-c1 / (2.0 * c2), 2)]
    # Pair the subtraction-safe root with its cofactor to avoid cancellation;
    # q is 0 only where disc is, which returned above.
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return sorted([(q / c2, 1), (c0 / q, 1)])


def _cubic_roots_raw(c3: float, c2: float, c1: float, c0: float) -> list[tuple[float, int]]:
    # Depressed form: x = t - B/3 turns x^3 + B x^2 + C x + D into t^3 + p t + q.
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d

    if p == 0.0 and q == 0.0:
        return [(-shift, 3)]

    disc = 0.25 * q * q + p ** 3 / 27.0
    if disc > 0.0:
        # One real root. Take the cube root whose argument has no
        # cancellation (-q/2 and the radical share sign) and recover the
        # partner from u*v = -p/3.
        w = -0.5 * q + math.copysign(math.sqrt(disc), -q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        t = u - p / (3.0 * u)
        return [(t - shift, 1)]
    if disc == 0.0:
        # Double root plus a simple one (p != 0 since the triple case is above).
        t_double = -1.5 * q / p
        t_single = 3.0 * q / p
        return sorted([(t_single - shift, 1), (t_double - shift, 2)])
    # Three distinct real roots via the trigonometric form.
    r = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * r)
    arg = min(1.0, max(-1.0, arg))
    phase = math.acos(arg) / 3.0
    ts = [r * math.cos(phase - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return sorted((t - shift, 1) for t in ts)


def real_roots(coeffs: CubicCoefficients) -> list[tuple[float, int]]:
    """All real roots, ascending, as (root, multiplicity) pairs.

    Degenerate leading coefficients fall through to the quadratic/linear
    formulas; near-equal roots are merged with summed multiplicities.
    Raises ValueError when every coefficient is zero.
    """
    c3, c2, c1, c0 = coeffs.c3, coeffs.c2, coeffs.c1, coeffs.c0
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise ValueError("all coefficients are zero; roots are undefined")

    if abs(c3) <= _DEGENERACY_REL * scale:
        if abs(c2) <= _DEGENERACY_REL * scale:
            if abs(c1) <= _DEGENERACY_REL * scale:
                roots = []  # effectively a nonzero constant
            else:
                roots = [(-c0 / c1, 1)]
        else:
            roots = _quadratic_roots(c2, c1, c0)
    else:
        roots = _cubic_roots_raw(c3, c2, c1, c0)

    polished = [(_newton_polish(c3, c2, c1, c0, x), m) for x, m in roots]
    polished.sort()

    merged: list[tuple[float, int]] = []
    for x, m in polished:
        if merged and abs(x - merged[-1][0]) <= _MERGE_REL * max(1.0, abs(x)):
            prev_x, prev_m = merged[-1]
            # Multiplicity-weighted average: a split tangency pair straddles
            # the true double root.
            merged[-1] = ((prev_x * prev_m + x * m) / (prev_m + m), prev_m + m)
        else:
            merged.append((x, m))
    return merged


def residual(coeffs: CubicCoefficients, x: float) -> float:
    """Polynomial value at x, for certifying returned roots."""
    return ((coeffs.c3 * x + coeffs.c2) * x + coeffs.c1) * x + coeffs.c0
