import numpy as np
import pytest

from fcdispatch import CubicCoefficients, real_roots
from fcdispatch.poly_roots import residual


def roots_only(coeffs):
    return [x for x, _ in real_roots(coeffs)]


def scan_sign_changes(coeffs, lo=-100.0, hi=100.0, samples=20_001):
    """Independent root finder: bisect every sign change on a fine grid."""

    def p(x):
        return ((coeffs.c3 * x + coeffs.c2) * x + coeffs.c1) * x + coeffs.c0

    xs = np.linspace(lo, hi, samples)
    ys = p(xs)
    found = []
    for k in np.nonzero(np.signbit(ys[:-1]) != np.signbit(ys[1:]))[0]:
        a, b = float(xs[k]), float(xs[k + 1])
        fa = p(a)
        for _ in range(60):
            m = 0.5 * (a + b)
            if (fa < 0) == (p(m) < 0):
                a, fa = m, p(m)
            else:
                b = m
        found.append(0.5 * (a + b))
    return found


def test_factored_cubic():
    assert roots_only(CubicCoefficients(1.0, 0.0, -1.0, 0.0)) == pytest.approx([-1.0, 0.0, 1.0])


def test_zero_discriminant_gives_a_double_and_a_simple_root():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2): the depressed cubic's discriminant
    # is exactly 0.
    assert real_roots(CubicCoefficients(1.0, 0.0, -3.0, 2.0)) == [(-2.0, 1), (1.0, 2)]


def test_expanded_product_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    got = roots_only(CubicCoefficients(1.0, -6.0, 11.0, -6.0))
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


def test_dispatch_cubic_reproduces_candidate_totals(bench3_stacks):
    # Segment cubic of the 3-branch benchmark at an effective demand of
    # 8000 W, with branch 1 (largest |b|) as reference.
    ar, br = bench3_stacks[0].a_eq, bench3_stacks[0].b_eq
    g = [br / s.b_eq for s in bench3_stacks]
    h = [(ar - s.a_eq) / (1.5 * s.b_eq) for s in bench3_stacks]
    c3 = sum(s.b_eq * gj**3 for s, gj in zip(bench3_stacks, g))
    c2 = sum(3 * s.b_eq * gj**2 * hj + s.a_eq * gj**2 for s, gj, hj in zip(bench3_stacks, g, h))
    c1 = sum(3 * s.b_eq * gj * hj**2 + 2 * s.a_eq * gj * hj for s, gj, hj in zip(bench3_stacks, g, h))
    c0 = sum(s.b_eq * hj**3 + s.a_eq * hj**2 for s, gj, hj in zip(bench3_stacks, g, h)) - 8000.0

    roots = roots_only(CubicCoefficients(c3, c2, c1, c0))
    assert len(roots) == 3
    totals = sorted(
        sum((gj * x + hj) ** 2 for gj, hj in zip(g, h)) for x in roots
    )
    assert totals == pytest.approx([191.94, 234.32, 9300.17], abs=0.05)


def test_single_real_root():
    # x^3 + x + 1 has one real root near -0.6823
    (root, mult), = real_roots(CubicCoefficients(1.0, 0.0, 1.0, 1.0))
    assert mult == 1
    assert root == pytest.approx(-0.6823278038280193, rel=1e-12)


def test_double_root_multiplicity():
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2. A double root is only computable
    # to about sqrt(machine eps), so the value tolerance is loose.
    got = real_roots(CubicCoefficients(1.0, -4.0, 5.0, -2.0))
    assert [(pytest.approx(1.0, abs=1e-7), 2), (pytest.approx(2.0, abs=1e-9), 1)] == got


def test_triple_root_multiplicity():
    # (x+2)^3 = x^3 + 6x^2 + 12x + 8
    got = real_roots(CubicCoefficients(1.0, 6.0, 12.0, 8.0))
    assert len(got) == 1
    assert got[0][0] == pytest.approx(-2.0, abs=1e-9)
    assert got[0][1] == 3


def test_degenerate_quadratic():
    got = real_roots(CubicCoefficients(0.0, 1.0, -3.0, 2.0))
    assert [x for x, _ in got] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_degenerate_quadratic_no_real_roots():
    assert real_roots(CubicCoefficients(0.0, 1.0, 0.0, 1.0)) == []


def test_degenerate_linear():
    got = real_roots(CubicCoefficients(0.0, 0.0, 2.0, -5.0))
    assert [x for x, _ in got] == pytest.approx([2.5], abs=1e-15)


def test_constant_nonzero_has_no_roots():
    assert real_roots(CubicCoefficients(0.0, 0.0, 0.0, 3.0)) == []


def test_all_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        real_roots(CubicCoefficients(0.0, 0.0, 0.0, 0.0))


def test_tiny_leading_coefficient_falls_through():
    # c3 far below the other coefficients: treated as quadratic.
    got = roots_only(CubicCoefficients(1e-60, 1.0, -3.0, 2.0))
    assert got == pytest.approx([1.0, 2.0], abs=1e-9)


def test_residual_bound_on_fuzzed_coefficients():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        c = CubicCoefficients(*(float(v) for v in rng.uniform(-10.0, 10.0, size=4)))
        total = abs(c.c3) + abs(c.c2) + abs(c.c1) + abs(c.c0)
        if total == 0.0:
            continue
        for x, _ in real_roots(c):
            bound = 1e-9 * total * max(1.0, abs(x)) ** 3
            assert abs(residual(c, x)) <= bound


def test_fuzz_against_sign_change_scan():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10_000):
        c = CubicCoefficients(*(float(v) for v in rng.uniform(-5.0, 5.0, size=4)))
        if abs(c.c3) < 1e-3:
            continue
        got = roots_only(c)
        scanned = scan_sign_changes(c)
        # Every scanned root must be reproduced.
        for s in scanned:
            assert any(abs(s - x) <= 1e-7 * max(1.0, abs(s)) for x in got)
        # Count agreement whenever the roots are well separated for the scan.
        separated = all(
            abs(x1 - x2) > 1e-2 for x1, x2 in zip(got, got[1:])
        )
        if separated and all(abs(x) < 99.0 for x in got):
            odd = [x for x, m in real_roots(c) if m % 2 == 1]
            assert len(scanned) == len(odd)
            checked += 1
    assert checked > 5_000


def test_fuzz_against_companion_matrix():
    rng = np.random.default_rng(99)
    for _ in range(2_000):
        c = CubicCoefficients(*(float(v) for v in rng.uniform(-5.0, 5.0, size=4)))
        if abs(c.c3) < 1e-6:
            continue
        got = roots_only(c)
        ref = sorted(
            float(r.real)
            for r in np.roots([c.c3, c.c2, c.c1, c.c0])
            if abs(r.imag) <= 1e-8 * max(1.0, abs(r.real))
        )
        # Multiple roots can collapse differently; compare as sets with slack.
        for r in ref:
            assert any(abs(r - x) <= 1e-6 * max(1.0, abs(r)) for x in got)
