import functools
import math
import operator

import mpmath
import numpy as np
import pytest

from etcphd.errors import SingularEvaluationError
from etcphd.pgf import CardinalityPgf, Jet


def random_finite_pgf(rng, max_support=6):
    support = int(rng.integers(1, max_support + 1))
    raw = 0.05 + rng.uniform(0.0, 1.0, support + 1)
    return CardinalityPgf.finite(raw / raw.sum())


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    g = CardinalityPgf.finite([0.5, 0.5])
    assert g.eval(0.0) == 0.5
    p = CardinalityPgf.poisson(2.0)
    assert p.eval(0.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_eval_at_one_is_normalized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_finite_pgf(rng)
        assert abs(g.eval(1.0) - 1.0) <= 1e-12
    assert CardinalityPgf.poisson(1.7).eval(1.0) == 1.0


def test_derivatives_examples():
    g = CardinalityPgf.finite([0.25, 0.5, 0.25])
    assert g.derivatives_at(0.0, 2) == pytest.approx([0.25, 0.5, 0.5], abs=0.0)
    assert g.derivatives_at(1.0, 1) == pytest.approx([1.0, 1.0], rel=1e-15)
    p = CardinalityPgf.poisson(2.0)
    e2 = math.exp(-2.0)
    assert p.derivatives_at(0.0, 2) == pytest.approx([e2, 2 * e2, 4 * e2], rel=1e-15)


def test_derivatives_recover_probabilities_exactly():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_finite_pgf(rng)
        ders = g.derivatives_at(0.0, len(g.probs) - 1)
        for n, p_n in enumerate(g.probs):
            assert ders[n] / math.factorial(n) == p_n


# -- log-derivatives ----------------------------------------------------------


def test_zeta_poisson_examples():
    p = CardinalityPgf.poisson(3.0)
    for x0 in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert p.log_derivative_at(x0, 1) == 3.0
        assert p.log_derivative_at(x0, 2) == 0.0


def test_zeta_finite_examples():
    g = CardinalityPgf.finite([0.5, 0.5])
    assert g.log_derivative_at(0.0, 1) == pytest.approx(1.0, rel=1e-14)
    assert g.log_derivative_at(0.0, 2) == pytest.approx(-1.0, rel=1e-14)


def test_zeta_singular_evaluation():
    g = CardinalityPgf.finite([0.0, 1.0])
    with pytest.raises(SingularEvaluationError):
        g.log_derivative_at(0.0, 1)


def _central_difference(f, x0, i, h):
    """Central finite-difference stencils for derivatives up to order 4."""
    stencils = {
        1: ((-1, mpmath.mpf(-0.5)), (1, mpmath.mpf(0.5))),
        2: ((-1, mpmath.mpf(1)), (0, mpmath.mpf(-2)), (1, mpmath.mpf(1))),
        3: ((-2, mpmath.mpf(-0.5)), (-1, mpmath.mpf(1)), (1, mpmath.mpf(-1)), (2, mpmath.mpf(0.5))),
        4: ((-2, mpmath.mpf(1)), (-1, mpmath.mpf(-4)), (0, mpmath.mpf(6)), (1, mpmath.mpf(-4)), (2, mpmath.mpf(1))),
    }
    return sum(c * f(x0 + k * h) for k, c in stencils[i]) / h**i


def test_zeta_matches_finite_differences_of_log():
    """Jet log-derivatives against high-precision central differences of
    log(G(x)) with h = 1e-5, on 50 random finite-support distributions."""
    rng = np.random.default_rng(2024)
    mpmath.mp.dps = 40
    h = mpmath.mpf("1e-5")
    for _ in range(50):
        g = random_finite_pgf(rng)
        x0 = float(rng.uniform(0.05, 1.0))

        def log_g(x, probs=g.probs):
            return mpmath.log(sum(mpmath.mpf(p) * x**n for n, p in enumerate(probs)))

        for i in range(1, 5):
            expected = float(_central_difference(log_g, mpmath.mpf(repr(x0)), i, h))
            actual = g.log_derivative_at(x0, i)
            assert actual == pytest.approx(expected, rel=1e-5, abs=1e-9)


def test_zeta_poisson_independent_of_evaluation_point():
    p = CardinalityPgf.poisson(1.3)
    for i in (1, 2, 3):
        values = {p.log_derivative_at(x0, i) for x0 in (0.0, 0.25, 0.5, 0.75, 1.0)}
        assert len(values) == 1


# -- jets ---------------------------------------------------------------------


def test_product_identity_factor():
    j = Jet((2.0, 3.0, 4.0))
    one = Jet.constant(1.0, 2)
    assert (one * j).coeffs == j.coeffs


def test_product_of_linear_jets():
    a, b, c, d = 2.0, 3.0, 5.0, 7.0
    left = Jet((a, b, 0.0))
    right = Jet((c, d, 0.0))
    assert (left * right).coeffs == (a * c, a * d + b * c, 2 * b * d)


def _poly_derivatives(coeffs, x0, k):
    """Raw derivatives of a polynomial (ascending coefficients) at x0."""
    out = []
    for j in range(k + 1):
        total = 0.0
        for n in range(j, len(coeffs)):
            falling = 1.0
            for m in range(n, n - j, -1):
                falling *= m
            total += coeffs[n] * falling * x0 ** (n - j)
        out.append(total)
    return out


def test_three_factor_product_against_polynomial_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        polys = [rng.uniform(-1, 1, rng.integers(1, 4)).tolist() for _ in range(3)]
        product = [1.0]
        for poly in polys:
            product = np.convolve(product, poly).tolist()
        x0 = float(rng.uniform(-1, 1))
        order = 4
        jets = [Jet(tuple(_poly_derivatives(p, x0, order))) for p in polys]
        combined = functools.reduce(operator.mul, jets)
        expected = _poly_derivatives(product, x0, order)
        assert np.allclose(combined.coeffs, expected, rtol=1e-12, atol=1e-12)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Jet((1.0, 2.0)) * Jet((1.0, 2.0, 3.0))


def test_partition_sum_of_log_derivatives_recovers_moments():
    """Exponential formula: summing products of log-derivatives at zero over
    all set partitions rebuilds G^(m)(0)/G(0).  Exercises the partition
    enumeration and the series log together against plain probabilities."""
    from etcphd.partitions import partitions_of

    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_finite_pgf(rng, max_support=6)
        zeta = g.log_derivatives_at(0.0, 6)
        for m in range(1, 6):
            terms = []
            for partition in partitions_of(range(m)):
                term = 1.0
                for cell in partition:
                    term *= zeta[len(cell)]
                terms.append(term)
            lhs = math.fsum(terms)
            rhs = math.factorial(m) * g.prob(m) / g.prob(0)
            scale = max(1.0, max(abs(t) for t in terms))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_truncation_order():
    """The head's degree plus the first order past the Poisson mode whose
    tail bound drops below 1e-16: at 40 digits the tail beyond that order is
    below 1e-16, and the tail beyond the order before it is not."""
    expected = {0.0: 0, 0.5: 14, 1.0: 17, 4.0: 29, 12.0: 50, 40.0: 102, 200.0: 327}
    for rate, order in expected.items():
        assert CardinalityPgf.poisson(rate).truncation_order() == order
        with mpmath.workdps(40):
            lam = mpmath.mpf(rate)

            def tail(n):
                return 1 - mpmath.fsum(mpmath.exp(-lam) * lam**k / mpmath.factorial(k)
                                       for k in range(n + 1))

            assert tail(order) < 1e-16
            assert order == 0 or tail(order - 1) >= 1e-16
        for head in ([1.0], [0.2, 0.8], [0.5, 0.0, 0.5, 0.0], [0.0] * 31 + [1.0]):
            card = CardinalityPgf(tuple(head), rate)
            assert card.truncation_order() == len(head) - 1 + order
    assert CardinalityPgf.finite([0.2, 0.8]) == CardinalityPgf((0.2, 0.8), 0.0)


def test_finite_support_cap():
    with pytest.raises(ValueError):
        CardinalityPgf.finite([1.0 / 33] * 33)


def test_finite_validation():
    with pytest.raises(ValueError):
        CardinalityPgf.finite([0.6, 0.5])
    with pytest.raises(ValueError):
        CardinalityPgf.finite([-0.1, 1.1])
    with pytest.raises(ValueError):
        CardinalityPgf.poisson(-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_rejected(value):
    with pytest.raises(ValueError):
        CardinalityPgf.poisson(value)
    with pytest.raises(ValueError):
        CardinalityPgf.finite([0.5, value])
