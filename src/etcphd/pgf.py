"""Cardinality probability generating functions and truncated derivative series.

One family, a finite head times a Poisson factor, covers finite-support and
Poisson distributions with one formula per quantity; the factor stays
analytic, so its closed-form identities hold to machine precision.  `Jet`, a
truncated sequence of raw derivative values, multiplies two derivative
sequences (a product of p.g.f.s) and takes logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularEvaluationError

MAX_SUPPORT = 31        # heads beyond n=31 are rejected, predicted ones cut
SINGULAR_FLOOR = 1e-300


@dataclass(frozen=True)
class Jet:
    """Truncated derivative sequence of a scalar function at a point.

    `coeffs[i]` is the raw i-th derivative f^(i)(x0), not the Taylor
    coefficient f^(i)(x0)/i!.  Arithmetic is closed under addition,
    multiplication and log up to the common order; mixing orders is an
    error.
    """

    coeffs: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: float, order: int) -> "Jet":
        return Jet((float(value),) + (0.0,) * order)

    def _check(self, other: "Jet") -> None:
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"jet order mismatch: {self.order} vs {other.order}"
            )

    def __mul__(self, other: "Jet") -> "Jet":
        """Leibniz product: (fg)^(n) = sum_i C(n,i) f^(i) g^(n-i)."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for n in range(len(a)):
            out.append(math.fsum(math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)))
        return Jet(tuple(out))

    def log(self) -> "Jet":
        """Derivative sequence of log f; requires f(x0) > 0."""
        f = self.coeffs
        if f[0] < SINGULAR_FLOOR:
            raise SingularEvaluationError(
                f"log-derivatives undefined: series value {f[0]!r} is not positive"
            )
        out = [math.log(f[0])]
        # f^(n+1) = sum_i C(n,i) f^(i) l^(n+1-i)  with l = log f; solve for l^(n+1).
        for n in range(len(f) - 1):
            acc = f[n + 1] - math.fsum(
                math.comb(n, i) * f[i] * out[n + 1 - i] for i in range(1, n + 1)
            )
            out.append(acc / f[0])
        return Jet(tuple(out))


@dataclass(frozen=True)
class CardinalityPgf:
    """A cardinality distribution G(y) = F(y) exp(rate (y - 1)), with
    evaluable derivatives and log-derivatives: `probs` holds the finite head
    f_0..f_K of F and `rate` >= 0 the Poisson factor's.  `finite(p)` has
    rate 0, and `poisson(r)` the head (1,).
    """

    probs: tuple[float, ...] = (1.0,)
    rate: float = 0.0

    @staticmethod
    def finite(probs) -> "CardinalityPgf":
        p = tuple(float(v) for v in probs)
        if not p:
            raise ValueError("finite-support p.g.f. needs at least p_0")
        if len(p) - 1 > MAX_SUPPORT:
            raise ValueError(
                f"cardinality support {len(p) - 1} exceeds the maximum of {MAX_SUPPORT}"
            )
        if any(v < 0.0 for v in p):
            raise ValueError("finite-support p.g.f. has a negative probability")
        total = math.fsum(p)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"finite-support probabilities sum to {total!r}, not 1")
        return CardinalityPgf(probs=p)

    @staticmethod
    def poisson(rate: float) -> "CardinalityPgf":
        if not math.isfinite(rate) or rate < 0.0:
            raise ValueError(f"poisson rate must be finite and non-negative, got {rate!r}")
        return CardinalityPgf(rate=float(rate))

    @property
    def support_max(self) -> int | None:
        """Largest n with P(n) > 0 representable; None with a Poisson factor."""
        return None if self.rate else len(self.probs) - 1

    def truncation_order(self) -> int:
        """Highest order a written vector keeps: the head's degree plus the first n
        past the Poisson mode with tail bound pmf(n + 1) (n + 2) / (n + 2 - rate) < 1e-16."""
        n, rate = int(self.rate), self.rate
        while rate and (math.exp((n + 1) * math.log(rate) - rate - math.lgamma(n + 2))
                        * (n + 2) / (n + 2 - rate)) >= 1e-16:
            n += 1
        return len(self.probs) - 1 + n

    def vector(self, order: int | None = None) -> list[float]:
        """[P(0), ..., P(order)]; `order` defaults to `truncation_order()`."""
        order = self.truncation_order() if order is None else order
        pmf = [self._poisson_pmf(n) for n in range(order + 1)]
        return [math.fsum(f * pmf[n - k] for k, f in enumerate(self.probs[: n + 1]))
                for n in range(order + 1)]

    def prob(self, n: int) -> float:
        if n < 0:
            return 0.0
        return math.fsum(f * self._poisson_pmf(n - k) for k, f in enumerate(self.probs[: n + 1]))

    def _poisson_pmf(self, n: int) -> float:
        rate = self.rate
        return math.exp(n * math.log(rate) - rate - math.lgamma(n + 1)) if rate else float(n == 0)

    def mean(self) -> float:
        return math.fsum(n * p for n, p in enumerate(self.probs)) + self.rate

    def eval(self, x: float) -> float:
        """p.g.f. value; x may lie outside [0, 1] (needed for moment checks)."""
        # Horner in descending powers.
        acc = 0.0
        for p in reversed(self.probs):
            acc = acc * x + p
        return acc * math.exp(self.rate * x - self.rate)

    def derivatives_at(self, x0: float, k: int):
        """[G(x0), G'(x0), ..., G^(k)(x0)]: the Leibniz product of the head's
        derivatives with rate^j exp(rate x0 - rate)."""
        base = math.exp(self.rate * x0 - self.rate)
        # Shortcuts to the general sum's floats: per-point tables evaluate the
        # head (1,) at every grid point, log-derivatives a head of rate 0.
        if self.probs == (1.0,):
            return [self.rate**j * base for j in range(k + 1)]
        # F^(i)(x0) = sum_{n>=i} f_n * n!/(n-i)! * x0^(n-i)
        head = [math.fsum(self.probs[n] * math.perm(n, i) * x0 ** (n - i)
                          for n in range(i, len(self.probs))) for i in range(k + 1)]
        if not self.rate:
            return head
        return [math.fsum(math.comb(j, i) * head[i] * self.rate ** (j - i) * base
                          for i in range(j + 1))
                for j in range(k + 1)]

    def log_derivative_at(self, x0: float, i: int) -> float:
        """i-th derivative of log G at x0 (i >= 1), via jet log of the derivative sequence."""
        if i < 1:
            raise ValueError(f"log-derivative order must be >= 1, got {i}")
        return self.log_derivatives_at(x0, i)[i]

    def log_derivatives_at(self, x0: float, k: int):
        """[log G(x0), (log G)'(x0), ..., (log G)^(k)(x0)] in one pass: the
        jet log of the head plus (rate x0 - rate, rate, 0, ...)."""
        head = CardinalityPgf(self.probs).derivatives_at(x0, k)
        if head[0] < SINGULAR_FLOOR:
            raise SingularEvaluationError(
                f"p.g.f. value {head[0]!r} at {x0!r} is too small for log-derivatives"
            )
        factor = [self.rate * x0 - self.rate, self.rate] + [0.0] * k
        return [a + b for a, b in zip(Jet(tuple(head)).log().coeffs, factor)]
