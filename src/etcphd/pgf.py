"""Cardinality probability generating functions and truncated derivative series.

Two p.g.f. families are supported: finite-support (a probability vector
p_0..p_N, so the p.g.f. is a polynomial) and Poisson, which is kept analytic
so that closed-form identities for its derivatives and log-derivatives hold
to machine precision.  `Jet`, a truncated sequence of raw derivative values,
multiplies two derivative sequences (a product of p.g.f.s) and takes logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularEvaluationError

MAX_SUPPORT = 31        # cardinality supports beyond n=31 are rejected
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
    """A cardinality distribution with evaluable derivatives and log-derivatives.

    kind 'finite': `probs` holds p_0..p_N (non-negative, summing to 1 within
    1e-12).  kind 'poisson': `rate` >= 0 and the p.g.f. exp(rate*x - rate)
    is evaluated analytically.
    """

    kind: str
    probs: tuple[float, ...] = ()
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
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"finite-support probabilities sum to {total!r}, not 1")
        return CardinalityPgf(kind="finite", probs=p)

    @staticmethod
    def poisson(rate: float) -> "CardinalityPgf":
        if rate < 0.0:
            raise ValueError(f"poisson rate must be non-negative, got {rate!r}")
        return CardinalityPgf(kind="poisson", rate=float(rate))

    @property
    def support_max(self) -> int | None:
        """Largest n with P(n) > 0 representable; None for poisson."""
        return None if self.kind == "poisson" else len(self.probs) - 1

    def truncation_order(self, shift: int = 0) -> int:
        """Highest order a series of this distribution keeps: the support of a
        finite one, whatever the shift; for poisson, where the tail mass drops
        below 1e-16, plus `shift` and a margin of two, within [4, MAX_SUPPORT]."""
        if self.kind == "finite":
            return self.support_max
        cumulative = 0.0
        for order in range(MAX_SUPPORT + 1):
            cumulative += self.prob(order)
            if 1.0 - cumulative < 1e-16:
                break
        return max(4, min(MAX_SUPPORT, order + shift + 2))

    def prob(self, n: int) -> float:
        if n < 0:
            return 0.0
        if self.kind == "poisson":
            if self.rate == 0.0:
                return 1.0 if n == 0 else 0.0
            return math.exp(n * math.log(self.rate) - self.rate - math.lgamma(n + 1))
        return self.probs[n] if n < len(self.probs) else 0.0

    def mean(self) -> float:
        if self.kind == "poisson":
            return self.rate
        return math.fsum(n * p for n, p in enumerate(self.probs))

    def eval(self, x: float) -> float:
        """p.g.f. value; x may lie outside [0, 1] (needed for moment checks)."""
        if self.kind == "poisson":
            return math.exp(self.rate * x - self.rate)
        # Horner in descending powers.
        acc = 0.0
        for p in reversed(self.probs):
            acc = acc * x + p
        return acc

    def derivatives_at(self, x0: float, k: int):
        """[G(x0), G'(x0), ..., G^(k)(x0)]; exact for finite support, closed form for poisson."""
        if self.kind == "poisson":
            base = self.eval(x0)
            return [self.rate**j * base for j in range(k + 1)]
        # G^(j)(x0) = sum_{n>=j} p_n * n!/(n-j)! * x0^(n-j)
        return [math.fsum(self.probs[n] * math.perm(n, j) * x0 ** (n - j)
                          for n in range(j, len(self.probs)))
                for j in range(k + 1)]

    def log_derivative_at(self, x0: float, i: int) -> float:
        """i-th derivative of log G at x0 (i >= 1), via jet log of the derivative sequence.

        Poisson is analytic: the first log-derivative is the rate, all higher
        ones vanish, independent of x0.
        """
        if i < 1:
            raise ValueError(f"log-derivative order must be >= 1, got {i}")
        return self.log_derivatives_at(x0, i)[i]

    def log_derivatives_at(self, x0: float, k: int):
        """[log G(x0), (log G)'(x0), ..., (log G)^(k)(x0)] in one pass."""
        if self.kind == "poisson":
            head = [self.rate * x0 - self.rate, self.rate]
            return head[: k + 1] + [0.0] * max(0, k - 1)
        value = self.eval(x0)
        if value < SINGULAR_FLOOR:
            raise SingularEvaluationError(
                f"p.g.f. value {value!r} at {x0!r} is too small for log-derivatives"
            )
        return list(Jet(tuple(self.derivatives_at(x0, k))).log().coeffs)
