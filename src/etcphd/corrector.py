"""Extended-target CPHD corrector on a finite grid.

One corrector step assembles a shared coefficient table and produces the
posterior intensity plus the posterior cardinality distribution by two
routes.  The table is built from four layers:

  phi        prior-expected missed-detection mass p[1 - p_D + p_D G_Z(0)]
  eta[V]     detected-cell mass p[p_D G_Z^(|V|)(0) prod ratios] per label set
  beta[W]    zeta_FA^(|W|)(0) + sum over sub-partitions Q of W of
             zeta_prior^(|Q|)(phi) * (product of eta over the cells of Q)
  omega[P]   normalized products of beta over the cells of each partition

One subset kernel, `partitions.partition_sums` on cell-counting
polynomials, gives size_sums[S][j], the sum of the eta products over the
partitions of S into j cells; the rest is read off them.  Omega, which
result files carry in full, is enumerated, as are the reference functions.

Every output a caller consumes comes from sums of non-negative terms (the
Faa di Bruno form of the standard CPHD), with raw clutter derivatives
c_k = C^(k)(0) and raw prior derivatives g_j = G^(j)(phi):
upsilon_j(T) = sum over subsets S of T of c_|S| size_sums[T - S][j], and
N = sum_j g_j upsilon_j(Z) is the posterior p.g.f. numerator at one.  A
detected set V weighs the intensity by sum_j g_(j+1) upsilon_j(Z - V) / N
(the empty V is the missed detection), with no log-derivative taken.  The
posterior cardinality stays a finite head times a Poisson factor, like the
prior: P(n) is proportional to p_n sum_j n!/(n-j)! phi^(n-j) upsilon_j(Z)
for a finite prior, one Leibniz product of the derivative sequences of
sum_j upsilon_j x^j and exp(phi x), and a prior rate mu adds one per shift.
Beta, omega, kappa, the normalizer and the zeta tables are the paper's
quantities, reported; kappa is read off the same sums.  The closed-form
route, the published expression, is reported with its deviation: its cell
derivatives drop chain-rule terms for non-poisson priors.  By the
exponential formula it too is read off upsilon_j(Z), weighted by
j! p_j / p_0, so without prior mass at zero the step reports it as None.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateUpdateError,
    DivisionSingularityError,
    NumericalOverflowError,
    SingularEvaluationError,
    SizeLimitError,
)
from .partitions import (
    BELL_MAX,
    Cell,
    Partition,
    bell_number,
    partition_sums,
    partitions_of,
    subpartitions_of,
)
from .pgf import SINGULAR_FLOOR, CardinalityPgf, Jet
from .statespace import (
    Intensity,
    MeasurementSet,
    SensorModel,
    SpatialDensity,
    bracket,
    missed_detection_profile,
    normalize_intensity,
    ratio_matrix,
)

PRODUCT_OVERFLOW = 1e300
DENOMINATOR_FLOOR = 1e-300
# Normalization a posterior cardinality must meet, else the step warns.
CARDINALITY_SUM_TOL = 1e-10
FIRST_MOMENT_TOL = 1e-9
# Below this prior head P(0) the closed form, whose error grows as 1/P(0), warns.
CLOSED_FORM_MIN_P0 = 1e-2
NORMALIZATION_KEYS = ("omega_sum", "cardinality_sum", "posterior_mass",
                      "posterior_mean_from_cardinality")


def normalization_record(diagnostics: Mapping) -> dict:
    """The step diagnostics the normalization checks read: deterministic in
    the step's inputs (no wall time, no warnings)."""
    return {key: diagnostics[key] for key in NORMALIZATION_KEYS}


@dataclass(frozen=True)
class CorrectorOptions:
    """Knobs for one corrector step.

    A step on more than `max_measurements` measurements raises
    SizeLimitError before any work: omega enumerates all Bell(|Z|)
    partitions.  Raising the limit (scenario key `max_z`, flag `--max-z`)
    is itself the acceptance of that cost.
    """

    max_measurements: int = 8


@dataclass
class CoefficientTable:
    """All scalar coefficients of one corrector step.

    The intensity and the series cardinality use only phi and eta of these;
    beta, omega, kappa, the normalizer and the zeta tables are the paper's
    quantities, reported.  `zeta_prior[i]` is the i-th log-derivative of
    the prior cardinality p.g.f. at phi, `zeta_clutter[i]` the i-th
    log-derivative of the clutter p.g.f. at zero; index 0 holds the log
    value itself in both.  Cell keys are ascending label tuples.
    """

    phi: float
    zeta_prior: tuple[float, ...]
    zeta_clutter: tuple[float, ...]
    eta: dict[Cell, float]
    beta: dict[Cell, float]
    omega: dict[Partition, float]
    kappa: float
    normalizer: float


@dataclass
class CorrectorResult:
    """Posterior intensity, both cardinality routes (the closed form is None
    without prior mass at zero), coefficients, diagnostics."""

    intensity: np.ndarray
    cardinality: np.ndarray
    cardinality_closed_form: np.ndarray | None
    posterior_card: CardinalityPgf
    coefficients: CoefficientTable
    diagnostics: dict = field(default_factory=dict)


def detection_profile(cell, measurements: MeasurementSet, model: SensorModel,
                      ratios: np.ndarray | None = None,
                      gz_derivatives: np.ndarray | None = None) -> np.ndarray:
    """Per-point integrand p_D(x) G_Z^(|V|)(0|x) prod_{z in V} p_z(z|x)/p_FA(z)."""
    labels = tuple(sorted(cell))
    if ratios is None:
        ratios = ratio_matrix(measurements, model)
    if gz_derivatives is None:
        gz_derivatives = model.meas_derivatives_at_zero(len(labels))
    profile = model.detection_prob * gz_derivatives[len(labels)]
    for z in labels:
        profile = profile * ratios[z]
    return profile


def cell_detection_mass(cell, density: SpatialDensity, measurements: MeasurementSet,
                        model: SensorModel, **precomputed) -> float:
    """eta_V: the bracket of the detection profile of one non-empty label set."""
    if not tuple(cell):
        raise ValueError("cell_detection_mass requires a non-empty cell")
    return bracket(density, detection_profile(cell, measurements, model, **precomputed))


def subpartition_product(subpartition: Partition, eta: Mapping[Cell, float]) -> float:
    """Product of eta over the cells of a sub-partition."""
    product = 1.0
    for cell in subpartition:
        product *= eta[cell]
    return product


def cell_coefficient(cell, eta: Mapping[Cell, float], zeta_clutter, zeta_prior,
                     cache: dict | None = None) -> float:
    """beta_W for one cell, from eta and the two log-derivative tables."""
    labels = tuple(sorted(cell))
    terms = [zeta_clutter[len(labels)]]
    for sub in subpartitions_of(labels, cache=cache):
        terms.append(zeta_prior[len(sub)] * subpartition_product(sub, eta))
    return math.fsum(terms)


def partition_weights(ground, beta: Mapping[Cell, float]) -> dict[Partition, float]:
    """omega_P over all partitions of `ground`, normalized to sum to 1.

    Individual weights may be negative (beta is signed for non-poisson
    priors); only the normalizer must stay away from zero.
    """
    return _omega(ground, beta)[0]


def _omega(ground, beta: Mapping[Cell, float]) -> tuple[dict[Partition, float], float]:
    """omega over the partitions of `ground` and its normalizer, the sum of
    the beta products."""
    parts = partitions_of(ground)
    products = [_beta_product(p, beta) for p in parts]
    denominator = math.fsum(products)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise DegenerateUpdateError(
            "sum of partition coefficient products is numerically zero; "
            "every partition of the measurement set is impossible under the model"
        )
    return {p: value / denominator for p, value in zip(parts, products)}, denominator


def _beta_product(partition: Partition, beta: Mapping[Cell, float]) -> float:
    product = 1.0
    for cell in partition:
        product *= beta[cell]
        if abs(product) > PRODUCT_OVERFLOW:
            raise NumericalOverflowError(
                f"coefficient product exceeded 1e300 at cell {cell}"
            )
    return product


def missed_detection_correction(omega: Mapping[Partition, float],
                                beta: Mapping[Cell, float],
                                eta: Mapping[Cell, float],
                                zeta_prior,
                                cache: dict | None = None) -> float:
    """kappa: the triple partition sum weighting zeta_prior one order up."""
    terms = []
    for partition, weight in omega.items():
        if weight == 0.0:
            continue
        for cell in partition:
            b = beta[cell]
            if b == 0.0:
                raise DivisionSingularityError(
                    f"cell {cell} has zero coefficient but its partition carries weight"
                )
            inner = math.fsum(
                subpartition_product(sub, eta) * zeta_prior[len(sub) + 1]
                for sub in subpartitions_of(cell, cache=cache)
            )
            terms.append(weight / b * inner)
    return math.fsum(terms)


def _poly(m: int, *coeffs) -> np.ndarray:
    """Coefficients of a polynomial of degree at most m, lowest first."""
    poly = np.zeros(m + 1)
    poly[: len(coeffs)] = coeffs
    return poly


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Degrees inside a partition sum add up to at most |Z|: nothing is cut.
    return np.convolve(a, b)[: a.size]


def _poly_total(polys) -> np.ndarray:
    return np.array([math.fsum(column) for column in np.array(polys).T.tolist()])


class _Workspace:
    """Everything one corrector step shares between its operations.

    Cells are label bitmasks 1..full; `cell_of[mask]` is the label tuple."""

    def __init__(self, prior_intensity: Intensity, prior_card: CardinalityPgf,
                 measurements: MeasurementSet, model: SensorModel,
                 options: CorrectorOptions):
        self.options = options
        m = len(measurements)
        cap = options.max_measurements
        if m > cap:
            cost = f"Bell({m}) = {bell_number(m)}" if m <= BELL_MAX else f"Bell({m}) > 5e13"
            raise SizeLimitError(
                f"partitioning {m} labels enumerates {cost} partitions, above the cap of {cap}; "
                f"raise it with options.max_z or --max-z to accept the cost"
            )
        self.measurements = measurements
        self.model = model
        self.prior_card = prior_card
        self.mass, self.density = normalize_intensity(prior_intensity)
        # Highest order first: the miss profile then reads row 0 of the same
        # per-model table instead of building an order-0 one before it.
        self.gz_der = model.meas_derivatives_at_zero(m)
        self.miss = missed_detection_profile(model)
        self.phi = bracket(self.density, self.miss)
        self.ratios = ratio_matrix(measurements, model)

        zeta_prior = prior_card.log_derivatives_at(self.phi, m + 1)
        self.zeta_prior = tuple(zeta_prior)
        if m > 0:
            zeta_clutter = model.clutter_card.log_derivatives_at(0.0, m)
        else:
            zeta_clutter = [0.0]
        self.zeta_clutter = tuple(zeta_clutter)

        self.full = full = (1 << m) - 1
        self.cells = range(1, full + 1)
        self.cell_of = [tuple(z for z in range(m) if mask >> z & 1) for mask in range(full + 1)]
        self.psi = [None] * (full + 1)
        self.eta: dict[Cell, float] = {}
        # Weight eta[W] * t, with t counting cells: size_sums[W][q] sums the
        # eta products over the sub-partitions of W into q cells.
        marked = [_poly(m, 1.0)] + [None] * full
        for mask in self.cells:
            cell = self.cell_of[mask]
            self.psi[mask] = detection_profile(cell, measurements, model,
                                               ratios=self.ratios, gz_derivatives=self.gz_der)
            self.eta[cell] = bracket(self.density, self.psi[mask])
            marked[mask] = _poly(m, 0.0, self.eta[cell])
        self.size_sums = [p.tolist() for p in partition_sums(marked, _poly_mul, _poly_total, True)]

        self.beta: dict[Cell, float] = {}
        for mask in self.cells:
            sums, size = self.size_sums[mask], len(self.cell_of[mask])
            self.beta[self.cell_of[mask]] = math.fsum(
                [self.zeta_clutter[size]]
                + [sums[q] * self.zeta_prior[q] for q in range(1, size + 1)]
            )

        self.omega, self.normalizer = _omega(range(m), self.beta)

        # The clutter takes a subset S of Z and the targets partition the rest
        # into j cells: upsilon_j = sum_S c_|S| E_j(Z - S), N = sum_j g_j upsilon_j.
        clutter = model.clutter_card.derivatives_at(0.0, m)
        g = prior_card.derivatives_at(self.phi, m + 1)
        self.upsilon = _poly_total([clutter[m - len(self.cell_of[rest])]
                                    * np.array(self.size_sums[rest])
                                    for rest in range(full + 1)]).tolist()
        self.card_normalizer = math.fsum(gj * u for gj, u in zip(g, self.upsilon))
        if self.card_normalizer <= DENOMINATOR_FLOOR:
            raise DegenerateUpdateError(
                "posterior p.g.f. numerator vanishes at one; "
                "the measurement set is impossible under the model"
            )

        # Detected set V (bitmask; the empty one is the missed detection)
        # weighs sum_j g_(j+1) upsilon_j(Z - V) / N.  With h[U] = sum_j
        # g_(j+1) E_j(U), that is the sum of c_(|T| - |U|) h[U] over the
        # subsets U of T = Z - V: 3^|Z| non-negative terms in all.
        h = [math.fsum(gj * e for gj, e in zip(g[1:], sums)) for sums in self.size_sums]
        self.intensity_coeff = []
        for detected in range(full + 1):
            rest = full ^ detected
            size = len(self.cell_of[rest])
            terms = [clutter[size] * h[0]]
            sub = rest
            while sub:
                terms.append(clutter[size - len(self.cell_of[sub])] * h[sub])
                sub = (sub - 1) & rest
            self.intensity_coeff.append(math.fsum(terms) / self.card_normalizer)

        # kappa, reported: G' = zeta' G gives g_(j+1) = sum_i C(j, i)
        # zeta_prior[i + 1] g_(j-i); without its i = 0 term (zeta_prior[1] N
        # in all) the sum leaves kappa, exactly 0.0 when zeta_prior[2:] is.
        d = [math.fsum(math.comb(j, i) * self.zeta_prior[i + 1] * g[j - i] for i in range(1, j + 1))
             for j in range(m + 1)]
        self.kappa = math.fsum(dj * u for dj, u in zip(d, self.upsilon)) / self.card_normalizer

    @property
    def table(self) -> CoefficientTable:
        return CoefficientTable(
            phi=self.phi,
            zeta_prior=self.zeta_prior,
            zeta_clutter=self.zeta_clutter,
            eta=dict(self.eta),
            beta=dict(self.beta),
            omega=dict(self.omega),
            kappa=self.kappa,
            normalizer=self.normalizer,
        )

    # -- intensity ---------------------------------------------------------

    def intensity_update(self):
        p = self.density.values
        base = self.intensity_coeff[0] * self.miss * p
        detected = np.zeros_like(base)
        for mask in self.cells:
            coeff = self.intensity_coeff[mask]
            if coeff != 0.0:
                detected = detected + coeff * self.psi[mask]
        values = base + detected * p
        clipped = 0
        warnings = []
        tol = 1e-9 * max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
        negative = values < 0.0
        if np.any(negative):
            worst = float(values.min())
            if worst < -tol:
                bad = int(np.argmin(values))
                warnings.append(
                    f"posterior intensity negative beyond tolerance at grid point "
                    f"{self.model.grid.ids[bad]!r}: {worst!r}"
                )
            clipped = int(np.count_nonzero(negative))
            values = np.where(negative, 0.0, values)
        return values, clipped, warnings

    # -- cardinality, series route ----------------------------------------

    @cached_property
    def posterior_card(self) -> CardinalityPgf:
        """Authoritative route: the posterior cardinality, in the prior's family.

        With the prior G(y) = F(y) exp(mu (y - 1)), the p.g.f. numerator
        sum_j upsilon_j x^j G^(j)(x phi) is exp(mu (x phi - 1)) times a
        polynomial H whose x^(n+d) coefficient collects f_n mu^d/d! (W_d * E)_n,
        one Leibniz product of W_d = ((i+d)! upsilon_(i+d))_i with the
        derivatives E = (phi^i) of exp(phi x) at 0 per shift d (only d = 0
        at mu = 0).  Every term is non-negative.  With N = sum_j G^(j)(phi)
        upsilon_j, the numerator at x = 1, the posterior is the head
        exp(mu (phi - 1)) H / N times Poisson(mu phi): no tail is cut.
        """
        m = len(self.measurements)
        f, mu = self.prior_card.probs, self.prior_card.rate
        exponential = Jet(tuple(self.phi**i for i in range(len(f))))
        terms = [[] for _ in range(len(f) + (m if mu else 0))]
        for d in range(m + 1 if mu else 1):
            weights = Jet(tuple(math.factorial(i + d) * self.upsilon[i + d] if i + d <= m else 0.0
                                for i in range(len(f))))
            scale = mu**d / math.factorial(d)
            for n, value in enumerate((weights * exponential).coeffs):
                terms[n + d].append(f[n] * scale * value)
        factor = math.exp(mu * self.phi - mu)
        head = tuple(factor * math.fsum(t) / self.card_normalizer for t in terms)
        return CardinalityPgf(head, mu * self.phi)

    # -- cardinality, closed-form route -------------------------------------

    def cardinality_closed_form(self) -> tuple[np.ndarray, str | None]:
        """Published closed form, the comparison route, and its caveat.

        Each cell keeps only the sub-partitions whose cell count equals the
        derivative order (exact for poisson priors).  By the exponential
        formula the published partition sum then collapses onto upsilon:
        P(n) = sum_j phi^(n-j) p_(n-j) r_j upsilon_j / N, with
        r_j = j! p_j / p_0 = sum_k perm(j, k) f_k mu^(j-k) / f_0 from the head
        and the rate (no division by exp(-mu)).  The division by f_0 raises
        below SINGULAR_FLOOR and is flagged below CLOSED_FORM_MIN_P0.
        """
        m = len(self.measurements)
        f, mu = self.prior_card.probs, self.prior_card.rate
        caveat = None
        if m and f[0] < CLOSED_FORM_MIN_P0:
            if f[0] < SINGULAR_FLOOR:
                raise SingularEvaluationError(f"it divides by the prior head P(0) = {f[0]!r}")
            caveat = (f"closed-form cardinality ill-conditioned: prior head P(0) = "
                      f"{f[0]!r} is below {CLOSED_FORM_MIN_P0:g}")
        weights = [self.upsilon[0]] + [math.fsum(
            math.perm(j, k) * f[k] * mu ** (j - k) for k in range(min(j, len(f) - 1) + 1))
            / f[0] * self.upsilon[j] for j in range(1, m + 1)]
        prior = self.prior_card.vector(self.posterior_card.truncation_order())
        probs = np.array([math.fsum(self.phi ** (n - j) * prior[n - j] * weights[j]
                                    for j in range(min(n, m) + 1))
                          for n in range(len(prior))]) / self.card_normalizer
        return probs, caveat


def coefficient_table(prior_intensity: Intensity, prior_card: CardinalityPgf,
                      measurements: MeasurementSet, model: SensorModel,
                      options: CorrectorOptions = CorrectorOptions()) -> CoefficientTable:
    """Assemble phi, eta, beta, omega, kappa for one measurement set."""
    return _Workspace(prior_intensity, prior_card, measurements, model, options).table


def update_intensity(prior_intensity: Intensity, prior_card: CardinalityPgf,
                     measurements: MeasurementSet, model: SensorModel,
                     options: CorrectorOptions = CorrectorOptions()) -> np.ndarray:
    """Posterior intensity values per grid point (summary formula)."""
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    values, _, _ = ws.intensity_update()
    return values


def posterior_pgf_series(prior_intensity: Intensity, prior_card: CardinalityPgf,
                         measurements: MeasurementSet, model: SensorModel,
                         options: CorrectorOptions = CorrectorOptions()) -> np.ndarray:
    """Posterior cardinality by the authoritative series route."""
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    return np.array(ws.posterior_card.vector())


def posterior_cardinality_closed_form(prior_intensity: Intensity, prior_card: CardinalityPgf,
                                    measurements: MeasurementSet, model: SensorModel,
                                    options: CorrectorOptions = CorrectorOptions()) -> np.ndarray:
    """Posterior cardinality by the published closed form (comparison route)."""
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    return ws.cardinality_closed_form()[0]


def corrector_step(prior_intensity: Intensity, prior_card: CardinalityPgf,
                   measurements: MeasurementSet, model: SensorModel,
                   options: CorrectorOptions = CorrectorOptions()) -> CorrectorResult:
    """One full corrector step: coefficients, intensity, both cardinality routes."""
    start = time.perf_counter()
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    intensity, clipped, warnings = ws.intensity_update()
    cardinality = np.array(ws.posterior_card.vector())
    try:
        closed_form, caveat = ws.cardinality_closed_form()
    except SingularEvaluationError as exc:
        # Only the comparison route divides by P(0): report it, keep the step.
        closed_form, caveat = None, f"closed-form cardinality unavailable: {exc}"
    if caveat:
        warnings.append(caveat)
    elapsed = time.perf_counter() - start
    route_deviation = None if closed_form is None else float(
        np.max(np.abs(cardinality - closed_form), initial=0.0))

    grid = model.grid
    mass = float(np.dot(intensity, grid.weights))
    mean_from_card = float(np.dot(np.arange(cardinality.size), cardinality))
    card_sum = math.fsum(cardinality.tolist())
    if abs(card_sum - 1.0) > CARDINALITY_SUM_TOL:
        warnings.append(f"posterior cardinality sums to {card_sum!r}, "
                        f"not 1 within {CARDINALITY_SUM_TOL:g}")
    if abs(mass - mean_from_card) > FIRST_MOMENT_TOL:
        warnings.append(f"posterior cardinality mean {mean_from_card!r} differs from the "
                        f"intensity mass {mass!r} by more than {FIRST_MOMENT_TOL:g}")
    diagnostics = {
        "omega_sum": math.fsum(ws.omega.values()),
        "cardinality_sum": card_sum,
        "posterior_mass": mass,
        "posterior_mean_from_cardinality": mean_from_card,
        "route_max_deviation": route_deviation,
        "partition_count": len(ws.omega),
        "negative_intensity_clipped": clipped,
        "warnings": warnings,
        "wall_time_s": elapsed,
    }
    return CorrectorResult(
        intensity=intensity,
        cardinality=cardinality,
        cardinality_closed_form=closed_form,
        posterior_card=ws.posterior_card,
        coefficients=ws.table,
        diagnostics=diagnostics,
    )
