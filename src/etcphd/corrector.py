"""Extended-target CPHD corrector on a finite grid.

One corrector step assembles a shared coefficient table and produces the
posterior intensity plus the posterior cardinality distribution by two
routes.  The table is built from four layers:

  phi        prior-expected missed-detection mass p[1 - p_D + p_D G_Z(0)]
  eta[V]     detected-cell mass p[p_D G_Z^(|V|)(0) prod ratios] per label set
  beta[W]    zeta_FA^(|W|)(0) + sum over sub-partitions Q of W of
             zeta_prior^(|Q|)(phi) * (product of eta over the cells of Q)
  omega[P]   normalized products of beta over the cells of each partition

Every partition sum except omega's runs through `partitions.partition_sums`
in a ring of its own: cell-counting polynomials for the sub-partition sums in
beta, floats for kappa and the intensity coefficients, derivative series for
the series route, plain sequences for the closed form.  Omega, which result
files carry in full, is enumerated; so are the reference functions below.

The intensity update follows the summary formula with the correction
constant kappa; the cardinality comes from differentiating the posterior
p.g.f. at zero.  The authoritative route builds the truncated derivative
series of the p.g.f. numerator directly (series products need no lemma);
the closed-form route implements the published expression verbatim and is
reported alongside with its deviation, because its cell-derivative step
drops chain-rule terms for non-poisson priors.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateUpdateError,
    DivisionSingularityError,
    NumericalOverflowError,
    SizeLimitError,
    ValidationError,
)
from .partitions import Cell, Partition, partition_sums, partitions_of, subpartitions_of
from .pgf import (
    DEFAULT_MAX_ORDER,
    MAX_SUPPORT,
    CardinalityPgf,
    Jet,
    poisson_truncation_order,
)
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
NORMALIZATION_KEYS = ("omega_sum", "cardinality_sum", "posterior_mass",
                      "posterior_mean_from_cardinality")


def normalization_record(diagnostics: Mapping) -> dict:
    """The step diagnostics the normalization checks read: deterministic in
    the step's inputs (no wall time, no warnings)."""
    return {key: diagnostics[key] for key in NORMALIZATION_KEYS}


@dataclass(frozen=True)
class CorrectorOptions:
    """Knobs for one corrector step.

    Raising `max_measurements` above 8 multiplies the Bell-number cost and
    requires `acknowledge_cost=True`.  `cardinality_order` overrides the
    posterior cardinality truncation (mandatory knowledge for poisson
    priors, implied by the support for finite ones).
    """

    max_measurements: int = 8
    acknowledge_cost: bool = False
    cardinality_order: int | None = None
    max_derivative_order: int = DEFAULT_MAX_ORDER

    def effective_cap(self) -> int:
        if self.max_measurements > 8 and not self.acknowledge_cost:
            raise ValidationError(
                [
                    f"options.max_measurements={self.max_measurements} exceeds 8; "
                    f"set acknowledge_cost to accept the Bell-number growth"
                ]
            )
        return self.max_measurements


@dataclass
class CoefficientTable:
    """All scalar coefficients of one corrector step.

    `zeta_prior[i]` is the i-th log-derivative of the prior cardinality
    p.g.f. at phi, `zeta_clutter[i]` the i-th log-derivative of the clutter
    p.g.f. at zero; index 0 holds the log value itself in both.  Cell keys
    are ascending label tuples.
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
    """Posterior intensity, both cardinality routes, coefficients, diagnostics."""

    intensity: np.ndarray
    cardinality: np.ndarray
    cardinality_closed_form: np.ndarray
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
                     cache: dict | None = None, cap: int = 8) -> float:
    """beta_W for one cell, from eta and the two log-derivative tables."""
    labels = tuple(sorted(cell))
    terms = [zeta_clutter[len(labels)]]
    for sub in subpartitions_of(labels, cache=cache, cap=cap):
        terms.append(zeta_prior[len(sub)] * subpartition_product(sub, eta))
    return math.fsum(terms)


def partition_weights(ground, beta: Mapping[Cell, float], cap: int = 8) -> dict[Partition, float]:
    """omega_P over all partitions of `ground`, normalized to sum to 1.

    Individual weights may be negative (beta is signed for non-poisson
    priors); only the normalizer must stay away from zero.
    """
    parts = partitions_of(ground, cap=cap)
    products = [_beta_product(p, beta) for p in parts]
    denominator = math.fsum(products)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise DegenerateUpdateError(
            "sum of partition coefficient products is numerically zero; "
            "every partition of the measurement set is impossible under the model"
        )
    return {p: value / denominator for p, value in zip(parts, products)}


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
                                cache: dict | None = None,
                                cap: int = 8) -> float:
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
                for sub in subpartitions_of(cell, cache=cache, cap=cap)
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


def _jet_total(jets) -> Jet:
    return Jet(tuple(math.fsum(column) for column in zip(*(jet.coeffs for jet in jets))))


class _Workspace:
    """Everything one corrector step shares between its operations.

    Cells are label bitmasks 1..full; `cell_of[mask]` is the label tuple."""

    def __init__(self, prior_intensity: Intensity, prior_card: CardinalityPgf,
                 measurements: MeasurementSet, model: SensorModel,
                 options: CorrectorOptions):
        self.options = options
        cap = options.effective_cap()
        m = len(measurements)
        if m > cap:
            # Reuse the enumeration guard so the error names the Bell cost.
            partitions_of(range(m), cap=cap)
        self.measurements = measurements
        self.model = model
        self.prior_card = prior_card
        self.mass, self.density = normalize_intensity(prior_intensity)
        self.miss = missed_detection_profile(model)
        self.phi = bracket(self.density, self.miss)
        self.ratios = ratio_matrix(measurements, model)
        self.gz_der = model.meas_derivatives_at_zero(m)

        max_order = options.max_derivative_order
        zeta_prior = prior_card.log_derivatives_at(self.phi, m + 1, max_order=max_order)
        self.zeta_prior = tuple(zeta_prior)
        if m > 0:
            zeta_clutter = model.clutter_card.log_derivatives_at(0.0, m, max_order=max_order)
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
        beta = [1.0] * (full + 1)
        k_term = [self.zeta_prior[1]] * (full + 1)
        for mask in self.cells:
            sums, size = self.size_sums[mask], len(self.cell_of[mask])
            beta[mask] = self.beta[self.cell_of[mask]] = math.fsum(
                [self.zeta_clutter[size]]
                + [sums[q] * self.zeta_prior[q] for q in range(1, size + 1)]
            )
            k_term[mask] = math.fsum(
                sums[q] * self.zeta_prior[q + 1] for q in range(1, size + 1)
            )

        self.partitions = partitions_of(range(m), cap=cap)
        products = [_beta_product(p, self.beta) for p in self.partitions]
        self.normalizer = math.fsum(products)
        if abs(self.normalizer) < DENOMINATOR_FLOOR:
            raise DegenerateUpdateError(
                "sum of partition coefficient products is numerically zero; "
                "every partition of the measurement set is impossible under the model"
            )
        self.omega = {p: v / self.normalizer for p, v in zip(self.partitions, products)}

        # Over the partitions that contain cell W the other cells' beta
        # products sum to rest[full ^ W].  Detected sub-cell V of W then takes
        # k_term[W - V]; the empty V collects kappa.
        rest = partition_sums(beta, operator.mul, math.fsum, every_subset=True)
        terms = [[] for _ in range(full + 1)]
        for cell in self.cells:
            sub = cell
            while True:
                terms[sub].append(rest[full ^ cell] * k_term[cell ^ sub])
                if not sub:
                    break
                sub = (sub - 1) & cell
        self.intensity_coeff = [math.fsum(t) / self.normalizer for t in terms]
        self.kappa = self.intensity_coeff[0]

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
        base = (self.zeta_prior[1] + self.kappa) * self.miss * p
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

    def posterior_order(self) -> int:
        options = self.options
        if options.cardinality_order is not None:
            n_max = options.cardinality_order
        elif self.prior_card.kind == "finite":
            n_max = self.prior_card.support_max
        else:
            n_max = poisson_truncation_order(self.prior_card.rate, len(self.measurements))
        if n_max > MAX_SUPPORT:
            raise SizeLimitError(
                f"posterior cardinality order {n_max} exceeds the support maximum {MAX_SUPPORT}"
            )
        return int(n_max)

    def _zeta_prior_at_zero(self, order: int):
        return self.prior_card.log_derivatives_at(
            0.0, order, max_order=self.options.max_derivative_order
        )

    def cardinality_series(self) -> np.ndarray:
        """Authoritative route: derivative series of the posterior p.g.f. at 0.

        The numerator is G_prior(x*phi) times the partition-sum polynomial
        whose cells contribute zeta_clutter constants plus monomials times
        log-derivative series of the prior composed with x*phi; the linear
        inner map makes every composed derivative an explicit power of phi.
        """
        m = len(self.measurements)
        order = self.posterior_order()
        # Log-derivatives at the origin only enter through measurement cells.
        zeta0 = self._zeta_prior_at_zero(m + order) if m > 0 else None
        phi_powers = [self.phi**j for j in range(order + 1)]

        prior_der0 = self.prior_card.derivatives_at(
            0.0, order, max_order=self.options.max_derivative_order
        )
        outer = Jet(tuple(phi_powers[j] * prior_der0[j] for j in range(order + 1)))

        monomial_series = {}
        for q in range(1, m + 1):
            zeta_jet = Jet(tuple(phi_powers[j] * zeta0[q + j] for j in range(order + 1)))
            monomial_series[q] = Jet.monomial(q, order) * zeta_jet

        cell_jets = [Jet.constant(1.0, order)] + [None] * self.full
        for mask in self.cells:
            sums, size = self.size_sums[mask], len(self.cell_of[mask])
            jet = Jet.constant(self.zeta_clutter[size], order)
            for q in range(1, size + 1):
                if sums[q] != 0.0:
                    jet = jet + monomial_series[q].scale(sums[q])
            cell_jets[mask] = jet

        summed = partition_sums(cell_jets, operator.mul, _jet_total)[self.full]
        scale = 1.0 / (self.prior_card.eval(self.phi) * self.normalizer)
        posterior = (outer * summed).scale(scale)
        probs = np.array(
            [posterior.coeffs[n] / math.factorial(n) for n in range(order + 1)]
        )
        return probs

    # -- cardinality, closed-form route -------------------------------------

    def cardinality_closed_form(self) -> np.ndarray:
        """Published closed form, implemented verbatim as the comparison route.

        Per cell the derivative factor keeps only sub-partitions whose cell
        count equals the derivative order (the chain-rule remainder is
        dropped, which is exact for poisson priors); cells combine by plain
        convolution over derivative orders, partitions by summation.
        """
        m = len(self.measurements)
        order = self.posterior_order()
        zeta0 = self._zeta_prior_at_zero(m) if m > 0 else None

        sequences = [_poly(m, 1.0)] + [None] * self.full
        for mask in self.cells:
            sums, size = self.size_sums[mask], len(self.cell_of[mask])
            sequences[mask] = _poly(
                m, self.zeta_clutter[size], *(sums[q] * zeta0[q] for q in range(1, size + 1)))
        inner = partition_sums(sequences, _poly_mul, _poly_total)[self.full].tolist()
        scale = 1.0 / (self.prior_card.eval(self.phi) * self.normalizer)
        probs = np.zeros(order + 1)
        for n in range(order + 1):
            probs[n] = scale * math.fsum(
                self.phi ** (n - i) * self.prior_card.prob(n - i) * inner[i]
                for i in range(0, min(n, m) + 1)
            )
        return probs


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
    return ws.cardinality_series()


def posterior_cardinality_closed_form(prior_intensity: Intensity, prior_card: CardinalityPgf,
                                    measurements: MeasurementSet, model: SensorModel,
                                    options: CorrectorOptions = CorrectorOptions()) -> np.ndarray:
    """Posterior cardinality by the published closed form (comparison route)."""
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    return ws.cardinality_closed_form()


def corrector_step(prior_intensity: Intensity, prior_card: CardinalityPgf,
                   measurements: MeasurementSet, model: SensorModel,
                   options: CorrectorOptions = CorrectorOptions()) -> CorrectorResult:
    """One full corrector step: coefficients, intensity, both cardinality routes."""
    start = time.perf_counter()
    ws = _Workspace(prior_intensity, prior_card, measurements, model, options)
    intensity, clipped, warnings = ws.intensity_update()
    cardinality = ws.cardinality_series()
    closed_form = ws.cardinality_closed_form()
    elapsed = time.perf_counter() - start

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
        "route_max_deviation": float(np.max(np.abs(cardinality - closed_form)))
        if cardinality.size
        else 0.0,
        "partition_count": len(ws.partitions),
        "negative_intensity_clipped": clipped,
        "warnings": warnings,
        "wall_time_s": elapsed,
    }
    return CorrectorResult(
        intensity=intensity,
        cardinality=cardinality,
        cardinality_closed_form=closed_form,
        coefficients=ws.table,
        diagnostics=diagnostics,
    )
