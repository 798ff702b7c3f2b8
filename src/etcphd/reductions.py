"""Independent reference filters the corrector must reduce to.

Two limit cases have published filters of their own: the extended-target
PHD corrector (poisson clutter, poisson per-target measurement counts,
poisson prior) and the classic CPHD corrector for standard targets (exactly
one measurement per detected target).  Both are implemented here from their
own conventional forms, sharing only grid/p.g.f. primitives with the main
corrector and never its coefficient table, so agreement between the two
paths is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUpdateError, ModelMismatchError
from .partitions import Cell, Partition, partitions_of, subpartitions_of
from .pgf import CardinalityPgf
from .statespace import (
    Intensity,
    MeasurementSet,
    SensorModel,
    bracket,
    normalize_intensity,
    ratio_matrix,
)


@dataclass
class EtphdResult:
    """ET-PHD posterior intensity with its own cell/partition coefficients."""

    intensity: np.ndarray
    d: dict[Cell, float]
    omega: dict[Partition, float]


def _require_poisson(model: SensorModel, prior_card: CardinalityPgf | None = None):
    if model.clutter_card.probs != (1.0,):
        raise ModelMismatchError("ET-PHD reference requires poisson clutter cardinality")
    if any(card.probs != (1.0,) for card in model.meas_card):
        raise ModelMismatchError("ET-PHD reference requires poisson measurement counts")
    if prior_card is not None and prior_card.probs != (1.0,):
        raise ModelMismatchError("ET-PHD reference requires a poisson prior cardinality")


def etphd_update(prior_intensity: Intensity, measurements: MeasurementSet,
                 model: SensorModel) -> EtphdResult:
    """Extended-target PHD corrector in its published form.

    Cell coefficients are d_W = delta_{|W|,1} + D[p_D gamma^|W| e^-gamma
    prod p_z/(lambda p_FA)], partition weights are normalized products of
    d_W, and the intensity is the missed-detection term plus the weighted
    detected-cell terms.  The prior cardinality is implicitly poisson with
    the intensity mass as its mean.
    """
    _require_poisson(model)
    m = len(measurements)
    rate = model.clutter_card.rate
    if m > 0 and rate <= 0.0:
        raise ModelMismatchError("ET-PHD reference requires a positive clutter rate "
                                 "when measurements are present")
    grid = model.grid
    intensity = prior_intensity.values
    gamma = np.array([card.rate for card in model.meas_card])
    p_d = model.detection_prob
    no_meas = np.exp(-gamma)

    ratios = ratio_matrix(measurements, model)
    if m > 0:
        ratios = ratios / rate

    labels = tuple(range(m))
    cells: list[Cell] = []
    profiles: dict[Cell, np.ndarray] = {}
    d: dict[Cell, float] = {}
    for size in range(1, m + 1):
        for cell in itertools.combinations(labels, size):
            cells.append(cell)
            prod = np.ones(grid.size)
            for z in cell:
                prod = prod * ratios[z]
            profile = p_d * gamma**size * no_meas * prod
            profiles[cell] = profile
            mass = float(math.fsum(intensity * profile * grid.weights))
            d[cell] = (1.0 if size == 1 else 0.0) + mass

    parts = partitions_of(labels)
    products = []
    for partition in parts:
        value = 1.0
        for cell in partition:
            value *= d[cell]
        products.append(value)
    denominator = math.fsum(products)
    if abs(denominator) < 1e-300:
        raise DegenerateUpdateError("every partition weight vanished in the ET-PHD update")
    omega = {p: v / denominator for p, v in zip(parts, products)}

    coeff: dict[Cell, float] = {cell: 0.0 for cell in cells}
    for partition, weight in omega.items():
        if weight == 0.0:
            continue
        for cell in partition:
            coeff[cell] += weight / d[cell]

    detected = np.zeros(grid.size)
    for cell in cells:
        if coeff[cell] != 0.0:
            detected = detected + coeff[cell] * profiles[cell]
    posterior = (1.0 - p_d + p_d * no_meas) * intensity + detected * intensity
    return EtphdResult(intensity=posterior, d=d, omega=omega)


@dataclass
class StdCphdResult:
    intensity: np.ndarray
    cardinality: np.ndarray


def _is_standard_target(card: CardinalityPgf) -> bool:
    if card.rate != 0.0 or len(card.probs) < 2:
        return False
    return card.probs[1] == 1.0 and all(
        p == 0.0 for i, p in enumerate(card.probs) if i != 1
    )


def _elementary_symmetric(values) -> np.ndarray:
    poly = np.array([1.0])
    for value in values:
        poly = np.convolve(poly, np.array([1.0, value]))
    return poly


def std_cphd_update(prior_intensity: Intensity, prior_card: CardinalityPgf,
                    measurements: MeasurementSet, model: SensorModel) -> StdCphdResult:
    """Classic CPHD corrector for standard targets, elementary-symmetric form.

    Requires every per-point measurement count to put all mass on one
    measurement.  Clutter may follow any cardinality distribution with a
    positive density at each observed value.
    """
    if not all(_is_standard_target(card) for card in model.meas_card):
        raise ModelMismatchError(
            "standard-target CPHD requires exactly one measurement per detection"
        )
    m = len(measurements)
    _, density = normalize_intensity(prior_intensity)
    p = density.values
    grid = model.grid
    p_d = model.detection_prob
    phi = bracket(density, 1.0 - p_d)

    ratios = ratio_matrix(measurements, model)
    lam = [bracket(density, p_d * ratios[z]) for z in range(m)]
    esf_full = _elementary_symmetric(lam)

    n_top = prior_card.truncation_order() + (m if prior_card.rate else 0)
    prior_probs = np.array(prior_card.vector(n_top))

    def likelihood_row(n: int, shift: int, esf: np.ndarray, n_meas: int) -> float:
        terms = []
        for j in range(min(n_meas, n - shift) + 1):
            clutter = model.clutter_card.prob(n_meas - j)
            if clutter == 0.0:
                continue
            falling = 1.0
            for k in range(n, n - j - shift, -1):
                falling *= k
            terms.append(
                math.factorial(n_meas - j) * clutter * falling
                * phi ** (n - j - shift) * float(esf[j])
            )
        return math.fsum(terms)

    l0 = np.array([likelihood_row(n, 0, esf_full, m) for n in range(n_top + 1)])
    l1 = np.array([likelihood_row(n, 1, esf_full, m) for n in range(n_top + 1)])
    denominator = float(np.dot(prior_probs, l0))
    if abs(denominator) < 1e-300:
        raise DegenerateUpdateError("standard CPHD normalizer vanished")

    cardinality = prior_probs * l0 / denominator

    missed_gain = float(np.dot(prior_probs, l1)) / denominator
    posterior = missed_gain * (1.0 - p_d) * p
    for z in range(m):
        reduced = [lam[i] for i in range(m) if i != z]
        esf_reduced = _elementary_symmetric(reduced)
        l1z = np.array(
            [likelihood_row(n, 1, esf_reduced, m - 1) for n in range(n_top + 1)]
        )
        gain = float(np.dot(prior_probs, l1z)) / denominator
        posterior = posterior + gain * p_d * ratios[z] * p
    return StdCphdResult(intensity=posterior, cardinality=cardinality)


def check_poisson_reduction(scenario, tolerance: float = 1e-12,
                            kappa_tolerance: float = 1e-14) -> dict:
    """Compare the corrector with the ET-PHD reference on a poisson scenario.

    Reports max intensity deviation, |kappa|, and the gap between partition
    weights computed from beta and from d, plus the step's normalization
    record; passes iff all stay within tolerance.
    """
    from .corrector import corrector_step, normalization_record

    _require_poisson(scenario.model, scenario.prior_card)
    result = corrector_step(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    reference = etphd_update(scenario.prior_intensity, scenario.measurements, scenario.model)
    intensity_dev = _max_relative_deviation(result.intensity, reference.intensity)
    omega_dev = 0.0
    for partition, weight in reference.omega.items():
        omega_dev = max(omega_dev, abs(weight - result.coefficients.omega[partition]))
    kappa = abs(result.coefficients.kappa)
    passed = intensity_dev <= tolerance and kappa <= kappa_tolerance and omega_dev <= tolerance
    return {
        "name": "poisson-reduction",
        "intensity_max_rel_deviation": intensity_dev,
        "kappa_abs": kappa,
        "omega_max_deviation": omega_dev,
        "tolerance": tolerance,
        "kappa_tolerance": kappa_tolerance,
        "pass": bool(passed),
        "normalization": normalization_record(result.diagnostics),
    }


def check_standard_reduction(scenario, tolerance: float = 1e-12) -> dict:
    """Compare the corrector with the standard-target CPHD reference.

    Also asserts the structural collapses: detected-cell masses vanish for
    cells of two or more measurements, and only all-singleton sub-partitions
    contribute.  The report carries the step's normalization record.
    """
    from .corrector import corrector_step, normalization_record, subpartition_product

    result = corrector_step(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    reference = std_cphd_update(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model,
    )
    intensity_dev = _max_relative_deviation(result.intensity, reference.intensity)
    length = max(result.cardinality.size, reference.cardinality.size)
    a = np.zeros(length)
    b = np.zeros(length)
    a[: result.cardinality.size] = result.cardinality
    b[: reference.cardinality.size] = reference.cardinality
    cardinality_dev = float(np.max(np.abs(a - b))) if length else 0.0

    eta_violation = 0.0
    for cell, value in result.coefficients.eta.items():
        if len(cell) >= 2:
            eta_violation = max(eta_violation, abs(value))
    eta = result.coefficients.eta
    alpha_violation = max((abs(subpartition_product(sub, eta))
                           for cell in eta for sub in subpartitions_of(cell)
                           if any(len(part) >= 2 for part in sub)), default=0.0)

    passed = (
        intensity_dev <= tolerance
        and cardinality_dev <= tolerance
        and eta_violation == 0.0
        and alpha_violation == 0.0
    )
    return {
        "name": "standard-reduction",
        "intensity_max_rel_deviation": intensity_dev,
        "cardinality_max_deviation": cardinality_dev,
        "eta_nonsingleton_max": eta_violation,
        "alpha_nonsingleton_max": alpha_violation,
        "tolerance": tolerance,
        "pass": bool(passed),
        "normalization": normalization_record(result.diagnostics),
    }


def _max_relative_deviation(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), 1e-300)
    mask = (np.abs(a) > 0.0) | (np.abs(b) > 0.0)
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(a - b)[mask] / scale[mask]))
