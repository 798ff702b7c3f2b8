"""Scenario files, validation, and result serialization.

A scenario is a single JSON document carrying the grid, the prior, the
sensor model, optional per-step measurement sets, and optional simulation
parameters.  Validation collects every violation with its field path rather
than stopping at the first.  Serialized numbers round-trip exactly (the
shortest-repr float encoding is lossless), and result files never contain
wall-clock timings, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corrector import CorrectorOptions, CorrectorResult
from .errors import ValidationError
from .pgf import CardinalityPgf
from .statespace import (
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    StateGrid,
)


@dataclass
class BirthSpec:
    intensity: np.ndarray
    cardinality: CardinalityPgf


@dataclass
class SimulationSpec:
    """Ground truth and dynamics for multi-step runs."""

    truth: list[tuple[int, ...]]
    survival: float = 1.0
    birth: BirthSpec | None = None


@dataclass
class Scenario:
    """A validated scenario ready to drive the corrector."""

    grid: StateGrid
    prior_intensity: Intensity
    prior_card: CardinalityPgf
    model: SensorModel
    steps: list[MeasurementSet] = field(default_factory=list)
    simulation: SimulationSpec | None = None
    options: CorrectorOptions = field(default_factory=CorrectorOptions)
    name: str = ""

    @property
    def measurements(self) -> MeasurementSet:
        """The first step's measurement set (single-step scenarios)."""
        return self.steps[0] if self.steps else MeasurementSet.of(())


def _as_floats(raw, path, errors, length=None, low=None, high=None):
    if not isinstance(raw, list) or not all(isinstance(v, (int, float)) for v in raw):
        errors.append(f"{path}: expected a list of numbers")
        return None
    values = [float(v) for v in raw]
    if length is not None and len(values) != length:
        errors.append(f"{path}: expected length {length}, got {len(values)}")
        return None
    for i, v in enumerate(values):
        if low is not None and v < low:
            errors.append(f"{path}[{i}]: value {v!r} below {low}")
        if high is not None and v > high:
            errors.append(f"{path}[{i}]: value {v!r} above {high}")
    return values


def _normalized(values, path, errors, tolerance=1e-9):
    total = math.fsum(values)
    if not math.isfinite(total) or abs(total - 1.0) > tolerance:
        errors.append(f"{path}: entries sum to {total!r}, expected 1 within {tolerance}")
        return None
    return [v / total for v in values]


def _cardinality_from(raw, path, errors) -> CardinalityPgf | None:
    if isinstance(raw, dict) and "poisson" in raw:
        rate = raw["poisson"]
        if not isinstance(rate, (int, float)) or rate < 0:
            errors.append(f"{path}.poisson: rate must be a non-negative number")
            return None
        return CardinalityPgf.poisson(float(rate))
    values = _as_floats(raw, path, errors, low=0.0)
    if values is None:
        return None
    normalized = _normalized(values, path, errors)
    if normalized is None:
        return None
    return CardinalityPgf.finite(normalized)


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    """Build a Scenario from a parsed JSON document, or raise ValidationError
    listing every violation by field path."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationError(["document root must be an object"])

    grid_doc = doc.get("grid")
    weights = None
    if not isinstance(grid_doc, dict):
        errors.append("grid: missing or not an object")
    else:
        weights = _as_floats(grid_doc.get("weights"), "grid.weights", errors)
        if weights is not None and any(w <= 0 for w in weights):
            errors.append("grid.weights: all quadrature weights must be positive")
            weights = None
    n_points = len(weights) if weights else 0

    prior_doc = doc.get("prior")
    intensity_values = None
    prior_card = None
    if not isinstance(prior_doc, dict):
        errors.append("prior: missing or not an object")
    else:
        intensity_values = _as_floats(
            prior_doc.get("intensity"), "prior.intensity", errors,
            length=n_points or None, low=0.0,
        )
        prior_card = _cardinality_from(prior_doc.get("cardinality"), "prior.cardinality", errors)

    sensor_doc = doc.get("sensor")
    p_d = clutter_card = clutter_density = likelihood = meas_cards = None
    n_values = 0
    if not isinstance(sensor_doc, dict):
        errors.append("sensor: missing or not an object")
    else:
        p_d = _as_floats(sensor_doc.get("p_d"), "sensor.p_d", errors,
                         length=n_points or None, low=0.0, high=1.0)
        clutter_doc = sensor_doc.get("clutter")
        if not isinstance(clutter_doc, dict):
            errors.append("sensor.clutter: missing or not an object")
        else:
            clutter_card = _cardinality_from(
                clutter_doc.get("cardinality"), "sensor.clutter.cardinality", errors
            )
            density = _as_floats(clutter_doc.get("density"), "sensor.clutter.density",
                                 errors, low=0.0)
            if density is not None:
                clutter_density = _normalized(density, "sensor.clutter.density", errors)
                n_values = len(density)

        raw_like = sensor_doc.get("likelihood")
        if not isinstance(raw_like, list) or (n_points and len(raw_like) != n_points):
            errors.append("sensor.likelihood: expected one row per grid point")
        else:
            rows = []
            for i, row in enumerate(raw_like):
                values = _as_floats(row, f"sensor.likelihood[{i}]", errors,
                                    length=n_values or None, low=0.0)
                if values is not None:
                    values = _normalized(values, f"sensor.likelihood[{i}]", errors)
                rows.append(values)
            if all(r is not None for r in rows):
                likelihood = rows

        card_doc = sensor_doc.get("target_cardinality")
        if isinstance(card_doc, dict) and "poisson" in card_doc:
            gammas = _as_floats(card_doc["poisson"], "sensor.target_cardinality.poisson",
                                errors, length=n_points or None, low=0.0)
            if gammas is not None:
                meas_cards = [CardinalityPgf.poisson(g) for g in gammas]
        elif isinstance(card_doc, list):
            cards = []
            for i, row in enumerate(card_doc):
                card = _cardinality_from(row, f"sensor.target_cardinality[{i}]", errors)
                cards.append(card)
            if (not n_points or len(cards) == n_points) and all(c is not None for c in cards):
                meas_cards = cards
            elif n_points and len(cards) != n_points:
                errors.append("sensor.target_cardinality: expected one entry per grid point")
        else:
            errors.append("sensor.target_cardinality: expected a list or a poisson object")

    steps_doc = doc.get("measurements", [])
    steps: list[MeasurementSet] = []
    if not isinstance(steps_doc, list):
        errors.append("measurements: expected a list of per-step value lists")
    else:
        for i, step in enumerate(steps_doc):
            if not isinstance(step, list) or not all(isinstance(z, int) for z in step):
                errors.append(f"measurements[{i}]: expected a list of measurement value indices")
                continue
            if n_values and any(z < 0 or z >= n_values for z in step):
                errors.append(f"measurements[{i}]: value index outside the measurement space")
                continue
            steps.append(MeasurementSet.of(step))

    simulation = None
    sim_doc = doc.get("simulation")
    if sim_doc is not None:
        if not isinstance(sim_doc, dict):
            errors.append("simulation: expected an object")
        else:
            truth_doc = sim_doc.get("truth", [])
            truth = []
            if not isinstance(truth_doc, list):
                errors.append("simulation.truth: expected a list of per-step point lists")
            else:
                for i, step in enumerate(truth_doc):
                    if not isinstance(step, list) or not all(isinstance(x, int) for x in step):
                        errors.append(f"simulation.truth[{i}]: expected a list of point indices")
                    elif n_points and any(x < 0 or x >= n_points for x in step):
                        errors.append(f"simulation.truth[{i}]: point index outside the grid")
                    else:
                        truth.append(tuple(step))
            survival = sim_doc.get("survival", 1.0)
            if not isinstance(survival, (int, float)) or not 0.0 <= survival <= 1.0:
                errors.append("simulation.survival: expected a number in [0, 1]")
                survival = 1.0
            birth = None
            birth_doc = sim_doc.get("birth")
            if birth_doc is not None:
                if not isinstance(birth_doc, dict):
                    errors.append("simulation.birth: expected an object")
                else:
                    b_int = _as_floats(birth_doc.get("intensity"), "simulation.birth.intensity",
                                       errors, length=n_points or None, low=0.0)
                    b_card = _cardinality_from(birth_doc.get("cardinality"),
                                               "simulation.birth.cardinality", errors)
                    if b_int is not None and b_card is not None:
                        birth = BirthSpec(intensity=np.array(b_int), cardinality=b_card)
            simulation = SimulationSpec(truth=truth, survival=float(survival), birth=birth)

    options_doc = doc.get("options", {})
    options = CorrectorOptions()
    if not isinstance(options_doc, dict):
        errors.append("options: expected an object")
    else:
        known = {
            "max_z": ("max_measurements", int),
            "acknowledge_cost": ("acknowledge_cost", bool),
            "n_max": ("cardinality_order", int),
            "max_derivative_order": ("max_derivative_order", int),
        }
        kwargs = {}
        for key, value in options_doc.items():
            if key not in known:
                errors.append(f"options.{key}: unknown option")
                continue
            attr, kind = known[key]
            if value is not None and not isinstance(value, kind):
                errors.append(f"options.{key}: expected {kind.__name__}")
            elif value is not None:
                kwargs[attr] = value
        options = CorrectorOptions(**kwargs)
        try:
            options.effective_cap()
        except ValidationError as exc:
            errors.extend(exc.violations)

    if errors:
        raise ValidationError(errors)

    grid = StateGrid.create(weights)
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    model = SensorModel.create(
        grid=grid,
        detection_prob=p_d,
        clutter_card=clutter_card,
        meas_card=meas_cards,
        kernel=kernel,
    )
    return Scenario(
        grid=grid,
        prior_intensity=Intensity.create(grid, intensity_values),
        prior_card=prior_card,
        model=model,
        steps=steps,
        simulation=simulation,
        options=options,
        name=name,
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; errors carry line or field context."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    return scenario_from_dict(doc, name=str(path))


# -- result serialization ----------------------------------------------------


@dataclass
class StepResult:
    """One corrector step plus bookkeeping; wall time stays out of files."""

    step_index: int
    measurement_count: int
    partition_count: int
    result: CorrectorResult
    wall_time_s: float = 0.0


def _cell_key(cell) -> str:
    return ",".join(str(z) for z in cell)


def step_result_to_dict(step: StepResult) -> dict:
    coeff = step.result.coefficients
    diagnostics = {
        k: v for k, v in step.result.diagnostics.items() if k != "wall_time_s"
    }
    return {
        "step_index": step.step_index,
        "measurement_count": step.measurement_count,
        "partition_count": step.partition_count,
        "posterior": {
            "intensity": list(map(float, step.result.intensity)),
            "cardinality": list(map(float, step.result.cardinality)),
            "cardinality_closed_form": list(map(float, step.result.cardinality_closed_form)),
        },
        "coefficients": {
            "phi": coeff.phi,
            "kappa": coeff.kappa,
            "normalizer": coeff.normalizer,
            "zeta_prior_at_phi": list(coeff.zeta_prior),
            "zeta_clutter_at_zero": list(coeff.zeta_clutter),
            "eta": {_cell_key(c): v for c, v in coeff.eta.items()},
            "beta": {_cell_key(c): v for c, v in coeff.beta.items()},
            "omega": [
                {"cells": [list(c) for c in p.cells], "weight": w}
                for p, w in coeff.omega.items()
            ],
        },
        "diagnostics": diagnostics,
    }


def step_result_from_dict(doc: dict) -> StepResult:
    from .corrector import CoefficientTable
    from .partitions import Partition

    coeff_doc = doc["coefficients"]

    def _parse_cell(key: str):
        return tuple(int(v) for v in key.split(",")) if key else ()

    omega = {}
    for entry in coeff_doc["omega"]:
        partition = Partition(tuple(tuple(int(z) for z in cell) for cell in entry["cells"]))
        omega[partition] = float(entry["weight"])
    table = CoefficientTable(
        phi=float(coeff_doc["phi"]),
        zeta_prior=tuple(coeff_doc["zeta_prior_at_phi"]),
        zeta_clutter=tuple(coeff_doc["zeta_clutter_at_zero"]),
        eta={_parse_cell(k): float(v) for k, v in coeff_doc["eta"].items()},
        beta={_parse_cell(k): float(v) for k, v in coeff_doc["beta"].items()},
        omega=omega,
        kappa=float(coeff_doc["kappa"]),
        normalizer=float(coeff_doc["normalizer"]),
    )
    posterior = doc["posterior"]
    result = CorrectorResult(
        intensity=np.array(posterior["intensity"], dtype=float),
        cardinality=np.array(posterior["cardinality"], dtype=float),
        cardinality_closed_form=np.array(posterior["cardinality_closed_form"], dtype=float),
        coefficients=table,
        diagnostics=dict(doc["diagnostics"]),
    )
    return StepResult(
        step_index=int(doc["step_index"]),
        measurement_count=int(doc["measurement_count"]),
        partition_count=int(doc["partition_count"]),
        result=result,
    )


def dump_json(payload, path=None) -> str:
    """Serialize deterministically; floats use shortest round-trip repr."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    return text
