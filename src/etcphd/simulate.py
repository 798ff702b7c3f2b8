"""Deterministic sampling of iid-cluster processes and a minimal predictor.

Measurement generation draws a count from a cardinality distribution and
then that many iid values from a density, using a named, seeded generator
(PCG64) so runs are reproducible byte for byte.  The prediction step is
deliberately minimal plumbing for multi-step demos: survival thinning of
the intensity and cardinality plus an independent birth process.  The
single-step update path never invokes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrector import corrector_step
from .pgf import MAX_SUPPORT, CardinalityPgf
from .scenario import Scenario, StepResult
from .statespace import Intensity, MeasurementSet

RNG_NAME = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: PCG64 with an explicit 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def sample_count(rng: np.random.Generator, card: CardinalityPgf) -> int:
    """A head draw plus a Poisson draw, which consumes nothing at rate 0."""
    count = int(rng.choice(len(card.probs), p=np.array(card.probs))) if len(card.probs) > 1 else 0
    return count + int(rng.poisson(card.rate))


def sample_iid_cluster(rng: np.random.Generator, card: CardinalityPgf, density) -> list:
    """Draw a count from `card`, then that many iid values from `density`.

    `density` is a probability vector over a discrete measurement space;
    returned values are indices into it.
    """
    n = sample_count(rng, card)
    if n == 0:
        return []
    density = np.asarray(density, dtype=float)
    return [int(v) for v in rng.choice(density.size, size=n, p=density)]


def predict_step(posterior_intensity: np.ndarray, posterior_card: CardinalityPgf,
                 survival: float, birth_intensity: np.ndarray | None = None,
                 birth_card: CardinalityPgf | None = None):
    """Survival thinning plus birth: D' = p_S D + D_b, cardinality thinned
    binomially and convolved with the birth cardinality.

    Returns (intensity, cardinality, warnings).  The cardinality's head is
    the thinned head convolved with the birth head, less trailing entries
    whose total is below 1e-16, and cut at MAX_SUPPORT; a cut that loses more
    than 1e-6 of probability mass is reported as a warning.
    """
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival probability must lie in [0, 1], got {survival!r}")
    warnings: list[str] = []

    intensity = survival * np.asarray(posterior_intensity, dtype=float)
    if birth_intensity is not None:
        intensity = intensity + np.asarray(birth_intensity, dtype=float)

    # Thinning composes the p.g.f. with 1 - s + s x: the head's survivors have
    # P(n) = s^n F^(n)(1 - s) / n!, and the Poisson factor's rate scales by s.
    head = CardinalityPgf(posterior_card.probs)
    derivatives = head.derivatives_at(1.0 - survival, len(head.probs) - 1)
    thinned = np.array([survival**n * g / math.factorial(n) for n, g in enumerate(derivatives)])
    birth_card = birth_card or CardinalityPgf()
    combined = np.convolve(thinned, birth_card.probs)
    combined = combined[: max(1, np.count_nonzero(np.cumsum(combined[::-1]) >= 1e-16))]
    if combined.size > MAX_SUPPORT + 1:
        lost = float(combined[MAX_SUPPORT + 1 :].sum())
        combined = combined[: MAX_SUPPORT + 1]
        if lost > 1e-6:
            warnings.append(
                f"prediction truncation dropped {lost!r} probability mass at order {MAX_SUPPORT}"
            )
    total = float(combined.sum())
    if total <= 0.0:
        raise ValueError("prediction truncation removed all probability mass")
    combined = combined / total
    rate = survival * posterior_card.rate + birth_card.rate
    return intensity, CardinalityPgf(tuple(combined.tolist()), rate), warnings


@dataclass
class SimulationRun:
    seed: int
    rng_name: str
    steps: list[StepResult] = field(default_factory=list)
    measurements: list[list] = field(default_factory=list)


def simulate(scenario: Scenario, n_steps: int, seed: int) -> SimulationRun:
    """Run predict/correct for `n_steps`, sampling measurements when ground
    truth is given, otherwise consuming the scenario's measurement list."""
    rng = make_rng(seed)
    run = SimulationRun(seed=int(seed), rng_name=RNG_NAME)
    model = scenario.model
    sim = scenario.simulation

    intensity = scenario.prior_intensity
    card = scenario.prior_card

    for step_index in range(n_steps):
        prediction_warnings: list[str] = []
        if step_index > 0:
            survival = sim.survival if sim is not None else 1.0
            birth_intensity = sim.birth.intensity if sim is not None and sim.birth else None
            birth_card = sim.birth.cardinality if sim is not None and sim.birth else None
            values, card, prediction_warnings = predict_step(
                intensity.values, card, survival, birth_intensity, birth_card)
            intensity = Intensity.create(scenario.grid, values)

        if sim is not None and sim.truth:
            truth = sim.truth[step_index % len(sim.truth)]
            values = []
            for point in truth:
                if rng.uniform() < float(model.detection_prob[point]):
                    values.extend(
                        sample_iid_cluster(
                            rng, model.meas_card[point], model.kernel.likelihood[point]
                        )
                    )
            values.extend(
                sample_iid_cluster(rng, model.clutter_card, model.kernel.clutter_density)
            )
            measurements = MeasurementSet.of(values)
        elif step_index < len(scenario.steps):
            measurements = scenario.steps[step_index]
        else:
            measurements = MeasurementSet.of(())
        run.measurements.append(list(measurements.values))

        result = corrector_step(intensity, card, measurements, model, scenario.options)
        if prediction_warnings:
            result.diagnostics["warnings"] = (
                list(result.diagnostics.get("warnings", [])) + prediction_warnings
            )
        run.steps.append(
            StepResult(
                step_index=step_index,
                measurement_count=len(measurements),
                partition_count=result.diagnostics["partition_count"],
                result=result,
                wall_time_s=result.diagnostics.get("wall_time_s", 0.0),
            )
        )
        intensity = Intensity.create(scenario.grid, result.intensity)
        card = result.posterior_card
    return run
