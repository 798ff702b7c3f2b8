"""Seeded random scenario generators for the verification suites and tests.

Every generator is deterministic in its seed (PCG64) and produces scenarios
whose degenerate corners are avoided by construction: spatial densities,
likelihood rows and clutter densities are strictly positive, and cardinality
vectors keep positive mass at zero so log-derivatives at the origin exist.
Prior intensities are kept coherent with the prior cardinality mean, which
the exact-Bayes oracle requires.
"""

from __future__ import annotations

import numpy as np

from .corrector import CorrectorOptions
from .pgf import CardinalityPgf
from .scenario import Scenario
from .simulate import make_rng
from .statespace import (
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    StateGrid,
)


def _positive_simplex(rng, size: int, floor: float = 0.08) -> np.ndarray:
    raw = floor + rng.uniform(0.0, 1.0, size)
    return raw / raw.sum()


def _finite_card(rng, max_support: int, min_support: int = 1) -> CardinalityPgf:
    support = int(rng.integers(min_support, max(min_support, max_support) + 1))
    return CardinalityPgf.finite(_positive_simplex(rng, support + 1))


def _assemble(rng, n_points, n_values, prior_card, meas_cards, p_d,
              clutter_card, n_measurements, options=None, intensity_scale=None):
    weights = rng.uniform(0.5, 1.5, n_points)
    grid = StateGrid.create(weights)
    density = _positive_simplex(rng, n_points) / weights
    density = density / float(np.dot(density, weights))
    mean = prior_card.mean()
    scale = mean if intensity_scale is None else intensity_scale
    if scale <= 0.0:
        scale = 1.0
    intensity = Intensity.create(grid, scale * density)

    clutter_density = _positive_simplex(rng, n_values)
    likelihood = np.vstack([_positive_simplex(rng, n_values) for _ in range(n_points)])
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    model = SensorModel.create(
        grid=grid,
        detection_prob=p_d,
        clutter_card=clutter_card,
        meas_card=meas_cards,
        kernel=kernel,
    )
    values = [int(v) for v in rng.integers(0, n_values, n_measurements)]
    return Scenario(
        grid=grid,
        prior_intensity=intensity,
        prior_card=prior_card,
        model=model,
        steps=[MeasurementSet.of(values)],
        options=options or CorrectorOptions(),
    )


def micro_scenario(seed: int, n_measurements: int | None = None) -> Scenario:
    """Oracle-scale scenario: at most 4 grid points, 5 measurement values,
    prior support 3, up to 3 measurements unless `n_measurements` is given,
    detection probabilities across [0, 1]."""
    rng = make_rng(seed)
    n_points = int(rng.integers(2, 5))
    n_values = int(rng.integers(2, 6))
    prior_card = _finite_card(rng, 3)
    p_d = rng.uniform(0.0, 1.0, n_points)
    # Drawn either way, so a given count leaves the rest of the stream alone.
    drawn = int(rng.integers(0, 4))
    n_measurements = drawn if n_measurements is None else n_measurements
    # Finite clutter must be able to explain all measurements on its own,
    # otherwise a random draw can be an impossible observation.
    if rng.uniform() < 0.5:
        clutter_card = _finite_card(rng, n_measurements + 1, min_support=max(n_measurements, 1))
    else:
        clutter_card = CardinalityPgf.poisson(float(rng.uniform(0.2, 1.2)))
    meas_cards = []
    for _ in range(n_points):
        if rng.uniform() < 0.5:
            meas_cards.append(_finite_card(rng, 3))
        else:
            meas_cards.append(CardinalityPgf.poisson(float(rng.uniform(0.2, 1.5))))
    return _assemble(rng, n_points, n_values, prior_card, meas_cards, p_d,
                     clutter_card, n_measurements)


def poisson_scenario(seed: int, n_measurements: int | None = None) -> Scenario:
    """Poisson prior, clutter and measurement counts (the ET-PHD regime)."""
    rng = make_rng(seed)
    n_points = int(rng.integers(2, 6))
    n_values = int(rng.integers(2, 6))
    weights = rng.uniform(0.5, 1.5, n_points)
    grid = StateGrid.create(weights)
    intensity_values = rng.uniform(0.1, 1.0, n_points)
    intensity = Intensity.create(grid, intensity_values)
    prior_card = CardinalityPgf.poisson(intensity.total_mass())

    p_d = rng.uniform(0.05, 1.0, n_points)
    clutter_card = CardinalityPgf.poisson(float(rng.uniform(0.3, 2.0)))
    meas_cards = [CardinalityPgf.poisson(float(rng.uniform(0.2, 1.5)))
                  for _ in range(n_points)]
    clutter_density = _positive_simplex(rng, n_values)
    likelihood = np.vstack([_positive_simplex(rng, n_values) for _ in range(n_points)])
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    model = SensorModel.create(
        grid=grid, detection_prob=p_d, clutter_card=clutter_card,
        meas_card=meas_cards, kernel=kernel,
    )
    if n_measurements is None:
        n_measurements = int(rng.integers(1, 5))
    values = [int(v) for v in rng.integers(0, n_values, n_measurements)]
    return Scenario(
        grid=grid,
        prior_intensity=intensity,
        prior_card=prior_card,
        model=model,
        steps=[MeasurementSet.of(values)],
    )


def standard_scenario(seed: int, n_measurements: int | None = None) -> Scenario:
    """Standard-target regime: every detection yields exactly one measurement."""
    rng = make_rng(seed)
    n_points = int(rng.integers(2, 5))
    n_values = int(rng.integers(2, 6))
    prior_card = _finite_card(rng, 4)
    p_d = rng.uniform(0.1, 0.95, n_points)
    if n_measurements is None:
        n_measurements = int(rng.integers(0, 5))
    clutter_card = _finite_card(rng, n_measurements + 2, min_support=max(n_measurements, 1))
    meas_cards = [CardinalityPgf.finite([0.0, 1.0]) for _ in range(n_points)]
    return _assemble(rng, n_points, n_values, prior_card, meas_cards, p_d,
                     clutter_card, n_measurements)


def mixed_scenario(seed: int, n_measurements: int) -> Scenario:
    """General mixed-model scenario with a fixed measurement count (used by
    the derivative-identity checks at one and two measurements)."""
    rng = make_rng(seed)
    n_points = int(rng.integers(2, 6))
    n_values = int(rng.integers(2, 6))
    prior_card = _finite_card(rng, 4)
    p_d = rng.uniform(0.0, 1.0, n_points)
    if rng.uniform() < 0.5:
        clutter_card = _finite_card(rng, n_measurements + 2,
                                    min_support=max(n_measurements, 1))
    else:
        clutter_card = CardinalityPgf.poisson(float(rng.uniform(0.2, 1.5)))
    meas_cards = []
    for _ in range(n_points):
        if rng.uniform() < 0.5:
            meas_cards.append(_finite_card(rng, 3))
        else:
            meas_cards.append(CardinalityPgf.poisson(float(rng.uniform(0.2, 1.5))))
    return _assemble(rng, n_points, n_values, prior_card, meas_cards, p_d,
                     clutter_card, n_measurements)


def performance_scenario(n_measurements: int, n_points: int = 50,
                         seed: int = 20260809) -> Scenario:
    """Large-grid scenario for timing runs: finite prior of support 8."""
    rng = make_rng(seed)
    n_values = 6
    prior_card = CardinalityPgf.finite(_positive_simplex(rng, 9))
    p_d = rng.uniform(0.3, 0.95, n_points)
    clutter_card = CardinalityPgf.poisson(2.0)
    meas_cards = [CardinalityPgf.poisson(float(rng.uniform(0.5, 1.5)))
                  for _ in range(n_points)]
    options = CorrectorOptions(max_measurements=max(8, n_measurements),
                               acknowledge_cost=n_measurements > 8)
    return _assemble(rng, n_points, n_values, prior_card, meas_cards, p_d,
                     clutter_card, n_measurements, options=options)
