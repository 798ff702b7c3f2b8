import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from etcphd import synthetic
from etcphd.corrector import corrector_step
from etcphd.errors import DegeneratePriorError, EvaluationError, ModelViolationError
from etcphd.pgf import CardinalityPgf
from etcphd.scenario import StepResult, dump_json, step_result_to_dict
from etcphd.statespace import (
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    SpatialDensity,
    StateGrid,
    bracket,
    likelihood_ratio_product,
    missed_detection_mass,
    normalize_intensity,
)


def uniform_model(p_d, meas_cards, likelihood=None, clutter=None, weights=None):
    n = len(p_d)
    grid = StateGrid.create(weights if weights is not None else [1.0] * n)
    if likelihood is None:
        likelihood = [[0.5, 0.5]] * n
    if clutter is None:
        clutter = [0.5, 0.5]
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter)
    return SensorModel.create(
        grid=grid,
        detection_prob=p_d,
        clutter_card=CardinalityPgf.poisson(0.5),
        meas_card=meas_cards,
        kernel=kernel,
    )


def test_normalize_examples():
    grid = StateGrid.create([0.5, 0.5])
    mass, density = normalize_intensity(Intensity.create(grid, [2.0, 2.0]))
    assert mass == 2.0
    assert density.values == pytest.approx([1.0, 1.0], abs=0.0)

    grid = StateGrid.create([1.0, 1.0])
    mass, density = normalize_intensity(Intensity.create(grid, [3.0, 1.0]))
    assert mass == 4.0
    assert density.values == pytest.approx([0.75, 0.25], abs=0.0)


def test_normalize_zero_mass_is_degenerate():
    grid = StateGrid.create([1.0, 1.0])
    with pytest.raises(DegeneratePriorError):
        normalize_intensity(Intensity.create(grid, [0.0, 0.0]))


def test_bracket_examples():
    grid = StateGrid.create([1.0, 2.0])
    density = SpatialDensity.create(grid, [0.4, 0.3])
    assert bracket(density, np.ones(2)) == pytest.approx(1.0, rel=1e-15)
    assert bracket(density, 3.5 * np.ones(2)) == pytest.approx(3.5, rel=1e-15)
    indicator = np.array([0.0, 1.0])
    assert bracket(density, indicator) == pytest.approx(0.3 * 2.0, rel=1e-15)


def test_bracket_is_linear():
    rng = np.random.default_rng(3)
    grid = StateGrid.create(rng.uniform(0.5, 1.5, 5))
    raw = rng.uniform(0.1, 1.0, 5)
    density = SpatialDensity.create(grid, raw / np.dot(raw, grid.weights))
    for _ in range(20):
        f = rng.uniform(-1, 1, 5)
        g = rng.uniform(-1, 1, 5)
        a, b = rng.uniform(-2, 2, 2)
        lhs = bracket(density, a * f + b * g)
        rhs = a * bracket(density, f) + b * bracket(density, g)
        assert abs(lhs - rhs) <= 1e-12


def test_bracket_rejects_nonfinite_and_names_point():
    grid = StateGrid.create([1.0, 1.0], ids=("left", "right"))
    density = SpatialDensity.create(grid, [0.5, 0.5])
    with pytest.raises(EvaluationError) as excinfo:
        bracket(density, np.array([1.0, np.inf]))
    assert "right" in str(excinfo.value)


def test_bracket_is_exactly_rounded():
    grid = StateGrid.create([1.0, 1.0, 1.0])
    density = SpatialDensity.create(grid, [0.25, 0.5, 0.25])
    rng = np.random.default_rng(5)
    cases = [np.array([4e16, 2.0, -4e16])]
    cases += [np.array([1.0, -1.0, 1.0]) * rng.uniform(1e15, 1e17) + rng.uniform(-9, 9, 3)
              for _ in range(20)]
    for f in cases:
        products = density.values * f * grid.weights
        exact = float(sum(Fraction(float(v)) for v in products))
        assert bracket(density, f) == exact
    # The first case's products are 1e16, 1.0 and -1e16: a running float sum gives 0.
    assert bracket(density, cases[0]) == 1.0


def _per_card_table(cards, k):
    return np.array([card.derivatives_at(0.0, k) for card in cards]).T


def _bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_meas_pgf_at_zero_is_bitwise_card_eval():
    models = [synthetic.mixed_scenario(seed, 2).model for seed in range(10)]
    models.append(uniform_model([0.5, 0.9], [CardinalityPgf.finite([0.0, 0.4, 0.6]),
                                             CardinalityPgf.poisson(0.0)]))
    for model in models:
        expected = [card.eval(0.0) for card in model.meas_card]
        assert _bitwise_equal(model.meas_pgf_at_zero(), expected)
        # Row 0 of a table built to a higher order is the same.
        higher = dataclasses.replace(model)
        higher.meas_derivatives_at_zero(4)
        assert _bitwise_equal(higher.meas_pgf_at_zero(), expected)


def test_meas_derivative_table_grows_bitwise():
    model = synthetic.mixed_scenario(3, 2).model
    cards = model.meas_card
    assert _bitwise_equal(model.meas_derivatives_at_zero(2), _per_card_table(cards, 2))
    assert _bitwise_equal(model.meas_derivatives_at_zero(5), _per_card_table(cards, 5))
    assert _bitwise_equal(model.meas_derivatives_at_zero(1), _per_card_table(cards, 1))


def test_meas_tables_are_read_only():
    model = synthetic.mixed_scenario(0, 2).model
    with pytest.raises(ValueError):
        model.meas_derivatives_at_zero(2)[1, 0] = 1.0
    with pytest.raises(ValueError):
        model.meas_pgf_at_zero()[0] = 1.0


def test_replaced_model_gets_the_new_cards_table():
    model = synthetic.mixed_scenario(1, 2).model
    model.meas_derivatives_at_zero(3)
    cards = tuple(CardinalityPgf.finite([0.2, 0.3, 0.5]) for _ in model.meas_card)
    replaced = dataclasses.replace(model, meas_card=cards)
    assert _bitwise_equal(replaced.meas_derivatives_at_zero(3), _per_card_table(cards, 3))
    assert _bitwise_equal(model.meas_derivatives_at_zero(3),
                          _per_card_table(model.meas_card, 3))


@pytest.mark.parametrize("seed", [0, 4])
def test_steps_build_the_model_table_once(monkeypatch, seed):
    scenario = synthetic.mixed_scenario(seed, 3)

    def step_text(model):
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, model)
        step = StepResult(step_index=0, measurement_count=len(scenario.measurements),
                          partition_count=result.diagnostics["partition_count"],
                          result=result)
        return dump_json(step_result_to_dict(step))

    fresh_text = step_text(synthetic.mixed_scenario(seed, 3).model)
    per_point = {id(card) for card in scenario.model.meas_card}
    calls = []
    depth = [0]

    def counted(name):
        original = getattr(CardinalityPgf, name)

        def wrapper(self, *args, **kwargs):
            # Outermost calls only: a poisson card's derivatives_at calls eval.
            if id(self) in per_point and depth[0] == 0:
                calls.append(name)
            depth[0] += 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("derivatives_at", "eval"):
        monkeypatch.setattr(CardinalityPgf, name, counted(name))
    # The first step builds the table once, at its highest order.
    step_text(scenario.model)
    assert calls == ["derivatives_at"] * scenario.grid.size
    calls.clear()
    assert step_text(scenario.model) == fresh_text
    assert calls == []


def test_missed_detection_mass_bounds():
    cards = [CardinalityPgf.finite([0.3, 0.7])] * 2
    model = uniform_model(np.zeros(2), cards)
    density = SpatialDensity.create(model.grid, [0.5, 0.5])
    assert missed_detection_mass(density, model) == pytest.approx(1.0, abs=0.0)

    cards = [CardinalityPgf.finite([0.0, 1.0])] * 2
    model = uniform_model(np.ones(2), cards)
    assert missed_detection_mass(density, model) == pytest.approx(0.0, abs=0.0)


def test_missed_detection_mass_poisson_value():
    cards = [CardinalityPgf.poisson(1.0)] * 2
    model = uniform_model(np.ones(2), cards)
    density = SpatialDensity.create(model.grid, [0.5, 0.5])
    assert missed_detection_mass(density, model) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_missed_detection_mass_monotone_in_detection():
    cards = [CardinalityPgf.finite([0.4, 0.6])] * 3
    density_grid = StateGrid.create([1.0, 1.0, 1.0])
    density = SpatialDensity.create(density_grid, [1 / 3] * 3)
    low = uniform_model(np.array([0.1, 0.2, 0.3]), cards,
                        likelihood=[[0.5, 0.5]] * 3)
    high = uniform_model(np.array([0.4, 0.6, 0.9]), cards,
                         likelihood=[[0.5, 0.5]] * 3)
    assert missed_detection_mass(density, high) <= missed_detection_mass(density, low)


def test_likelihood_ratio_product():
    cards = [CardinalityPgf.finite([0.5, 0.5])]
    model = uniform_model(
        np.array([1.0]), cards,
        likelihood=[[0.6, 0.4]], clutter=[0.3, 0.7],
    )
    measurements = MeasurementSet.of([0, 1])
    assert likelihood_ratio_product((), 0, measurements, model) == 1.0
    # Single measurement whose target likelihood equals the clutter density.
    same = uniform_model(np.array([1.0]), cards,
                         likelihood=[[0.3, 0.7]], clutter=[0.3, 0.7])
    assert likelihood_ratio_product((0,), 0, measurements, same) == pytest.approx(1.0, abs=0.0)
    # Two measurements, tabulated by hand: (0.6/0.3) * (0.4/0.7).
    expected = (0.6 / 0.3) * (0.4 / 0.7)
    assert likelihood_ratio_product((0, 1), 0, measurements, model) == pytest.approx(expected, rel=1e-15)


def test_ratio_requires_positive_clutter_density():
    cards = [CardinalityPgf.finite([0.5, 0.5])]
    model = uniform_model(np.array([1.0]), cards,
                          likelihood=[[0.6, 0.4]], clutter=[0.0, 1.0])
    with pytest.raises(ModelViolationError):
        model.ratio_column(0)


def test_discrete_kernel_normalization_enforced():
    with pytest.raises(ValueError):
        DiscreteKernel(likelihood=[[0.6, 0.5]], clutter_density=[0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteKernel(likelihood=[[0.5, 0.5]], clutter_density=[0.6, 0.5])


def test_detection_probability_bounds():
    grid = StateGrid.create([1.0])
    kernel = DiscreteKernel(likelihood=[[1.0]], clutter_density=[1.0])
    with pytest.raises(ValueError):
        SensorModel.create(
            grid=grid,
            detection_prob=[1.5],
            clutter_card=CardinalityPgf.poisson(0.1),
            meas_card=[CardinalityPgf.poisson(0.1)],
            kernel=kernel,
        )


def test_measurement_labels_are_contiguous():
    measurements = MeasurementSet.of([4, 4, 7])
    assert measurements.labels == (0, 1, 2)
    assert len(measurements) == 3
