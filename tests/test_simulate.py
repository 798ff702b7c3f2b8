import dataclasses

import numpy as np
import pytest
from scipy import stats

from etcphd.pgf import CardinalityPgf
from etcphd.scenario import BirthSpec, SimulationSpec, load_scenario, step_result_to_dict, dump_json
from etcphd.simulate import make_rng, predict_step, sample_iid_cluster, simulate
from etcphd.statespace import Intensity, MeasurementSet
from etcphd.synthetic import performance_scenario


def test_sample_empty_cardinality():
    rng = make_rng(1)
    card = CardinalityPgf.finite([1.0])
    for _ in range(50):
        assert sample_iid_cluster(rng, card, [0.5, 0.5]) == []


def test_sample_fixed_count_single_point():
    rng = make_rng(2)
    card = CardinalityPgf.finite([0.0, 0.0, 0.0, 1.0])
    for _ in range(20):
        assert sample_iid_cluster(rng, card, [1.0]) == [0, 0, 0]


def test_sample_frequencies_chi_square():
    rng = make_rng(3)
    card = CardinalityPgf.finite([0.2, 0.5, 0.3])
    density = np.array([0.6, 0.3, 0.1])
    draws = 100_000
    count_hist = np.zeros(3)
    value_hist = np.zeros(3)
    for _ in range(draws):
        values = sample_iid_cluster(rng, card, density)
        count_hist[len(values)] += 1
        for v in values:
            value_hist[v] += 1
    _, p_counts = stats.chisquare(count_hist, draws * np.array(card.probs))
    assert p_counts > 1e-4
    total_values = value_hist.sum()
    _, p_values = stats.chisquare(value_hist, total_values * density)
    assert p_values > 1e-4


def test_predict_identity():
    card = CardinalityPgf.finite([0.3, 0.4, 0.3])
    intensity = np.array([0.4, 0.6])
    out_intensity, out_card, warnings = predict_step(intensity, card, survival=1.0)
    assert out_intensity == pytest.approx(intensity, abs=0.0)
    assert out_card.probs == pytest.approx(list(card.probs), abs=1e-15)
    assert warnings == []


def test_predict_birth_only():
    card = CardinalityPgf.finite([0.3, 0.7])
    birth_card = CardinalityPgf.finite([0.6, 0.4])
    out_intensity, out_card, _ = predict_step(
        np.array([0.5, 0.5]), card, survival=0.0,
        birth_intensity=np.array([0.1, 0.2]), birth_card=birth_card,
    )
    assert out_intensity == pytest.approx([0.1, 0.2], abs=0.0)
    assert out_card.probs == pytest.approx(list(birth_card.probs), abs=1e-15)


def test_predict_bernoulli_thinning():
    card = CardinalityPgf.finite([0.0, 1.0])
    _, out_card, _ = predict_step(np.array([1.0]), card, survival=0.5)
    assert out_card.probs == pytest.approx([0.5, 0.5], abs=1e-15)


def test_predict_truncation_warns():
    card = CardinalityPgf.finite([0.0, 0.5, 0.0, 0.5])
    _, out_card, warnings = predict_step(np.array([1.0]), card, survival=1.0, n_max=2)
    assert warnings
    assert out_card.probs == pytest.approx([0.0, 1.0], abs=0.0)


def test_simulate_static_when_blind(scenarios_dir, tmp_path):
    """No detections, full survival, no birth: the posterior never moves."""
    scenario = load_scenario(scenarios_dir / "standard_small.json")
    scenario.model = dataclasses.replace(
        scenario.model, detection_prob=np.zeros(scenario.grid.size)
    )
    scenario.simulation = None
    run = simulate(scenario, n_steps=4, seed=11)
    first = run.steps[0].result
    for step in run.steps[1:]:
        assert step.result.intensity == pytest.approx(first.intensity, abs=1e-12)
        assert step.result.cardinality == pytest.approx(first.cardinality, abs=1e-12)


def test_simulate_same_seed_same_bytes(scenarios_dir):
    scenario_path = scenarios_dir / "mixed_demo.json"
    payloads = []
    for _ in range(2):
        scenario = load_scenario(scenario_path)
        run = simulate(scenario, n_steps=3, seed=99)
        payloads.append(
            dump_json({
                "seed": run.seed,
                "rng": run.rng_name,
                "measurements": run.measurements,
                "steps": [step_result_to_dict(s) for s in run.steps],
            })
        )
    assert payloads[0] == payloads[1]


def test_simulate_different_seed_differs(scenarios_dir):
    scenario_path = scenarios_dir / "mixed_demo.json"
    runs = []
    for seed in (1, 2):
        scenario = load_scenario(scenario_path)
        runs.append(simulate(scenario, n_steps=5, seed=seed).measurements)
    assert runs[0] != runs[1]


def test_ill_conditioned_prediction_warns():
    """At survival 0.95 the predicted cardinality's log-derivatives at zero
    lose digits, and the second step's series route misses normalization:
    the step must warn rather than stay silent."""
    scenario = performance_scenario(5, seed=0)
    mass = scenario.prior_intensity.total_mass()
    scenario.prior_intensity = Intensity.create(
        scenario.grid, scenario.prior_intensity.values * 4.0 / mass)
    scenario.prior_card = CardinalityPgf.poisson(4.0)
    scenario.simulation = SimulationSpec(
        truth=[], survival=0.95,
        birth=BirthSpec(intensity=scenario.prior_intensity.values / 4.0,
                        cardinality=CardinalityPgf.poisson(1.0)),
    )
    scenario.steps = [MeasurementSet.of([0, 3, 5]), MeasurementSet.of([1, 1, 4, 2, 0, 5])]
    run = simulate(scenario, n_steps=2, seed=0)
    first, second = (step.result.diagnostics for step in run.steps)
    assert first["warnings"] == []
    assert abs(second["cardinality_sum"] - 1.0) > 1e-10
    assert any("posterior cardinality sums to" in w for w in second["warnings"])
