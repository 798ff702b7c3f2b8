import dataclasses
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from etcphd.corrector import (
    CARDINALITY_SUM_TOL,
    CLOSED_FORM_MIN_P0,
    FIRST_MOMENT_TOL,
    corrector_step,
)
from etcphd.pgf import MAX_SUPPORT, CardinalityPgf
from etcphd.scenario import BirthSpec, SimulationSpec, load_scenario, step_result_to_dict, dump_json
from etcphd.simulate import make_rng, predict_step, sample_count, sample_iid_cluster, simulate
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

    # A head times a Poisson factor: counts above 7 share the last bin.
    card = CardinalityPgf((0.2, 0.5, 0.3), 1.5)
    draws = 20_000
    counts = np.bincount([min(sample_count(rng, card), 8) for _ in range(draws)], minlength=9)
    probs = card.vector(7)
    expected = draws * np.array(probs + [1.0 - math.fsum(probs)])
    _, p_counts = stats.chisquare(counts, expected)
    assert p_counts > 1e-4


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


def exact_thinning(probs, survival):
    """Binomial thinning in rationals, over the exact total mass."""
    s, p = Fraction(survival), [Fraction(v) for v in probs]
    out = [sum(p[n] * math.comb(n, j) * s**j * (1 - s) ** (n - j) for n in range(j, len(p)))
           for j in range(len(p))]
    total = sum(out)
    return np.array([float(v / total) for v in out])


def test_predict_thinning_matches_exact_binomial():
    """Thinning read off the p.g.f. derivatives at 1 - s agrees with exact
    binomial thinning, and a poisson posterior thins to Poisson(rate s)."""
    rng = np.random.default_rng(11)
    for support in range(1, MAX_SUPPORT + 1):
        raw = rng.uniform(0.0, 1.0, support + 1)
        raw[:-1][rng.uniform(size=support) < 0.3] = 0.0
        card = CardinalityPgf.finite(raw / raw.sum())
        for survival in (0.0, 0.5, 0.95, 1.0, float(rng.uniform())):
            _, out, _ = predict_step(np.array([1.0]), card, survival)
            expected = exact_thinning(card.probs, survival)
            got = np.zeros(expected.size)
            got[: len(out.probs)] = out.probs
            assert np.max(np.abs(got - expected)) <= 1e-15, (support, survival)
    for rate in (0.5, 2.0, 4.0):
        for survival in (0.0, 0.5, 0.95, 1.0, float(rng.uniform())):
            _, out, _ = predict_step(np.array([rate]), CardinalityPgf.poisson(rate), survival)
            assert out == CardinalityPgf.poisson(survival * rate), (rate, survival)


def test_predict_truncation_warns():
    """A finite birth pushes a quarter of the mass past the head's maximum:
    the cut at MAX_SUPPORT drops it and warns."""
    probs = [0.0] * (MAX_SUPPORT + 1)
    probs[1] = probs[MAX_SUPPORT] = 0.5
    _, out_card, warnings = predict_step(np.array([1.0]), CardinalityPgf.finite(probs),
                                         survival=1.0, birth_intensity=np.array([1.0]),
                                         birth_card=CardinalityPgf.finite([0.5, 0.5]))
    assert len(warnings) == 1
    assert warnings[0].endswith(f"probability mass at order {MAX_SUPPORT}")
    lost = float(warnings[0].split()[3])
    assert lost == 0.25
    assert len(out_card.probs) == MAX_SUPPORT + 1
    assert math.fsum(out_card.probs) == pytest.approx(1.0, abs=1e-15)


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


def test_high_survival_prediction_normalizes(monkeypatch):
    """At survival 0.95 the predicted cardinality keeps little mass at zero;
    the series route needs none, so 20 scans normalize.  The only warning is
    the closed form's, exactly on the scans whose prior head has P(0) below
    CLOSED_FORM_MIN_P0.  Each predicted prior stays in the family, with the
    Poisson factor's rate 0.95 mu phi + 1 from the last posterior's mu phi."""
    # importlib: the package's `simulate` attribute is the function.
    simulate_module = importlib.import_module("etcphd.simulate")
    priors = []

    def recording_step(intensity, card, *args):
        priors.append(card)
        return corrector_step(intensity, card, *args)

    monkeypatch.setattr(simulate_module, "corrector_step", recording_step)
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
    scenario.steps = [MeasurementSet.of([0, 3, 5]), MeasurementSet.of([1, 1, 4, 2, 0, 5])] * 10
    run = simulate(scenario, n_steps=20, seed=0)
    assert len(priors) == len(run.steps) == 20
    for index, step in enumerate(run.steps):
        diagnostics = step.result.diagnostics
        ill_conditioned = priors[index].probs[0] < CLOSED_FORM_MIN_P0
        assert len(diagnostics["warnings"]) == ill_conditioned
        assert all(w.startswith("closed-form cardinality ill-conditioned: ")
                   for w in diagnostics["warnings"])
        assert abs(diagnostics["cardinality_sum"] - 1.0) <= CARDINALITY_SUM_TOL
        gap = diagnostics["posterior_mass"] - diagnostics["posterior_mean_from_cardinality"]
        assert abs(gap) <= FIRST_MOMENT_TOL
        posterior = step.result.posterior_card
        assert posterior.rate == priors[index].rate * step.result.coefficients.phi
        if index:
            previous = run.steps[index - 1].result.posterior_card
            assert priors[index].rate == 0.95 * previous.rate + 1.0
