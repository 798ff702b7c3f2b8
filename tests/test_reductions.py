import dataclasses

import numpy as np
import pytest

from etcphd.corrector import NORMALIZATION_KEYS, corrector_step
from etcphd.errors import ModelMismatchError
from etcphd.oracle import compare_to_corrector, exact_posterior
from etcphd.pgf import CardinalityPgf
from etcphd.reductions import (
    check_poisson_reduction,
    check_standard_reduction,
    etphd_update,
    std_cphd_update,
)
from etcphd.statespace import (
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    StateGrid,
    normalize_intensity,
)
from etcphd.synthetic import poisson_scenario, standard_scenario


def poisson_model(p_d, gammas, clutter_rate, likelihood, clutter_density, weights):
    grid = StateGrid.create(weights)
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    return SensorModel.create(
        grid=grid,
        detection_prob=p_d,
        clutter_card=CardinalityPgf.poisson(clutter_rate),
        meas_card=[CardinalityPgf.poisson(g) for g in gammas],
        kernel=kernel,
    )


# -- extended-target PHD ---------------------------------------------------------


def test_etphd_no_detection_keeps_intensity():
    model = poisson_model(
        p_d=[0.0, 0.0], gammas=[1.0, 0.5], clutter_rate=0.5,
        likelihood=[[0.6, 0.4], [0.3, 0.7]], clutter_density=[0.5, 0.5],
        weights=[1.0, 1.0],
    )
    intensity = Intensity.create(model.grid, [0.4, 0.6])
    result = etphd_update(intensity, MeasurementSet.of([0, 1]), model)
    assert result.intensity == pytest.approx(intensity.values, abs=0.0)


def test_etphd_zero_rate_targets_keep_intensity():
    model = poisson_model(
        p_d=[0.8, 0.6], gammas=[0.0, 0.0], clutter_rate=0.7,
        likelihood=[[0.6, 0.4], [0.3, 0.7]], clutter_density=[0.5, 0.5],
        weights=[1.0, 1.0],
    )
    intensity = Intensity.create(model.grid, [0.4, 0.6])
    result = etphd_update(intensity, MeasurementSet.of([0, 1]), model)
    assert result.intensity == pytest.approx(intensity.values, rel=1e-15)
    singleton_only = [p for p, w in result.omega.items() if w != 0.0]
    assert len(singleton_only) == 1
    assert all(len(cell) == 1 for cell in singleton_only[0])


def test_etphd_rejects_non_poisson_models():
    model = poisson_model(
        p_d=[0.5], gammas=[1.0], clutter_rate=0.5,
        likelihood=[[0.6, 0.4]], clutter_density=[0.5, 0.5], weights=[1.0],
    )
    finite_clutter = dataclasses.replace(model, clutter_card=CardinalityPgf.finite([0.5, 0.5]))
    with pytest.raises(ModelMismatchError):
        etphd_update(Intensity.create(model.grid, [1.0]), MeasurementSet.of([0]), finite_clutter)
    finite_targets = dataclasses.replace(model, meas_card=(CardinalityPgf.finite([0.5, 0.5]),))
    with pytest.raises(ModelMismatchError):
        etphd_update(Intensity.create(model.grid, [1.0]), MeasurementSet.of([0]), finite_targets)


def test_etphd_matches_corrector_on_random_scenarios():
    for seed in range(10):
        scenario = poisson_scenario(600 + seed)
        reference = etphd_update(scenario.prior_intensity, scenario.measurements, scenario.model)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        assert result.intensity == pytest.approx(reference.intensity, rel=1e-12)


# -- standard-target CPHD ---------------------------------------------------------


def standard_model(p_d, clutter_probs, likelihood, clutter_density, weights):
    grid = StateGrid.create(weights)
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    return SensorModel.create(
        grid=grid,
        detection_prob=p_d,
        clutter_card=CardinalityPgf.finite(clutter_probs),
        meas_card=[CardinalityPgf.finite([0.0, 1.0])] * grid.size,
        kernel=kernel,
    )


def test_std_cphd_no_detection_returns_prior():
    model = standard_model(
        p_d=[0.0, 0.0], clutter_probs=[0.4, 0.4, 0.2],
        likelihood=[[0.6, 0.4], [0.3, 0.7]], clutter_density=[0.5, 0.5],
        weights=[1.0, 1.0],
    )
    card = CardinalityPgf.finite([0.3, 0.4, 0.3])
    intensity = Intensity.create(model.grid, card.mean() * np.array([0.5, 0.5]))
    result = std_cphd_update(intensity, card, MeasurementSet.of([0, 1]), model)
    assert result.intensity == pytest.approx(intensity.values, rel=1e-13)
    assert result.cardinality == pytest.approx(list(card.probs), abs=1e-14)


def test_std_cphd_requires_single_measurement_targets():
    model = standard_model(
        p_d=[0.5], clutter_probs=[0.5, 0.5],
        likelihood=[[1.0]], clutter_density=[1.0], weights=[1.0],
    )
    bad = dataclasses.replace(model, meas_card=(CardinalityPgf.poisson(1.0),))
    with pytest.raises(ModelMismatchError):
        std_cphd_update(Intensity.create(model.grid, [1.0]),
                        CardinalityPgf.finite([0.5, 0.5]), MeasurementSet.of([0]), bad)


def test_std_cphd_single_point_hand_computation():
    """One grid point, one measurement, worked by hand.

    phi = 0.2, detected-cell mass 0.8; with clutter [0.7, 0.3] the data
    likelihoods are L0 = [0.3, 0.62] over n = 0, 1, so the posterior
    cardinality is [0.12, 0.372] / 0.492 and the intensity equals the
    posterior mean 0.372 / 0.492.
    """
    model = standard_model(
        p_d=[0.8], clutter_probs=[0.7, 0.3],
        likelihood=[[1.0]], clutter_density=[1.0], weights=[1.0],
    )
    card = CardinalityPgf.finite([0.4, 0.6])
    intensity = Intensity.create(model.grid, [0.6])
    result = std_cphd_update(intensity, card, MeasurementSet.of([0]), model)
    assert result.cardinality == pytest.approx([0.12 / 0.492, 0.372 / 0.492], rel=1e-14)
    assert result.intensity == pytest.approx([0.372 / 0.492], rel=1e-14)


def test_std_cphd_clutter_free_single_measurement_bayes():
    """With P_FA(0) = 1 the single measurement must come from a target, so
    the posterior is the one-target conditional Bayes update by hand."""
    model = standard_model(
        p_d=[0.6, 0.9], clutter_probs=[1.0],
        likelihood=[[0.7, 0.3], [0.2, 0.8]], clutter_density=[0.5, 0.5],
        weights=[1.0, 1.0],
    )
    card = CardinalityPgf.finite([0.5, 0.5])
    intensity = Intensity.create(model.grid, card.mean() * np.array([0.5, 0.5]))
    result = std_cphd_update(intensity, card, MeasurementSet.of([0]), model)
    assert result.cardinality == pytest.approx([0.0, 1.0], abs=1e-14)
    weights = np.array([0.5 * 0.6 * 0.7, 0.5 * 0.9 * 0.2])
    assert result.intensity == pytest.approx(weights / weights.sum(), rel=1e-13)


def test_std_cphd_matches_corrector_on_random_scenarios():
    for seed in range(10):
        scenario = standard_scenario(800 + seed)
        reference = std_cphd_update(scenario.prior_intensity, scenario.prior_card,
                                    scenario.measurements, scenario.model)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        assert result.intensity == pytest.approx(reference.intensity, rel=1e-12)
        assert result.cardinality == pytest.approx(reference.cardinality, abs=1e-12)


def test_std_cphd_matches_oracle():
    for seed in range(10):
        scenario = standard_scenario(900 + seed, n_measurements=2)
        reference = std_cphd_update(scenario.prior_intensity, scenario.prior_card,
                                    scenario.measurements, scenario.model)
        _, density = normalize_intensity(scenario.prior_intensity)
        oracle = exact_posterior(scenario.prior_card, density, scenario.measurements,
                                 scenario.model, n_max=scenario.prior_card.support_max)
        report = compare_to_corrector(oracle, reference)
        assert report["pass"], report


# -- reduction check reports -------------------------------------------------------


def test_poisson_reduction_report_passes():
    scenario = poisson_scenario(1234)
    report = check_poisson_reduction(scenario)
    assert report["pass"]
    assert report["kappa_abs"] == 0.0


@pytest.mark.parametrize("check, make, seed", [
    (check_poisson_reduction, poisson_scenario, 1236),
    (check_standard_reduction, standard_scenario, 4322),
])
def test_reduction_report_is_deterministic(check, make, seed):
    """Reports carry the normalization fields only, never wall time."""
    first = check(make(seed))
    assert set(first["normalization"]) == set(NORMALIZATION_KEYS)
    assert first == check(make(seed))


def test_poisson_reduction_rejects_perturbed_prior():
    scenario = poisson_scenario(1235)
    scenario.prior_card = CardinalityPgf.finite([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(ModelMismatchError):
        check_poisson_reduction(scenario)


def test_poisson_reduction_zero_rate_edge():
    scenario = poisson_scenario(1236)
    scenario.model = dataclasses.replace(
        scenario.model,
        meas_card=tuple(CardinalityPgf.poisson(0.0) for _ in range(scenario.grid.size)),
    )
    report = check_poisson_reduction(scenario)
    assert report["pass"]


def test_standard_reduction_report_passes():
    scenario = standard_scenario(4321)
    report = check_standard_reduction(scenario)
    assert report["pass"]
    assert report["eta_nonsingleton_max"] == 0.0
    assert report["alpha_nonsingleton_max"] == 0.0
