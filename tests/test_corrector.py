import dataclasses
import math

import numpy as np
import pytest

from etcphd.corrector import (
    CARDINALITY_SUM_TOL,
    FIRST_MOMENT_TOL,
    CorrectorOptions,
    cell_coefficient,
    cell_detection_mass,
    coefficient_table,
    corrector_step,
    detection_profile,
    missed_detection_correction,
    partition_weights,
    posterior_cardinality_closed_form,
    posterior_pgf_series,
    subpartition_product,
    update_intensity,
)
from etcphd.errors import (
    DegenerateUpdateError,
    SingularEvaluationError,
    SizeLimitError,
    ValidationError,
)
from etcphd.oracle import compare_to_corrector, exact_posterior
from etcphd.partitions import Partition, subpartitions_of
from etcphd.pgf import CardinalityPgf
from etcphd.statespace import (
    ContinuousKernel,
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    StateGrid,
    normalize_intensity,
)
from etcphd.synthetic import (
    micro_scenario,
    mixed_scenario,
    performance_scenario,
    poisson_scenario,
    standard_scenario,
)


def build_scenario(weights, prior_values, prior_card, p_d, clutter_card, meas_cards,
                   likelihood, clutter_density, measurements):
    grid = StateGrid.create(weights)
    kernel = DiscreteKernel(likelihood=likelihood, clutter_density=clutter_density)
    model = SensorModel.create(
        grid=grid, detection_prob=p_d, clutter_card=clutter_card,
        meas_card=meas_cards, kernel=kernel,
    )
    return Intensity.create(grid, prior_values), prior_card, MeasurementSet.of(measurements), model


def coherent_two_point():
    """Two-point scenario whose intensity mass equals the cardinality mean."""
    prior_card = CardinalityPgf.finite([0.3, 0.4, 0.3])
    density = np.array([0.6, 0.4])
    return build_scenario(
        weights=[1.0, 1.0],
        prior_values=prior_card.mean() * density,
        prior_card=prior_card,
        p_d=[0.7, 0.5],
        clutter_card=CardinalityPgf.finite([0.6, 0.3, 0.1]),
        meas_cards=[CardinalityPgf.finite([0.4, 0.4, 0.2]),
                    CardinalityPgf.finite([0.5, 0.3, 0.2])],
        likelihood=[[0.7, 0.3], [0.2, 0.8]],
        clutter_density=[0.5, 0.5],
        measurements=[0],
    )


# -- detected-cell masses ------------------------------------------------------


def test_cell_mass_zero_without_detection():
    intensity, card, measurements, model = coherent_two_point()
    model = dataclasses.replace(model, detection_prob=np.zeros(2))
    _, density = normalize_intensity(intensity)
    assert cell_detection_mass((0,), density, measurements, model) == 0.0


def test_cell_mass_vanishes_beyond_standard_support():
    # One measurement per detection: the second derivative of its count
    # p.g.f. is exactly zero, so two-measurement cells carry no mass.
    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(
        model, meas_card=(CardinalityPgf.finite([0.0, 1.0]),) * 2
    )
    _, density = normalize_intensity(intensity)
    measurements = MeasurementSet.of([0, 1])
    assert cell_detection_mass((0, 1), density, measurements, model) == 0.0


def test_cell_mass_closed_form_single_point():
    intensity, _, measurements, model = build_scenario(
        weights=[1.0], prior_values=[1.0],
        prior_card=CardinalityPgf.finite([0.5, 0.5]),
        p_d=[1.0],
        clutter_card=CardinalityPgf.poisson(0.5),
        meas_cards=[CardinalityPgf.poisson(1.0)],
        likelihood=[[0.5, 0.5]],
        clutter_density=[0.25, 0.75],
        measurements=[0],
    )
    _, density = normalize_intensity(intensity)
    # p_D * G_Z'(0) * ratio = 1 * e^-1 * (0.5/0.25)
    expected = 2.0 * math.exp(-1.0)
    assert cell_detection_mass((0,), density, measurements, model) == pytest.approx(expected, rel=1e-15)


# -- beta, omega, kappa --------------------------------------------------------


def test_subpartition_product_examples():
    eta = {(0,): 0.3, (1,): 0.5, (0, 1): 0.0}
    assert subpartition_product(Partition(((0, 1),)), eta) == 0.0
    assert subpartition_product(Partition(((0,), (1,))), eta) == pytest.approx(0.15, abs=0.0)
    assert subpartition_product(Partition(((1,),)), eta) == 0.5


def test_beta_no_detection_reduces_to_clutter_term():
    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(model, detection_prob=np.zeros(2))
    measurements = MeasurementSet.of([0, 1])
    table = coefficient_table(intensity, card, measurements, model)
    for cell, beta in table.beta.items():
        assert beta == table.zeta_clutter[len(cell)]


def test_beta_poisson_identity():
    scenario = poisson_scenario(41, n_measurements=3)
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    rate = scenario.model.clutter_card.rate
    mass = scenario.prior_card.rate
    for cell, beta in table.beta.items():
        expected = (rate if len(cell) == 1 else 0.0) + mass * table.eta[cell]
        assert beta == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_beta_standard_identity():
    scenario = standard_scenario(17, n_measurements=3)
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    _, density = normalize_intensity(scenario.prior_intensity)
    from etcphd.statespace import bracket, missed_detection_profile

    phi = bracket(density, missed_detection_profile(scenario.model))
    for cell, beta in table.beta.items():
        product = 1.0
        for z in cell:
            product *= table.eta[(z,)]
        expected = (
            scenario.model.clutter_card.log_derivative_at(0.0, len(cell))
            + scenario.prior_card.log_derivative_at(phi, len(cell)) * product
        )
        assert beta == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_beta_matches_free_function():
    scenario = mixed_scenario(23, 3)
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    cache = {}
    for cell, beta in table.beta.items():
        again = cell_coefficient(cell, table.eta, table.zeta_clutter,
                                 table.zeta_prior, cache=cache)
        assert again == pytest.approx(beta, rel=1e-15)


TABLE_SCENARIOS = [pytest.param(performance_scenario(8), id="performance-8")] + [
    pytest.param(make(seed, n), id=f"{make.__name__}-{seed}-{n}")
    for make in (poisson_scenario, standard_scenario, mixed_scenario)
    for seed, n in [(seed, 5) for seed in range(8)] + [(seed, 8) for seed in range(2)]
]


@pytest.mark.parametrize("scenario", TABLE_SCENARIOS)
def test_coefficient_table_matches_enumeration(scenario):
    """beta, omega and kappa from the partition-sum kernel against the
    enumerating reference functions.  beta and kappa are signed sums, so
    their error is taken relative to the sum of their terms' magnitudes."""
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    cache = {}
    beta_scale, kappa_inner = {}, {}
    for cell in table.beta:
        alphas = [(len(sub), abs(subpartition_product(sub, table.eta)))
                  for sub in subpartitions_of(cell, cache=cache)]
        beta_scale[cell] = abs(table.zeta_clutter[len(cell)]) + math.fsum(
            a * abs(table.zeta_prior[q]) for q, a in alphas)
        kappa_inner[cell] = math.fsum(a * abs(table.zeta_prior[q + 1]) for q, a in alphas)
    for cell, beta in table.beta.items():
        again = cell_coefficient(cell, table.eta, table.zeta_clutter, table.zeta_prior,
                                 cache=cache)
        assert abs(again - beta) <= 1e-12 * beta_scale[cell]
    omega = partition_weights(range(len(scenario.measurements)), table.beta)
    for partition, weight in omega.items():
        assert table.omega[partition] == pytest.approx(weight, rel=1e-12, abs=0.0)
    kappa = missed_detection_correction(table.omega, table.beta, table.eta,
                                        table.zeta_prior, cache=cache)
    kappa_scale = math.fsum(
        abs(weight) * math.fsum(kappa_inner[cell] / abs(table.beta[cell]) for cell in partition)
        for partition, weight in table.omega.items() if weight != 0.0
    )
    assert abs(kappa - table.kappa) <= 1e-12 * kappa_scale


def test_omega_single_measurement():
    intensity, card, measurements, model = coherent_two_point()
    table = coefficient_table(intensity, card, measurements, model)
    assert table.omega == {Partition(((0,),)): 1.0}


def test_omega_hand_set_betas():
    beta = {(0, 1): 2.0, (0,): 1.0, (1,): 1.0}
    omega = partition_weights((0, 1), beta)
    assert omega[Partition(((0, 1),))] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert omega[Partition(((0,), (1,)))] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_omega_sums_to_one():
    for seed in range(5):
        scenario = mixed_scenario(100 + seed, 3)
        table = coefficient_table(
            scenario.prior_intensity, scenario.prior_card,
            scenario.measurements, scenario.model, scenario.options,
        )
        assert math.fsum(table.omega.values()) == pytest.approx(1.0, abs=1e-12)


def test_kappa_zero_for_poisson_prior():
    scenario = poisson_scenario(7)
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    assert table.kappa == 0.0


def test_kappa_zero_without_detection():
    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(model, detection_prob=np.zeros(2))
    measurements = MeasurementSet.of([0, 1])
    table = coefficient_table(intensity, card, measurements, model)
    assert table.kappa == 0.0


def test_kappa_matches_free_function():
    scenario = mixed_scenario(31, 3)
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    again = missed_detection_correction(
        table.omega, table.beta, table.eta, table.zeta_prior
    )
    assert again == pytest.approx(table.kappa, rel=1e-12, abs=1e-15)


def test_kappa_against_oracle_decomposition():
    """With one measurement the intensity has a single detected term, so the
    oracle posterior pins down the missed-detection coefficient; its gap to
    the first prior log-derivative is exactly kappa."""
    intensity, card, measurements, model = coherent_two_point()
    table = coefficient_table(intensity, card, measurements, model)
    _, density = normalize_intensity(intensity)
    oracle = exact_posterior(card, density, measurements, model, n_max=2)

    from etcphd.statespace import missed_detection_profile

    psi = detection_profile((0,), measurements, model)
    term2 = table.zeta_prior[1] * psi * density.values / table.beta[(0,)]
    miss = missed_detection_profile(model)
    coefficient = (oracle.intensity - term2) / (miss * density.values)
    assert coefficient[0] == pytest.approx(coefficient[1], rel=1e-12)
    assert coefficient[0] - table.zeta_prior[1] == pytest.approx(table.kappa, rel=1e-10)


# -- intensity update -----------------------------------------------------------


def test_no_detection_leaves_prior_untouched():
    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(model, detection_prob=np.zeros(2))
    measurements = MeasurementSet.of([0, 1])
    result = corrector_step(intensity, card, measurements, model)
    assert result.intensity == pytest.approx(intensity.values, rel=1e-12)
    assert result.cardinality == pytest.approx(list(card.probs), abs=1e-12)
    assert result.cardinality_closed_form == pytest.approx(list(card.probs), abs=1e-12)


def test_relabeling_invariance():
    base = mixed_scenario(53, 3)
    values = list(base.measurements.values)
    permutation = [2, 0, 1]
    permuted_values = [values[i] for i in permutation]

    result = corrector_step(base.prior_intensity, base.prior_card,
                            base.measurements, base.model, base.options)
    shuffled = corrector_step(base.prior_intensity, base.prior_card,
                              MeasurementSet.of(permuted_values), base.model, base.options)

    assert shuffled.intensity == pytest.approx(result.intensity, rel=1e-12)
    assert shuffled.cardinality == pytest.approx(result.cardinality, abs=1e-12)

    # new label j holds old label permutation[j]
    def relabel(cell):
        return tuple(sorted(permutation[z] for z in cell))

    for cell, beta in shuffled.coefficients.beta.items():
        assert beta == pytest.approx(result.coefficients.beta[relabel(cell)], rel=1e-12)
    for partition, weight in shuffled.coefficients.omega.items():
        original = Partition(tuple(sorted(relabel(cell) for cell in partition)))
        assert weight == pytest.approx(result.coefficients.omega[original], rel=1e-12, abs=1e-15)


def test_empty_measurement_set_convention():
    intensity, card, _, model = coherent_two_point()
    measurements = MeasurementSet.of([])
    result = corrector_step(intensity, card, measurements, model)

    _, density = normalize_intensity(intensity)
    from etcphd.statespace import bracket, missed_detection_profile

    miss = missed_detection_profile(model)
    phi = bracket(density, miss)
    expected_intensity = card.log_derivative_at(phi, 1) * miss * density.values
    assert result.intensity == pytest.approx(expected_intensity, rel=1e-13)

    scale = card.eval(phi)
    expected_card = [phi**n * card.prob(n) / scale for n in range(3)]
    assert result.cardinality == pytest.approx(expected_card, rel=1e-13)

    # Clutter allows an empty scan (P_FA(0) > 0), so the oracle agrees.
    oracle = exact_posterior(card, density, measurements, model, n_max=2)
    report = compare_to_corrector(oracle, result)
    assert report["pass"]


def test_first_moment_consistency_on_random_scenarios():
    for seed in range(10):
        scenario = micro_scenario(300 + seed)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        mass = result.diagnostics["posterior_mass"]
        mean = result.diagnostics["posterior_mean_from_cardinality"]
        assert abs(mass - mean) <= 1e-9
        assert result.diagnostics["cardinality_sum"] == pytest.approx(1.0, abs=1e-10)
        assert result.diagnostics["omega_sum"] == pytest.approx(1.0, abs=1e-12)


def test_wrapper_operations_match_full_step():
    scenario = mixed_scenario(67, 2)
    args = (scenario.prior_intensity, scenario.prior_card,
            scenario.measurements, scenario.model, scenario.options)
    result = corrector_step(*args)
    assert update_intensity(*args) == pytest.approx(result.intensity, abs=0.0)
    assert posterior_pgf_series(*args) == pytest.approx(result.cardinality, abs=0.0)
    assert posterior_cardinality_closed_form(*args) == pytest.approx(
        result.cardinality_closed_form, abs=0.0
    )


# -- cardinality routes ----------------------------------------------------------


def test_series_route_matches_oracle():
    worst = 0.0
    for seed in range(25):
        scenario = micro_scenario(700 + seed)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        _, density = normalize_intensity(scenario.prior_intensity)
        oracle = exact_posterior(scenario.prior_card, density, scenario.measurements,
                                 scenario.model, n_max=scenario.prior_card.support_max)
        report = compare_to_corrector(oracle, result)
        worst = max(worst, report["cardinality_total_variation"])
        assert report["pass"], report
    assert worst <= 1e-10


def test_routes_agree_for_poisson_priors():
    for seed in range(10):
        scenario = poisson_scenario(900 + seed)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        assert result.diagnostics["route_max_deviation"] <= 1e-10


def test_route_deviation_reported_for_general_priors():
    # Support above one plus multi-measurement cells: the closed form's
    # dropped chain-rule terms surface as a nonzero deviation.
    deviations = []
    for seed in range(20):
        scenario = mixed_scenario(1500 + seed, 3)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        deviations.append(result.diagnostics["route_max_deviation"])
    assert max(deviations) > 1e-6


def test_corrector_matches_oracle_at_four_measurements():
    worst_intensity = worst_tv = 0.0
    for seed in range(40):
        scenario = micro_scenario(4400 + seed, n_measurements=4)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        _, density = normalize_intensity(scenario.prior_intensity)
        oracle = exact_posterior(scenario.prior_card, density, scenario.measurements,
                                 scenario.model, n_max=scenario.prior_card.support_max)
        report = compare_to_corrector(oracle, result)
        assert report["pass"], report
        worst_intensity = max(worst_intensity, report["intensity_max_rel_error"])
        worst_tv = max(worst_tv, report["cardinality_total_variation"])
    assert worst_intensity <= 1e-9
    assert worst_tv <= 1e-10


def test_micro_scenario_measurement_count_leaves_the_draws_alone():
    default = micro_scenario(4401)
    forced = micro_scenario(4401, n_measurements=4)
    assert len(forced.measurements) == 4
    assert np.array_equal(forced.model.detection_prob, default.model.detection_prob)
    assert forced.prior_card == default.prior_card


@pytest.mark.parametrize("rate", [12.0, 20.0, 40.0])
def test_truncated_poisson_cardinality_warns(rate):
    """Large poisson priors lose cardinality mass once the truncation order
    hits the support maximum; the step says so instead of staying silent."""
    scenario = poisson_scenario(3, 4)
    values = scenario.prior_intensity.values * rate / scenario.prior_intensity.total_mass()
    result = corrector_step(Intensity.create(scenario.grid, values),
                            CardinalityPgf.poisson(rate), scenario.measurements,
                            scenario.model, scenario.options)
    assert abs(result.diagnostics["cardinality_sum"] - 1.0) > 1e-10
    warnings = result.diagnostics["warnings"]
    assert any("posterior cardinality sums to" in w
               and f"within {CARDINALITY_SUM_TOL:g}" in w for w in warnings)
    assert any("differs from the intensity mass" in w
               and f"more than {FIRST_MOMENT_TOL:g}" in w for w in warnings)


def test_series_route_requires_prior_mass_at_zero():
    intensity, _, measurements, model = coherent_two_point()
    card = CardinalityPgf.finite([0.0, 0.5, 0.5])
    with pytest.raises(SingularEvaluationError):
        posterior_pgf_series(intensity, card, measurements, model)


# -- guards ---------------------------------------------------------------------


def test_measurement_cap_names_bell_cost():
    scenario = mixed_scenario(3, 2)
    measurements = MeasurementSet.of([0] * 9)
    with pytest.raises(SizeLimitError) as excinfo:
        corrector_step(scenario.prior_intensity, scenario.prior_card,
                       measurements, scenario.model, scenario.options)
    assert "Bell(9)" in str(excinfo.value)


def test_raised_cap_requires_acknowledgment():
    with pytest.raises(ValidationError):
        CorrectorOptions(max_measurements=10).effective_cap()
    assert CorrectorOptions(max_measurements=10, acknowledge_cost=True).effective_cap() == 10


def test_degenerate_update_on_impossible_data():
    # No detections and clutter that cannot produce two measurements.
    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(
        model,
        detection_prob=np.zeros(2),
        clutter_card=CardinalityPgf.finite([0.5, 0.5]),
    )
    measurements = MeasurementSet.of([0, 1])
    with pytest.raises(DegenerateUpdateError):
        corrector_step(intensity, card, measurements, model)


def test_coefficient_product_overflow_guard():
    from etcphd.errors import NumericalOverflowError

    intensity, card, _, model = coherent_two_point()
    model = dataclasses.replace(model, clutter_card=CardinalityPgf.poisson(1e200))
    measurements = MeasurementSet.of([0, 1])
    with pytest.raises(NumericalOverflowError):
        corrector_step(intensity, card, measurements, model)


def test_continuous_kernel_mode():
    grid = StateGrid.create([1.0, 1.0])
    centers = np.array([-1.0, 1.0])

    def likelihood(value):
        return np.exp(-0.5 * (value - centers) ** 2) / math.sqrt(2 * math.pi)

    def clutter_density(value):
        return 0.1 if -5.0 <= value <= 5.0 else 0.0

    kernel = ContinuousKernel(likelihood, clutter_density, n_points=2)
    model = SensorModel.create(
        grid=grid,
        detection_prob=[0.9, 0.8],
        clutter_card=CardinalityPgf.poisson(0.5),
        meas_card=[CardinalityPgf.poisson(1.0)] * 2,
        kernel=kernel,
    )
    card = CardinalityPgf.finite([0.3, 0.5, 0.2])
    intensity = Intensity.create(grid, card.mean() * np.array([0.5, 0.5]))
    measurements = MeasurementSet.of([-0.8, 1.2])
    result = corrector_step(intensity, card, measurements, model)
    assert result.diagnostics["cardinality_sum"] == pytest.approx(1.0, abs=1e-10)
    assert result.diagnostics["omega_sum"] == pytest.approx(1.0, abs=1e-12)
    assert abs(result.diagnostics["posterior_mass"]
               - result.diagnostics["posterior_mean_from_cardinality"]) <= 1e-9


