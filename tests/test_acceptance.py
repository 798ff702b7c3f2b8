"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines,
or through the CLI as `etcphd verify`.
"""

import functools
import time

import pytest

from etcphd.corrector import corrector_step
from etcphd.scenario import dump_json
from etcphd.synthetic import performance_scenario
from etcphd.verify import (
    run_combinatorics_suite,
    run_identities_suite,
    run_oracle_suite,
    run_poisson_reduction_suite,
    run_standard_reduction_suite,
    run_cardinality_routes_suite,
)

SUITE_RUNNERS = {
    "oracle": run_oracle_suite,
    "poisson-reduction": run_poisson_reduction_suite,
    "standard-reduction": run_standard_reduction_suite,
    "identities": run_identities_suite,
    "cardinality-routes": run_cardinality_routes_suite,
}


@functools.lru_cache(maxsize=None)
def suite_report(name: str):
    start = time.perf_counter()
    report = SUITE_RUNNERS[name]()
    elapsed = time.perf_counter() - start
    return report, elapsed


def check_value(report, name):
    for check in report["checks"]:
        if check["name"] == name:
            return check
    raise KeyError(name)


def announce(label, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")


def test_criterion_1_oracle_equivalence():
    report, elapsed = suite_report("oracle")
    intensity = check_value(report, "intensity_max_rel_error")
    tv = check_value(report, "cardinality_max_total_variation")
    passed = intensity["pass"] and tv["pass"] and elapsed < 30.0
    announce(
        "criterion 1 (oracle equivalence, 100 scenarios)",
        passed,
        f"intensity rel err {intensity['value']:.3e} <= 1e-9, "
        f"cardinality TV {tv['value']:.3e} <= 1e-10, runtime {elapsed:.2f}s < 30s",
    )
    assert intensity["value"] <= 1e-9
    assert tv["value"] <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_poisson_reduction():
    report, elapsed = suite_report("poisson-reduction")
    intensity = check_value(report, "intensity_max_rel_deviation")
    kappa = check_value(report, "kappa_max_abs")
    omega = check_value(report, "omega_max_deviation")
    passed = intensity["pass"] and kappa["pass"] and omega["pass"] and elapsed < 5.0
    announce(
        "criterion 2 (poisson reduction, 25 scenarios)",
        passed,
        f"intensity dev {intensity['value']:.3e} <= 1e-12, |kappa| {kappa['value']:.3e} <= 1e-14, "
        f"omega dev {omega['value']:.3e} <= 1e-12, runtime {elapsed:.2f}s < 5s",
    )
    assert intensity["value"] <= 1e-12
    assert kappa["value"] <= 1e-14
    assert omega["value"] <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_standard_reduction():
    report, elapsed = suite_report("standard-reduction")
    intensity = check_value(report, "intensity_max_rel_deviation")
    cardinality = check_value(report, "cardinality_max_deviation")
    eta = check_value(report, "eta_nonsingleton_max")
    passed = (intensity["pass"] and cardinality["pass"] and eta["pass"]
              and elapsed < 5.0)
    announce(
        "criterion 3 (standard reduction, 25 scenarios)",
        passed,
        f"intensity dev {intensity['value']:.3e} <= 1e-12, "
        f"cardinality dev {cardinality['value']:.3e} <= 1e-12, "
        f"eta(|V|>=2) == {eta['value']:.1e} exactly, runtime {elapsed:.2f}s < 5s",
    )
    assert intensity["value"] <= 1e-12
    assert cardinality["value"] <= 1e-12
    assert eta["value"] == 0.0
    assert elapsed < 5.0


def test_criterion_4_normalization_consistency():
    worst = {"omega_sum_max_error": 0.0, "cardinality_sum_max_error": 0.0,
             "first_moment_max_gap": 0.0}
    for name in ("oracle", "poisson-reduction", "standard-reduction"):
        report, _ = suite_report(name)
        for key in worst:
            check = check_value(report, key)
            assert check["pass"], (name, key, check)
            worst[key] = max(worst[key], check["value"])
    announce(
        "criterion 4 (normalization on every update of suites 1-3)",
        True,
        f"sum omega err {worst['omega_sum_max_error']:.3e} <= 1e-12, "
        f"sum P err {worst['cardinality_sum_max_error']:.3e} <= 1e-10, "
        f"moment gap {worst['first_moment_max_gap']:.3e} <= 1e-9",
    )


def test_criterion_5_derivative_identities():
    report, _ = suite_report("identities")
    first = check_value(report, "first_derivative_max_rel_deviation")
    second = check_value(report, "second_derivative_max_rel_deviation")
    passed = first["pass"] and second["pass"]
    announce(
        "criterion 5 (explicit derivative expansions, 25 scenarios)",
        passed,
        f"|Z|=1 dev {first['value']:.3e} <= 1e-12, |Z|=2 dev {second['value']:.3e} <= 1e-12",
    )
    assert first["value"] <= 1e-12
    assert second["value"] <= 1e-12


def test_criterion_6_combinatorics():
    report = run_combinatorics_suite()
    passed = report["pass"] and report["bell_counts"] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    announce(
        "criterion 6 (partition counts)",
        passed,
        f"bell counts {report['bell_counts']}",
    )
    assert passed


def test_criterion_7_cardinality_routes():
    report, _ = suite_report("cardinality-routes")
    poisson = check_value(report, "poisson_routes_max_deviation")
    general = check_value(report, "general_routes_max_deviation_reported")
    announce(
        "criterion 7 (cardinality route comparison)",
        poisson["pass"],
        f"poisson routes agree to {poisson['value']:.3e} <= 1e-10; "
        f"general-prior deviation {general['value']:.3e} reported (no gate)",
    )
    assert poisson["value"] <= 1e-10
    # The series route itself is gated by criterion 1.
    oracle_report, _ = suite_report("oracle")
    assert oracle_report["pass"]


@pytest.mark.parametrize("n_measurements,budget", [(6, 1.0), (8, 30.0)])
def test_criterion_8_performance(n_measurements, budget):
    scenario = performance_scenario(n_measurements, n_points=50)
    start = time.perf_counter()
    result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                            scenario.measurements, scenario.model, scenario.options)
    elapsed = time.perf_counter() - start
    passed = elapsed < budget
    announce(
        f"criterion 8 (|Z|={n_measurements} on 50-point grid)",
        passed,
        f"{elapsed:.3f}s < {budget}s, {result.diagnostics['partition_count']} partitions",
    )
    assert elapsed < budget
    assert abs(result.diagnostics["cardinality_sum"] - 1.0) <= 1e-10


def test_criterion_9_run_determinism():
    """Two fresh runs, past suite_report's cache, give the same bytes."""
    identical = True
    for name in ("oracle", "poisson-reduction", "standard-reduction"):
        first, second = (SUITE_RUNNERS[name]() for _ in range(2))
        if dump_json(first) != dump_json(second):
            identical = False
    announce(
        "criterion 9 (run determinism of suites 1-3)",
        identical,
        "reports byte-identical across two runs",
    )
    assert identical
