"""Verification suites: self-contained checks behind the `verify` CLI command.

Each suite returns a JSON-ready report dict with one entry per check; report
contents are deterministic functions of the seeds, so report files can be
compared byte for byte across runs.  Wall-clock timing is printed by the
CLI, never stored in reports.  Suites run their per-seed cases in one
process, in seed order; `seeds` sets how many cases a randomized suite runs
and `base_seed` where its seeds start.
"""

from __future__ import annotations

from .corrector import (CARDINALITY_SUM_TOL, FIRST_MOMENT_TOL, coefficient_table,
                        corrector_step, normalization_record)
from .oracle import compare_to_corrector, exact_posterior
from .partitions import bell_number, is_partition_of, partitions_of, subpartitions_of
from .reductions import check_poisson_reduction, check_standard_reduction
from .statespace import bracket, missed_detection_profile, normalize_intensity, ratio_matrix
from .synthetic import micro_scenario, mixed_scenario, poisson_scenario, standard_scenario

BELL_REFERENCE = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def _check(name, value, tolerance=None, passed=None):
    if passed is None:
        passed = bool(value <= tolerance)
    entry = {"name": name, "value": value, "pass": bool(passed)}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


def _route_deviation(scenario) -> float:
    return corrector_step(scenario.prior_intensity, scenario.prior_card, scenario.measurements,
                          scenario.model, scenario.options).diagnostics["route_max_deviation"]


def _normalization_checks(records):
    """Criterion-level consistency of every update: partition weights sum to
    one, the cardinality sums to one, and both posterior first moments agree."""
    omega_err = max(abs(d["omega_sum"] - 1.0) for d in records)
    card_err = max(abs(d["cardinality_sum"] - 1.0) for d in records)
    moment_err = max(
        abs(d["posterior_mass"] - d["posterior_mean_from_cardinality"]) for d in records
    )
    return [
        _check("omega_sum_max_error", omega_err, 1e-12),
        _check("cardinality_sum_max_error", card_err, CARDINALITY_SUM_TOL),
        _check("first_moment_max_gap", moment_err, FIRST_MOMENT_TOL),
    ]


def run_combinatorics_suite() -> dict:
    checks = []
    counts = []
    for n in range(9):
        parts = partitions_of(range(n))
        counts.append(len(parts))
        repeat = partitions_of(range(n))
        checks.append(
            _check(f"bell_{n}_count", abs(len(parts) - BELL_REFERENCE[n]), passed=len(parts) == BELL_REFERENCE[n])
        )
        if parts != repeat:
            checks.append(_check(f"bell_{n}_repeat_identical", 1.0, passed=False))
        if n <= 6:
            valid = all(is_partition_of(p, range(n)) for p in parts)
            checks.append(_check(f"bell_{n}_invariant", 0.0, passed=valid))
    triangle = [bell_number(n) for n in range(9)]
    checks.append(
        _check("bell_triangle_matches_enumeration", 0.0, passed=tuple(counts) == tuple(triangle))
    )
    cache: dict = {}
    sub_ok = True
    for partition in partitions_of(range(5)):
        for cell in partition:
            subs = subpartitions_of(cell, cache=cache)
            if len(subs) != bell_number(len(cell)):
                sub_ok = False
            if set(subs) != set(partitions_of(cell)):
                sub_ok = False
    checks.append(_check("subpartitions_match_partitions", 0.0, passed=sub_ok))
    return {
        "suite": "combinatorics",
        "bell_counts": counts,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _explicit_expansion(scenario, order: int) -> float:
    """The first- or second-derivative coefficient written out termwise at
    g = 0, h = 1, built from grid primitives only (no coefficient table)."""
    model = scenario.model
    measurements = scenario.measurements
    _, density = normalize_intensity(scenario.prior_intensity)
    phi = bracket(density, missed_detection_profile(model))
    ratios = ratio_matrix(measurements, model)
    gz = model.meas_derivatives_at_zero(2)
    p_d = model.detection_prob
    zeta_fa1 = model.clutter_card.log_derivative_at(0.0, 1)
    zeta_p1 = scenario.prior_card.log_derivative_at(phi, 1)
    if order == 1:
        return zeta_fa1 + zeta_p1 * bracket(density, p_d * gz[1] * ratios[0])
    zeta_fa2 = model.clutter_card.log_derivative_at(0.0, 2)
    zeta_p2 = scenario.prior_card.log_derivative_at(phi, 2)
    singles = [bracket(density, p_d * gz[1] * ratios[z]) for z in (0, 1)]
    product_term = 1.0
    for s in singles:
        product_term *= zeta_fa1 + zeta_p1 * s
    pair = bracket(density, p_d * gz[2] * ratios[0] * ratios[1])
    return product_term + zeta_fa2 + zeta_p2 * singles[0] * singles[1] + zeta_p1 * pair


def _identity_deviation(scenario) -> float:
    table = coefficient_table(
        scenario.prior_intensity, scenario.prior_card,
        scenario.measurements, scenario.model, scenario.options,
    )
    explicit = _explicit_expansion(scenario, len(scenario.measurements))
    return abs(explicit - table.normalizer) / max(1.0, abs(table.normalizer))


def run_identities_suite(seeds: int = 25, base_seed: int = 510) -> dict:
    """Explicit one- and two-measurement derivative expansions against the
    partition formula's products of cell coefficients."""
    worst = {
        m: max([0.0] + [_identity_deviation(mixed_scenario(base_seed + 101 * index + m, m))
                        for index in range(seeds)])
        for m in (1, 2)
    }
    checks = [
        _check("first_derivative_max_rel_deviation", worst[1], 1e-12),
        _check("second_derivative_max_rel_deviation", worst[2], 1e-12),
    ]
    return {
        "suite": "identities",
        "scenarios": seeds,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def run_poisson_reduction_suite(seeds: int = 25, base_seed: int = 2200) -> dict:
    reports = [check_poisson_reduction(poisson_scenario(seed))
               for seed in range(base_seed, base_seed + seeds)]
    checks = [
        _check("intensity_max_rel_deviation",
               max(r["intensity_max_rel_deviation"] for r in reports), 1e-12),
        _check("kappa_max_abs", max(r["kappa_abs"] for r in reports), 1e-14),
        _check("omega_max_deviation",
               max(r["omega_max_deviation"] for r in reports), 1e-12),
    ]
    checks.extend(_normalization_checks([r["normalization"] for r in reports]))
    return {
        "suite": "poisson-reduction",
        "scenarios": seeds,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def run_standard_reduction_suite(seeds: int = 25, base_seed: int = 3300) -> dict:
    reports = [check_standard_reduction(standard_scenario(seed))
               for seed in range(base_seed, base_seed + seeds)]
    checks = [
        _check("intensity_max_rel_deviation",
               max(r["intensity_max_rel_deviation"] for r in reports), 1e-12),
        _check("cardinality_max_deviation",
               max(r["cardinality_max_deviation"] for r in reports), 1e-12),
        _check("eta_nonsingleton_max",
               max(r["eta_nonsingleton_max"] for r in reports),
               passed=all(r["eta_nonsingleton_max"] == 0.0 for r in reports)),
        _check("alpha_nonsingleton_max",
               max(r["alpha_nonsingleton_max"] for r in reports),
               passed=all(r["alpha_nonsingleton_max"] == 0.0 for r in reports)),
    ]
    checks.extend(_normalization_checks([r["normalization"] for r in reports]))
    return {
        "suite": "standard-reduction",
        "scenarios": seeds,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def oracle_comparison(scenario) -> dict:
    """Corrector against the exhaustive posterior on one scenario.

    Scenarios the corrector's size caps reject come back as structured skip
    entries rather than failures."""
    from .errors import SizeLimitError

    try:
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
    except SizeLimitError as exc:
        return {"skipped": True, "reason": str(exc)}
    _, density = normalize_intensity(scenario.prior_intensity)
    reference = exact_posterior(
        scenario.prior_card, density, scenario.measurements, scenario.model,
        n_max=scenario.prior_card.support_max,
    )
    report = compare_to_corrector(reference, result)
    report["skipped"] = False
    report["normalization"] = normalization_record(result.diagnostics)
    return report


def run_oracle_suite(seeds: int = 100, base_seed: int = 4400) -> dict:
    records = []
    intensity_err = 0.0
    tv_err = 0.0
    moment_err = 0.0
    skipped = 0
    for seed in range(base_seed, base_seed + seeds):
        report = oracle_comparison(micro_scenario(seed))
        if report["skipped"]:
            skipped += 1
            continue
        records.append(report["normalization"])
        intensity_err = max(intensity_err, report["intensity_max_rel_error"])
        tv_err = max(tv_err, report["cardinality_total_variation"])
        moment_err = max(moment_err, report["first_moment_gap"])
    checks = [
        _check("intensity_max_rel_error", intensity_err, 1e-9),
        _check("cardinality_max_total_variation", tv_err, 1e-10),
    ]
    checks.extend(_normalization_checks(records))
    return {
        "suite": "oracle",
        "scenarios": seeds,
        "skipped": skipped,
        "oracle_first_moment_max_gap": moment_err,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def run_cardinality_routes_suite(seeds: int = 25, base_seed: int = 5500) -> dict:
    """Closed form against the series route: gated on poisson priors, where
    the two are provably equal; reported without a gate elsewhere, which
    documents the dropped chain-rule terms in the closed form."""
    poisson_dev, general_dev = (
        max([0.0] + [_route_deviation(make(seed)) for seed in range(first, first + seeds)])
        for make, first in ((poisson_scenario, base_seed), (micro_scenario, base_seed + 7000))
    )
    checks = [
        _check("poisson_routes_max_deviation", poisson_dev, 1e-10),
        _check("general_routes_max_deviation_reported", general_dev, passed=True),
    ]
    return {
        "suite": "cardinality-routes",
        "scenarios": seeds,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


SUITES = {
    "combinatorics": run_combinatorics_suite,
    "identities": run_identities_suite,
    "poisson-reduction": run_poisson_reduction_suite,
    "standard-reduction": run_standard_reduction_suite,
    "oracle": run_oracle_suite,
    "cardinality-routes": run_cardinality_routes_suite,
}


def run_suites(names, seeds: int | None = None) -> dict:
    reports = [SUITES[name]() if seeds is None or name == "combinatorics"
               else SUITES[name](seeds=seeds) for name in names]
    return {
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    }
