"""The benchmark's workloads: seeded input documents, operations, checks.

Every input is generated here from the workload seed with the benchmark's
own numpy generator and handed to the package only as JSON-ready scenario
documents through `scenario_from_dict`.  An operation calls the package's
public functions the way the `etcphd` command does, and its outputs are
checked afterwards, outside the timed region.

Workloads (see README.md for why each exists):
  scan8    one corrector step at |Z|=8 on 50 points, finite prior of support 8
  grid50k  one corrector step at |Z|=4 on 50,000 points, all models poisson
  track    a `simulate` episode of 10 scans with |Z| in 3..7
  verify   one run of the five randomized verification suites
"""

from __future__ import annotations

import importlib
import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

N_VALUES = 6

SCAN8_POINTS = 50
SCAN8_Z = 8
SCAN8_SUPPORT = 8
SCAN8_INPUTS = 256

GRID_POINTS = 50_000
GRID_Z = 4
GRID_INPUTS = 256

TRACK_POINTS = 50
TRACK_PRIOR_RATE = 4.0
TRACK_BIRTH_RATE = 1.0
TRACK_SURVIVAL = 0.5
# Each block of five scans is a seeded permutation of these sizes, so every
# episode does the same work whatever the seed.  |Z| stops at 7: one |Z|=8
# scan at the support-23 prior costs as much as a whole episode.
TRACK_SIZES = (3, 4, 5, 6, 7)
TRACK_BLOCKS = 2
TRACK_INPUTS = 64

VERIFY_INPUTS = 256

# The enumeration reference costs about half a scan8 step: it runs on every
# ENUMERATION_EVERY-th input, the warm-up included.
ENUMERATION_EVERY = 4

# Tolerances pinned by the package's own suites and tests.
OMEGA_SUM_TOL = 1e-12
CARD_SUM_TOL = 1e-10
MOMENT_GAP_TOL = 1e-9
ETPHD_TOL = 1e-12
KAPPA_POISSON_TOL = 1e-14
ENUMERATION_REL_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's output broke an identity or disagreed with a reference."""


def generator(seed: int, workload: str) -> np.random.Generator:
    """The benchmark's own PCG64 stream for one workload and seed."""
    tag = zlib.crc32(workload.encode("ascii"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), tag])))


def _simplex(rng, size: int, floor: float = 0.08) -> np.ndarray:
    raw = floor + rng.uniform(0.0, 1.0, size)
    return raw / raw.sum()


def _simplex_rows(rng, rows: int, size: int, floor: float = 0.08) -> np.ndarray:
    raw = floor + rng.uniform(0.0, 1.0, (rows, size))
    return raw / raw.sum(axis=1, keepdims=True)


def _model_doc(rng, n_points: int, prior_mass: float, clutter_rate: float) -> tuple[dict, dict]:
    """Grid, prior intensity of the given mass and a poisson-count sensor."""
    weights = rng.uniform(0.5, 1.5, n_points)
    density = _simplex(rng, n_points) / weights
    density = density / float(np.dot(density, weights))
    intensity = prior_mass * density
    p_d = rng.uniform(0.3, 0.95, n_points)
    gammas = rng.uniform(0.5, 1.5, n_points)
    clutter_density = _simplex(rng, N_VALUES)
    likelihood = _simplex_rows(rng, n_points, N_VALUES)
    grid = {"weights": weights.tolist()}
    sensor = {
        "p_d": p_d.tolist(),
        "clutter": {"cardinality": {"poisson": clutter_rate}, "density": clutter_density.tolist()},
        "target_cardinality": {"poisson": gammas.tolist()},
        "likelihood": likelihood.tolist(),
    }
    return {"grid": grid, "sensor": sensor}, {"intensity": intensity, "weights": weights}


def _measurement_sets(rng, sizes) -> list[list[int]]:
    return [[int(v) for v in rng.integers(0, N_VALUES, size)] for size in sizes]


def scan8_documents(seed: int) -> list[dict]:
    rng = generator(seed, "scan8")
    probs = _simplex(rng, SCAN8_SUPPORT + 1)
    mean = math.fsum(n * p for n, p in enumerate(probs))
    base, arrays = _model_doc(rng, SCAN8_POINTS, mean, 2.0)
    doc = {
        **base,
        "prior": {"intensity": arrays["intensity"].tolist(), "cardinality": probs.tolist()},
        "measurements": _measurement_sets(rng, [SCAN8_Z] * SCAN8_INPUTS),
        "options": {},
    }
    return [doc]


def grid50k_documents(seed: int) -> list[dict]:
    rng = generator(seed, "grid50k")
    rate = float(rng.uniform(2.0, 5.0))
    clutter_rate = float(rng.uniform(1.0, 3.0))
    base, arrays = _model_doc(rng, GRID_POINTS, rate, clutter_rate)
    intensity = arrays["intensity"]
    # The prior cardinality is poisson with rate equal to the intensity mass,
    # computed as the package computes it, so ET-PHD is an exact reference.
    mass = float(np.dot(intensity, arrays["weights"]))
    doc = {
        **base,
        "prior": {"intensity": intensity.tolist(), "cardinality": {"poisson": mass}},
        "measurements": _measurement_sets(rng, [GRID_Z] * GRID_INPUTS),
        "options": {},
    }
    return [doc]


def track_sizes(rng) -> list[int]:
    sizes: list[int] = []
    for _ in range(TRACK_BLOCKS):
        sizes.extend(int(v) for v in rng.permutation(TRACK_SIZES))
    return sizes


def track_documents(seed: int) -> list[dict]:
    rng = generator(seed, "track")
    clutter_rate = float(rng.uniform(1.0, 2.0))
    base, arrays = _model_doc(rng, TRACK_POINTS, TRACK_PRIOR_RATE, clutter_rate)
    intensity = arrays["intensity"]
    mass = float(np.dot(intensity, arrays["weights"]))
    birth = (TRACK_BIRTH_RATE / TRACK_PRIOR_RATE) * intensity
    docs = []
    for _ in range(TRACK_INPUTS):
        docs.append({
            **base,
            "prior": {"intensity": intensity.tolist(), "cardinality": {"poisson": mass}},
            "measurements": _measurement_sets(rng, track_sizes(rng)),
            "simulation": {
                "truth": [],
                "survival": TRACK_SURVIVAL,
                "birth": {"intensity": birth.tolist(),
                          "cardinality": {"poisson": TRACK_BIRTH_RATE}},
            },
            "options": {},
        })
    return docs


def verify_seeds(seed: int) -> list[list[int]]:
    """Per operation: base seeds for the oracle, poisson, standard, routes and
    identities suites."""
    rng = generator(seed, "verify")
    return [[int(v) for v in rng.integers(0, 2**31, 5)] for _ in range(VERIFY_INPUTS)]


# -- checks ------------------------------------------------------------------


def _max_relative_deviation(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mask = (np.abs(a) > 0.0) | (np.abs(b) > 0.0)
    if not np.any(mask):
        return 0.0
    scale = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(a - b)[mask] / scale[mask]))


def check_identities(result, quality: dict) -> None:
    """Normalization identities every corrector result satisfies."""
    diag = result.diagnostics
    omega_err = abs(diag["omega_sum"] - 1.0)
    card_err = abs(diag["cardinality_sum"] - 1.0)
    gap = abs(diag["posterior_mass"] - diag["posterior_mean_from_cardinality"])
    _raise_max(quality, "omega_sum_err_max", omega_err)
    _raise_max(quality, "card_sum_err_max", card_err)
    _raise_max(quality, "moment_gap_max", gap)
    _raise_max(quality, "route_dev_max", diag["route_max_deviation"])
    if not omega_err <= OMEGA_SUM_TOL:
        raise CheckFailed(f"omega sum off by {omega_err!r}")
    if not card_err <= CARD_SUM_TOL:
        raise CheckFailed(f"cardinality sum off by {card_err!r}")
    if not gap <= MOMENT_GAP_TOL:
        raise CheckFailed(f"first moments differ by {gap!r}")


def check_serialized(step_doc: dict, result, measurements) -> None:
    """The serialized step carries the result exactly (shortest-repr floats)."""
    posterior = step_doc["posterior"]
    if step_doc["measurement_count"] != len(measurements):
        raise CheckFailed("serialized measurement count differs")
    if step_doc["partition_count"] != result.diagnostics["partition_count"]:
        raise CheckFailed("serialized partition count differs")
    if posterior["cardinality"] != result.cardinality.tolist():
        raise CheckFailed("serialized cardinality differs from the result")
    if posterior["intensity"] != result.intensity.tolist():
        raise CheckFailed("serialized intensity differs from the result")


def check_etphd(pkg, scenario, measurements, result, quality: dict) -> None:
    """All-poisson inputs: the corrector must reproduce the ET-PHD filter."""
    reference = pkg.etphd_update(scenario.prior_intensity, measurements, scenario.model)
    intensity_dev = _max_relative_deviation(result.intensity, reference.intensity)
    omega = result.coefficients.omega
    omega_dev = max((abs(w - omega[p]) for p, w in reference.omega.items()), default=0.0)
    kappa = abs(result.coefficients.kappa)
    _raise_max(quality, "ref_max_rel_err", intensity_dev)
    if not intensity_dev <= ETPHD_TOL:
        raise CheckFailed(f"intensity deviates from ET-PHD by {intensity_dev!r}")
    if not omega_dev <= ETPHD_TOL:
        raise CheckFailed(f"partition weights deviate from ET-PHD by {omega_dev!r}")
    if not kappa <= KAPPA_POISSON_TOL:
        raise CheckFailed(f"kappa {kappa!r} should vanish for a poisson prior")


def check_enumeration(pkg, n_measurements: int, result, quality: dict) -> None:
    """Coefficient table against the public enumeration functions: beta per
    cell, omega per partition, and kappa.  Skipped, and recorded as such,
    once those functions leave the public namespace."""
    needed = ("cell_coefficient", "partition_weights", "missed_detection_correction")
    if not all(hasattr(pkg, name) for name in needed):
        quality["enumeration_reference"] = "unavailable"
        return
    table = result.coefficients
    cache: dict = {}
    beta_dev = 0.0
    for cell, beta in table.beta.items():
        again = pkg.cell_coefficient(cell, table.eta, table.zeta_clutter, table.zeta_prior,
                                     cache=cache)
        beta_dev = max(beta_dev, abs(again - beta) / max(abs(beta), 1e-300))
    omega = pkg.partition_weights(range(n_measurements), table.beta)
    omega_dev = max(abs(w - table.omega[p]) for p, w in omega.items())
    kappa = pkg.missed_detection_correction(table.omega, table.beta, table.eta,
                                            table.zeta_prior, cache=cache)
    # Relative, with the 1e-15 absolute floor the package's tests use for kappa.
    kappa_gap = abs(kappa - table.kappa)
    kappa_dev = 0.0 if kappa_gap <= 1e-15 else kappa_gap / abs(table.kappa)
    worst = max(beta_dev, omega_dev, kappa_dev)
    _raise_max(quality, "ref_max_rel_err", worst)
    if not worst <= ENUMERATION_REL_TOL:
        raise CheckFailed(
            f"coefficient table deviates from enumeration: beta {beta_dev!r}, "
            f"omega {omega_dev!r}, kappa {kappa_dev!r}"
        )


def _raise_max(quality: dict, key: str, value: float) -> None:
    quality[key] = max(quality.get(key, value), value)


# -- operations --------------------------------------------------------------


@dataclass
class Workload:
    """`documents(seed)` makes the inputs; `prepare(pkg, scenarios, seed)`
    returns the per-run context; `run(ctx, i)` is the timed operation on
    input i; `check(ctx, i, output, quality)` verifies it afterwards.  Why
    each workload exists is in README.md and BENCHMARK.json."""

    documents: Callable
    prepare: Callable
    run: Callable
    check: Callable
    scans_per_op: Callable = field(default=lambda ctx, output: 1)


def _run_update(ctx, i):
    """`etcphd update --out`: one corrector step, then the result file text."""
    pkg = ctx["pkg"]
    scenario = ctx["scenario"]
    measurements = ctx["inputs"][i]
    result = pkg.corrector_step(scenario.prior_intensity, scenario.prior_card,
                                measurements, scenario.model, scenario.options)
    step = pkg.StepResult(
        step_index=0,
        measurement_count=len(measurements),
        partition_count=result.diagnostics["partition_count"],
        result=result,
        wall_time_s=result.diagnostics.get("wall_time_s", 0.0),
    )
    text = ctx["scenario_mod"].dump_json(ctx["scenario_mod"].step_result_to_dict(step))
    return result, text


def _check_update(ctx, i, output, quality, reference):
    result, text = output
    measurements = ctx["inputs"][i]
    check_identities(result, quality)
    check_serialized(json.loads(text), result, measurements)
    reference(ctx["pkg"], ctx["scenario"], measurements, result, quality)
    quality["result_bytes"] = len(text)


def _prepare_update(pkg, scenarios, seed):
    return {
        "pkg": pkg,
        "scenario": scenarios[0],
        "scenario_mod": importlib.import_module(pkg.__name__ + ".scenario"),
        "inputs": scenarios[0].steps,
    }


def _check_scan8(ctx, i, output, quality):
    def reference(pkg, scenario, measurements, result, quality):
        if i % ENUMERATION_EVERY == 0:
            check_enumeration(pkg, len(measurements), result, quality)

    _check_update(ctx, i, output, quality, reference)


def _check_grid50k(ctx, i, output, quality):
    _check_update(ctx, i, output, quality, check_etphd)


def _prepare_track(pkg, scenarios, seed):
    rng = generator(seed, "track-episodes")
    return {
        "pkg": pkg,
        "simulate": importlib.import_module(pkg.__name__ + ".simulate"),
        "scenario_mod": importlib.import_module(pkg.__name__ + ".scenario"),
        "inputs": scenarios,
        "episode_seeds": [int(v) for v in rng.integers(0, 2**63, len(scenarios))],
    }


def _run_track(ctx, i):
    """`etcphd simulate --out`: a whole episode, then the run file text."""
    sim = ctx["simulate"]
    scenario = ctx["inputs"][i]
    n_steps = len(scenario.steps)
    run = sim.simulate(scenario, n_steps, ctx["episode_seeds"][i])
    payload = {
        "seed": run.seed,
        "rng": sim.RNG_NAME,
        "measurements": run.measurements,
        "steps": [ctx["scenario_mod"].step_result_to_dict(step) for step in run.steps],
    }
    return run, ctx["scenario_mod"].dump_json(payload)


def _check_track(ctx, i, output, quality):
    run, text = output
    scenario = ctx["inputs"][i]
    if len(run.steps) != len(scenario.steps):
        raise CheckFailed(f"episode ran {len(run.steps)} of {len(scenario.steps)} scans")
    doc = json.loads(text)
    for step, step_doc, measurements in zip(run.steps, doc["steps"], scenario.steps):
        if list(measurements.values) != run.measurements[step.step_index]:
            raise CheckFailed("episode consumed other measurements than it was given")
        check_identities(step.result, quality)
        check_serialized(step_doc, step.result, measurements)
    # The first scan still has the poisson prior: ET-PHD is exact there.
    check_etphd(ctx["pkg"], scenario, scenario.steps[0], run.steps[0].result, quality)
    quality["result_bytes"] = len(text)


def _prepare_verify(pkg, scenarios, seed):
    return {"verify": importlib.import_module(pkg.__name__ + ".verify"),
            "inputs": verify_seeds(seed)}


VERIFY_SUITES = (
    "run_oracle_suite",
    "run_poisson_reduction_suite",
    "run_standard_reduction_suite",
    "run_cardinality_routes_suite",
    "run_identities_suite",
)


def _run_verify(ctx, i):
    module = ctx["verify"]
    seeds = ctx["inputs"][i]
    return [getattr(module, name)(base_seed=base) for name, base in zip(VERIFY_SUITES, seeds)]


def _check_verify(ctx, i, reports, quality):
    failed = [r["suite"] for r in reports if not r["pass"]]
    values = {(r["suite"], c["name"]): c["value"] for r in reports for c in r["checks"]}
    for key, metric in (
        (("oracle", "intensity_max_rel_error"), "ref_max_rel_err"),
        (("cardinality-routes", "poisson_routes_max_deviation"), "route_dev_max"),
    ):
        if key in values:
            _raise_max(quality, metric, values[key])
    for (suite, name), value in values.items():
        if name == "cardinality_sum_max_error":
            _raise_max(quality, "card_sum_err_max", value)
        elif name == "first_moment_max_gap":
            _raise_max(quality, "moment_gap_max", value)
        elif name == "omega_sum_max_error":
            _raise_max(quality, "omega_sum_err_max", value)
    if failed:
        raise CheckFailed(f"verify suites failed: {failed}")


def _verify_scans(ctx, reports):
    return sum(int(r.get("scenarios", 0)) for r in reports)


WORKLOADS = {
    "scan8": Workload(
        documents=scan8_documents,
        prepare=_prepare_update,
        run=_run_update,
        check=_check_scan8,
    ),
    "grid50k": Workload(
        documents=grid50k_documents,
        prepare=_prepare_update,
        run=_run_update,
        check=_check_grid50k,
    ),
    "track": Workload(
        documents=track_documents,
        prepare=_prepare_track,
        run=_run_track,
        check=_check_track,
        scans_per_op=lambda ctx, output: len(output[0].steps),
    ),
    "verify": Workload(
        documents=lambda seed: [],
        prepare=_prepare_verify,
        run=_run_verify,
        check=_check_verify,
        scans_per_op=_verify_scans,
    ),
}
