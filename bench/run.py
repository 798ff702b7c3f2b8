"""Corrector benchmark: one closed-loop caller drives the package's public API.

Usage:
  python3 bench/run.py --workload {scan8,grid50k,track,verify} --seed N \
      --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing else.  Inputs are generated from `--seed`, the
timed loop runs operations back to back until `--seconds` of operation wall
time have been measured, and every output is checked outside the timed
region.  The frozen reference kernel runs right before and right after each
operation, and reported times are wall times rescaled to the machine speed
at which that kernel takes `reference.NOMINAL_S` (see README.md).

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's module
boundaries and prints the per-layer metrics instead.  The last line of
standard output is always the JSON result; the line before it is the run
record, which is also written with any spans under `.bench_out/`.
"""

from __future__ import annotations

import os

# One closed-loop caller on one thread: numpy's BLAS would otherwise start a
# thread per core for the large dot products of `grid50k`, and on a shared
# host those threads wait on each other whenever another process holds a
# core, a delay the reference kernel cannot see.  Set before numpy is first
# imported; the set-up probes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import stats
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

PACKAGE = "etcphd"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Wall-clock guard: a run whose checks are unexpectedly slow still ends in time.
WALL_FACTOR = 2.0
STAGE_PROBES = 3
# Untraced re-runs of the first traced inputs, for the tracing overhead.
REPLAY_OPS = 5
MAX_ERRORS_KEPT = 5
OUT_DIR = ".bench_out"

PER_LAYER_UNITS = {
    "partitions.calls": "count",
    "partitions.items": "count",
    "pgf.jet_mul_calls": "count",
    "pgf.jet_madds": "count",
    "pgf.jet_order_max": "count",
    "pgf.card_evals": "count",
    "statespace.bracket_calls": "count",
    "statespace.points_touched": "count",
    "corrector.partition_count": "count",
    "corrector.useful_partition_ratio": "ratio",
    "scenario.result_bytes": "bytes",
    "simulate.predict_calls": "count",
    "oracle.calls": "count",
    "reductions.calls": "count",
    "quality.ref_max_rel_err": "rel",
    "quality.route_dev_max": "prob",
    "quality.card_sum_err_max": "prob",
    "quality.moment_gap_max": "targets",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, probe failure)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def import_package(root: Path):
    """Import the package from the checkout's `src/`, never from elsewhere."""
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / PACKAGE}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    location = Path(pkg.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SetupError(f"{PACKAGE} was imported from {location}, outside {src}")
    return pkg


def _probe(args: list[str], text: str) -> dict:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    # The import reference runs without `site`, so no .pth file preloads its modules.
    flags = ["-S"] if args[0] == "--reference" else []
    done = subprocess.run(
        [sys.executable, *flags, str(probe), *args], input=text, capture_output=True,
        text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(root: Path, docs) -> list[dict]:
    """Fresh interpreters, one after another, each importing the package and
    loading every document of the workload, with an import-reference
    interpreter before the first and after each of them."""
    text = json.dumps(docs)
    samples = []
    previous = _probe(["--reference"], "")["import_reference_s"]
    for _ in range(SETUP_REPEATS):
        sample = _probe([str(root)], text)
        if Path(sample["package"]).resolve().parent.parent != (root / "src").resolve():
            raise SetupError(f"set-up probe imported {sample['package']}")
        following = _probe(["--reference"], "")["import_reference_s"]
        sample["import_reference_s"] = (previous + following) / 2.0
        previous = following
        samples.append(sample)
    return samples


def scaled_setup(sample: dict) -> float:
    """Set-up time at nominal speed: the import scaled by the import
    reference, the loading (pure-Python work) by the CPU kernel."""
    return (sample["import_s"] * reference.NOMINAL_IMPORT_S / sample["import_reference_s"]
            + sample["load_s"] * reference.NOMINAL_S / sample["reference_s"])


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from `.git` directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / PACKAGE).glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def machine_record(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
    }


# -- the closed loop ---------------------------------------------------------


def speed_factor(before: float, after: float) -> float:
    """Multiplier from wall time to time at the nominal machine speed."""
    return reference.NOMINAL_S / ((before + after) / 2.0)


class Loop:
    """Runs operations back to back and keeps their times and failures."""

    def __init__(self, workload, ctx, quality: dict):
        self.workload = workload
        self.ctx = ctx
        self.quality = quality
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall: list[float] = []          # raw wall time of each timed operation
        self.scaled: list[float] = []        # the same at nominal machine speed
        self.rates: list[float] = []         # scans per scaled second, per operation
        self.reference: list[float] = []     # reference kernel times around them
        self.scans = 0

    def one(self, index: int, tracer: Tracer | None = None, op_id: int = -1):
        """Run and check input `index`.  Returns (wall time, speed factor,
        scans), or None if the operation raised or failed its check."""
        workload, ctx = self.workload, self.ctx
        self.attempted += 1
        before = reference.run_once()
        try:
            if tracer is None:
                start = time.perf_counter()
                output = workload.run(ctx, index)
                elapsed = time.perf_counter() - start
            else:
                tracer.op = op_id
                with tracer.span("op") as span:
                    output = workload.run(ctx, index)
                elapsed = tracer.span_end[span.sid] - tracer.span_start[span.sid]
        except Exception:
            self._fail(index, traceback.format_exc(limit=3))
            return None
        finally:
            if tracer is not None:
                tracer.op = -1
        after = reference.run_once()
        self.reference.extend((before, after))
        try:
            if tracer is not None:
                tracer.suppress += 1
            try:
                workload.check(ctx, index, output, self.quality)
            finally:
                if tracer is not None:
                    tracer.suppress -= 1
        except Exception:
            self._fail(index, traceback.format_exc(limit=3))
            return None
        return elapsed, speed_factor(before, after), workload.scans_per_op(ctx, output)

    def _fail(self, index: int, text: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"input {index}: {text.strip()}")

    def timed(self, first: int, budget_s: float, tracer: Tracer | None = None,
              after_each=None) -> list:
        """Operations on inputs first, first+1, ... until `budget_s` of
        operation wall time has been measured.  `after_each(index, op_id)`
        runs after each one.  Returns what `one` returned for each
        operation, in order."""
        n_inputs = len(self.ctx["inputs"])
        done: list = []
        measured = 0.0
        wall_start = time.perf_counter()
        wall_limit = WALL_FACTOR * budget_s + 20.0
        while measured < budget_s and time.perf_counter() - wall_start < wall_limit:
            index = (first + len(done)) % n_inputs
            outcome = self.one(index, tracer, op_id=len(done))
            if after_each is not None:
                after_each(index, len(done))
            done.append(outcome)
            if outcome is not None:
                elapsed, factor, scans = outcome
                measured += elapsed
                self.wall.append(elapsed)
                self.scaled.append(elapsed * factor)
                self.rates.append(scans / (elapsed * factor))
                self.scans += scans
        return done


# -- per-layer reduction -----------------------------------------------------


def _hooks(tracer: Tracer, captured: list) -> dict[str, tuple[str, ...]]:
    """Counter hooks keyed by span name; returns the metrics each one feeds."""

    def partitions_items(t, args, kwargs, result, boundary):
        if boundary:
            t.count("partitions.items", len(result))

    def jet_mul(t, args, kwargs, result, boundary):
        k = len(args[0].coeffs) - 1
        t.count("pgf.jet_mul_calls")
        t.count("pgf.jet_madds", (k + 1) * (k + 2) // 2)
        t.count_max("pgf.jet_order_max", k)

    def card_evals(t, args, kwargs, result, boundary):
        t.count("pgf.card_evals", args[0].grid.size)

    def bracket(t, args, kwargs, result, boundary):
        t.count("statespace.bracket_calls")
        t.count("statespace.points_touched", args[0].grid.size)

    def corrector_step(t, args, kwargs, result, boundary):
        omega = result.coefficients.omega
        t.count("corrector.partition_count", result.diagnostics["partition_count"])
        t.count("corrector.useful_partitions", sum(1 for w in omega.values() if w != 0.0))
        t.count("corrector.omega_entries", len(omega))
        if t.op >= 0:
            captured.append((args, kwargs))

    def dump_json(t, args, kwargs, result, boundary):
        t.count("scenario.result_bytes", len(result))

    def predict(t, args, kwargs, result, boundary):
        t.count("simulate.predict_calls")

    table = {
        "partitions.partitions_of": (partitions_items, ("partitions.items",)),
        "partitions.subpartitions_of": (partitions_items, ("partitions.items",)),
        "pgf.Jet.__mul__": (jet_mul, ("pgf.jet_mul_calls", "pgf.jet_madds", "pgf.jet_order_max")),
        "statespace.SensorModel.meas_pgf_at_zero": (card_evals, ("pgf.card_evals",)),
        "statespace.SensorModel.meas_derivatives_at_zero": (card_evals, ("pgf.card_evals",)),
        "statespace.bracket": (bracket, ("statespace.bracket_calls", "statespace.points_touched")),
        "corrector.corrector_step": (
            corrector_step, ("corrector.partition_count", "corrector.useful_partition_ratio")),
        "scenario.dump_json": (dump_json, ("scenario.result_bytes",)),
        "simulate.predict_step": (predict, ("simulate.predict_calls",)),
    }
    for name, (hook, _) in table.items():
        tracer.add_hook(name, hook)
    return {name: keys for name, (_, keys) in table.items()}


def _median_over(ops, per_op: dict, key: str, factors: dict | None = None) -> float:
    """Median over operations of a per-operation figure; times are rescaled
    by each operation's speed factor when `factors` is given."""
    return statistics.median(
        per_op.get(op, {}).get(key, 0.0) * (factors[op] if factors else 1.0) for op in ops)


def layer_metrics(tracer: Tracer, ops, fed_by: dict, load_op: int, factors: dict) -> dict:
    """Per-layer figures as medians over the traced operations."""
    metrics: dict[str, float] = {}
    layer_self = tracer.per_op_layer_self()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median_over(ops, layer_self, layer, factors)
    for layer in ("partitions", "oracle", "reductions"):
        metrics[f"{layer}.calls"] = _median_over(ops, tracer.counters, f"{layer}.calls")

    available = {key for name, keys in fed_by.items()
                 if name in tracer.wrapped and name not in tracer.broken_hooks for key in keys}
    for key in sorted(available):
        if key == "corrector.useful_partition_ratio":
            useful = sum(tracer.counters.get(op, {}).get("corrector.useful_partitions", 0)
                         for op in ops)
            base = sum(tracer.counters.get(op, {}).get("corrector.omega_entries", 0)
                       for op in ops)
            if base:
                metrics[key] = useful / base
            continue
        metrics[key] = _median_over(ops, tracer.counters, key)

    def summed(per_op):
        return {op: {"total": sum(per_op.get(op, {}).values())} for op in ops}

    groups = {
        "pgf.card_eval_s": (tracer.per_op_name_self, (
            "statespace.SensorModel.meas_pgf_at_zero",
            "statespace.SensorModel.meas_derivatives_at_zero")),
        "scenario.serialize_s": (tracer.per_op_name_totals, (
            "scenario.step_result_to_dict", "scenario.dump_json")),
        "simulate.predict_s": (tracer.per_op_name_totals, ("simulate.predict_step",)),
    }
    for key, (reduce, names) in groups.items():
        if any(name in tracer.wrapped for name in names):
            metrics[key] = _median_over(ops, summed(reduce(names)), "total", factors)
    if "scenario.scenario_from_dict" in tracer.wrapped:
        loads = tracer.per_op_name_totals(("scenario.scenario_from_dict",))
        metrics["scenario.load_s"] = (
            loads.get(load_op, {}).get("scenario.scenario_from_dict", 0.0) * factors[load_op])
    return metrics


def stage_split(corrector_mod, calls) -> dict:
    """Each public wrapper rebuilds the whole workspace, so a stage's time is
    the wrapper's minus `coefficient_table`'s on the same inputs (medians,
    untraced, at nominal machine speed)."""
    names = {
        "corrector.table_s": "coefficient_table",
        "corrector.series_s": "posterior_pgf_series",
        "corrector.closed_form_s": "posterior_cardinality_closed_form",
        "corrector.intensity_s": "update_intensity",
    }
    present = {key: getattr(corrector_mod, fn) for key, fn in names.items()
               if hasattr(corrector_mod, fn)}
    if "corrector.table_s" not in present or not calls:
        return {}
    step = max(1, len(calls) // STAGE_PROBES)
    probes = calls[::step][:STAGE_PROBES]
    samples: dict[str, list[float]] = {key: [] for key in present}
    for args, kwargs in probes:
        times = {}
        before = reference.run_once()
        for key, fn in present.items():
            start = time.perf_counter()
            fn(*args, **kwargs)
            times[key] = time.perf_counter() - start
        factor = speed_factor(before, reference.run_once())
        for key, value in times.items():
            stage = value if key == "corrector.table_s" else value - times["corrector.table_s"]
            samples[key].append(stage * factor)
    return {key: statistics.median(values) for key, values in samples.items()}


# -- main --------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Both modes empty `docs` once the scenarios are loaded: `etcphd update` drops
# the parsed document too, and a live 50,000-point document would otherwise
# sit in every garbage collection of the timed loop.


def end_to_end(args, root, pkg, workload, docs, record, quality) -> tuple[Loop, dict]:
    setup = measure_setup(root, docs)
    setup_scaled = [scaled_setup(sample) for sample in setup]
    record["setup"] = {
        key: [sample[key] for sample in setup]
        for key in ("import_s", "load_s", "reference_s", "import_reference_s")
    }
    record["setup"]["setup_s"] = stats.summarize(setup_scaled)
    scenarios = [pkg.scenario_from_dict(doc) for doc in docs]
    docs.clear()
    ctx = workload.prepare(pkg, scenarios, args.seed)
    loop = Loop(workload, ctx, quality)
    loop.one(0)                                    # warm-up, checked, untimed
    gc.collect()
    loop.timed(1, args.seconds)
    if not loop.scaled:
        return loop, {}
    record["op_s"] = stats.summarize(loop.scaled)
    record["op_wall_s"] = stats.summarize(loop.wall)
    return loop, {
        "op_p50_s": _metric(statistics.median(loop.scaled), "s"),
        "scans_per_s": _metric(statistics.median(loop.rates), "1/s"),
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def per_layer(args, pkg, workload, docs, record, quality) -> tuple[Loop, dict, dict]:
    tracer = Tracer(PACKAGE)
    captured: list = []
    fed_by = _hooks(tracer, captured)
    load_op = -2
    before = reference.run_once()
    with tracer:
        tracer.op = load_op
        scenarios = [pkg.scenario_from_dict(doc) for doc in docs]
        tracer.op = -1
    factors = {load_op: speed_factor(before, reference.run_once())}
    docs.clear()
    ctx = workload.prepare(pkg, scenarios, args.seed)
    loop = Loop(workload, ctx, quality)
    loop.one(0)                                    # warm-up, untraced
    gc.collect()
    plain: list = []

    def replay_untraced(index: int, op_id: int) -> None:
        # The same input again right away without tracing, for the overhead
        # ratio; adjacent pairs see the same machine state.
        if op_id < REPLAY_OPS:
            tracer.uninstall()
            plain.append(loop.one(index))
            tracer.install()

    with tracer:
        traced = loop.timed(1, args.seconds, tracer=tracer, after_each=replay_untraced)
    ops = [i for i, outcome in enumerate(traced) if outcome is not None]
    if not ops:
        return loop, {}, tracer.export()
    factors.update({i: traced[i][1] for i in ops})

    values = layer_metrics(tracer, ops, fed_by, load_op, factors)
    corrector_mod = importlib.import_module(PACKAGE + ".corrector")
    values.update(stage_split(corrector_mod, captured))
    values["trace.op_s"] = statistics.median(traced[i][0] * traced[i][1] for i in ops)
    pairs = [(a[0] * a[1], b[0] * b[1]) for a, b in zip(traced, plain) if a and b]
    if pairs:
        values["trace.overhead_ratio"] = (
            statistics.median(a for a, _ in pairs) / statistics.median(b for _, b in pairs))
    for key, value in quality.items():
        if f"quality.{key}" in PER_LAYER_UNITS:
            values[f"quality.{key}"] = value

    record["layer_share_of_traced_op"] = {
        key[: -len(".self_s")]: values[key] / values["trace.op_s"]
        for key in values if key.endswith(".self_s")
    }
    record["traced_op_s"] = stats.summarize([a for a, _ in pairs])
    record["untraced_op_s"] = stats.summarize([b for _, b in pairs])
    record["corrector_step_wall_s"] = stats.summarize(_step_durations(tracer))
    record["useful_partition_ratio_base"] = "partitions with non-zero omega / all partitions"
    record["spans"] = len(tracer.span_name)
    record["broken_hooks"] = sorted(tracer.broken_hooks)
    metrics = {key: _metric(value, PER_LAYER_UNITS.get(key, "s"))
               for key, value in sorted(values.items())}
    return loop, metrics, tracer.export()


def run(args) -> tuple[dict, dict, dict | None]:
    root = checkout_root()
    workload = WORKLOADS[args.workload]
    pkg = import_package(root)
    docs = workload.documents(args.seed)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "one caller, next operation after the previous returns; threads=1",
        "machine": machine_record(root),
        "documents": len(docs),
        "reference_nominal_s": reference.NOMINAL_S,
    }
    quality: dict = {}
    spans = None
    if args.trace == 0:
        loop, metrics = end_to_end(args, root, pkg, workload, docs, record, quality)
    else:
        loop, metrics, spans = per_layer(args, pkg, workload, docs, record, quality)
    record.update({
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_ratio": loop.failed / loop.attempted,
        "operations_timed": len(loop.wall),
        "scans": loop.scans,
        "reference_s": stats.summarize(loop.reference),
        "quality": quality,
        "errors": loop.errors,
    })
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, record, spans


def _step_durations(tracer: Tracer) -> list[float]:
    """Wall time of every traced `corrector_step` call inside an operation."""
    name_id = tracer.name_ids.get("corrector.corrector_step", -1)
    mask = (np.asarray(tracer.span_name) == name_id) & (np.asarray(tracer.span_op) >= 0)
    return (np.asarray(tracer.span_end) - np.asarray(tracer.span_start))[mask].tolist()


def write_record(root: Path, record: dict, spans: dict | None) -> None:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        np.savez_compressed(
            out / f"{stem}.spans.npz",
            **{key: np.asarray(value) for key, value in spans.items()},
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        result, record, spans = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    write_record(checkout_root(), record, spans)
    print(json.dumps({"record": record}, default=str))
    if not result["metrics"]:
        print("bench: no operation succeeded; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
