"""Tests for the benchmark harness itself: `python3 -m pytest bench/tests`."""

import importlib
import inspect
import json
import pathlib
import sys
import types

import pytest

import stats
import workloads
from run import PER_LAYER_UNITS, layer_metrics, stage_split
from tracer import LAYERS, Tracer, self_times


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # 0: root [0, 10] with children 1: [1, 3], 2: [3, 5], 3: [6, 7];
    # 4: grandchild [1.5, 2.5] inside span 1.
    starts = [0.0, 1.0, 3.0, 6.0, 1.5]
    ends = [10.0, 3.0, 5.0, 7.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    got = self_times(starts, ends, parents)
    assert list(got) == pytest.approx([10.0 - 2.0 - 2.0 - 1.0, 2.0 - 1.0, 2.0, 1.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert list(self_times([2.0], [2.5], [-1])) == pytest.approx([0.5])


def test_self_times_sum_to_root_duration():
    starts = [0.0, 1.0, 1.2, 4.0, 4.5]
    ends = [9.0, 3.0, 2.0, 8.0, 5.0]
    parents = [-1, 0, 1, 0, 3]
    assert float(sum(self_times(starts, ends, parents))) == pytest.approx(9.0)


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 41)]          # 40 samples
    summary = stats.summarize(reversed(values))
    assert summary["n"] == 40
    assert summary["median"] == 20.5
    assert summary["tail_p"] == 75.0
    assert summary["tail"] == 30.0                      # nearest rank 30 of 40
    assert sum(v > summary["tail"] for v in values) >= 10


def test_summarize_small_sample_has_no_tail():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "median": 2.0, "tail_p": None, "tail": None,
                       "min": 1.0, "max": 3.0}


# -- tracing -----------------------------------------------------------------


def _bindings():
    """Every attribute of every package module and of the classes they define."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "etcphd" or name.startswith("etcphd.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snapshot[(name, attr, cattr)] = cvalue
    return snapshot


def _small_step(pkg):
    scenario = pkg.synthetic.poisson_scenario(7, n_measurements=3)
    return pkg.corrector_step(scenario.prior_intensity, scenario.prior_card,
                              scenario.measurements, scenario.model, scenario.options)


def test_traced_run_restores_every_binding():
    pkg = importlib.import_module("etcphd")
    importlib.import_module("etcphd.synthetic")
    for layer in LAYERS:
        importlib.import_module(f"etcphd.{layer}")
    before = _bindings()
    tracer = Tracer("etcphd")
    with tracer:
        assert pkg.corrector_step is not before[("etcphd", "corrector_step")]
        tracer.op = 0
        _small_step(pkg)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    names = {tracer.names[i] for i in tracer.span_name}
    # Reached through the function's own module and through importers.
    assert {"corrector.corrector_step", "statespace.bracket", "pgf.Jet.__mul__",
            "partitions.partitions_of"} <= names
    # `etcphd.simulate` names the function; the module is still wrapped.
    assert "simulate.make_rng" in tracer.wrapped


def test_bindings_restored_when_the_traced_call_raises():
    pkg = importlib.import_module("etcphd")
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer("etcphd"):
            pkg.bell_number(3)
            raise ZeroDivisionError
    after = _bindings()
    assert all(before[key] is after[key] for key in before)


def test_opaque_span_hides_per_point_calls():
    pkg = importlib.import_module("etcphd")
    scenario = pkg.synthetic.poisson_scenario(3)
    tracer = Tracer("etcphd")
    with tracer:
        tracer.op = 0
        scenario.model.meas_derivatives_at_zero(2)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["statespace.SensorModel.meas_derivatives_at_zero"]
    assert tracer.layers[tracer.span_name[0]] == "pgf"


def test_a_hook_that_raises_is_dropped_without_failing_the_call():
    pkg = importlib.import_module("etcphd")
    tracer = Tracer("etcphd")

    def broken(*args):
        raise AttributeError("counter no longer fits")

    tracer.add_hook("partitions.bell_number", broken)
    with tracer:
        tracer.op = 0
        assert pkg.bell_number(4) == 15
    assert tracer.broken_hooks == {"partitions.bell_number"}
    values = layer_metrics(tracer, [0], {"partitions.bell_number": ("partitions.items",)}, -2,
                           {0: 1.0, -2: 1.0})
    assert "partitions.items" not in values


def test_metrics_of_missing_functions_are_absent():
    tracer = Tracer("etcphd")
    tracer.wrapped = set()
    values = layer_metrics(tracer, [0], {"pgf.Jet.__mul__": ("pgf.jet_madds",)}, -2,
                           {0: 1.0, -2: 1.0})
    assert "pgf.jet_madds" not in values
    assert "scenario.load_s" not in values
    assert values["pgf.self_s"] == 0.0

    bare = types.SimpleNamespace(coefficient_table=lambda *a, **k: None)
    split = stage_split(bare, [((), {})])
    assert set(split) == {"corrector.table_s"}
    assert stage_split(types.SimpleNamespace(), [((), {})]) == {}


# -- inputs ------------------------------------------------------------------


def _canonical(docs) -> bytes:
    return json.dumps(docs, sort_keys=True, allow_nan=False).encode("utf-8")


@pytest.mark.parametrize("name", ["scan8", "track", "grid50k"])
def test_same_seed_gives_byte_identical_documents(name):
    make = workloads.WORKLOADS[name].documents
    first = _canonical(make(11))
    assert first == _canonical(make(11))
    assert first != _canonical(make(12))


def test_same_seed_gives_identical_verify_seeds():
    assert workloads.verify_seeds(5) == workloads.verify_seeds(5)
    assert workloads.verify_seeds(5) != workloads.verify_seeds(6)


def test_track_episodes_do_equal_work():
    for doc in workloads.track_documents(3)[:4]:
        sizes = sorted(len(z) for z in doc["measurements"])
        assert sizes == sorted(workloads.TRACK_SIZES * workloads.TRACK_BLOCKS)


def test_documents_load_and_first_operation_passes_its_checks():
    pkg = importlib.import_module("etcphd")
    docs = workloads.scan8_documents(1)
    scenarios = [pkg.scenario_from_dict(doc) for doc in docs]
    workload = workloads.WORKLOADS["scan8"]
    ctx = workload.prepare(pkg, scenarios, 1)
    quality = {}
    workload.check(ctx, 0, workload.run(ctx, 0), quality)
    assert quality["omega_sum_err_max"] <= workloads.OMEGA_SUM_TOL
    assert quality["ref_max_rel_err"] <= workloads.ENUMERATION_REL_TOL


def test_a_wrong_output_fails_its_check():
    pkg = importlib.import_module("etcphd")
    scenarios = [pkg.scenario_from_dict(doc) for doc in workloads.scan8_documents(1)]
    workload = workloads.WORKLOADS["scan8"]
    ctx = workload.prepare(pkg, scenarios, 1)
    result, text = workload.run(ctx, 0)
    result.diagnostics["cardinality_sum"] += 1e-6
    with pytest.raises(workloads.CheckFailed):
        workload.check(ctx, 0, (result, text), {})


def test_declared_metrics_match_what_the_harness_prints():
    spec = json.loads((pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for metric in spec["per_layer"]:
        assert PER_LAYER_UNITS.get(metric["name"], "s") == metric["unit"], metric
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == {"op_p50_s": "s", "scans_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
