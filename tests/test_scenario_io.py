import json
import math

import pytest

from etcphd.corrector import corrector_step
from etcphd.errors import ValidationError
from etcphd.pgf import CardinalityPgf
from etcphd.scenario import (
    MAX_RATE,
    dump_json,
    load_scenario,
    scenario_from_dict,
    step_result_from_dict,
    step_result_to_dict,
    StepResult,
)


def test_golden_fixture_loads(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "poisson_small.json")
    assert scenario.grid.size == 3
    assert scenario.prior_card == CardinalityPgf(probs=(1.0,), rate=1.0)
    assert len(scenario.steps) == 1
    assert scenario.measurements.values == (0, 2)


def test_all_fixtures_load_and_update(scenarios_dir):
    for name in ("poisson_small.json", "standard_small.json", "mixed_demo.json"):
        scenario = load_scenario(scenarios_dir / name)
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        assert result.diagnostics["cardinality_sum"] == pytest.approx(1.0, abs=1e-10)


def base_doc():
    return {
        "grid": {"weights": [1.0, 1.0]},
        "prior": {"intensity": [0.5, 0.5], "cardinality": [0.5, 0.5]},
        "sensor": {
            "p_d": [0.5, 0.5],
            "clutter": {"cardinality": [0.6, 0.4], "density": [0.5, 0.5]},
            "target_cardinality": [[0.5, 0.5], [0.5, 0.5]],
            "likelihood": [[0.5, 0.5], [0.5, 0.5]],
        },
        "measurements": [[0]],
    }


def test_negative_detection_probability_names_field():
    doc = base_doc()
    doc["sensor"]["p_d"] = [0.5, -0.2]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert any("sensor.p_d[1]" in v for v in excinfo.value.violations)


def test_validation_collects_all_violations():
    doc = base_doc()
    doc["sensor"]["p_d"] = [1.5, -0.2]
    doc["grid"]["weights"] = [1.0, -1.0]
    doc["prior"]["cardinality"] = [0.7, 0.7]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert len(excinfo.value.violations) >= 3


def test_truncated_file_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"grid": {"weights": [1.0,')
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(path)
    assert "parse error at line" in excinfo.value.violations[0]


def test_unknown_option_rejected():
    doc = base_doc()
    doc["options"] = {"max_zz": 9}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert any("options.max_zz" in v for v in excinfo.value.violations)
    # The corrector has no thread count any more.
    doc["options"] = {"threads": 2}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert "options.threads: unknown option" in excinfo.value.violations
    # Nor a derivative-order cap.
    doc["options"] = {"max_derivative_order": 40}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert "options.max_derivative_order: unknown option" in excinfo.value.violations
    # Nor a cardinality order: the prior's truncation order sets it.
    doc["options"] = {"n_max": 12}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert "options.n_max: unknown option" in excinfo.value.violations


@pytest.mark.parametrize("where, value, path", [
    (("sensor", "clutter", "cardinality"), {"poisson": math.nan}, "sensor.clutter.cardinality"),
    (("prior", "cardinality"), {"poisson": math.nan}, "prior.cardinality"),
    (("prior", "cardinality"), {"poisson": math.inf}, "prior.cardinality"),
    (("prior", "cardinality"), [0.5, math.nan], "prior.cardinality[1]"),
    (("prior", "intensity"), [0.5, math.inf], "prior.intensity[1]"),
    (("sensor", "p_d"), [math.nan, 0.5], "sensor.p_d[0]"),
    (("sensor", "target_cardinality"), {"poisson": [1.0, math.inf]},
     "sensor.target_cardinality.poisson[1]"),
])
def test_non_finite_numbers_rejected(where, value, path):
    """NaN and Infinity, which JSON parsers accept, are violations that name
    their field, not a NaN posterior or a bare ValueError."""
    doc = base_doc()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(json.loads(json.dumps(doc)))
    assert any(v.startswith(path) for v in excinfo.value.violations), excinfo.value.violations


def test_rates_above_the_maximum_rejected():
    """Poisson rates lie in [0, MAX_RATE]; a negative per-point rate is a
    violation too, not a bare ValueError from the p.g.f."""
    doc = base_doc()
    doc["prior"]["cardinality"] = {"poisson": MAX_RATE}
    assert scenario_from_dict(doc).prior_card == CardinalityPgf.poisson(MAX_RATE)
    doc["prior"]["cardinality"] = {"poisson": 1e17}
    doc["sensor"]["clutter"]["cardinality"] = {"poisson": 2 * MAX_RATE}
    doc["sensor"]["target_cardinality"] = {"poisson": [-1.0, 2 * MAX_RATE]}
    doc["simulation"] = {"birth": {"intensity": [0.5, 0.5],
                                   "cardinality": {"poisson": 2 * MAX_RATE}}}
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    for path in ("prior.cardinality.poisson", "sensor.clutter.cardinality.poisson",
                 "sensor.target_cardinality.poisson[0]", "sensor.target_cardinality.poisson[1]",
                 "simulation.birth.cardinality.poisson"):
        assert any(v.startswith(path) for v in excinfo.value.violations), path


def test_measurement_index_bounds_checked():
    doc = base_doc()
    doc["measurements"] = [[0, 5]]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(doc)
    assert any("measurements[0]" in v for v in excinfo.value.violations)


def test_raised_cap_requires_acknowledgment_on_load():
    doc = base_doc()
    doc["options"] = {"max_z": 10}
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)
    doc["options"] = {"max_z": 10, "acknowledge_cost": True}
    scenario = scenario_from_dict(doc)
    assert scenario.options.max_measurements == 10


def test_step_result_round_trip(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "standard_small.json")
    result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                            scenario.measurements, scenario.model, scenario.options)
    step = StepResult(
        step_index=0,
        measurement_count=len(scenario.measurements),
        partition_count=result.diagnostics["partition_count"],
        result=result,
        wall_time_s=result.diagnostics["wall_time_s"],
    )
    payload = step_result_to_dict(step)
    text = dump_json(payload)
    parsed = step_result_from_dict(json.loads(text))
    again = dump_json(step_result_to_dict(parsed))
    assert again == text


def test_serialized_output_has_no_timing(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "standard_small.json")
    result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                            scenario.measurements, scenario.model, scenario.options)
    step = StepResult(0, 2, 2, result, wall_time_s=result.diagnostics["wall_time_s"])
    payload = step_result_to_dict(step)
    assert "wall_time_s" not in json.dumps(payload)


def test_dump_json_is_deterministic(scenarios_dir):
    scenario = load_scenario(scenarios_dir / "poisson_small.json")
    outputs = set()
    for _ in range(2):
        result = corrector_step(scenario.prior_intensity, scenario.prior_card,
                                scenario.measurements, scenario.model, scenario.options)
        step = StepResult(0, 2, 2, result)
        outputs.add(dump_json(step_result_to_dict(step)))
    assert len(outputs) == 1


def test_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 2.0**-52, 1e300, 123456.789e-12]
    text = dump_json(values)
    assert json.loads(text) == values
