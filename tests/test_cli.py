import json
import subprocess
import sys

import pytest

from etcphd.cli import main


def test_verify_combinatorics_exit_zero(capsys):
    code = main(["verify", "--suite", "combinatorics"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS combinatorics" in out
    assert "bell_8_count" in out


def test_update_writes_normalized_cardinality(scenarios_dir, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = main([
        "update",
        "--config", str(scenarios_dir / "poisson_small.json"),
        "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert sum(doc["posterior"]["cardinality"]) == pytest.approx(1.0, abs=1e-10)
    assert doc["coefficients"]["kappa"] == 0.0


def test_update_with_measurements_file(scenarios_dir, tmp_path, capsys):
    meas_path = tmp_path / "meas.json"
    meas_path.write_text('{"values": [1]}')
    out_path = tmp_path / "result.json"
    code = main([
        "update",
        "--config", str(scenarios_dir / "standard_small.json"),
        "--measurements", str(meas_path),
        "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["measurement_count"] == 1


def test_usage_error_exit_code():
    assert main(["--no-such-flag"]) == 2
    assert main(["update"]) == 2      # missing --config
    # --threads belongs to verify alone.
    assert main(["update", "--config", "x.json", "--threads", "2"]) == 2


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "grid": {"weights": [1.0]},
        "prior": {"intensity": [0.5], "cardinality": [0.5, 0.5]},
        "sensor": {
            "p_d": [-1.0],
            "clutter": {"cardinality": [1.0], "density": [1.0]},
            "target_cardinality": [[0.5, 0.5]],
            "likelihood": [[1.0]],
        },
    }))
    code = main(["update", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "sensor.p_d[0]" in err


def test_runtime_limit_error_exit_code(scenarios_dir, tmp_path, capsys):
    meas_path = tmp_path / "meas.json"
    meas_path.write_text(json.dumps({"values": [0] * 9}))
    code = main([
        "update",
        "--config", str(scenarios_dir / "standard_small.json"),
        "--measurements", str(meas_path),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "Bell(9)" in err


def test_inspect_prints_partition_table(scenarios_dir, capsys):
    code = main(["inspect", "--config", str(scenarios_dir / "standard_small.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "omega per partition" in out
    assert "phi" in out


def test_verify_report_file_deterministic_across_threads(tmp_path, capsys):
    reports = []
    for threads, name in ((1, "a.json"), (8, "b.json")):
        path = tmp_path / name
        code = main([
            "verify", "--suite", "identities", "--seeds", "5",
            "--threads", str(threads), "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_console_entry_point_runs(scenarios_dir):
    completed = subprocess.run(
        [sys.executable, "-m", "etcphd", "verify", "--suite", "combinatorics"],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0
    assert "PASS" in completed.stdout
