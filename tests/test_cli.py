import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asyncsa.cli import main

RUN_YAML = """\
dimension: 2
horizon: 100
seed: 5
objective: {kind: quadratic, matrices: random}
steps: {kind: harmonic, c: 10.0}
errors: {kind: componentwise-uniform, bound: 0.2}
delays: {kind: stale-refresh, p_c: 0.5}
"""

SWEEP_YAML = """\
base:
  dimension: 2
  horizon: 50
  seed: 9
  objective: {kind: quadratic, matrices: random}
  errors: {kind: componentwise-uniform, bound: 0.1}
  steps: {kind: harmonic, c: 10.0}
sweep:
  parameters:
    errors.bound: [0.1, 0.3]
  replicates: 2
"""


@pytest.fixture
def run_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(RUN_YAML)
    return path


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_command(run_yaml, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(run_yaml), "--out", str(out)])
    assert code == 0
    summary = _json_out(capsys)
    assert summary["ticks"] == 100
    assert summary["final_norm"] > 0
    assert summary["out"] == str(out)
    header = out.read_text().splitlines()[0]
    assert header == "# schema: trace-v1"


def test_run_command_jsonl_and_overrides(run_yaml, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(["run", "--config", str(run_yaml), "--horizon", "7",
                 "--seed", "8", "--out", str(out)])
    assert code == 0
    assert _json_out(capsys)["ticks"] == 7
    head = json.loads(out.read_text().splitlines()[0])
    assert head["schema"] == "trace-v1"
    assert head["seed"] == 8


def test_run_command_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dimension: 2\nhorizon: 10\nseed: 0\n"
                   "objective: {kind: mystery}\n")
    code = main(["run", "--config", str(bad)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"


@pytest.mark.parametrize("line", [
    "steps: {kind: harmonic, c: ten}\n",
    "dimension: two\n",
    "dimension: 2.7\n",
    "delays: {kind: bounded-uniform, tau_max: 2.5}\n",
])
def test_run_command_rejects_mistyped_values(run_yaml, tmp_path, capsys, line):
    bad = tmp_path / "mistyped.yaml"
    key = line.split(":")[0]
    kept = [old for old in RUN_YAML.splitlines(keepends=True)
            if not old.startswith(key + ":")]
    bad.write_text("".join(kept) + line)
    code = main(["run", "--config", str(bad)])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert key in err["message"]


def test_run_command_reports_divergence(tmp_path, capsys):
    doc = tmp_path / "div.yaml"
    doc.write_text(
        "dimension: 2\nhorizon: 2000\nseed: 1\n"
        "objective: {kind: scaled-identity, gain: 5.0}\n"
        "steps: {kind: constant, a0: 1.0}\nx0: [1.0, 1.0]\n"
    )
    code = main(["run", "--config", str(doc)])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "divergence"
    assert err["tick"] > 0
    assert err["component"] in (0, 1)


def test_run_command_reports_io_failure(run_yaml, tmp_path, capsys):
    code = main(["run", "--config", str(run_yaml),
                 "--out", str(tmp_path / "missing" / "trace.csv")])
    assert code == 5
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_missing_config_file_is_io_error(capsys):
    code = main(["run", "--config", "/nonexistent/nowhere.yaml"])
    assert code == 5
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_sweep_command(tmp_path, capsys):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(SWEEP_YAML)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = _json_out(capsys)
    assert summary["cells"] == 4
    assert summary["divergent"] == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: sweep-v1"
    assert len(lines) == 3 + 4


@pytest.mark.parametrize("value", ["2.7", '"3"', "true"])
def test_sweep_command_rejects_non_integer_replicates(tmp_path, capsys, value):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(SWEEP_YAML.replace("replicates: 2", f"replicates: {value}"))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "replicates" in err["message"]


def test_check_command(run_yaml, capsys):
    code = main(["check", "--config", str(run_yaml), "--horizon", "10000"])
    assert code == 0
    report = _json_out(capsys)
    assert report["verdict"] == "pass"
    assert report["step_size"]["verdict"] == "pass"
    assert report["activation"]["verdict"] == "pass"


@pytest.mark.parametrize("p, verdict", [(0.4, "fail"), (0.6, "inconclusive")])
def test_check_command_takes_the_worst_report_verdict(run_yaml, capsys, p, verdict):
    run_yaml.write_text(RUN_YAML.replace("{kind: harmonic, c: 10.0}",
                                         f"{{kind: power, p: {p}, c: 10.0}}"))
    code = main(["check", "--config", str(run_yaml), "--horizon", "10000"])
    assert code == 0
    report = _json_out(capsys)
    assert report["step_size"]["verdict"] == verdict
    assert report["activation"]["verdict"] == "pass"
    assert report["verdict"] == verdict


def test_a2vi_command(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "vi.csv"
    code = main(["a2vi", "--fixture", str(fixtures_dir / "mdp_5s2a.txt"),
                 "--ticks", "2000", "--eps", "0.1", "--slack", "0.3",
                 "--out", str(out)])
    assert code == 0
    report = _json_out(capsys)
    assert report["schema"] == "a2vi-report-v1"
    assert report["states"] == 5
    assert len(report["final_values"]) == 5
    assert report["ok"] is True
    assert out.exists()


def test_a2pg_command(capsys):
    code = main(["a2pg", "--surface", "quadratic-bowl", "--ticks", "2000",
                 "--eps", "0.1"])
    assert code == 0
    report = _json_out(capsys)
    assert report["schema"] == "a2pg-report-v1"
    assert report["surface"] == "quadratic-bowl"
    assert len(report["final_theta"]) == 2


def test_reproduce_fig_command(tmp_path, capsys):
    code = main(["reproduce-fig", "1", "--out", str(tmp_path),
                 "--runs", "1"])
    assert code == 0
    summary = _json_out(capsys)
    assert summary["schema"] == "scaling-summary-v1"
    assert summary["p_c"] == 0.4
    assert summary["cells"] == 29
    assert (tmp_path / "scaling_pc0.4.csv").exists()
    assert (tmp_path / "scaling_pc0.4_plot.csv").exists()


def test_usage_error_exit_code():
    # the child imports asyncsa from this checkout's src, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "asyncsa.cli", "run"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "--config" in proc.stderr


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(RUN_YAML)
    proc = subprocess.run(
        ["asyncsa", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["ticks"] == 100
