"""Self-test of the benchmark at toy grid sizes.

    python3 -m pytest -q bench/selftest.py

Checks that every workload runs at 32^2 (torus) or 33^2 (plane) in both
modes and emits exactly the metrics BENCHMARK.json names, with their units,
and that the gate and the determinism check catch a tampered report.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from gate import DeterminismError  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {"torus": 32, "plane": 33}


def _toy_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--grid", str(TOY[WORKLOADS[workload].kind])],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_emits_every_metric(workload, trace, section):
    out = _toy_run(workload, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    if trace:
        result = json.loads((run.OUT / f"{workload}-seed3-trace1" / "result.json").read_text())
        assert result["self_time_sum_residual_s"] < 1e-9


def _worker_solves(tmp_path: Path, workload: str) -> dict:
    config = make_config(workload, 5, n=TOY[WORKLOADS[workload].kind])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run.run_worker(config_path, tmp_path, 0.0, 0, WORKLOADS[workload].emit_fields)
    return config


def _edit_report(path: Path, edit) -> None:
    from vortexlab.reporting import dumps_canonical

    report = json.loads(path.read_text())
    edit(report)
    path.write_text(dumps_canonical(report))


def test_gate_counts_a_flux_off_by_one_percent(tmp_path):
    config = _worker_solves(tmp_path, "torus_fields")

    def bump_flux(report):
        report["diagnostics"]["flux1"] *= 1.01

    _edit_report(tmp_path / "solve_001" / "report.json", bump_flux)
    result = run.evaluate(tmp_path, config, True, 0, [0.5])
    assert result["failed"] == 1
    assert "flux1" in result["failures"][1][0]
    n = result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] == (n - 1) / n


def test_gate_catches_a_field_that_does_not_read_back(tmp_path):
    config = _worker_solves(tmp_path, "torus_fields")
    fld = tmp_path / "solve_002" / "u2.fld"
    lines = fld.read_text().splitlines()
    lines[10] = repr(float(lines[10]) + 1e-9)
    fld.write_text("\n".join(lines) + "\n")
    result = run.evaluate(tmp_path, config, True, 0, [0.5])
    assert result["failed"] == 1 and "u2.fld" in result["failures"][2][0]


def test_reports_that_differ_but_pass_fail_loudly(tmp_path):
    config = _worker_solves(tmp_path, "plane_cliff")

    def nudge_functional(report):
        report["solve"]["functional_value"] += 1e-12

    _edit_report(tmp_path / "solve_002" / "report.json", nudge_functional)
    with pytest.raises(DeterminismError):
        run.evaluate(tmp_path, config, False, 0, [0.5])
