"""vortexlab benchmark: seeded ``vortexlab solve`` workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vortexlab source tree; the package is imported from
its ``src`` directory.  One run:

1. generates the workload config from the seed (``workloads.py``), checks it
   is feasible and saves it as ``config.json`` in the run's output directory,
   ``bench/out/<workload>-seed<N>-trace<T>/``;
2. runs one worker process (``worker.py``) that solves the config in a
   closed loop for S seconds, and at least 3 times; with ``--trace 0``,
   ``SETUP_RUNS`` fresh interpreters that import vortexlab and resolve the
   config (``setup_probe.py``) are timed, half before the worker and half
   after it, so that their median spans the run;
3. gates every solve (``gate.py``), checks that repeated solves agree
   exactly, and prints one JSON line: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Details (every sample, failures, versions, CPU) go to ``result.json`` beside
the config.  Exits 1 on a determinism mismatch and 2 when the tree holds no
vortexlab source, without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import DeterminismError, check_same, gate_solve
from tracer import SELF_TIMES, call_counts, self_times
from workloads import WORKLOADS, check_feasible, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
ENV_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 8
PROBE_TIMEOUT_S = 20.0
WORKER_TIMEOUT_S = 150.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, **ENV_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def measure_setup(config_path: Path, runs: int) -> list[float]:
    """Wall seconds of ``runs`` fresh interpreters running setup_probe.py."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)],
            env=_child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0 or not _from_src(proc.stdout.strip()):
            raise BenchError(f"setup probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return samples


def run_worker(config_path: Path, out_dir: Path, seconds: float, trace: int,
               emit_fields: bool) -> None:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(config_path),
           "--out", str(out_dir), "--seconds", str(seconds), "--trace", str(trace)]
    if emit_fields:
        cmd.append("--emit-fields")
    proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value.

    Like the median it ignores one stray solve, but it uses the rest of the
    run: on a shared host a run's solves often split into a fast and a slow
    group, and the median of ten such samples jumps between the groups.
    """
    v = sorted(values)
    return statistics.fmean(v[1:-1] if len(v) >= 3 else v)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _line_search_trials(history: list[dict]) -> int:
    """Armijo trials: 1 + log2(1/alpha) per step (the final entry takes no step)."""
    return sum(1 + round(math.log2(1.0 / s["step_size"])) for s in history if s["step_size"] > 0)


def _layer_metrics(traced: list[dict], untraced_s: list[float], report: dict,
                   solve_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics from the traced solves, and extra detail for result.json."""
    counts = [call_counts(r["spans"]) for r in traced]
    check_same("traced call counts", counts)
    selfs = [self_times(r["spans"]) for r in traced]
    history = report["solve"]["history"]
    cg_iters = sum(s["cg_iterations"] for s in history)
    lap_calls = counts[0].get("discretization.laplacian_values", 0)
    pre_calls = counts[0].get("discretization.solve_shifted_poisson", 0)
    traced_s = statistics.median(r["seconds"] for r in traced)

    metrics = {
        name: _metric(statistics.median(sum(s.get(n, 0.0) for n in names) for s in selfs), "s")
        for name, names in SELF_TIMES.items()
    }
    metrics.update({
        "solver.newton_steps": _metric(report["solve"]["newton_iterations"], "count"),
        "solver.cg_iters": _metric(cg_iters, "count"),
        "solver.ls_trials": _metric(_line_search_trials(history), "count"),
        "discretization.laplacian_calls": _metric(lap_calls, "count"),
        "discretization.precond_calls": _metric(pre_calls, "count"),
        "discretization.calls_per_cg": _metric((lap_calls + pre_calls) / cg_iters, "1"),
        "reporting.bytes": _metric(sum(
            f.stat().st_size for f in solve_dir.iterdir() if f.suffix in (".json", ".fld")
        ), "B"),
        "trace.solve_s": _metric(traced_s, "s"),
        "trace.overhead_s": _metric(traced_s - statistics.median(untraced_s), "s"),
    })
    # self times partition the root span, so they must add up to it
    residual = max(
        abs(sum(s.values()) - (spans[0][2] - spans[0][1]))
        for s, spans in zip(selfs, (r["spans"] for r in traced))
    )
    detail = {"call_counts": counts[0], "self_time_sum_residual_s": residual,
              "self_times_s": {n: statistics.median(s.get(n, 0.0) for s in selfs)
                               for n in counts[0]},
              "traced_samples": len(traced), "untraced_samples": len(untraced_s)}
    return metrics, detail


def evaluate(out_dir: Path, config: dict, emit_fields: bool, trace: int,
             setup_samples: list[float]) -> dict:
    """Gate the worker's solves and compute the metrics; returns the result."""
    solves = json.loads((out_dir / "worker.json").read_text())["solves"]
    failures = {}
    for rec in solves:
        problems = gate_solve(rec, out_dir / rec["dir"], config, emit_fields)
        if problems:
            failures[rec["index"]] = problems
    passed = [r for r in solves if r["index"] not in failures]
    reports = [(out_dir / r["dir"] / "report.json").read_bytes() for r in passed]
    check_same("report.json", reports)

    untraced_s = [r["seconds"] for r in solves if not r["traced"]]
    result = {
        "attempted": len(solves),
        "failed": len(failures),
        "failures": failures,
        "solve_seconds": [r["seconds"] for r in solves],
        "solve_seconds_median": statistics.median(untraced_s),
        "setup_seconds": setup_samples,
        "peak_rss_kb": [r["peak_rss_kb"] for r in solves],
    }
    if trace:
        traced = [r for r in solves if r["traced"] and r["index"] not in failures]
        if not traced or not untraced_s:
            raise BenchError("no passing traced and untraced solves to compare")
        metrics, detail = _layer_metrics(
            traced, untraced_s, json.loads(reports[0]), out_dir / traced[0]["dir"]
        )
        result.update(detail)
    else:
        metrics = {
            "solve_s": _metric(trimmed_mean(untraced_s), "s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(solves[0]["peak_rss_kb"] / 1024.0, "MB"),
            "pass_frac": _metric((len(solves) - len(failures)) / len(solves), "1"),
        }
    result["metrics"] = metrics
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    import numpy
    import scipy
    import vortexlab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vortexlab": vortexlab.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "env": ENV_PINS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--grid", type=int, default=None,
                    help="override the grid size (toy runs for the self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "vortexlab" / "cli.py").is_file():
        print(f"error: no vortexlab source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ENV_PINS)  # before numpy loads, here and in every child
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config = make_config(args.workload, args.seed, n=args.grid)
    check_feasible(config)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")

    try:
        probes = 0 if args.trace else SETUP_RUNS // 2
        setup = measure_setup(config_path, probes)
        run_worker(config_path, out_dir, args.seconds, args.trace, workload.emit_fields)
        setup += measure_setup(config_path, probes)
        result = evaluate(out_dir, config, workload.emit_fields, args.trace, setup)
    except (BenchError, DeterminismError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=_environment())
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    # keep the last solve's outputs for inspection; the others are gated already
    for solve_dir in sorted(out_dir.glob("solve_*"))[:-1]:
        shutil.rmtree(solve_dir)
    for index, problems in result["failures"].items():
        print(f"solve {index} failed the gate: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
