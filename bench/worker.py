"""Closed-loop solve worker: one process, one workload, one caller.

Calls ``vortexlab.cli.main(["solve", ...])`` in process, starting each solve
when the previous one returns.  After ``MIN_SOLVES``, a solve starts only if,
at the median time of the solves so far, it ends within ``--seconds`` of the
first; so the solves fill the run without running past it.  Every solve is timed, the first included: a CLI
user pays its cold start on every run.  After each solve, outside its timed
interval, the peak resident memory so far is read, the output directory is moved
to ``solve_NNN`` so the parent can gate it, and with ``--emit-fields`` the
solution arrays the ``.fld`` files must reproduce are saved beside them.

With ``--trace 1`` untraced and traced solves alternate, untraced first; the
difference of their medians is the tracing overhead.

Writes ``worker.json`` into ``--out``: per solve its time, exit code, error,
peak resident memory and spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

from gate import FIELD_NAMES
from tracer import ROOT, Tracer, patch_attr

MIN_SOLVES = 3  # the median needs a middle, and determinism a repeat


def _save_solution_fields(solution, config: dict, solve_dir: Path) -> None:
    import numpy as np
    from vortexlab import PhysicalParams, field_maps

    params = PhysicalParams(config["p"], config["q"], config.get("rho_bar", 1.0))
    arrays = {
        "u1": solution.u1.values,
        "u2": solution.u2.values,
        "B12": field_maps(solution, params)["B12"].values,
    }
    for name in FIELD_NAMES:
        np.save(solve_dir / f"{name}.npy", arrays[name])


def run_solve(argv: list[str], tracer: Tracer | None, capture: dict | None):
    """One timed ``cli.main`` call; returns (seconds, exit code, error text)."""
    from vortexlab import cli

    main = cli.main
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            main = tracer.wrap(ROOT, main)
        if capture is not None:
            def keep(fn):
                def newton_solve(*args, **kwargs):
                    capture["solution"] = fn(*args, **kwargs)
                    return capture["solution"]
                return newton_solve
            stack.enter_context(patch_attr(cli, "newton_solve", keep))
        start = time.perf_counter()
        try:
            code, error = main(argv), None
        except Exception:  # a solve that raises is a failed solve, not a failed run
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, code, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--emit-fields", action="store_true")
    args = ap.parse_args(argv)

    config = json.loads(args.config.read_text())
    live = args.out / "solve"
    solve_argv = ["solve", "--config", str(args.config), "--out", str(live)]
    if args.emit_fields:
        solve_argv.append("--emit-fields")

    solves = []
    start = time.perf_counter()
    while (len(solves) < MIN_SOLVES or time.perf_counter() - start
           + statistics.median(r["seconds"] for r in solves) < args.seconds):
        index = len(solves)
        traced = bool(args.trace) and index % 2 == 1
        tracer = Tracer() if traced else None
        capture = {} if args.emit_fields else None
        seconds, code, error = run_solve(solve_argv, tracer, capture)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        solve_dir = args.out / f"solve_{index:03d}"
        if live.exists():
            live.rename(solve_dir)
        else:
            solve_dir.mkdir()
        if capture and "solution" in capture and code == 0:
            _save_solution_fields(capture["solution"], config, solve_dir)
        solves.append({
            "index": index,
            "traced": traced,
            "seconds": seconds,
            "exit_code": code,
            "error": error,
            "peak_rss_kb": peak_rss_kb,
            "dir": solve_dir.name,
            "spans": tracer.spans if tracer is not None else None,
        })

    (args.out / "worker.json").write_text(json.dumps({"solves": solves}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
