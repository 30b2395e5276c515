"""Per-solve correctness gate and the determinism check across solves.

A solve passes only if it exited 0, wrote a parseable ``report.json`` whose
final residual is within ``tol_residual``, whose flux integrals and energy
identity are within 0.005 relative of -pi*N_i and -pi*(N1+N2)/2 and, on the
torus, whose measured eta masses are within 0.005 relative of the closed
forms.  With ``--emit-fields`` every ``.fld`` file must read back, as a
periodic grid, to exactly the solution arrays saved beside it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 0.005
FIELD_NAMES = ("u1", "u2", "B12")


def _rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / abs(expected)


def _check_report(report: dict, config: dict) -> list[str]:
    from vortexlab import check_admissibility, coupling_from_pq

    problems = []
    solve, diag = report["solve"], report["diagnostics"]
    if not solve["final_residual"] <= report["config"]["tol_residual"]:
        problems.append(f"final_residual {solve['final_residual']} above tol_residual")
    n1 = sum(m for *_, m in config["vortices"]["up"])
    n2 = sum(m for *_, m in config["vortices"]["down"])
    checks = [
        ("flux1", diag["flux1"], -math.pi * n1),
        ("flux2", diag["flux2"], -math.pi * n2),
        ("energy_integral", diag["energy_integral"], -math.pi * (n1 + n2) / 2.0),
    ]
    dom = config["domain"]
    if dom["kind"] == "torus":
        k = coupling_from_pq(config["p"], config["q"])
        adm = check_admissibility(k, n1, n2, dom["L1"] * dom["L2"])
        checks += [
            ("eta1_measured", diag["eta1_measured"], adm.eta1),
            ("eta2_measured", diag["eta2_measured"], adm.eta2),
        ]
    for name, measured, expected in checks:
        err = _rel_err(measured, expected)
        if not err <= TOL:
            problems.append(f"{name} = {measured} is {err:.3g} relative from {expected}")
    return problems


def _check_fields(solve_dir: Path, config: dict) -> list[str]:
    import numpy as np
    from vortexlab import Grid2D, GridKind
    from vortexlab.reporting import read_fld

    dom, grid = config["domain"], config["grid"]
    expected_grid = Grid2D.periodic(dom["L1"], dom["L2"], grid["nx"], grid["ny"])
    problems = []
    for name in FIELD_NAMES:
        try:
            back = read_fld(solve_dir / f"{name}.fld", kind=GridKind.PERIODIC_CELL)
            values = np.load(solve_dir / f"{name}.npy")
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: cannot read back: {exc}")
            continue
        if back.grid != expected_grid:
            problems.append(f"{name}.fld grid {back.grid} != {expected_grid}")
        elif not np.array_equal(back.values, values):
            problems.append(f"{name}.fld does not read back to the solution array")
    return problems


def gate_solve(record: dict, solve_dir: Path, config: dict, emit_fields: bool) -> list[str]:
    """Problems found with one solve; an empty list means it passed."""
    if record["error"] is not None:
        return [f"solve raised: {record['error'].strip().splitlines()[-1]}"]
    if record["exit_code"] != 0:
        return [f"exit code {record['exit_code']}"]
    try:
        report = json.loads((solve_dir / "report.json").read_text())
        problems = _check_report(report, config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report.json unusable: {exc!r}"]
    if emit_fields:
        problems += _check_fields(solve_dir, config)
    return problems


class DeterminismError(RuntimeError):
    """Repeated solves of one config disagree."""


def check_same(what: str, values: list) -> None:
    """Raise unless every value equals the first."""
    for i, value in enumerate(values[1:], start=1):
        if value != values[0]:
            raise DeterminismError(f"{what} differs between repeated solves (0 vs {i})")
