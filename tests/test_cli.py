import json
from dataclasses import fields
from pathlib import Path
import math

import numpy as np
import pytest

import vortexlab as vl
from vortexlab import cli
from vortexlab.errors import ExponentOverflow
from vortexlab.reporting import dumps_canonical, format_float, read_fld, write_fld
from vortexlab.solver import NewtonStep


TORUS_L = 2 * math.pi


def torus_config(**overrides):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "torus", "L1": TORUS_L, "L2": TORUS_L},
        "grid": {"nx": 32, "ny": 32},
        "vortices": {"up": [[1.9, 1.9, 1]], "down": [[3.1, 4.7, 1]]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_check_feasible(tmp_path):
    path = write_config(tmp_path, torus_config())
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    adm = json.loads((tmp_path / "admissibility.json").read_text())
    assert adm["feasible"] is True
    assert adm["threshold"] == pytest.approx(math.pi)
    assert adm["eta1"] == pytest.approx(TORUS_L**2 / 2 - 4 * math.pi / 8)


def test_check_infeasible_exit_2(tmp_path):
    small = 0.5
    cfg = torus_config(
        domain={"kind": "torus", "L1": small, "L2": small},
        vortices={"up": [[0.2, 0.2, 2]], "down": [[0.3, 0.3, 1]]},
    )
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
    adm = json.loads((tmp_path / "admissibility.json").read_text())
    assert adm["feasible"] is False


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = torus_config()
    cfg["vorticies"] = {}
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "vorticies" in capsys.readouterr().err


def test_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 1.0,')
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_mode_mismatch_rejected(tmp_path):
    cfg = torus_config(mode="solve")
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_solve_vacuum_plane(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane"},
        "grid": {"nx": 64, "ny": 64},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solve"]["newton_iterations"] <= 1
    assert report["diagnostics"]["flux1"] == 0.0
    assert report["diagnostics"]["flux2"] == 0.0
    assert report["diagnostics"]["energy_integral"] == 0.0
    assert report["config"]["domain"]["R"] == pytest.approx(9.0)
    assert report["config"]["mu"] == pytest.approx(16.0)


def test_solve_infeasible_exit_2(tmp_path):
    cfg = torus_config(domain={"kind": "torus", "L1": 1.0, "L2": 1.0},
                       vortices={"up": [[0.5, 0.5, 2]], "down": []})
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_solve_nonconvergence_exit_3(tmp_path):
    cfg = torus_config(max_newton=1)
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_solve_exponent_overflow_exit_3(tmp_path, monkeypatch, capsys):
    def diverge(cfg):
        raise ExponentOverflow("exponent reached 701; iterate diverged")

    monkeypatch.setattr(cli, "newton_solve", diverge)
    path = write_config(tmp_path, torus_config())
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("non-convergence:")


@pytest.mark.parametrize("mode", ["solve", "oracle-compare"])
def test_solver_value_error_exit_3(tmp_path, monkeypatch, capsys, mode):
    # a ValueError from newton_solve comes after the config passed validation
    def fail(cfg):
        raise ValueError("non-finite values in ScalarField")

    monkeypatch.setattr(cli, "newton_solve", fail)
    cfg = torus_config() if mode == "solve" else {
        "p": 1.0, "q": 2.0, "domain": {"kind": "plane", "R": 9.0},
        "grid": {"nx": 33, "ny": 33}, "vortices": {"up": [[0.0, 0.0, 1]]},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main([mode, "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    assert "ValueError" in err and "non-finite values in ScalarField" in err


def test_config_value_error_exit_1(tmp_path, monkeypatch, capsys):
    # SolveConfig rejects bad solver settings before any solve starts
    def unreachable(cfg):
        raise AssertionError("newton_solve must not run on an invalid config")

    monkeypatch.setattr(cli, "newton_solve", unreachable)
    for overrides, message in (
        ({"armijo_backtrack": 1.5}, "backtracking factor"),
        ({"cg_max_iter": 0}, "cg_max_iter"),
    ):
        path = write_config(tmp_path, torus_config(**overrides))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


def test_solve_deterministic_and_rerunnable(tmp_path):
    cfg = torus_config(emit_fields=True)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    first = (out / "report.json").read_bytes()
    first_fld = (out / "u1.fld").read_bytes()
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == first
    assert (out / "u1.fld").read_bytes() == first_fld
    # rerunning from the report itself reproduces the bytes too
    assert cli.main(["solve", "--config", str(out / "report.json")]) == 0
    assert (out / "report.json").read_bytes() == first


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def assert_report_schema(report):
    expected = {"flux_expected", "physical_flux_expected", "energy_expected"}
    assert set(report["diagnostics"]) == field_names(vl.DiagnosticsReport) | expected
    assert report["solve"]["history"]
    for step in report["solve"]["history"]:
        assert set(step) == field_names(NewtonStep)


def test_solve_report_content(tmp_path):
    cfg = torus_config()
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert_report_schema(report)
    assert set(report["admissibility"]) == field_names(vl.AdmissibilityReport)
    diag = report["diagnostics"]
    assert diag["flux1"] == pytest.approx(-math.pi, rel=5e-3)
    assert diag["flux2"] == pytest.approx(-math.pi, rel=5e-3)
    assert diag["physical_flux1"] == pytest.approx(2.0 * diag["flux1"], rel=1e-15)
    assert diag["energy_integral"] == pytest.approx(-math.pi, rel=5e-3)
    assert diag["eta1_measured"] == pytest.approx(report["admissibility"]["eta1"], rel=5e-3)
    assert report["solve"]["final_residual"] <= report["config"]["tol_residual"]
    assert report["admissibility"]["feasible"] is True


def test_solve_report_content_plane(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane"},
        "grid": {"nx": 64, "ny": 64},
        "vortices": {"up": [[0.0, 0.0, 1]]},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert_report_schema(report)
    assert report["admissibility"] is None
    diag = report["diagnostics"]
    assert diag["flux_expected"] == pytest.approx([-math.pi, 0.0])
    assert diag["eta1_measured"] is None and diag["eta2_measured"] is None


def test_fld_format_and_round_trip(tmp_path):
    cfg = torus_config(emit_fields=True)
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "u1.fld").read_text().splitlines()
    assert lines[0] == "vortexfld 1"
    assert lines[1] == "32 32"
    assert len(lines) == 3 + 32 * 32
    assert (tmp_path / "B12.fld").exists()
    field = read_fld(tmp_path / "u1.fld", kind=vl.GridKind.PERIODIC_CELL)
    assert field.grid.nx == 32
    # %.17g is loss-free for doubles
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solve"]["converged"] is True


def test_emit_profiles_plane(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane"},
        "grid": {"nx": 64, "ny": 64},
        "vortices": {"up": [[0.0, 0.0, 1]]},
        "emit_profiles": True,
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "radial_profile.csv").read_text().splitlines()
    assert rows[0] == "r,u1_ring_mean,u2_ring_mean,decay_quantity"
    assert len(rows) == 65
    r, u1m, u2m, dq = (float(t) for t in rows[-1].split(","))
    assert abs(u1m + math.log(2)) < 1e-2 and dq >= 0.0


def test_oracle_compare_vacuum(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane", "R": 10.0},
        "grid": {"nx": 64, "ny": 64},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["oracle-compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "oracle_compare.json").read_text())
    assert rep["u1_max_abs_diff"] <= 1e-12
    assert rep["u2_max_abs_diff"] <= 1e-12


def test_oracle_compare_dual_species(tmp_path):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane"},
        "grid": {"nx": 192, "ny": 192},
        "vortices": {"up": [[0.0, 0.0, 1]], "down": [[0.0, 0.0, 1]]},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["oracle-compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "oracle_compare.json").read_text())
    # coarser than the acceptance grid; O(h^2) budget
    assert rep["u1_max_abs_diff"] <= 2e-3
    assert rep["u2_max_abs_diff"] <= 2e-3
    # both species coincide by symmetry of the configuration
    assert rep["u1_rings_2d"] == pytest.approx(rep["u2_rings_2d"], abs=1e-9)


def test_oracle_compare_rejects_off_origin(tmp_path, capsys):
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane", "R": 10.0},
        "grid": {"nx": 64, "ny": 64},
        "vortices": {"up": [[1.0, 0.0, 1]]},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["oracle-compare", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "radial" in capsys.readouterr().err


def test_oracle_compare_rejects_coarse_mesh_before_solving(tmp_path, monkeypatch, capsys):
    def unreachable(cfg):
        raise AssertionError("the 2D solve must not run when the oracle mesh is invalid")

    monkeypatch.setattr(cli, "newton_solve", unreachable)
    cfg = {
        "p": 1.0,
        "q": 2.0,
        "domain": {"kind": "plane", "R": 10.0},
        "grid": {"nx": 64, "ny": 64},
        "oracle_mesh": 10,
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["oracle-compare", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "mesh 10" in err and "64" in err


def test_vortices_outside_domain_rejected(tmp_path):
    cfg = torus_config(vortices={"up": [[100.0, 0.0, 1]], "down": []})
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_coincident_vortices_merged(tmp_path):
    cfg = torus_config(
        vortices={"up": [[1.9, 1.9, 1], [1.9, 1.9, 1]], "down": []}
    )
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
    resolved = cli.resolve_config(cfg, "check")
    assert resolved["vortices"]["up"] == [[1.9, 1.9, 2]]


def test_resolve_config_fills_solver_defaults():
    resolved = cli.resolve_config(torus_config(), "solve")
    defaults = {f.name: f.default for f in fields(vl.SolveConfig)}
    for key in ("tol_residual", "max_newton", "cg_tol", "cg_max_iter", "armijo_c", "armijo_backtrack"):
        assert resolved[key] == defaults[key]
        assert type(resolved[key]) is type(defaults[key])


def test_shipped_torus_example_config(tmp_path):
    # the documented example: p=1, q=2, N1=2, N2=1 on the (2 pi)^2 cell
    config = Path(__file__).resolve().parents[1] / "configs" / "torus_example.json"
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    diag = report["diagnostics"]
    assert diag["flux1"] == pytest.approx(-2 * math.pi, rel=5e-3)
    assert diag["flux2"] == pytest.approx(-math.pi, rel=5e-3)
    assert diag["physical_flux1"] == pytest.approx(-4 * math.pi, rel=5e-3)


def test_canonical_json_float_formatting():
    text = dumps_canonical({"a": 0.1, "b": [1, True, None], "c": "x"})
    assert text == '{"a":0.10000000000000001,"b":[1,true,null],"c":"x"}\n'
    assert json.loads(text)["a"] == 0.1


@pytest.mark.parametrize(
    "grid",
    [vl.Grid2D.periodic(2 * math.pi, 3 * math.pi, 8, 16), vl.Grid2D.dirichlet(3.0, 8, 8)],
    ids=["periodic", "dirichlet"],
)
def test_fld_write_read_exact(tmp_path, rng, grid):
    field = vl.ScalarField(grid, rng.normal(size=grid.shape))
    write_fld(tmp_path / "f.fld", field)
    back = read_fld(tmp_path / "f.fld", kind=grid.kind)
    assert back.grid == field.grid
    assert np.array_equal(back.values, field.values)


def test_fld_bytes_match_per_value_formatter(tmp_path):
    grid = vl.Grid2D.dirichlet(3.0, 5, 4)
    values = np.linspace(-2.5, 7.0, grid.nx * grid.ny).reshape(grid.shape)
    values.flat[:6] = [-0.0, 5e-324, 2.2250738585072014e-309, 1e300, 1.0, -3.0]
    field = vl.ScalarField(grid, values)
    write_fld(tmp_path / "f.fld", field)
    lines = [
        "vortexfld 1",
        f"{grid.nx} {grid.ny}",
        " ".join(format_float(v) for v in (grid.x0, grid.y0, grid.hx, grid.hy)),
    ]
    lines.extend(format_float(v) for v in values.ravel(order="C"))
    expected = ("\n".join(lines) + "\n").encode("ascii")
    assert (tmp_path / "f.fld").read_bytes() == expected
    assert b"\n-0\n4.9406564584124654e-324\n" in expected and b"\n1\n-3\n" in expected


def test_fld_refuses_non_finite(tmp_path):
    field = vl.ScalarField(vl.Grid2D.dirichlet(3.0, 4, 4), np.zeros((4, 4)))
    field.values[1, 1] = np.inf
    with pytest.raises(ValueError):
        write_fld(tmp_path / "f.fld", field)
    assert not (tmp_path / "f.fld").exists()
