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
    # a typo, and each key that older configs and reports carried
    for key, value in {
        "vorticies": {}, "cg_tol": 1e-3, "cg_max_iter": 400, "armijo_c": 1e-4,
        "armijo_backtrack": 0.5, "output_dir": ".", "emit_fields": True, "emit_profiles": False,
    }.items():
        path = write_config(tmp_path, torus_config(**{key: value}))
        assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err


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
    # non-finite numbers and bad settings are refused before any solve
    def unreachable(cfg):
        raise AssertionError("newton_solve must not run on an invalid config")

    monkeypatch.setattr(cli, "newton_solve", unreachable)
    for overrides, message in (
        ({"max_newton": 0}, "max_newton must be >= 1"),
        ({"p": float("nan")}, "'p'"),
        ({"vortices": {"up": [[float("inf"), 1.9, 1]]}}, "vortices.up"),
        ({"tol_residual": float("nan")}, "tol_residual"),
        ({"tol_residual": 0.0}, "tol_residual must be positive"),
        ({"domain": {"kind": "torus", "L1": 0.0, "L2": TORUS_L}}, "cell sides must be positive"),
        ({"domain": {"kind": "plane", "R": -1.0}, "vortices": {}}, "half width must be positive"),
    ):
        path = write_config(tmp_path, torus_config(**overrides))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


def test_out_naming_a_file_exits_1_with_a_message(tmp_path, capsys):
    path = write_config(tmp_path, torus_config())
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    for mode in ("check", "solve"):
        assert cli.main([mode, "--config", str(path), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs: ") and str(taken) in err
    assert taken.read_text() == "not a directory"


def test_solve_deterministic_and_rerunnable(tmp_path):
    # report.json states the problem only: neither where the outputs go nor
    # which optional ones were written changes its bytes
    path = write_config(tmp_path, torus_config())
    a, b, c = tmp_path / "a", tmp_path / "nested" / "b", tmp_path / "c"
    assert cli.main(["solve", "--config", str(path), "--out", str(a), "--emit-fields"]) == 0
    assert cli.main(["solve", "--config", str(path), "--out", str(b), "--emit-fields"]) == 0
    first = (a / "report.json").read_bytes()
    assert (b / "report.json").read_bytes() == first
    assert (b / "u1.fld").read_bytes() == (a / "u1.fld").read_bytes()
    # rerunning from the report itself, into a third directory and without
    # the flag, reproduces the bytes too
    assert cli.main(["solve", "--config", str(a / "report.json"), "--out", str(c)]) == 0
    assert (c / "report.json").read_bytes() == first
    assert not (c / "u1.fld").exists()


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
    path = write_config(tmp_path, torus_config())
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path), "--emit-fields"]) == 0
    lines = (tmp_path / "u1.fld").read_text().splitlines()
    assert lines[0] == "vortexfld 2 periodic_cell"
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
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path), "--emit-profiles"]) == 0
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


def test_vortices_outside_domain_rejected(tmp_path, capsys):
    cfg = torus_config(vortices={"up": [[100.0, 0.0, 1]], "down": []})
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "outside the fundamental cell" in capsys.readouterr().err


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
    for key in ("tol_residual", "max_newton"):
        assert resolved[key] == defaults[key]
        assert type(resolved[key]) is type(defaults[key])
    # the resolved config is the problem and its solver settings, nothing else
    assert set(resolved) == {
        "mode", "p", "q", "rho_bar", "domain", "grid", "vortices", "mu", "tol_residual", "max_newton",
    }


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
    # a v2 file reads back its own kind; a kind given must agree with it
    for kind in (None, grid.kind):
        back = read_fld(tmp_path / "f.fld", kind=kind)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)


def _write_v1(tmp_path, field):
    """A version-1 dump of ``field``: the v2 layout under the old header."""
    write_fld(tmp_path / "v2.fld", field)
    lines = (tmp_path / "v2.fld").read_text().splitlines(keepends=True)
    path = tmp_path / "v1.fld"
    path.write_text("vortexfld 1\n" + "".join(lines[1:]))
    return path


def test_fld_v1_read_exact(tmp_path, rng):
    grid = vl.Grid2D.dirichlet(3.0, 8, 8)
    field = vl.ScalarField(grid, rng.normal(size=grid.shape))
    back = read_fld(_write_v1(tmp_path, field), kind=vl.GridKind.DIRICHLET_SQUARE)
    assert back.grid == field.grid
    assert np.array_equal(back.values, field.values)


def test_fld_v1_requires_kind(tmp_path):
    field = vl.ScalarField(vl.Grid2D.periodic(1.0, 1.0, 4, 4), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="does not record its grid kind"):
        read_fld(_write_v1(tmp_path, field))


def test_fld_kind_mismatch_raises(tmp_path):
    field = vl.ScalarField(vl.Grid2D.periodic(1.0, 1.0, 4, 4), np.zeros((4, 4)))
    write_fld(tmp_path / "f.fld", field)
    with pytest.raises(ValueError, match="periodic_cell"):
        read_fld(tmp_path / "f.fld", kind=vl.GridKind.DIRICHLET_SQUARE)


def test_fld_bytes_match_per_value_formatter(tmp_path):
    grid = vl.Grid2D.dirichlet(3.0, 5, 4)
    values = np.linspace(-2.5, 7.0, grid.nx * grid.ny).reshape(grid.shape)
    values.flat[:6] = [-0.0, 5e-324, 2.2250738585072014e-309, 1e300, 1.0, -3.0]
    field = vl.ScalarField(grid, values)
    write_fld(tmp_path / "f.fld", field)
    lines = [
        "vortexfld 2 dirichlet_square",
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


FLD_EDGE_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e17, 9.999999999999999e16,
    1e-4, 9.9999999999999995e-05, 1e-5,
    1e22, 1e23, 0.1,
]


def _fld_body(path):
    return path.read_bytes().split(b"\n", 3)[3]


def _write_fld_text(path, kind, nx, ny, spacing, lines):
    header = f"vortexfld 2 {kind}\n{nx} {ny}\n0 0 {spacing} {spacing}\n"
    path.write_text(header + "".join(line + "\n" for line in lines))
    return path


def test_fld_writer_matches_percent_g_on_random_bit_patterns(tmp_path, rng):
    # 2**17 doubles from random bit patterns, finite ones kept, then the edge list
    grid = vl.Grid2D.periodic(1.0, 1.0, 512, 256)
    values = rng.integers(0, 2**64, size=2 * grid.nx * grid.ny, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)][: grid.nx * grid.ny]
    edges = np.array(FLD_EDGE_VALUES)
    values[: 2 * edges.size] = np.concatenate((edges, -edges))
    write_fld(tmp_path / "f.fld", vl.ScalarField(grid, values.reshape(grid.shape)))
    expected = "".join("%.17g\n" % v for v in values.tolist()).encode("ascii")
    assert _fld_body(tmp_path / "f.fld") == expected
    back = read_fld(tmp_path / "f.fld")
    assert np.array_equal(back.values.ravel().view(np.uint64), values.view(np.uint64))


def test_fld_reader_matches_float_on_any_line_float_accepts(tmp_path):
    lines = ["%.17g" % v for v in FLD_EDGE_VALUES]
    lines += ["-" + line for line in lines]
    lines += [" 1.50", "1E5", "+2", "1_000.5", "-0", "1.", ".5", "007", "9007199254740993",
              "1.00000762939453125", "0.00012300", "-1.5e-05", "12345678901234567890123",
              "1000000000000000000", "12345678901234567890", "1.234567890123456789e-01",
              "-0.1234567890123456789"]
    lines += ["0"] * (-len(lines) % 4)
    path = _write_fld_text(tmp_path / "f.fld", "dirichlet_square", 4, len(lines) // 4, 1.0, lines)
    back = read_fld(path).values.ravel()
    expected = np.array([float(line) for line in lines])
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


def test_fld_reader_matches_float_on_random_line_shapes(tmp_path, rng):
    # 1 to 23 digits, leading zeros, a point anywhere, e+d .. e-ddd, a sign
    lines = []
    for _ in range(20000):
        text = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 24))))
        if rng.random() < 0.3:
            text = "0" * int(rng.integers(1, 6)) + text
        if rng.random() < 0.6:
            dot = int(rng.integers(0, len(text) + 1))
            text = text[:dot] + "." + text[dot:]
        if rng.random() < 0.5:
            power = str(int(rng.integers(0, 400))).zfill(int(rng.integers(1, 4)))
            text += "e" + str(rng.choice(["+", "-"])) + power
        lines.append("-" + text if rng.random() < 0.5 else text)
    lines = [line for line in lines if math.isfinite(float(line))]
    del lines[len(lines) // 4 * 4:]
    path = _write_fld_text(tmp_path / "f.fld", "dirichlet_square", 4, len(lines) // 4, 1.0, lines)
    back = read_fld(path).values.ravel()
    expected = np.array([float(line) for line in lines])
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "kind, nx, ny, spacing, count, message",
    [
        ("periodic_cell", 4, 4, 0.5, 15, "15 value lines, not nx\\*ny = 16"),
        ("periodic_cell", 0, 0, 0.5, 0, "power-of-two nx and ny, not 0 x 0"),
        ("periodic_cell", 3, 4, 0.5, 12, "power-of-two nx and ny, not 3 x 4"),
        ("dirichlet_square", 3, 4, 0.5, 12, "at least 4 x 4 nodes, not 3 x 4"),
        ("periodic_cell", 4, 4, 0.0, 16, "positive finite spacings"),
        ("dirichlet_square", 4, 4, -1.0, 16, "positive finite spacings"),
        ("dirichlet_square", 4, 4, "nan", 16, "positive finite spacings"),
    ],
)
def test_fld_reader_refuses_bad_header_or_count(tmp_path, kind, nx, ny, spacing, count, message):
    path = _write_fld_text(tmp_path / "bad.fld", kind, nx, ny, spacing, ["0.5"] * count)
    with pytest.raises(ValueError, match=message) as info:
        read_fld(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "kind, value, message",
    [("bogus", "0.5", "'bogus' is not a valid GridKind"), ("periodic_cell", "nan", "non-finite")],
    ids=["unknown_kind", "nan_value"],
)
def test_fld_reader_names_the_file(tmp_path, kind, value, message):
    path = _write_fld_text(tmp_path / "bad.fld", kind, 4, 4, 0.5, ["0.5"] * 15 + [value])
    with pytest.raises(ValueError, match=message) as info:
        read_fld(path)
    assert str(info.value).startswith(f"{path}: ")


def test_fld_reader_refuses_lines_past_the_field(tmp_path):
    field = vl.ScalarField(vl.Grid2D.periodic(1.0, 1.0, 4, 4), np.zeros((4, 4)))
    write_fld(tmp_path / "f.fld", field)
    with open(tmp_path / "f.fld", "a") as f:
        f.write("99\n17\ngarbage")
    with pytest.raises(ValueError, match="19 value lines, not nx\\*ny = 16"):
        read_fld(tmp_path / "f.fld")


@pytest.mark.parametrize(
    "text, message",
    [("na\xefve", "(?i)ascii"), ("nan", "non-finite"), ("x", "value line 16")],
    ids=["non_ascii", "nan", "not_a_number"],
)
def test_fld_reader_still_refuses_bad_values(tmp_path, text, message):
    path = tmp_path / "f.fld"
    header = "vortexfld 2 periodic_cell\n4 4\n0 0 0.5 0.5\n"
    path.write_bytes((header + "0.5\n" * 15 + text + "\n").encode("utf-8"))
    with pytest.raises(ValueError, match=message):
        read_fld(path)
