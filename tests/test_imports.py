"""scipy is loaded only where the plane and the radial oracle run it, and
scipy.sparse nowhere: a folded plane solve and the oracle's band solve load
LAPACK alone.

The test modules themselves import scipy, so a run's imports are checked in a
fresh interpreter that imports nothing but the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexlab"

# runs each (argv, expected exit code) through cli.main, then prints the scipy
# modules loaded
CHILD = """
import json, sys
import vortexlab
from vortexlab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(k for k in sys.modules if k.startswith("scipy"))}))
"""


def _run_fresh(*argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _small_config(tmp_path, name, n):
    cfg = json.loads((ROOT / "configs" / name).read_text())
    cfg["grid"] = {"nx": n, "ny": n}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_torus_solve_and_check_load_no_scipy(tmp_path):
    config = _small_config(tmp_path, "torus_example.json", 32)
    result = _run_fresh(["solve", "--config", config, "--out", str(tmp_path / "solve"), "--emit-fields"],
                        ["check", "--config", config, "--out", str(tmp_path / "check")])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []
    assert (tmp_path / "solve" / "u1.fld").is_file()


def _loaded(result, package):
    return any(name == package or name.startswith(package + ".") for name in result["scipy"])


def test_folded_plane_solve_loads_lapack_alone(tmp_path):
    # at 128^2 the 126 and 62 interior nodes of both cascade levels take the
    # folded sine transform, and prolongation is numpy
    config = _small_config(tmp_path, "plane_example.json", 128)
    result = _run_fresh(["solve", "--config", config, "--out", str(tmp_path / "solve")])
    assert result["codes"] == [0]
    assert _loaded(result, "scipy.linalg")
    assert not _loaded(result, "scipy.fft")
    assert not _loaded(result, "scipy.sparse")


def test_fft_plane_solve_loads_no_sparse(tmp_path):
    # at 129^2 both levels' sine transforms are FFTs of length 256 and 128
    config = _small_config(tmp_path, "plane_example.json", 129)
    result = _run_fresh(["solve", "--config", config, "--out", str(tmp_path / "solve")])
    assert result["codes"] == [0]
    assert _loaded(result, "scipy.fft")
    assert not _loaded(result, "scipy.sparse")


def test_oracle_compare_loads_lapack_alone(tmp_path):
    # the 2D solve folds as in the plane solve above, and the oracle's
    # Newton steps are LAPACK band solves
    config = _small_config(tmp_path, "plane_example.json", 128)
    result = _run_fresh(["oracle-compare", "--config", config, "--out", str(tmp_path / "oracle")])
    assert result["codes"] == [0]
    assert _loaded(result, "scipy.linalg")
    assert not _loaded(result, "scipy.fft")
    assert not _loaded(result, "scipy.sparse")


def _run_time_statements(body):
    """The statements of ``body`` that run on import, descending into ``if``
    and ``try`` blocks but not into ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _run_time_statements(node.body)
            yield from _run_time_statements(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody):
                yield from _run_time_statements(block)
        else:
            yield node


def test_no_module_imports_scipy_at_top_level():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _run_time_statements(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
