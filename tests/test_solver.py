import math
from dataclasses import replace

import numpy as np
import pytest

import vortexlab as vl
from vortexlab import solver
from vortexlab.errors import (
    ExponentOverflow,
    InfeasibleDomain,
    LineSearchStalled,
    MaxIterationsExceeded,
)
from vortexlab.model import eigen_inverse_values
from vortexlab.solver import LOG2
from conftest import random_direction, random_state, small_plane_setup, small_torus_setup


def _inner(cfg, a, b):
    da = cfg.grid.cell_area
    return da * float(
        np.sum(a[0].values * b[0].values) + np.sum(a[1].values * b[1].values)
    )


# -- Functional values -----------------------------------------------------------

def test_torus_vacuum_functional_closed_form():
    cfg, bg = small_torus_setup(n=8, with_vortices=False)
    state = random_state(cfg, np.random.default_rng(0), amplitude=0.0)
    value = vl.functional_value(state, cfg, bg)
    k = cfg.coupling
    expected = (8.0 * k.k11 / k.det) * cfg.grid.area  # two e^0 terms, no linear part
    assert value == pytest.approx(expected, rel=1e-12)


def test_plane_vacuum_functional_and_gradient_vanish():
    cfg, bg = small_plane_setup(n=12, with_vortex=False)
    state = random_state(cfg, np.random.default_rng(0), amplitude=0.0)
    assert vl.functional_value(state, cfg, bg) == 0.0
    g1, g2 = vl.functional_gradient(state, cfg, bg)
    assert not g1.values.any() and not g2.values.any()


def test_functional_overflow_guard():
    cfg, bg = small_torus_setup(n=8)
    w = np.full(cfg.grid.shape, 300.0)  # sqrt(8)*300 > 700
    state = vl.State(vl.ScalarField(cfg.grid, w), vl.ScalarField(cfg.grid, w))
    with pytest.raises(ExponentOverflow):
        vl.functional_value(state, cfg, bg)


def test_strict_convexity_probe(rng):
    cfg, bg = small_torus_setup(n=8)
    s1 = random_state(cfg, rng)
    s2 = random_state(cfg, rng)
    mid = vl.State(
        vl.ScalarField(cfg.grid, 0.5 * (s1.w1.values + s2.w1.values)),
        vl.ScalarField(cfg.grid, 0.5 * (s1.w2.values + s2.w2.values)),
    )
    i_mid = vl.functional_value(mid, cfg, bg)
    i_avg = 0.5 * vl.functional_value(s1, cfg, bg) + 0.5 * vl.functional_value(s2, cfg, bg)
    assert i_mid < i_avg


# -- Derivative consistency ---------------------------------------------------------

@pytest.mark.parametrize("setup", [small_torus_setup, small_plane_setup], ids=["torus", "plane"])
def test_gradient_matches_finite_differences(setup, rng):
    cfg, bg = setup()
    state = random_state(cfg, rng)
    direction = random_direction(cfg, rng)
    g = vl.functional_gradient(state, cfg, bg)
    directional = _inner(cfg, g, direction)
    eps = 1e-6
    plus = vl.State(
        vl.ScalarField(cfg.grid, state.w1.values + eps * direction[0].values),
        vl.ScalarField(cfg.grid, state.w2.values + eps * direction[1].values),
    )
    minus = vl.State(
        vl.ScalarField(cfg.grid, state.w1.values - eps * direction[0].values),
        vl.ScalarField(cfg.grid, state.w2.values - eps * direction[1].values),
    )
    fd = (vl.functional_value(plus, cfg, bg) - vl.functional_value(minus, cfg, bg)) / (2 * eps)
    assert abs(fd - directional) < 1e-6 * max(1.0, abs(directional))


@pytest.mark.parametrize("setup", [small_torus_setup, small_plane_setup], ids=["torus", "plane"])
def test_hessian_symmetry_and_positivity(setup, rng):
    cfg, bg = setup()
    state = random_state(cfg, rng)
    for _ in range(100):
        d = random_direction(cfg, rng)
        hd = vl.hessian_matvec(state, d, cfg, bg)
        assert _inner(cfg, hd, d) > 0.0
    d = random_direction(cfg, rng)
    e = random_direction(cfg, rng)
    hd = vl.hessian_matvec(state, d, cfg, bg)
    he = vl.hessian_matvec(state, e, cfg, bg)
    assert abs(_inner(cfg, hd, e) - _inner(cfg, d, he)) < 1e-11


def test_hessian_matches_gradient_differences(rng):
    cfg, bg = small_torus_setup()
    state = random_state(cfg, rng)
    d = random_direction(cfg, rng)
    hd = vl.hessian_matvec(state, d, cfg, bg)
    eps = 1e-6
    plus = vl.State(
        vl.ScalarField(cfg.grid, state.w1.values + eps * d[0].values),
        vl.ScalarField(cfg.grid, state.w2.values + eps * d[1].values),
    )
    minus = vl.State(
        vl.ScalarField(cfg.grid, state.w1.values - eps * d[0].values),
        vl.ScalarField(cfg.grid, state.w2.values - eps * d[1].values),
    )
    gp = vl.functional_gradient(plus, cfg, bg)
    gm = vl.functional_gradient(minus, cfg, bg)
    fd1 = (gp[0].values - gm[0].values) / (2 * eps)
    fd2 = (gp[1].values - gm[1].values) / (2 * eps)
    scale = max(np.max(np.abs(hd[0].values)), np.max(np.abs(hd[1].values)))
    err = max(np.max(np.abs(fd1 - hd[0].values)), np.max(np.abs(fd2 - hd[1].values)))
    assert err < 1e-5 * scale


@pytest.mark.parametrize("setup", [small_torus_setup, small_plane_setup], ids=["torus", "plane"])
def test_pcg_direction_solves_explicit_hessian(setup, rng):
    # _pcg carries -Lap p by recurrence; check its answer against the public
    # Hessian, which applies the Laplacian explicitly
    cfg, bg = setup(n=32)
    state = random_state(cfg, rng)
    problem = solver._Problem(cfg, bg)
    w1, w2 = state.w1.values, state.w2.values
    exps = problem.exponentials(w1, w2)
    g1, g2 = problem.gradient(exps, problem.neg_laplacian(w1, w2))
    mult = problem.hessian_multipliers(*exps)
    tol = 1e-8
    d1, d2, its = solver._pcg(problem, mult, -g1, -g2, tol, 400)
    assert 0 < its < 400
    h1, h2 = vl.hessian_matvec(state, (vl.ScalarField(cfg.grid, d1), vl.ScalarField(cfg.grid, d2)),
                               cfg, bg)
    res = math.sqrt(float(np.sum((h1.values + g1) ** 2) + np.sum((h2.values + g2) ** 2)))
    gnorm = math.sqrt(float(np.sum(g1**2) + np.sum(g2**2)))
    assert res <= tol * gnorm


def _plane_config():
    k = vl.coupling_from_pq(1.0, 2.0)
    return vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(up=((-0.7, -0.5, 1), (0.8, -0.4, 1)), down=((0.1, 0.7, 1),)),
        grid=vl.Grid2D.dirichlet(9.0, 33, 33),
    )


def _torus_config():
    l = 2 * np.pi
    return vl.SolveConfig(
        coupling=vl.coupling_from_pq(1.0, 2.0),
        vortices=vl.VortexSet(up=((1.9, 1.9, 1), (4.4, 3.5, 1)), down=((3.1, 4.7, 1),)),
        grid=vl.Grid2D.periodic(l, l, 32, 32),
    )


def _torus_example_config(n=128):
    # the problem of configs/torus_example.json
    l = 2 * np.pi
    return vl.SolveConfig(
        coupling=vl.coupling_from_pq(1.0, 2.0),
        vortices=vl.VortexSet(up=((0.3 * l, 0.3 * l, 1), (0.7 * l, 0.55 * l, 1)),
                              down=((0.5 * l, 0.75 * l, 1),)),
        grid=vl.Grid2D.periodic(l, l, n, n),
    )


def _cascade_plane_config(n):
    return replace(_plane_config(), grid=vl.Grid2D.dirichlet(9.0, n, n))


@pytest.mark.parametrize(
    "make_cfg",
    [_torus_config, _plane_config, _torus_example_config, lambda: _cascade_plane_config(129)],
    ids=["torus", "plane", "torus-cascade", "plane-cascade"],
)
def test_pcg_transform_count(make_cfg, monkeypatch):
    # each CG iteration costs two preconditioner solves and no Laplacian, on
    # every cascade level
    counts = {"laplacian_in_pcg": 0, "laplacian": 0, "precond": 0}
    inside = []
    laplacian, precond, pcg = solver.laplacian_values, solver.solve_shifted_poisson, solver._pcg

    def counted_laplacian(*args):
        counts["laplacian"] += 1
        counts["laplacian_in_pcg"] += bool(inside)
        return laplacian(*args)

    def counted_precond(*args):
        counts["precond"] += 1
        return precond(*args)

    def marked_pcg(*args):
        inside.append(True)
        try:
            return pcg(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solver, "laplacian_values", counted_laplacian)
    monkeypatch.setattr(solver, "solve_shifted_poisson", counted_precond)
    monkeypatch.setattr(solver, "_pcg", marked_pcg)
    sol = vl.newton_solve(make_cfg())
    cg_iterations = sum(step.cg_iterations for step in sol.history)
    assert cg_iterations > 0 and counts["laplacian"] > 0
    assert counts["laplacian_in_pcg"] == 0
    assert counts["precond"] == 2 * cg_iterations


def _torus_backtrack_config():
    # a 20 x 20 cell: the first Newton step from w = 0 backtracks
    l = 20.0
    return vl.SolveConfig(
        coupling=vl.coupling_from_pq(1.0, 2.0),
        vortices=vl.VortexSet(up=((6.0, 6.0, 2),), down=((14.0, 12.0, 1),)),
        grid=vl.Grid2D.periodic(l, l, 32, 32),
    )


def _overflowing_exponentials(monkeypatch, fails):
    """Patch ``_Problem.exponentials`` to raise ``ExponentOverflow`` on the
    calls for which ``fails(call)`` holds, counting from 1; returns the count."""
    calls = []
    exponentials = solver._Problem.exponentials

    def patched(*args):
        calls.append(None)
        if fails(len(calls)):
            raise ExponentOverflow("exponent reached 701; iterate diverged")
        return exponentials(*args)

    monkeypatch.setattr(solver._Problem, "exponentials", patched)
    return calls


def test_overflowing_trial_backtracks(monkeypatch):
    # one level: the first call is the start, the second the first Armijo
    # trial, which counts as an infinite functional value and is halved
    cfg, bg = small_torus_setup(n=32)
    expected = vl.newton_solve(cfg, bg)
    assert expected.history[0].step_size == 1.0
    _overflowing_exponentials(monkeypatch, lambda call: call == 2)
    sol = vl.newton_solve(cfg, bg)
    assert sol.history[0].step_size == 0.5
    for got, want in ((sol.u1, expected.u1), (sol.u2, expected.u2)):
        assert np.max(np.abs(got.values - want.values)) <= 1e-10


def test_line_search_stalls_when_every_trial_overflows(monkeypatch):
    # trials at 1, 1/2, ..., 2^-46 are rejected; 2^-47 is below 1e-14
    cfg, bg = small_torus_setup(n=32)
    calls = _overflowing_exponentials(monkeypatch, lambda call: call > 1)
    with pytest.raises(LineSearchStalled, match="stalled below 1e-14"):
        vl.newton_solve(cfg, bg)
    assert len(calls) == 1 + 47


@pytest.mark.parametrize("make_cfg", [_torus_backtrack_config, _plane_config], ids=["torus", "plane"])
def test_newton_evaluates_each_trial_once(make_cfg, monkeypatch):
    cfg = make_cfg()
    bg = vl.build_background(cfg.vortices, cfg.grid, mu=cfg.resolved_mu())
    counts = {"laplacian": 0, "exponentials": 0}
    laplacian, exponentials = solver.laplacian_values, solver._Problem.exponentials

    def counted_laplacian(*args):
        counts["laplacian"] += 1
        return laplacian(*args)

    def counted_exponentials(*args):
        counts["exponentials"] += 1
        return exponentials(*args)

    with monkeypatch.context() as m:
        m.setattr(solver, "laplacian_values", counted_laplacian)
        m.setattr(solver._Problem, "exponentials", counted_exponentials)
        sol = vl.newton_solve(cfg, bg)
    steps = len(sol.history) - 1
    # a step of size backtrack^j took j + 1 Armijo trials
    trials = sum(
        1 + round(math.log(step.step_size) / math.log(solver.ARMIJO_BACKTRACK))
        for step in sol.history[:-1]
    )
    assert sol.history[0].step_size < 1.0
    assert trials > steps
    # the start and every Armijo trial are evaluated once, exponentials and
    # -Lap together; the accepted trial's are the next iterate's
    assert counts["laplacian"] == 2 * counts["exponentials"] == 2 * (1 + trials)
    # the recorded value is the one the public functional computes
    assert sol.history[-1].functional == vl.functional_value(sol.state, cfg, bg)


# -- Newton solves ----------------------------------------------------------------

def test_plane_vacuum_solves_exactly():
    cfg, bg = small_plane_setup(n=32, with_vortex=False)
    sol = vl.newton_solve(cfg, bg)
    assert sol.newton_iterations <= 1
    assert sol.final_residual == 0.0
    assert np.max(np.abs(sol.u1.values + LOG2)) <= 1e-12
    assert np.max(np.abs(sol.u2.values + LOG2)) <= 1e-12


def test_torus_vacuum_reaches_ground_state():
    # torus formulation has no built-in -ln 2 shift: w = 0 is not the solution
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(),
        grid=vl.Grid2D.periodic(l, l, 32, 32),
    )
    sol = vl.newton_solve(cfg)
    assert sol.newton_iterations >= 1
    assert np.max(np.abs(sol.u1.values + LOG2)) < 1e-10
    assert np.max(np.abs(sol.u2.values + LOG2)) < 1e-10


@pytest.fixture(scope="module")
def torus_solution():
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(up=((1.9, 1.9, 1), (4.4, 3.5, 1)), down=((3.1, 4.7, 1),)),
        grid=vl.Grid2D.periodic(l, l, 64, 64),
    )
    return cfg, vl.newton_solve(cfg)


def test_newton_converges_and_descends(torus_solution):
    cfg, sol = torus_solution
    assert sol.final_residual <= cfg.tol_residual
    values = [step.functional for step in sol.history]
    noise = 1e-13 * max(1.0, abs(values[0]))
    assert all(b <= a + noise for a, b in zip(values, values[1:]))
    # converged gradient maps to a small original-system residual
    g1, g2 = vl.functional_gradient(sol.state, cfg, sol.background)
    r1, r2 = eigen_inverse_values(g1.values, g2.values, cfg.coupling)
    assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) <= 10 * cfg.tol_residual


def test_newton_tail_is_quadratic(torus_solution):
    _, sol = torus_solution
    residuals = [s.residual_inf for s in sol.history if s.residual_inf > 1e-13]
    assert len(residuals) >= 3
    tail_ratio = residuals[-1] / residuals[-2] ** 2
    assert tail_ratio < 100.0


def test_uniqueness_from_random_start(torus_solution, rng):
    cfg, sol = torus_solution
    start = random_state(cfg, rng, amplitude=1.0)
    sol2 = vl.newton_solve(cfg, initial_state=start)
    assert np.max(np.abs(sol.u1.values - sol2.u1.values)) < 1e-8
    assert np.max(np.abs(sol.u2.values - sol2.u2.values)) < 1e-8


def _exchange_plane_case(n):
    # mu below mu* = 32, q = 3 and a doubled vortex: nothing is symmetric
    # except the exchange itself
    k = vl.coupling_from_pq(1.0, 3.0)
    vortices = vl.VortexSet(up=((0.3, -0.4, 2),), down=((-0.8, 0.6, 1),))
    cfg = vl.SolveConfig(coupling=k, vortices=vortices, grid=vl.Grid2D.dirichlet(9.0, n, n), mu=5.0)
    return cfg, vl.newton_solve(cfg)


def test_exchange_symmetry_is_bit_exact(torus_solution):
    # exchanging the species swaps v1 and v2, which keeps w1 and negates w2;
    # IEEE negation is exact, so the two solves agree bit for bit.  The plane
    # cases cover both sine transforms: an FFT at 33 x 33 (length 31), the
    # folded matrix product at 32 x 32 (length 30).  The 128^2 torus and the
    # 128^2 and 129^2 planes run the cascade, whose prolongation commutes
    # with negation exactly, on non-nested and on nested plane grids
    cascaded = _torus_example_config()
    cases = (torus_solution, (cascaded, vl.newton_solve(cascaded)),
             _exchange_plane_case(33), _exchange_plane_case(32),
             _exchange_plane_case(128), _exchange_plane_case(129))
    for cfg, sol in cases:
        swapped = vl.newton_solve(replace(cfg, vortices=cfg.vortices.swapped()))
        assert np.array_equal(sol.u1.values, swapped.u2.values)
        assert np.array_equal(sol.u2.values, swapped.u1.values)
        assert np.array_equal(sol.exp_u1.values, swapped.exp_u2.values)
        assert np.array_equal(sol.exp_u2.values, swapped.exp_u1.values)
        assert sol.history == swapped.history
        assert np.array_equal(sol.state.w1.values, swapped.state.w1.values)
        assert np.array_equal(sol.state.w2.values, -swapped.state.w2.values)


def test_preconditioner_shifts_are_far_field_diagonal(torus_solution):
    # the shifts are the diagonal of the Hessian multipliers at the reference
    # exponentials: the vacuum on the plane, the cell means eta_i/|Omega| on
    # the torus
    cfg, bg = small_plane_setup()
    problem = solver._Problem(cfg, bg)
    a11, a12, a22 = problem.hessian_multipliers(np.ones(cfg.grid.shape), np.ones(cfg.grid.shape))
    assert not a12.any()
    assert problem.shifts == pytest.approx((a11[0, 0], a22[0, 0]), rel=1e-14)
    k = cfg.coupling
    assert problem.shifts == pytest.approx((2.0 * k.lambda1, 2.0 * k.lambda2), rel=1e-14)

    cfg, sol = torus_solution
    problem = solver._Problem(cfg, sol.background)
    adm = vl.check_admissibility(cfg.coupling, cfg.vortices.n1, cfg.vortices.n2, cfg.grid.area)
    shape = cfg.grid.shape
    a11, _, a22 = problem.hessian_multipliers(np.full(shape, adm.eta1 / cfg.grid.area),
                                              np.full(shape, adm.eta2 / cfg.grid.area))
    assert problem.shifts == pytest.approx((a11[0, 0], a22[0, 0]), rel=1e-14)
    # at the solution the flux identities make the cell mean of a11 the shift
    a11 = problem.hessian_multipliers(sol.exp_u1.values, sol.exp_u2.values)[0]
    assert float(np.mean(a11)) == pytest.approx(problem.shifts[0], rel=1e-10)


@pytest.mark.parametrize("setup, laplacians", [(small_torus_setup, 2), (small_plane_setup, 0)],
                         ids=["torus", "plane"])
def test_functional_value_applies_laplacian_only_on_torus(setup, laplacians, monkeypatch, rng):
    # the plane's quadratic part is the edge energy, which reads no -Lap w
    cfg, bg = setup()
    state = random_state(cfg, rng)
    calls = []
    laplacian = solver.laplacian_values

    def counted_laplacian(*args):
        calls.append(True)
        return laplacian(*args)

    monkeypatch.setattr(solver, "laplacian_values", counted_laplacian)
    value = vl.functional_value(state, cfg, bg)
    assert len(calls) == laplacians
    problem = solver._Problem(cfg, bg)
    assert value == problem.evaluate(state.w1.values, state.w2.values)[2]


def test_infeasible_torus_is_refused():
    k = vl.coupling_from_pq(1.0, 2.0)
    area = 0.9 * vl.check_admissibility(k, 2, 1, 1.0).threshold
    l = math.sqrt(area)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(up=((0.3 * l, 0.4 * l, 1), (0.6 * l, 0.6 * l, 1)),
                              down=((0.5 * l, 0.5 * l, 1),)),
        grid=vl.Grid2D.periodic(l, l, 32, 32),
    )
    with pytest.raises(InfeasibleDomain):
        vl.newton_solve(cfg)


def test_iteration_budget_enforced():
    cfg, bg = small_torus_setup(n=16)
    tight = vl.SolveConfig(
        coupling=cfg.coupling, vortices=cfg.vortices, grid=cfg.grid, max_newton=1,
    )
    with pytest.raises(MaxIterationsExceeded):
        vl.newton_solve(tight, bg)


@pytest.mark.parametrize("key", ["tol_residual"])
def test_solve_config_rejects_nan_tolerance(key):
    cfg, _ = small_torus_setup()
    for value in (math.nan, math.inf, 0.0, -1e-10):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            replace(cfg, **{key: value})


def test_solve_config_rejects_mu_on_torus():
    cfg, _ = small_torus_setup()
    with pytest.raises(ValueError, match="mu applies only to plane domains"):
        replace(cfg, mu=5.0)
    plane_cfg, _ = small_plane_setup()
    assert replace(plane_cfg, mu=5.0).resolved_mu() == 5.0


@pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, "3", True])
def test_solve_config_rejects_non_integer_max_newton(value):
    cfg, _ = small_torus_setup()
    with pytest.raises(ValueError, match="max_newton must be an integer"):
        replace(cfg, max_newton=value)
    assert replace(cfg, max_newton=np.int64(3)).max_newton == 3


@pytest.mark.parametrize("value", [True, False, np.True_, "1e-10", None, 1e-10 + 0j],
                         ids=["true", "false", "np_true", "str", "none", "complex"])
def test_solve_config_rejects_a_non_real_tol_residual(value):
    cfg, _ = small_torus_setup()
    with pytest.raises(ValueError, match="tol_residual must be a real number, got "):
        replace(cfg, tol_residual=value)
    assert replace(cfg, tol_residual=np.float64(1e-9)).tol_residual == 1e-9
    assert replace(cfg, tol_residual=1).tol_residual == 1


# -- Coarse-to-fine cascade --------------------------------------------------------

@pytest.mark.parametrize("cfg, sides", [
    (_torus_example_config(64), [(64, 64)]),
    (_torus_example_config(256), [(64, 64), (128, 128), (256, 256)]),
    (replace(_torus_example_config(), grid=vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 256, 128)),
     [(128, 64), (256, 128)]),
    (_cascade_plane_config(126), [(126, 126)]),
    (_cascade_plane_config(127), [(64, 64), (127, 127)]),
    (_cascade_plane_config(256), [(64, 64), (128, 128), (256, 256)]),
    (_cascade_plane_config(257), [(65, 65), (129, 129), (257, 257)]),
    (replace(_plane_config(), grid=vl.Grid2D.dirichlet(9.0, 255, 127)), [(128, 64), (255, 127)]),
    (replace(_torus_example_config(), grid=vl.Grid2D.periodic(2 * np.pi, 2 * np.pi, 256, 2)), [(256, 2)]),
    (_cascade_plane_config(6), [(6, 6)]),
    (_cascade_plane_config(4), [(4, 4)]),
], ids=["torus-64", "torus-256", "torus-256x128", "plane-126", "plane-127", "plane-256", "plane-257",
        "plane-255x127", "torus-256x2", "plane-6", "plane-4"])
def test_cascade_levels(cfg, sides):
    # sides halve while the coarser level keeps COARSEST_SIDE nodes on its
    # shorter side; a grid too small to coarsen is a single level
    bg = vl.build_background(cfg.vortices, cfg.grid, mu=cfg.resolved_mu())
    levels = solver._levels(cfg, bg)
    assert [(grid.nx, grid.ny) for grid, _ in levels] == sides
    assert levels[-1] == (cfg.grid, bg)
    for (grid, level_bg), (fine, fine_bg) in zip(levels, levels[1:]):
        assert level_bg.exp_u0_up.grid == grid
        if grid.is_torus:
            # the finer background's corner nodes, its normalization included
            assert np.array_equal(level_bg.exp_u0_up.values, fine_bg.exp_u0_up.values[::2, ::2])
            assert np.array_equal(level_bg.exp_u0_down.values, fine_bg.exp_u0_down.values[::2, ::2])
        else:
            assert level_bg.mu == bg.mu


@pytest.mark.parametrize("make_cfg, sides", [
    (_torus_example_config, [64, 128]),
    (lambda: _cascade_plane_config(128), [64, 128]),
    (lambda: _cascade_plane_config(129), [65, 129]),
], ids=["torus-128", "plane-128", "plane-129"])
def test_cascade_matches_direct_solve(make_cfg, sides):
    cfg = make_cfg()
    sol = vl.newton_solve(cfg)
    zero = np.zeros(cfg.grid.shape)
    direct = vl.newton_solve(cfg, initial_state=vl.State(vl.ScalarField(cfg.grid, zero),
                                                         vl.ScalarField(cfg.grid, zero)))
    # an initial_state solve runs on the solve's own grid only
    assert {step.grid for step in direct.history} == {(cfg.grid.nx, cfg.grid.ny)}
    # the history lists every level in order, the finest last, each counted from 0
    grids = [step.grid for step in sol.history]
    assert list(dict.fromkeys(grids)) == [(n, n) for n in sides]
    assert grids == sorted(grids)
    finest = [step for step in sol.history if step.grid == grids[-1]]
    assert [step.iteration for step in finest] == list(range(len(finest)))
    assert sol.newton_iterations == len(finest) - 1
    assert sol.newton_iterations < direct.newton_iterations
    assert sol.final_residual <= cfg.tol_residual
    # the same minimizer
    for a, b in ((sol.u1, direct.u1), (sol.u2, direct.u2)):
        assert np.max(np.abs(a.values - b.values)) <= 1e-12
    for a, b in zip(vl.flux_report(sol) + (vl.energy_report(sol),),
                    vl.flux_report(direct) + (vl.energy_report(direct),)):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [256, 257], ids=["non-nested", "nested"])
def test_cascade_finest_level_takes_at_most_two_steps(n):
    # the problem of configs/plane_example.json: the cubic start leaves the
    # finest level within its discretization error, so only the quadratic
    # tail remains
    cfg = vl.SolveConfig(coupling=vl.coupling_from_pq(1.0, 2.0),
                         vortices=vl.VortexSet(up=((0.0, 0.0, 1),)),
                         grid=vl.Grid2D.dirichlet(9.0, n, n))
    sol = vl.newton_solve(cfg)
    assert sol.history[-1].grid == (n, n)
    assert sol.newton_iterations <= 2
    assert sol.final_residual <= cfg.tol_residual


def test_coarse_level_hands_on_its_iterate_at_the_budget():
    # a coarse level only supplies the next level's start, so its step
    # budget ends it without an error; on the finest level it raises
    cfg, bg = small_plane_setup(n=32)
    problem = solver._Problem(cfg, bg)
    w1, w2, steps = solver._newton(problem, None, cfg.tol_residual, 1, finest=False)
    assert [step.iteration for step in steps] == [0, 1]
    assert steps[-1].step_size == 0.0 and steps[-1].residual_inf > cfg.tol_residual
    assert np.any(w1 != problem.initial_w()[0])
    with pytest.raises(MaxIterationsExceeded):
        solver._newton(problem, None, cfg.tol_residual, 1, finest=True)


def test_plane_boundary_pinned_to_ground_state():
    k = vl.coupling_from_pq(1.0, 2.0)
    cfg = vl.SolveConfig(
        coupling=k,
        vortices=vl.VortexSet(up=((0.0, 0.0, 1),)),
        grid=vl.Grid2D.dirichlet(9.0, 64, 64),
    )
    sol = vl.newton_solve(cfg)
    ring = np.concatenate([
        sol.u1.values[0, :], sol.u1.values[-1, :], sol.u1.values[:, 0], sol.u1.values[:, -1],
    ])
    assert np.max(np.abs(ring + LOG2)) < 1e-12


def test_mu_invariance_small_grid():
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    grid = vl.Grid2D.dirichlet(9.0, 64, 64)
    solutions = [
        vl.newton_solve(vl.SolveConfig(coupling=k, vortices=vs, grid=grid, mu=mu))
        for mu in (4.0, 16.0, 64.0)
    ]
    for other in solutions[1:]:
        assert np.max(np.abs(solutions[0].u1.values - other.u1.values)) < 1e-8
        assert np.max(np.abs(solutions[0].u2.values - other.u2.values)) < 1e-8


# -- Radial oracle -----------------------------------------------------------------

def test_radial_oracle_vacuum_exact():
    k = vl.coupling_from_pq(1.0, 2.0)
    r, u1, u2 = vl.radial_oracle(k, 0, 0, 12.0, mesh=512)
    assert np.max(np.abs(u1 + LOG2)) == 0.0
    assert np.max(np.abs(u2 + LOG2)) == 0.0


def test_radial_oracle_single_vortex():
    k = vl.coupling_from_pq(1.0, 2.0)
    r, u1, u2 = vl.radial_oracle(k, 1, 0, 10.0, mesh=4096)
    # boundary condition
    assert u1[-1] == pytest.approx(-LOG2, abs=1e-12)
    # monotone approach to the ground state
    assert np.all(np.diff(u1[1:]) > -1e-9)
    # u1 ~ 2 ln r + const near the origin
    i1, i2 = 8, 24
    slope = (u1[i2] - u1[i1]) / (math.log(r[i2]) - math.log(r[i1]))
    assert slope == pytest.approx(2.0, abs=0.02)
    # flux identity: 2 pi int (k11 e^{u1} + k12 e^{u2} - 1) r dr = -pi n1
    e1 = np.exp(u1)
    e1[0] = 0.0
    e2 = np.exp(u2)
    integrand = (k.k11 * e1 + k.k12 * e2 - 1.0) * r
    flux = 2 * np.pi * float(np.sum((integrand[1:] + integrand[:-1]) / 2 * np.diff(r)))
    assert abs(flux + np.pi) < 1e-3


@pytest.mark.parametrize("m, rmax", [(64, 10.0), (1001, 12.5), (8192, 10.0)])
def test_radial_laplacian_is_exact_on_r_squared_with_a_dirichlet_last_row(m, rmax):
    # the 2D Laplacian of r^2 is 4, and the conservative stencil is exact on
    # it: each row misses 4 only by the rounding of its cancelling terms
    h = rmax / (m - 1)
    r = h * np.arange(m)
    lower, diagonal, upper = solver._radial_laplacian(m, h, r)
    assert (lower.shape, diagonal.shape, upper.shape) == ((m - 1,), (m,), (m - 1,))

    def apply(sub, diag, sup, x):
        y = diag * x
        y[1:] += sub * x[:-1]
        y[:-1] += sup * x[1:]
        return y

    error = np.abs(apply(lower, diagonal, upper, r**2) - 4.0)
    assert np.all(error[:-1] <= 1e-12 * apply(abs(lower), abs(diagonal), abs(upper), r**2)[:-1])
    # the last row is (0, ..., 0, 1): it has no upper entry
    assert (lower[-1], diagonal[-1]) == (0.0, 1.0)
    # the same coefficients, bit for bit, as the stencil written node by node
    subs, diagonals, sups = [], [-4.0 / h**2], [4.0 / h**2]
    for j in range(1, m - 1):
        sub = (r[j] - 0.5 * h) / (r[j] * h**2)
        sup = (r[j] + 0.5 * h) / (r[j] * h**2)
        subs.append(sub)
        diagonals.append(-(sub + sup))
        sups.append(sup)
    assert np.array_equal(lower[:-1], subs)
    assert np.array_equal(diagonal[:-1], diagonals)
    assert np.array_equal(upper, sups)


@pytest.mark.parametrize("n1, n2, rmax", [(2, 1, 12.0), (3, 3, 14.0)])
def test_radial_oracle_meets_its_tolerance_on_the_node_by_node_stencil(n1, n2, rmax):
    # t_i = u_i - 2 n_i ln r, put back into the discrete equations
    # t'' + t'/r = 4 (sum_j k_ij r^(2 n_j) e^(t_j) - 1), written node by node,
    # and t_i(rmax) = -ln 2 - 2 n_i ln rmax.  Rows 0 and 1 read t(0), which u
    # does not carry when n_i >= 1 (u_i(0) = LOG_ZERO), so they are left out
    k = vl.coupling_from_pq(1.0, 2.0)
    m = 2048
    r, u1, u2 = vl.radial_oracle(k, n1, n2, rmax, mesh=m)
    h = rmax / (m - 1)
    ns = np.array([[n1], [n2]])
    bc = -LOG2 - 2.0 * ns[:, 0] * math.log(rmax)
    t = np.zeros((2, m))
    t[:, 1:] = np.stack((u1, u2))[:, 1:] - 2.0 * ns * np.log(r[1:])
    kk = np.array([[k.k11, k.k12], [k.k21, k.k22]])
    f = np.zeros((2, m))
    for j in range(2, m - 1):
        sub = (r[j] - 0.5 * h) / (r[j] * h**2)
        sup = (r[j] + 0.5 * h) / (r[j] * h**2)
        lap = sub * t[:, j - 1] - (sub + sup) * t[:, j] + sup * t[:, j + 1]
        f[:, j] = lap - 4.0 * (kk @ (r[j] ** (2 * ns[:, 0]) * np.exp(t[:, j])) - 1.0)
    f[:, -1] = t[:, -1] - bc
    # the oracle's tolerance, scaled by its start -ln 2 - n ln(1 + r^2)
    start = -LOG2 - ns * np.log1p(r**2)
    start[:, -1] = bc
    tol = max(1e-8, 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(start)))) / h**2)
    assert np.max(np.abs(f)) <= tol


def test_radial_oracle_rejects_short_domain():
    k = vl.coupling_from_pq(1.0, 2.0)
    with pytest.raises(ValueError):
        vl.radial_oracle(k, 1, 0, 5.0)


def test_higher_multiplicity_vortex():
    # one m=2 vortex counts as N1=2 in every identity
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((2.2, 3.3, 2),), down=((4.4, 1.6, 1),))
    cfg = vl.SolveConfig(
        coupling=k, vortices=vs, grid=vl.Grid2D.periodic(l, l, 64, 64),
    )
    sol = vl.newton_solve(cfg)
    f1, f2 = vl.flux_report(sol)
    assert abs(f1 + 2 * math.pi) < 1e-12
    assert abs(f2 + math.pi) < 1e-12
    assert abs(vl.energy_report(sol) + 1.5 * math.pi) < 1e-12


def test_rectangular_cell():
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((1.9, 5.0, 1),), down=((3.9, 2.5, 1),))
    cfg = vl.SolveConfig(coupling=k, vortices=vs, grid=vl.Grid2D.periodic(2 * np.pi, 3 * np.pi, 64, 64))
    sol = vl.newton_solve(cfg)
    f1, f2 = vl.flux_report(sol)
    assert abs(f1 + math.pi) < 1e-12 and abs(f2 + math.pi) < 1e-12
    eta1, eta2 = vl.eta_report(sol)
    rep = vl.check_admissibility(k, 1, 1, cfg.grid.area)
    assert eta1 == pytest.approx(rep.eta1, abs=1e-12)
    assert eta2 == pytest.approx(rep.eta2, abs=1e-12)


def test_radial_oracle_dual_species():
    k = vl.coupling_from_pq(1.0, 2.0)
    r, u1, u2 = vl.radial_oracle(k, 1, 1, 10.0, mesh=4096)
    e1 = np.exp(u1)
    e2 = np.exp(u2)
    e1[0] = e2[0] = 0.0
    for ka, kb in ((k.k11, k.k12), (k.k21, k.k22)):
        integrand = (ka * e1 + kb * e2 - 1.0) * r
        flux = 2 * np.pi * float(np.sum((integrand[1:] + integrand[:-1]) / 2 * np.diff(r)))
        assert abs(flux + np.pi) < 1e-3
    # both species coincide by symmetry
    assert np.max(np.abs(u1 - u2)) < 1e-9


def test_solution_carries_finite_fields(torus_solution):
    _, sol = torus_solution
    for f in (sol.u1, sol.u2, sol.exp_u1, sol.exp_u2, sol.state.w1, sol.state.w2):
        assert np.all(np.isfinite(f.values))
    assert np.all(sol.exp_u1.values >= 0.0)
