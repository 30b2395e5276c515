import dataclasses
import math

import numpy as np
import pytest

import vortexlab as vl
from vortexlab.diagnostics import b12_map, fit_log_slope, ring_means
from vortexlab.discretization import bilinear_sample, integrate_values
from vortexlab.errors import InsufficientDecayWindow, WrongDomainKind
from conftest import small_plane_setup


@pytest.fixture(scope="module")
def torus_case():
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((1.9, 1.9, 1),), down=((3.1, 4.7, 1),))
    cfg = vl.SolveConfig(
        coupling=k, vortices=vs, grid=vl.Grid2D.periodic(l, l, 64, 64),
    )
    return cfg, vl.newton_solve(cfg)


def test_vacuum_flux_is_exactly_zero():
    cfg, bg = small_plane_setup(n=32, with_vortex=False)
    sol = vl.newton_solve(cfg, bg)
    f1, f2 = vl.flux_report(sol)
    assert f1 == 0.0 and f2 == 0.0
    assert vl.energy_report(sol) == 0.0


def test_a_replaced_state_carries_its_own_fields(torus_case):
    # u and e^u are derived from the state, so replacing the state replaces
    # them, and every diagnostic follows the state it is given
    cfg, sol = torus_case
    assert [f.name for f in dataclasses.fields(sol) if f.init] == ["state", "history", "config", "background"]
    loose = vl.newton_solve(dataclasses.replace(cfg, tol_residual=1e-3), sol.background)
    moved = dataclasses.replace(sol, state=loose.state)
    for name in ("u1", "u2", "exp_u1", "exp_u2"):
        assert np.array_equal(getattr(moved, name).values, getattr(loose, name).values)
        assert not np.array_equal(getattr(moved, name).values, getattr(sol, name).values)
    assert vl.eta_report(moved) == vl.eta_report(loose) != vl.eta_report(sol)
    assert vl.flux_report(moved) == vl.flux_report(loose) != vl.flux_report(sol)
    assert vl.residual_norm(moved) == vl.residual_norm(loose)


def test_torus_flux_eta_energy(torus_case):
    cfg, sol = torus_case
    k = cfg.coupling
    f1, f2 = vl.flux_report(sol)
    assert abs(f1 + math.pi) < 0.005 * math.pi
    assert abs(f2 + math.pi) < 0.005 * math.pi
    eta1, eta2 = vl.eta_report(sol)
    rep = vl.check_admissibility(k, 1, 1, cfg.grid.area)
    assert abs(eta1 - rep.eta1) < 0.005 * rep.eta1
    assert abs(eta2 - rep.eta2) < 0.005 * rep.eta2
    energy = vl.energy_report(sol)
    assert abs(energy + math.pi) < 0.005 * math.pi


def test_eta_requires_torus():
    cfg, bg = small_plane_setup(n=16, with_vortex=False)
    sol = vl.newton_solve(cfg, bg)
    with pytest.raises(WrongDomainKind):
        vl.eta_report(sol)


def test_decay_fitter_self_test():
    # fitter recovers the rate of a synthetic exp(-3r) field to 1e-3
    grid = vl.Grid2D.dirichlet(9.0, 256, 256)
    xs, ys = grid.meshgrid()
    radii = np.linspace(2.0, 7.0, 32)
    rate, r2 = fit_log_slope(radii, ring_means(grid, np.exp(-3.0 * np.hypot(xs, ys)), radii))
    assert abs(rate - 3.0) < 1e-3
    assert r2 > 0.999999


def test_ring_means_of_radial_function():
    grid = vl.Grid2D.dirichlet(5.0, 128, 128)
    xs, ys = grid.meshgrid()
    vals = np.hypot(xs, ys) ** 2
    radii = np.array([1.0, 2.0, 3.0])
    means = ring_means(grid, vals, radii)
    # bilinear interpolation of a quadratic carries an O(h^2) bias
    assert means == pytest.approx(radii**2, rel=5e-3)


def test_bilinear_sample_exact_on_bilinear_function():
    grid = vl.Grid2D.dirichlet(2.0, 9, 9)
    xs, ys = grid.meshgrid()
    vals = 2.0 + 3.0 * xs - 1.5 * ys + 0.25 * xs * ys
    x = np.array([-1.3, 0.0, 0.7])
    y = np.array([0.2, -1.9, 1.4])
    out = bilinear_sample(grid, vals, x, y)
    assert out == pytest.approx(2.0 + 3.0 * x - 1.5 * y + 0.25 * x * y, rel=1e-13)


def test_stacked_sampling_is_each_field_alone_bit_for_bit(rng):
    # a stack is sampled with one index and weight computation; each field's
    # samples and ring means are those of the field sampled by itself
    grid = vl.Grid2D.dirichlet(5.0, 33, 40)
    stack = rng.normal(size=(2, 3, *grid.shape))
    radii = np.linspace(0.5, 4.5, 7)
    x, y = rng.uniform(-6.0, 6.0, size=(2, 5, 4))
    samples = bilinear_sample(grid, stack, x, y)
    means = ring_means(grid, stack, radii)
    assert samples.shape == (2, 3, 5, 4) and means.shape == (2, 3, 7)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(samples[i, j], bilinear_sample(grid, stack[i, j], x, y))
            assert np.array_equal(means[i, j], ring_means(grid, stack[i, j], radii))


def test_field_maps_vacuum_identities():
    cfg, bg = small_plane_setup(n=32, with_vortex=False)
    sol = vl.newton_solve(cfg, bg)
    params = vl.PhysicalParams(1.0, 2.0, average_density=1.3)
    maps = vl.field_maps(sol, params)
    rho = params.average_density
    assert np.max(np.abs(maps["psi_up_sq"].values - rho / 2)) < 1e-12
    # ground state: B12 = 2p rho - eB = 0, and b0 = p rho + eB = 3 p rho
    assert np.max(np.abs(maps["B12"].values)) < 1e-12
    assert np.max(np.abs(maps["B12_tilde"].values)) < 1e-12
    assert np.max(np.abs(maps["b0"].values - 3.0 * params.p * rho)) < 1e-12
    assert np.max(np.abs(maps["b0_tilde"].values - 3.0 * params.p * rho)) < 1e-12


def test_field_maps_flux_consistency(torus_case):
    cfg, sol = torus_case
    params = vl.PhysicalParams(1.0, 2.0)
    maps = vl.field_maps(sol, params)
    f1, _ = vl.flux_report(sol)
    b12_integral = integrate_values(maps["B12"].grid, maps["B12"].values)
    assert b12_integral == pytest.approx(2.0 * params.p * f1, rel=1e-12)
    assert b12_integral == pytest.approx(-2 * math.pi * params.p * 1, rel=5e-3)


def test_b12_map_is_the_field_maps_entry(torus_case):
    # the CLI writes B12.fld from b12_map; it must hold the same bits
    _, sol = torus_case
    params = vl.PhysicalParams(1.0, 2.0, average_density=1.3)
    b12 = b12_map(sol, params)
    assert b12.grid == sol.u1.grid
    assert np.array_equal(b12.values, vl.field_maps(sol, params)["B12"].values)


def test_field_maps_value_at_on_node_vortex():
    # with e^{u1} = 0 exactly at the vortex node, B12 there is
    # 2(p-q) rho e^{u2} - eB
    l = 2 * np.pi
    k = vl.coupling_from_pq(1.0, 2.0)
    grid = vl.Grid2D.periodic(l, l, 32, 32)
    x0, y0 = float(grid.xs[10]), float(grid.ys[20])
    vs = vl.VortexSet(up=((x0, y0, 1),))
    cfg = vl.SolveConfig(coupling=k, vortices=vs, grid=grid)
    sol = vl.newton_solve(cfg)
    assert sol.exp_u1.values[20, 10] == 0.0
    params = vl.PhysicalParams(1.0, 2.0)
    maps = vl.field_maps(sol, params)
    expected = 2 * (params.p - params.q) * sol.exp_u2.values[20, 10] - params.eb
    assert maps["B12"].values[20, 10] == pytest.approx(expected, rel=1e-13)


def test_residual_norm_detects_perturbations(torus_case):
    cfg, sol = torus_case
    assert vl.residual_norm(sol) <= 1e-8
    rng = np.random.default_rng(5)
    noisy_state = vl.State(
        vl.ScalarField(cfg.grid, sol.state.w1.values + 1e-3 * rng.normal(size=cfg.grid.shape)),
        vl.ScalarField(cfg.grid, sol.state.w2.values + 1e-3 * rng.normal(size=cfg.grid.shape)),
    )
    noisy = dataclasses.replace(sol, state=noisy_state)
    assert vl.residual_norm(noisy) >= 1e-4


@pytest.mark.parametrize("case", ["torus", "plane"])
def test_residual_norm_follows_a_replaced_state(case, torus_case):
    # a Solution whose state is replaced reports the residual of the new
    # state: here the iterate of a loose solve of the same problem, which
    # reports the same residual as that solve's own Solution
    if case == "torus":
        cfg, sol = torus_case
        bg = sol.background
    else:
        cfg, bg = small_plane_setup(n=32)
        sol = vl.newton_solve(cfg, bg)
    loose = vl.newton_solve(dataclasses.replace(cfg, tol_residual=1e-4), bg)
    assert vl.residual_norm(loose) > 100.0 * vl.residual_norm(sol)
    replaced = dataclasses.replace(sol, state=loose.state)
    assert vl.residual_norm(replaced) == vl.residual_norm(loose)


def test_residual_norm_vacuum():
    cfg, bg = small_plane_setup(n=32, with_vortex=False)
    sol = vl.newton_solve(cfg, bg)
    assert vl.residual_norm(sol) <= 1e-13


def test_plane_flux_refinement_monotone():
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    errors = []
    for n in (64, 128, 256):
        cfg = vl.SolveConfig(coupling=k, vortices=vs, grid=vl.Grid2D.dirichlet(9.0, n, n))
        sol = vl.newton_solve(cfg)
        f1, _ = vl.flux_report(sol)
        errors.append(abs(f1 + math.pi))
    assert errors[0] > errors[1] > errors[2]


def test_decay_bound_other_coupling():
    # p=2, q=1: lambda0 = 4*min(2, 1) = 4, linearized far-field rate 2 sqrt(2)
    k = vl.coupling_from_pq(2.0, 1.0)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    r_half = vl.default_plane_half_width(k, vs)
    cfg = vl.SolveConfig(
        coupling=k, vortices=vs, grid=vl.Grid2D.dirichlet(r_half, 192, 192),
    )
    sol = vl.newton_solve(cfg)
    fit = vl.decay_fit(sol)
    bound = 0.8 * math.sqrt(k.lambda0)
    sharp = 2.0 * math.sqrt(2.0 * min(k.lambda1, k.lambda2))
    assert fit.rate >= bound
    assert fit.gradient_rate >= bound
    assert abs(fit.rate - sharp) <= 0.15 * sharp


def test_decay_bound_q_over_p_large():
    # p=1, q=3: lambda0 = 4*min(2, 6) = 8, same bound as q=2
    k = vl.coupling_from_pq(1.0, 3.0)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    r_half = vl.default_plane_half_width(k, vs)
    cfg = vl.SolveConfig(
        coupling=k, vortices=vs, grid=vl.Grid2D.dirichlet(r_half, 192, 192),
    )
    sol = vl.newton_solve(cfg)
    fit = vl.decay_fit(sol)
    bound = 0.8 * math.sqrt(k.lambda0)
    assert fit.rate >= bound
    assert fit.gradient_rate >= bound


def test_decay_rate_sharpness_reference():
    # p=1, q=2: measured rate within 15% of the linearized value 4.0
    k = vl.coupling_from_pq(1.0, 2.0)
    vs = vl.VortexSet(up=((0.0, 0.0, 1),))
    cfg = vl.SolveConfig(
        coupling=k, vortices=vs, grid=vl.Grid2D.dirichlet(9.0, 192, 192),
    )
    sol = vl.newton_solve(cfg)
    fit = vl.decay_fit(sol)
    sharp = 2.0 * math.sqrt(2.0 * min(k.lambda1, k.lambda2))
    assert abs(fit.rate - sharp) <= 0.15 * sharp


def test_decay_fit_requires_decayed_window():
    # R = 5 leaves |u + ln 2| above 1e-3 at r = 0.5 R
    k = vl.coupling_from_pq(1.0, 2.0)
    cfg = vl.SolveConfig(
        coupling=k, vortices=vl.VortexSet(up=((0.0, 0.0, 1),)),
        grid=vl.Grid2D.dirichlet(5.0, 64, 64),
    )
    sol = vl.newton_solve(cfg)
    with pytest.raises(InsufficientDecayWindow):
        vl.decay_fit(sol)


def test_decay_fit_requires_plane(torus_case):
    cfg, sol = torus_case
    with pytest.raises(WrongDomainKind):
        vl.decay_fit(sol)


def test_build_report_torus(torus_case):
    cfg, sol = torus_case
    params = vl.PhysicalParams(1.0, 2.0)
    rep = vl.build_report(sol, params)
    assert rep.eta1_measured is not None
    assert rep.decay_rate is None
    assert rep.physical_flux1 == pytest.approx(2.0 * params.p * rep.flux1, rel=1e-15)
    assert rep.residual_inf <= 1e-8
