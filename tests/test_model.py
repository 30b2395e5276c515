import dataclasses
import math

import numpy as np
import pytest

import vortexlab as vl
from vortexlab.background import plane_background
from vortexlab.discretization import solve_shifted_poisson
from vortexlab.errors import DecoupledSystem, NonPositiveMu, NonPositiveShift, NotPositiveDefinite, UnphysicalCoupling
from vortexlab.model import eigen_forward_values, eigen_inverse_values


def test_coupling_p1_q2():
    k = vl.coupling_from_pq(1.0, 2.0)
    assert (k.k11, k.k12, k.k21, k.k22) == (3.0, -1.0, -1.0, 3.0)
    assert k.det == 8.0
    assert k.lambda1 == 2.0
    assert k.lambda2 == 4.0
    assert k.lambda0 == 8.0


def test_coupling_matrix_stores_p_and_q(rng):
    # K is its couplings: every entry and eigenvalue is derived, with the
    # expressions coupling_from_pq always used, and K is symmetric by construction
    k = vl.CouplingMatrix(1.0, 2.0)
    assert [f.name for f in dataclasses.fields(k)] == ["p", "q"]
    assert k == vl.coupling_from_pq(1.0, 2.0)
    for p, q in rng.uniform(0.01, 100.0, (200, 2)).tolist():
        k = vl.CouplingMatrix(p, q)
        k11, k12 = (p + q) / p, (p - q) / p
        assert (k.k11, k.k12, k.k21, k.k22) == (k11, k12, k12, k11)
        assert (k.det, k.lambda1, k.lambda2) == (k11 * k11 - k12 * k12, 2.0, 2.0 * q / p)
    with pytest.raises(DecoupledSystem):
        vl.CouplingMatrix(2.0, 2.0)
    with pytest.raises(ValueError, match="p=1e-300, q=2.0 give a coupling matrix K that is not finite"):
        vl.CouplingMatrix(1e-300, 2.0)


def test_coupling_p2_q1():
    k = vl.coupling_from_pq(2.0, 1.0)
    assert (k.k11, k.k12) == (1.5, 0.5)
    assert k.det == pytest.approx(2.0, abs=1e-15)
    assert k.lambda0 == pytest.approx(4.0, abs=1e-15)  # 4*min(2, 1)


def test_coupling_rejections():
    with pytest.raises(DecoupledSystem):
        vl.coupling_from_pq(1.0, 1.0)
    with pytest.raises(NotPositiveDefinite):
        vl.coupling_from_pq(1.0, -1.0)
    with pytest.raises(NotPositiveDefinite):
        vl.coupling_from_pq(1.0, 0.0)
    # p, q < 0 gives the same positive definite K, but a negative filling
    # factor; rejected explicitly rather than silently accepted
    with pytest.raises(UnphysicalCoupling):
        vl.coupling_from_pq(-1.0, -2.0)


def test_spectral_identity_random(rng):
    # eigenvalues {2, 2q/p} annihilate the characteristic polynomial
    for _ in range(200):
        p = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.1, 5.0)
        if abs(p - q) < 1e-3:
            continue
        k = vl.coupling_from_pq(p, q)
        assert k.k12 == k.k21
        for lam in (2.0, 2.0 * q / p):
            char = (k.k11 - lam) * (k.k22 - lam) - k.k12 * k.k21
            assert abs(char) < 1e-12 * max(1.0, lam**2)


def test_physical_params_derived():
    params = vl.PhysicalParams(p=2.0, q=1.0, average_density=3.0)
    assert params.eb == 12.0  # 2 p rho
    assert params.filling_factor == pytest.approx(math.pi / 2.0)


@pytest.mark.parametrize("p, q, error, match", [
    (1e-300, 2.0, ValueError, "p=1e-300, q=2.0 give a coupling matrix K that is not finite"),
    (1.0, 1.0, DecoupledSystem, "p == q decouples the two species"),
    (1.0, 0.0, NotPositiveDefinite, "p and q must be nonzero"),
    (-1.0, -2.0, UnphysicalCoupling, "p must be positive, got p=-1.0"),
], ids=["k_overflows", "decoupled", "q_zero", "negative"])
def test_physical_params_refuses_what_coupling_matrix_refuses(p, q, error, match):
    # the same couplings, the same exception and message
    for make in (vl.CouplingMatrix, vl.PhysicalParams):
        with pytest.raises(error, match=match):
            make(p, q)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda k, x: solve_shifted_poisson(vl.Grid2D.periodic(1.0, 1.0, 8, 8), np.ones((8, 8)), x),
         NonPositiveShift, None),
        (lambda k, x: vl.PhysicalParams(1.0, 2.0, x), ValueError, None),
        (lambda k, x: vl.check_admissibility(k, 1, 0, x), ValueError, None),
        (lambda k, x: vl.radial_oracle(k, 1, 0, x), ValueError, None),
        (lambda k, x: plane_background(vl.VortexSet(up=((0.0, 0.0, 1),)), x, vl.Grid2D.dirichlet(9.0, 8, 8)),
         NonPositiveMu, None),
        (lambda k, x: vl.coupling_from_pq(x, 2.0), ValueError, None),
        (lambda k, x: vl.coupling_from_pq(1.0, x), ValueError, None),
        (lambda k, x: vl.PhysicalParams(x, 2.0), ValueError, "p and q must be finite, got p="),
        (lambda k, x: vl.PhysicalParams(1.0, x), ValueError, "p and q must be finite, got p=1.0, q="),
    ],
    ids=["poisson_shift", "average_density", "admissibility_area", "oracle_rmax", "plane_mu", "coupling_p",
         "coupling_q", "physical_params_p", "physical_params_q"],
)
def test_nan_fails_the_guard(call, error, match):
    # NaN and +-inf each fail every guard, and p or q is named as the cause
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(error, match=match):
            call(vl.coupling_from_pq(1.0, 2.0), x)


def test_admissibility_worked_example():
    k = vl.coupling_from_pq(1.0, 2.0)
    rep = vl.check_admissibility(k, 2, 1, 4 * math.pi)
    assert rep.threshold == pytest.approx(7 * math.pi / 4, rel=1e-14)
    assert rep.eta1 == pytest.approx(9 * math.pi / 8, rel=1e-14)
    assert rep.eta2 == pytest.approx(11 * math.pi / 8, rel=1e-14)
    assert rep.feasible


def test_admissibility_vacuum():
    k = vl.coupling_from_pq(1.0, 2.0)
    for area in (0.3, 2.0, 50.0):
        rep = vl.check_admissibility(k, 0, 0, area)
        assert rep.threshold == 0.0
        assert rep.eta1 == pytest.approx(area / 2)
        assert rep.eta2 == pytest.approx(area / 2)
        assert rep.feasible


def test_admissibility_small_cell_infeasible():
    k = vl.coupling_from_pq(1.0, 2.0)
    rep = vl.check_admissibility(k, 2, 1, math.pi)
    assert not rep.feasible


def test_admissibility_equivalence_property(rng):
    # feasible <=> eta1 > 0 and eta2 > 0 <=> area > threshold
    for _ in range(1000):
        p = rng.uniform(0.1, 4.0)
        q = rng.uniform(0.1, 4.0)
        if abs(p - q) < 1e-6:
            continue
        k = vl.coupling_from_pq(p, q)
        n1 = int(rng.integers(0, 6))
        n2 = int(rng.integers(0, 6))
        area = rng.uniform(0.05, 40.0)
        rep = vl.check_admissibility(k, n1, n2, area)
        assert rep.feasible == (rep.eta1 > 0 and rep.eta2 > 0)
        if abs(area - rep.threshold) > 1e-9 * max(1.0, rep.threshold):
            assert rep.feasible == (area > rep.threshold)


def test_admissibility_exchange_symmetry(rng):
    k = vl.coupling_from_pq(1.0, 3.0)
    for _ in range(100):
        n1 = int(rng.integers(0, 7))
        n2 = int(rng.integers(0, 7))
        a = vl.check_admissibility(k, n1, n2, 10.0)
        b = vl.check_admissibility(k, n2, n1, 10.0)
        # k11 = k22 and k12 = k21, so swapping N1 and N2 swaps the etas
        assert a.eta1 == pytest.approx(b.eta2, abs=1e-14)
        assert a.eta2 == pytest.approx(b.eta1, abs=1e-14)
        assert a.threshold == pytest.approx(b.threshold, abs=1e-14)


def test_eigen_zero_fields():
    k = vl.coupling_from_pq(1.0, 2.0)
    z = np.zeros((8, 8))
    w1, w2 = eigen_forward_values(z, z, k)
    assert not w1.any() and not w2.any()
    v1, v2 = eigen_inverse_values(w1, w2, k)
    assert not v1.any() and not v2.any()


def test_eigen_constant_example():
    # K's eigenvectors map onto the axes: (c, c) -> (c/alpha, 0), (c, -c) -> (0, c/beta)
    k = vl.coupling_from_pq(1.0, 2.0)
    alpha, beta = k.eigen_scales
    c = 1.7
    full = np.full((4, 4), c)
    w1, w2 = eigen_forward_values(full, full, k)
    assert np.all(w1 == c / alpha) and np.all(w2 == 0.0)
    w1, w2 = eigen_forward_values(full, -full, k)
    assert np.all(w1 == 0.0) and np.all(w2 == c / beta)


def test_eigen_round_trip(rng):
    k = vl.coupling_from_pq(1.5, 0.7)
    v1, v2 = rng.normal(size=(8, 16)), rng.normal(size=(8, 16))
    r1, r2 = eigen_inverse_values(*eigen_forward_values(v1, v2, k), k)
    assert np.max(np.abs(r1 - v1)) < 1e-13
    assert np.max(np.abs(r2 - v2)) < 1e-13


def test_eigen_implied_factor():
    # the inverse transform is a matrix M with M M^T = (det/k11) K, the Gram
    # matrix of the functional, and M^T M = (det/k11) diag(lambda1, lambda2)
    for p, q in ((1.0, 2.0), (2.0, 1.0), (1.5, 0.7)):
        k = vl.coupling_from_pq(p, q)
        # the columns of M are the images of the unit vectors
        m = np.column_stack([eigen_inverse_values(1.0, 0.0, k), eigen_inverse_values(0.0, 1.0, k)])
        scale = k.det / k.k11
        kk = np.array([[k.k11, k.k12], [k.k21, k.k22]])
        assert np.max(np.abs(m @ m.T - scale * kk)) < 1e-13
        assert np.max(np.abs(m.T @ m - scale * np.diag([k.lambda1, k.lambda2]))) < 1e-13


def test_merge_coincident():
    merged = vl.merge_coincident([(0.0, 0.0, 1), (0.0, 1e-13, 2), (1.0, 0.0, 1)])
    assert merged == ((0.0, 0.0, 3), (1.0, 0.0, 1))


def test_vortex_set_counts_and_swap():
    vs = vl.VortexSet(up=((0.1, 0.2, 2),), down=((0.3, 0.4, 1), (0.5, 0.6, 3)))
    assert vs.n1 == 2 and vs.n2 == 4
    sw = vs.swapped()
    assert sw.n1 == 4 and sw.up == vs.down


@pytest.mark.parametrize("m", [2.9, 2.0, True, "2", None, np.float64(2.0), np.True_],
                         ids=["fraction", "float", "bool", "str", "none", "np_float", "np_bool"])
def test_vortex_set_refuses_a_non_integer_multiplicity(m):
    # nothing is truncated or parsed into a multiplicity
    with pytest.raises(ValueError, match="multiplicity must be an integer, got "):
        vl.VortexSet(up=((0.0, 0.0, m),))
    with pytest.raises(ValueError, match="multiplicity must be an integer, got "):
        vl.merge_coincident([(0.0, 0.0, 1), (1.0, 0.0, m)])


def test_vortex_set_takes_a_numpy_integer_multiplicity():
    vs = vl.VortexSet(up=((0.0, 0.0, np.int64(2)),), down=((1.0, 0.0, np.uint8(3)),))
    assert (vs.n1, vs.n2) == (2, 3)
    assert type(vs.up[0][2]) is int and type(vs.down[0][2]) is int


def test_vortex_positions_validated():
    cell = vl.Grid2D.periodic(2.0, 2.0, 8, 8)
    with pytest.raises(ValueError):
        vl.model.validate_vortex_positions(vl.VortexSet(up=((2.5, 0.1, 1),)), cell)
    plane = vl.Grid2D.dirichlet(1.0, 8, 8)
    with pytest.raises(ValueError):
        vl.model.validate_vortex_positions(vl.VortexSet(up=((1.0, 0.0, 1),)), plane)
