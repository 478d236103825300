import copy

import numpy as np
import pytest
import scipy.sparse.linalg

from hdgeig import eigensolve
from hdgeig.assembly import assemble_condensed
from hdgeig.eigensolve import (
    oracle_full_eig,
    solve_condensed_nonlinear,
    solve_linear_surrogate,
    solve_modes,
)
from hdgeig.errors import EigenSolveError, HdgError
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import Mesh
from hdgeig.recovery import eig_residuals, recover_fields
from test_assembly import reference_lift, reference_m_of_lambda, reference_moment_rhs


def secant_values(sys, m):
    """The paper's route: surrogate seeds refined by the secant, ascending."""
    return np.sort([solve_condensed_nonlinear(sys, s).value
                    for s in solve_linear_surrogate(sys, m)])


@pytest.fixture(scope="module")
def secants(systems):
    """Cache of the secant route's six lowest values per configuration."""
    cache = {}

    def get(*config):
        if config not in cache:
            cache[config] = secant_values(systems(*config), 6)
        return cache[config]

    return get


def _start(n):
    return np.random.default_rng(20240814).standard_normal(n)


def reference_pencil(sys, kappa, count, start=None):
    """The frozen pencil as it was solved before the operator family: a
    generalized-mode Lanczos run on the assembled M(kappa) against A,
    inverted through the factorization, with the Gram kernel filtered."""
    n = sys.ndof
    ainv = scipy.sparse.linalg.LinearOperator((n, n), matvec=sys.factorized().solve)
    w, vecs = scipy.sparse.linalg.eigsh(
        reference_m_of_lambda(sys, kappa), k=count, M=sys.A, Minv=ainv, which="LA",
        v0=_start(n) if start is None else start)
    pos = np.flatnonzero(w > 1e-12 * np.abs(w).max())
    assert pos.size == count
    pos = pos[np.argsort(w[pos])[::-1]]
    return 1.0 / w[pos], vecs[:, pos], 0  # applications are not counted here


def reference_mode_values(sys, m):
    """Lowest m eigenvalues from Lanczos on T applied with class loops."""
    shape = (len(sys.mesh.triangles), sys.n_w)
    lu = sys.factorized()

    def matvec(f):
        fmom = np.reshape(f, shape)
        u = reference_lift(sys, lu.solve(reference_moment_rhs(sys, fmom)))
        for ops, members in sys.class_groups:
            u[members] += fmom[members] @ ops.uwmat.T
        return u.ravel()

    op = scipy.sparse.linalg.LinearOperator((sys.dim_w,) * 2, matvec=matvec, dtype=float)
    return np.sort(1.0 / scipy.sparse.linalg.eigsh(op, k=m, which="LA",
                                                   v0=_start(sys.dim_w))[0])


class TestLinearSurrogate:
    def test_first_value_near_two(self, systems):
        # triangle inequality from the benchmark tables: the surrogate
        # value sits within (gap + eigenvalue error) of the exact 2
        sys = systems("square", 2, 1)
        pair = solve_linear_surrogate(sys, 1)[0]
        assert abs(pair.value - 2.0) < 1.25 * (3.37e-3 + 1.10e-4)

    def test_single_mode_request(self, systems):
        pairs = solve_linear_surrogate(systems("square", 0, 1), 1)
        assert len(pairs) == 1 and pairs[0].value > 0

    def test_gram_normalized_with_residual(self, systems):
        sys = systems("square", 0, 1)
        for pair in solve_linear_surrogate(sys, 4):
            assert pair.vector @ (sys.G @ pair.vector) == pytest.approx(1.0, rel=1e-10)
            res = np.linalg.norm(sys.A @ pair.vector - pair.value * (sys.G @ pair.vector))
            assert res <= 1e-9 * np.linalg.norm(sys.A @ pair.vector)
            assert pair.defect <= 1e-9

    def test_scaling_by_coefficients(self, meshes):
        mesh = meshes("square", 0)
        spaces = SpaceConfig(1)
        s = 3.0
        base = assemble_condensed(mesh, spaces, TauSpec.one())
        scaled = assemble_condensed(
            mesh, spaces, TauSpec.constant(s), MaterialSpec.isotropic(s)
        )
        v1 = [p.value for p in solve_linear_surrogate(base, 4)]
        v2 = [p.value for p in solve_linear_surrogate(scaled, 4)]
        assert np.allclose(v2, s * np.array(v1), rtol=1e-10)

    def test_kernel_detection_k0(self, systems):
        # at lowest order the lift Gram matrix has a genuine kernel: the
        # full mode count cannot be resolved
        sys = systems("square", 0, 0)
        with pytest.raises(EigenSolveError):
            solve_linear_surrogate(sys, sys.ndof)


class TestCondensedNonlinear:
    def test_k1_level2_against_benchmark(self, eigenpairs):
        _, pairs = eigenpairs("square", 2, 1, m=1)
        err = abs(pairs[0].value - 2.0)
        assert 0.8 * 1.10e-4 < err < 1.2 * 1.10e-4

    def test_k2_level1_against_benchmark(self, eigenpairs):
        _, pairs = eigenpairs("square", 1, 2, m=1)
        err = abs(pairs[0].value - 2.0)
        assert 0.8 * 4.53e-6 < err < 1.2 * 4.53e-6

    def test_rerun_on_converged_output(self, systems, eigenpairs):
        # every pair carries its spectral index, so a converged pair from
        # the secant or from solve_modes seeds the secant at its own
        # position, which it confirms at once.  Square k = 1 modes 2-3 and
        # 5-6 are close pairs; L-shape k = 0 mode 10 (ndof 28) lies far up
        for case, modes in ((("square", 1, 1), range(1, 7)), (("lshape", 0, 0), (10,))):
            sys = systems(*case)
            seeds, pairs = eigenpairs(*case, m=max(modes))
            for mode in modes:
                converged = solve_condensed_nonlinear(sys, seeds[mode - 1])
                for pair in (converged, pairs[mode - 1]):
                    again = solve_condensed_nonlinear(sys, pair)
                    assert again.index == pair.index == mode
                    assert again.iterations <= 2
                    assert abs(again.value - pair.value) <= 1e-12 * pair.value

    def test_nonlinear_residual_invariant(self, systems, eigenpairs):
        from hdgeig.assembly import assemble_m_of_lambda

        sys = systems("square", 1, 1)
        _, pairs = eigenpairs("square", 1, 1, m=3)
        for p in pairs:
            m = assemble_m_of_lambda(sys, p.value)
            res = np.linalg.norm(sys.A @ p.vector - p.value * (m @ p.vector))
            assert res <= 1e-9 * np.linalg.norm(sys.A @ p.vector)

    def test_rejects_nonpositive_seed(self, systems):
        sys = systems("square", 0, 1)

        class Seed:
            value = -1.0
            vector = None
            index = 1

        with pytest.raises(EigenSolveError):
            solve_condensed_nonlinear(sys, Seed())

    def test_iteration_history_recorded(self, systems):
        sys = systems("square", 1, 1)
        pair = solve_condensed_nonlinear(sys, solve_linear_surrogate(sys, 1)[0])
        assert len(pair.history) == pair.iterations + 1
        assert pair.defect <= 1e-12


class TestOracle:
    def test_matches_condensed_at_level0(self, systems):
        lams = secant_values(systems("square", 0, 0), 6)
        oracle = oracle_full_eig(systems("square", 0, 0), m=6)
        assert np.abs(lams - oracle.values).max() <= 1e-9 * oracle.values.max()

    def test_operator_matrix_symmetric(self, systems):
        orc = oracle_full_eig(systems("square", 1, 1), m=4)
        t = orc.t_matrix
        x, y = np.random.default_rng(5).standard_normal((2, t.shape[0]))
        tx, ty = t @ x, t @ y
        assert abs(x @ ty - y @ tx) <= 1e-12 * np.linalg.norm(tx) * np.linalg.norm(y)
        assert x @ tx > 0 and y @ ty > 0

    def test_all_eigenvalues_positive(self, systems):
        orc = oracle_full_eig(systems("square", 0, 0), m=6)
        assert orc.values.min() > 0



ROUTE_GRID = [
    (domain, level, k, tau)
    for domain in ("square", "lshape") for level in (0, 1, 2)
    for k in (0, 1, 2) for tau in ("one", "h")
]


class TestSolveModes:
    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_secant(self, secants, eigenpairs, domain, level, k, tau):
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        lams = np.array([p.value for p in pairs])
        secant = secants(domain, level, k, tau)
        assert np.all(np.diff(lams) >= 0)
        assert np.abs(lams - secant).max() <= 1e-10 * secant.max()

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_three_field_residuals(self, systems, eigenpairs, domain, level, k, tau):
        # eig_residuals re-integrates the discrete equations without the
        # lifts that both eigensolver routes share
        sys = systems(domain, level, k, tau)
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        for pair in pairs:
            assert max(eig_residuals(sys, recover_fields(sys, pair)).values()) <= 1e-10

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_minimum_degree_ordering(self, systems, eigenpairs, domain, level, k,
                                             tau):
        # the factorization runs in the nested-dissection numbering of the
        # trace unknowns; SuperLU's own minimum-degree ordering of A is the
        # reference
        sys = systems(domain, level, k, tau)
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        lu = scipy.sparse.linalg.splu(sys.A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0, options={"SymmetricMode": True})
        mmd = copy.copy(sys)
        mmd.factorized = lambda: lu
        ref = np.array([p.value for p in solve_modes(mmd, 6)])
        assert np.all(np.abs(np.array([p.value for p in pairs]) - ref) <= 1e-12 * ref)

    def test_matches_secant_anisotropic(self, systems):
        # a12 != 0: no closed-form spectrum, so the two routes check each other
        sys = systems("square", 1, 1, mat=MaterialSpec(1.0, 0.4, 2.0))
        lams = np.array([p.value for p in solve_modes(sys, 6)])
        secant = secant_values(sys, 6)
        assert np.abs(lams - secant).max() <= 1e-10 * secant.max()

    def test_too_many_modes(self, systems):
        # Lanczos on T serves fewer than dim W_h modes; the surrogate pencil
        # at most rank G <= min(ndof, dim W_h) (here ndof = 80 < dim W_h = 96)
        sys = systems("square", 0, 1)
        for solve, m, match in ((solve_modes, sys.dim_w, "modes of"),
                                (solve_modes, sys.dim_w + 1, "modes of"),
                                (solve_linear_surrogate, sys.ndof + 1, "kernel")):
            with pytest.raises(EigenSolveError, match=match):
                solve(sys, m)

    def test_block_start_on_a_small_space(self, systems):
        # 3 m > dim W_h = 32: the LOBPCG basis [X, R, P] cannot stay
        # independent, and the dependent directions are dropped
        sys = systems("square", 0, 0)
        start = np.random.default_rng(1).standard_normal((sys.dim_w, 12))
        cold = [p.value for p in solve_modes(sys, 12)]
        warm = [p.value for p in solve_modes(sys, 12, start)]
        np.testing.assert_allclose(warm, cold, rtol=1e-12)

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_pre_change_routes(self, systems, eigenpairs, secants, monkeypatch,
                                       domain, level, k, tau):
        # the three eigensolves on the compiled operator family against the
        # routes they replaced: class-loop T, and both pencils in generalized
        # mode on the assembled Gram forms
        sys = systems(domain, level, k, tau)
        surrogates, pairs = eigenpairs(domain, level, k, tau, m=6)
        new = {"surrogate": [p.value for p in surrogates], "secant": secants(domain, level, k, tau),
               "modes": [p.value for p in pairs]}
        monkeypatch.setattr(eigensolve, "_frozen_pencil", reference_pencil)
        old = {"surrogate": [p.value for p in solve_linear_surrogate(sys, 6)],
               "secant": secant_values(sys, 6), "modes": reference_mode_values(sys, 6)}
        for route in new:
            np.testing.assert_allclose(new[route], old[route], rtol=1e-12, err_msg=route)

    @pytest.mark.parametrize("factor", [1.0, 1.5])
    def test_frozen_pencil_at_wall_is_typed(self, systems, factor):
        # D = (I - kappa W)^(-1/2) does not exist at or past the wall: a typed
        # error, never NaN eigenvalues
        sys = systems("square", 1, 1)
        with pytest.raises(HdgError, match="resonance"):
            eigensolve._frozen_pencil(sys, factor * sys.wall, 1)
        thetas = eigensolve._frozen_pencil(sys, 0.99 * sys.wall, 1)[0]
        assert np.isfinite(thetas).all()

    @pytest.mark.parametrize("route", ["solve_modes", "surrogate", "secant"])
    def test_arpack_no_convergence(self, systems, monkeypatch, capsys, route):
        from hdgeig.cli import main

        def stalled(op, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.ones(0),
                                                          np.ones((op.shape[0], 0)))

        sys = systems("square", 0, 1)
        seed = solve_linear_surrogate(sys, 2)[1]
        run = {"solve_modes": lambda: solve_modes(sys, 2),
               "surrogate": lambda: solve_linear_surrogate(sys, 2),
               "secant": lambda: solve_condensed_nonlinear(sys, seed)}[route]
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(EigenSolveError, match="did not converge"):
            run()
        assert main(["solve", "--level", "0", "--modes", "2"]) == 3
        assert "did not converge" in capsys.readouterr().err


class TestTauSweep:
    """k = 1, level 2: as tau shrinks, spurious modes of the degenerating
    equal-degree method sink onto the resolvent wall (at 6.96e-7 and
    6.96e-3 below); both routes must then refuse with a typed error."""

    @pytest.mark.parametrize("tau", [1e-8, 1e-4])
    def test_small_tau_is_typed_error(self, systems, tau, capsys):
        from hdgeig.cli import main

        sys = systems("square", 2, 1, tau)
        with pytest.raises(EigenSolveError):
            solve_modes(sys, 6)
        with pytest.raises(EigenSolveError):
            secant_values(sys, 6)
        assert main(["solve", "--level", "2", "--k", "1", "--tau", "const:%g" % tau]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["one", 1e4])
    def test_moderate_tau_is_accurate(self, systems, eigenpairs, tau):
        _, pairs = eigenpairs("square", 2, 1, tau, m=6)
        secant = secant_values(systems("square", 2, 1, tau), 6)
        for lam in (pairs[0].value, secant[0]):
            assert abs(lam - 2.0) <= 0.02 * 2.0


class TestSpectrumProperties:
    def test_no_pollution_bracketing(self, eigenpairs):
        # first six values stay within half a unit of their exact targets
        exact = np.array([2.0, 5.0, 5.0, 8.0, 10.0, 10.0])
        for level in (1, 2):
            _, pairs = eigenpairs("square", level, 1, m=6)
            lams = np.array([p.value for p in pairs])
            assert np.all(np.abs(lams - exact) / exact < 0.5)

    def test_eigenvalues_invariant_under_renumbering(self, meshes):
        mesh = meshes("square", 0)
        rng = np.random.default_rng(12)
        vperm = rng.permutation(mesh.num_vertices)
        tris = vperm[mesh.triangles]
        tris = tris[rng.permutation(len(tris))]
        permuted = Mesh(mesh.vertices[np.argsort(vperm)], tris, domain="square")
        vals = {}
        for tag, msh in (("orig", mesh), ("perm", permuted)):
            sys = assemble_condensed(msh, SpaceConfig(1), TauSpec.one())
            seeds = solve_linear_surrogate(sys, 4)
            vals[tag] = np.sort(
                [solve_condensed_nonlinear(sys, s).value for s in seeds]
            )
        assert np.abs(vals["orig"] - vals["perm"]).max() <= 1e-10 * vals["orig"].max()

    def test_surrogate_gap_shrinks(self, eigenpairs):
        gaps = []
        for level in (1, 2, 3):
            surr, pairs = eigenpairs("square", level, 1, m=1)
            gaps.append(abs(pairs[0].value - surr[0].value))
        orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
        assert np.all(orders > 1.7)
