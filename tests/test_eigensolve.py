import copy
import gc
import re
import tracemalloc
import weakref
from sys import getrefcount

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import newton_pairs, surrogate_seeds
from hdgeig import eigensolve
from hdgeig.assembly import assemble_condensed, resolvent_lift
from hdgeig.eigensolve import (
    SearchSpace,
    oracle_full_eig,
    solve_condensed_nonlinear,
    solve_linear_surrogate,
    solve_modes,
)
from hdgeig.errors import EigenSolveError
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import Mesh, build_square_mesh
from hdgeig.recovery import eig_residuals, recover_fields
from hdgeig.study import StudyConfig, inject_fields, run_convergence_study, solve_level
from test_assembly import (
    reference_class_cores,
    reference_lift,
    reference_m_of_lambda,
    reference_moment_rhs,
)


def secant_pairs(sys, m):
    """The paper's route as oracle-check runs it, ascending."""
    return sorted(newton_pairs(sys, m), key=lambda p: p.value)


def secant_values(sys, m):
    return np.array([p.value for p in secant_pairs(sys, m)])


@pytest.fixture(scope="module")
def secants(systems):
    """Cache of the nonlinear route's six lowest pairs per configuration."""
    cache = {}

    def get(*config):
        if config not in cache:
            cache[config] = secant_pairs(systems(*config), 6)
        return cache[config]

    return get


def _start(n):
    return np.random.default_rng(20240814).standard_normal(n)


def reference_m_prime(sys, kappa):
    """M'(kappa) = U^T R W R U, R = (I - kappa Uw)^-1, assembled from
    per-class blocks, each with a dense local solve."""
    def core(ops):
        ru = np.linalg.solve(np.eye(ops.n_w) - kappa * ops.uwmat, ops.umat)
        return ru.T @ ops.uwmat @ ru

    return reference_class_cores(sys, core)


def reference_pencil(sys, kappa, count, start=None):
    """The frozen pencil as it was solved before the operator family: a
    generalized-mode Lanczos run on the assembled M(kappa) against A,
    inverted through the factorization, with the Gram kernel filtered, and
    the slopes -theta x.M' x / x.M x from the assembled M'(kappa)."""
    n = sys.ndof
    ainv = scipy.sparse.linalg.LinearOperator((n, n), matvec=sys.factorized().solve)
    m = reference_m_of_lambda(sys, kappa)
    w, vecs = scipy.sparse.linalg.eigsh(m, k=count, M=sys.A, Minv=ainv, which="LA",
                                        v0=_start(n) if start is None else start)
    pos = np.flatnonzero(w > 1e-12 * np.abs(w).max())
    assert pos.size == count
    pos = pos[np.argsort(w[pos])[::-1]]
    thetas, vecs = 1.0 / w[pos], vecs[:, pos]
    slopes = -thetas * (np.einsum("ij,ij->j", vecs, reference_m_prime(sys, kappa) @ vecs)
                        / np.einsum("ij,ij->j", vecs, m @ vecs))
    return thetas, slopes, vecs


def reference_newton(sys, index, lam, vec):
    """The nonlinear eigensolve of mode ``index`` from the seed value
    ``lam`` and trace ``vec`` as it was before its search space: the same
    predictor, bracket and stopping rule, with each frozen pencil solved
    afresh for all ``index`` lowest pairs by ``reference_pencil``, started
    from the last trace, and the predictor's Rayleigh quotient taken
    through ``resolvent_lift``."""
    lam_cap = (1.0 - 1e-3) * sys.wall
    kappa = min(lam, lam_cap)
    ru = resolvent_lift(sys, kappa, vec).ravel()
    gram = vec @ (sys.moments @ ru)
    rho = vec @ (sys.A @ vec) / gram
    predicted = kappa - (rho - kappa) / (-rho * (ru @ (sys.load_lift @ ru)) / gram - 1.0)
    if 0.0 < predicted < lam_cap:
        kappa = predicted
    lo, hi = 0.0, None
    for _ in range(50):
        thetas, slopes, vecs = reference_pencil(sys, kappa, index, vec)
        theta, vec = thetas[index - 1], vecs[:, index - 1]
        resid = theta - kappa
        if abs(resid) <= 1e-12 * abs(theta):
            return theta
        if resid > 0:
            lo = max(lo, kappa)
        else:
            hi = kappa if hi is None else min(hi, kappa)
        nxt = kappa - resid / (slopes[index - 1] - 1.0)
        if hi is not None and not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        elif hi is None and not nxt > lo:
            nxt = 0.5 * (lo + min(kappa, lam_cap))
        kappa = min(nxt, lam_cap)
    raise AssertionError("the reference Newton loop did not converge")


def _reference_orthonormal(v, against=()):
    for _ in range(2):
        if not v.shape[1]:
            break
        for q in against:
            v -= q @ (q.T @ v)
        gram = v.T @ v
        d = 1.0 / np.sqrt(np.maximum(np.diag(gram), np.finfo(float).tiny))
        w, u = np.linalg.eigh(d[:, None] * gram * d)
        keep = w > 1e-12 * w[-1]
        v = v @ (d[:, None] * u[:, keep] / np.sqrt(w[keep]))
    return v


def _reference_combine(blocks, coeffs):
    out = blocks[0] @ coeffs[0]
    for block, c in zip(blocks[1:], coeffs[1:]):
        out += block @ c
    return out


def reference_lobpcg(op, block, what, stop="vectors"):
    """The LOBPCG run as it was before its workspace: the same algorithm
    and stopping rules on a list of separately allocated blocks [X, R, P]
    and their images, the Rayleigh-Ritz matrix assembled from their
    pairwise products and the update summed block by block."""
    x = _reference_orthonormal(np.asarray(block, dtype=float))
    if x.shape[1] < block.shape[1]:
        raise EigenSolveError("the start block of the LOBPCG run on %s has dependent "
                              "columns" % what)
    ax = op.matmat(x)
    h = x.T @ ax
    theta, y = np.linalg.eigh(0.5 * (h + h.T))
    theta, y = theta[::-1], y[:, ::-1]
    x, ax = x @ y, ax @ y
    tol = eigensolve._LOBPCG_RTOL * abs(theta[0])
    m = x.shape[1]
    basis = [(x, ax)]
    for _ in range(eigensolve._LOBPCG_MAX_ITER):
        r = x * theta
        np.subtract(ax, r, out=r)
        norms = np.linalg.norm(r, axis=0)
        if stop == "values":
            tol = eigensolve._VALUE_RTOL * np.abs(theta)
        if (norms <= tol).all():
            return theta, x
        if (norms <= tol).any():
            r = r[:, norms > tol]
        r = _reference_orthonormal(r, [v for v, _ in basis])
        if not r.shape[1]:
            break
        basis.insert(1, (r, op.matmat(r)))
        h = np.block([[v.T @ av for _, av in basis] for v, _ in basis])
        w, y = np.linalg.eigh(0.5 * (h + h.T))
        theta, y = w[::-1][:m], y[:, ::-1][:, :m]
        z = y.copy()
        z[:m] = 0.0
        z = _reference_orthonormal(z, [y])
        rows = np.cumsum([v.shape[1] for v, _ in basis])[:-1]
        ys, zs = np.split(y, rows), np.split(z, rows)
        blocks, images = zip(*basis)
        del basis, r, x, ax
        x, p = _reference_combine(blocks, ys), _reference_combine(blocks, zs)
        del blocks
        ax, ap = _reference_combine(images, ys), _reference_combine(images, zs)
        del images
        basis = [(x, ax), (p, ap)]
    raise EigenSolveError("LOBPCG run on %s did not converge within %d iterations "
                          "(largest residual %.1e of the operator's scale)"
                          % (what, eigensolve._LOBPCG_MAX_ITER, norms.max() / abs(theta[0])))


def frozen_solves(sys, kappa, count, tol=1e-12):
    """theta_i(kappa) and their slopes, i = 1..count, from the Newton
    route's frozen solve on a search space started from the surrogate's
    traces."""
    space = SearchSpace(sys, *surrogate_seeds(sys, count)[0])
    return np.array([space.frozen(kappa, i, tol)[:2] for i in range(1, count + 1)]).T


def reference_mode_values(sys, m, load=True):
    """Lowest m eigenvalues from Lanczos on T applied with class loops
    (without ``load``: on T0, the surrogate pencil's)."""
    shape = (len(sys.mesh.triangles), sys.n_w)
    lu = sys.factorized()

    def matvec(f):
        fmom = np.reshape(f, shape)
        u = reference_lift(sys, lu.solve(reference_moment_rhs(sys, fmom)))
        for ops, members in sys.class_groups if load else ():
            u[members] += fmom[members] @ ops.uwmat.T
        return u.ravel()

    op = scipy.sparse.linalg.LinearOperator((sys.dim_w,) * 2, matvec=matvec, dtype=float)
    return np.sort(1.0 / scipy.sparse.linalg.eigsh(op, k=m, which="LA",
                                                   v0=_start(sys.dim_w))[0])


def reference_surrogate_values(sys, m):
    """Lowest m surrogate eigenvalues from Lanczos on T0 applied with class
    loops, cold."""
    return reference_mode_values(sys, m, load=False)


class TestLinearSurrogate:
    def test_first_value_near_two(self, systems):
        # triangle inequality from the benchmark tables: the surrogate
        # value sits within (gap + eigenvalue error) of the exact 2
        sys = systems("square", 2, 1)
        value = solve_linear_surrogate(sys, solve_modes(sys, 1)).values[0]
        assert abs(value - 2.0) < 1.25 * (3.37e-3 + 1.10e-4)

    def test_single_mode_request(self, systems):
        sys = systems("square", 0, 1)
        got = solve_linear_surrogate(sys, solve_modes(sys, 1))
        assert got.values.shape == (1,) and got.values[0] > 0
        assert got.ritz.shape == (sys.dim_w, 1)

    def test_ritz_block_with_residual(self, systems):
        # the Ritz block is orthonormal, its columns are eigenvectors x of T0
        # in the values' order to the run's residual, and their traces
        # A^-1 U^T x those of the surrogate pencil A v = theta G v, to about
        # the value stop's sqrt(eps) (at most 5.6e-9 here)
        sys = systems("square", 0, 1)
        got = solve_linear_surrogate(sys, solve_modes(sys, 4))
        np.testing.assert_allclose(got.ritz.T @ got.ritz, np.eye(4), atol=1e-12)
        traces = sys.factorized().solve(sys.moments @ got.ritz)
        t0x = sys.lift @ traces
        res = np.linalg.norm(t0x - got.ritz / got.values, axis=0) * got.values
        assert res.max() <= 1.01 * got.residual + 1e-14
        for value, v in zip(got.values, traces.T):
            g_v = sys.moments @ (sys.lift @ v)  # G = U^T U
            av = sys.A @ v
            assert np.linalg.norm(av - value * g_v) <= 1e-7 * np.linalg.norm(av)

    def test_scaling_by_coefficients(self, meshes):
        mesh = meshes("square", 0)
        spaces = SpaceConfig(1)
        s = 3.0
        base = assemble_condensed(mesh, spaces, TauSpec.one())
        scaled = assemble_condensed(
            mesh, spaces, TauSpec.constant(s), MaterialSpec(s, 0.0, s)
        )
        v1, v2 = (solve_linear_surrogate(sys, solve_modes(sys, 4)).values
                  for sys in (base, scaled))
        assert np.allclose(v2, s * np.array(v1), rtol=1e-10)

    def test_kernel_detection_k0(self, systems):
        # at lowest order the lift Gram matrix has a genuine kernel (rank 31
        # here, with ndof = 40): the surrogate refuses more modes than
        # min(ndof, dim W_h) = 32, here the 33 of level 1, before any solve,
        # and leaves their Ritz block where it was
        sys, fine = systems("square", 0, 0), systems("square", 1, 0)
        modes = solve_modes(fine, 33)
        with pytest.raises(EigenSolveError, match="kernel of the lift Gram matrix"):
            solve_linear_surrogate(sys, modes)
        assert modes.ritz.shape == (fine.dim_w, 33)


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
        # converged pairs, from the secant or from solve_modes, seed the
        # secant at each index, which it confirms at once.  Square k = 1
        # modes 2-3 and 5-6 are close pairs; L-shape k = 0 mode 10 (ndof
        # 28) lies far up
        for case, modes in ((("square", 1, 1), range(1, 7)), (("lshape", 0, 0), (10,))):
            sys = systems(*case)
            _, pairs = eigenpairs(*case, m=max(modes))
            converged = newton_pairs(sys, max(modes))
            for block in (converged, pairs):
                space = SearchSpace(sys, [p.value for p in block],
                                    np.column_stack([p.vector for p in block]))
                for mode in modes:
                    pair = block[mode - 1]
                    again = solve_condensed_nonlinear(sys, space, mode)
                    assert again.index == pair.index == mode
                    assert again.iterations == 1
                    assert abs(again.value - pair.value) <= 1e-12 * pair.value

    def test_nonlinear_residual_invariant(self, systems, eigenpairs):
        # the pairs of both eigensolves, each with the residual that an
        # independent assembly of M(lam) gives it, to round-off
        from hdgeig.assembly import assemble_m_of_lambda

        sys = systems("square", 1, 1)
        _, pairs = eigenpairs("square", 1, 1, m=3)
        for p in [*pairs, *newton_pairs(sys, 3)]:
            m = assemble_m_of_lambda(sys, p.value)
            res = np.linalg.norm(sys.A @ p.vector - p.value * (m @ p.vector))
            assert res <= 1e-9 * np.linalg.norm(sys.A @ p.vector)
            assert abs(p.residual - res / np.linalg.norm(sys.A @ p.vector)) <= 1e-15

    def test_rejects_nonpositive_seed(self, systems):
        sys = systems("square", 0, 1)
        (values, traces), _ = surrogate_seeds(sys, 2)
        with pytest.raises(EigenSolveError, match="must be positive"):
            SearchSpace(sys, [-1.0], traces[:, 1:])
        values = values.copy()
        values[1] = -1.0
        with pytest.raises(EigenSolveError, match="must be positive"):
            solve_condensed_nonlinear(sys, SearchSpace(sys, values, traces), 2)

    def test_iteration_history_recorded(self, systems):
        # each frozen kappa, then the last theta: the last relative update
        # is the last relative step of the history
        pair = newton_pairs(systems("square", 1, 1), 1)[0]
        assert len(pair.history) == pair.iterations + 1
        assert abs(pair.history[-1] - pair.history[-2]) / pair.history[-1] <= 1e-12


#: acceptance criterion 1: the coarse grid that oracle-check covers
CRITERION_1_GRID = [
    (domain, level, k, tau)
    for domain in ("square", "lshape") for level in (0, 1)
    for k in (0, 1) for tau in ("one", "h")
]


class TestNewtonStep:
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_slopes_match_central_difference(self, systems, domain, k, fraction):
        # the Hellmann-Feynman slopes of the frozen pencil against a central
        # difference of theta_i(kappa) over a step of 1e-4 of the wall
        sys = systems(domain, 1, k)
        kappa, step = fraction * sys.wall, 1e-4 * sys.wall
        slopes = frozen_solves(sys, kappa, 6)[1]
        above, below = (frozen_solves(sys, kappa + s, 6)[0] for s in (step, -step))
        np.testing.assert_allclose((above - below) / (2 * step), slopes, rtol=1e-5)

    def test_iteration_counts_on_the_criterion_1_grid(self, secants):
        # at k = 0 W = wI on these uniform meshes: the Rayleigh quotient of a
        # surrogate eigenvector is linear in kappa, the predictor lands on
        # the eigenvalue and one frozen-pencil solve confirms it.  The grid
        # took 469 iterations with the secant update, 231 with Newton
        total = 0
        for domain, level, k, tau in CRITERION_1_GRID:
            its = [p.iterations for p in secants(domain, level, k, tau)]
            if k == 0:
                assert its == [1] * 6, (domain, level, tau, its)
            total += sum(its)
        assert total <= 250

    def test_lu_solves_on_the_criterion_1_grid(self, systems):
        # oracle-check solves the six modes on one search space, made with
        # one LU solve for its generic direction and grown by one per new
        # direction: 652 solves on the grid, where a space per mode took
        # 857 and a Lanczos run per pencil 8,306.  At k = 0 the surrogate's
        # traces already hold every frozen eigenvector: no mode grows it
        class CountingLU:
            def __init__(self, lu):
                self.lu, self.solves = lu, 0

            def solve(self, rhs):
                self.solves += 1
                return self.lu.solve(rhs)

        total = 0
        for domain, level, k, tau in CRITERION_1_GRID:
            sys = systems(domain, level, k, tau)
            seeds, _ = surrogate_seeds(sys, 6)
            counted, lu = copy.copy(sys), CountingLU(sys.factorized())
            counted.factorized = lambda: lu
            space = SearchSpace(counted, *seeds)
            pairs = [solve_condensed_nonlinear(counted, space, i) for i in range(1, 7)]
            assert 1 + sum(p.solves for p in pairs) == lu.solves == space.solves
            assert pairs[0].space == 6 + 1 + pairs[0].solves
            assert max(p.space for p in pairs) <= eigensolve._SPACE_MAX
            if k == 0:
                assert [p.solves for p in pairs] == [0] * 6, (domain, level, tau)
            total += lu.solves
        assert total <= 700


def alone_and_shared(rows, ids):
    """Each parametrize row with every mode solved alone, on a search space
    of its own, under its own id, and with modes 1, 2, ... solved in order
    on one shared space, as oracle-check solves them, under the id +
    "-shared".  Alone, no earlier mode has grown the space, so the generic
    direction by itself must supply a frozen eigenvector that no seed
    holds."""
    return ([pytest.param(*row, False, id=i) for row, i in zip(rows, ids)]
            + [pytest.param(*row, True, id=i + "-shared") for row, i in zip(rows, ids)])


def nonlinear_values(sys, seeds, modes, shared):
    """The nonlinear eigenvalues of ``modes`` from ``seeds``, (values,
    traces): each mode alone on a space of its own, or (``shared``) every
    mode up to the last in order on one space."""
    if not shared:
        return [solve_condensed_nonlinear(sys, SearchSpace(sys, *seeds), i).value
                for i in modes]
    space = SearchSpace(sys, *seeds)
    values = [solve_condensed_nonlinear(sys, space, i).value
              for i in range(1, max(modes) + 1)]
    return [values[i - 1] for i in modes]


class TestHardCells:
    """Cells where the index of a nonlinear eigenpair was easy to lose: the
    near-double 4.853/4.860 of the square at level 0 (k = 1, tau = 1), on
    which a single search space shared by all modes, before it had its
    generic direction, converged to the wrong one of the two, and L-shape
    level 1 (k = 2, tau = h) mode 6, where a Lanczos run stopped short of
    machine precision lost the frozen pencil's 5th eigenvector."""

    @pytest.mark.parametrize("domain,level,k,tau,modes,shared", alone_and_shared(
        [("square", 0, 1, "one", range(1, 7)), ("lshape", 1, 2, "h", (6,))],
        ["square-0-1-one-modes0", "lshape-1-2-h-modes1"]))
    def test_matches_solve_modes(self, systems, eigenpairs, domain, level, k, tau, modes,
                                 shared):
        sys = systems(domain, level, k, tau)
        seeds, pairs = eigenpairs(domain, level, k, tau, m=6)
        for mode, got in zip(modes, nonlinear_values(sys, seeds, modes, shared)):
            assert abs(got - pairs[mode - 1].value) <= 1e-12 * got, mode

    @pytest.mark.parametrize("domain,level,k,tau,shared", alone_and_shared(
        CRITERION_1_GRID, ["-".join(map(str, cell)) for cell in CRITERION_1_GRID]))
    def test_any_number_of_seeds(self, systems, eigenpairs, domain, level, k, tau, shared):
        # with m seeds for modes 1..m, as oracle-check --modes m gives them:
        # at two seeds the square's level-0 and level-1 near-doubles (k = 1)
        # swap their order between the surrogate and the nonlinear problem,
        # so the second mode's frozen eigenvector is in no seed
        sys = systems(domain, level, k, tau)
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        for m in range(1, 7):
            seeds, _ = surrogate_seeds(sys, m)
            modes = range(1, m + 1)
            for mode, got in zip(modes, nonlinear_values(sys, seeds, modes, shared)):
                assert abs(got - pairs[mode - 1].value) <= 1e-10 * got, (m, mode)

    @pytest.mark.parametrize("domain,level,k,tau", [("lshape", 2, 2, "h"),
                                                    ("square", 1, 3, 0.1)])
    def test_near_wall_clusters_on_a_bounded_space(self, systems, eigenpairs, domain, level,
                                                   k, tau):
        # modes 4-6 are near-wall clusters, on which a space per mode grew
        # to 181-278 directions.  On the shared space each keeps its index
        # and its value, the space never passes its bound, and a restart
        # keeps every converged trace: without the locked traces these lie
        # 0.04-0.56 (A-norm) off the final space, and a restart that keeps
        # only the top index Ritz vectors loses the square's mode 4
        sys = systems(domain, level, k, tau)
        seeds, pairs = eigenpairs(domain, level, k, tau, m=6)
        space = SearchSpace(sys, *seeds)
        sizes, expand = [], space._expand
        space._expand = lambda t, rhs: (expand(t, rhs), sizes.append(space.size))[0]
        got = [solve_condensed_nonlinear(sys, space, i) for i in range(1, 7)]
        assert [p.index for p in got] == list(range(1, 7))
        for pair, ref in zip(got, pairs):
            assert abs(pair.value - ref.value) <= 1e-12 * ref.value, pair.index
        assert max(sizes) <= eigensolve._SPACE_MAX
        for pair in got:
            off = pair.vector - space.v @ (space.av.T @ pair.vector)
            assert np.sqrt(abs(off @ (sys.A @ off))) <= 1e-8, pair.index

    def test_fewer_independent_traces_than_the_index(self, systems):
        sys = systems("square", 0, 1)
        (values, traces), _ = surrogate_seeds(sys, 3)
        with pytest.raises(EigenSolveError, match="3 independent seed traces; the 2 seeds "):
            solve_condensed_nonlinear(sys, SearchSpace(sys, values[:2], traces[:, :2]), 3)
        values[2], traces[:, 2] = values[1], traces[:, 1]
        with pytest.raises(EigenSolveError, match="3 independent seed traces; the 3 seeds "
                                                  "span 2"):
            solve_condensed_nonlinear(sys, SearchSpace(sys, values, traces), 3)


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


class TestLanczosSettings:
    @pytest.mark.parametrize("n,k,ncv", [(200, 1, 10), (200, 6, 20), (12, 3, 12)])
    def test_basis_size(self, monkeypatch, n, k, ncv):
        seen = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda op, **kwargs: seen.append(kwargs) or eigsh(op, **kwargs))
        diag = np.arange(1.0, n + 1.0)
        op = scipy.sparse.linalg.aslinearoperator(scipy.sparse.diags(diag))
        mu, _ = eigensolve._eigsh(op, k, "a diagonal matrix", np.ones(n))
        assert np.allclose(np.sort(mu), diag[-k:], rtol=1e-12)
        assert [(s["k"], s["ncv"]) for s in seen] == [(k, ncv)]
        assert "tol" not in seen[0]  # scipy's default: machine precision


class TestStartVector:
    def test_one_write_protected_vector_per_size(self, systems):
        # the cold Lanczos run and the search space read the shared vector:
        # a write to it would raise, and its values are the seeded draw
        sys = systems("square", 0, 1)
        SearchSpace(sys, *surrogate_seeds(sys, 2)[0])
        for n in (sys.dim_w, sys.ndof):
            v = eigensolve._deterministic_start(n)
            assert v is eigensolve._deterministic_start(n) and not v.flags.writeable
            np.testing.assert_array_equal(v, _start(n))


class TestSolveModes:
    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_secant(self, secants, eigenpairs, domain, level, k, tau):
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        lams = np.array([p.value for p in pairs])
        secant = np.array([p.value for p in secants(domain, level, k, tau)])
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

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_scipy_default_lanczos(self, monkeypatch, systems, eigenpairs, domain,
                                           level, k, tau):
        # the Lanczos run keeps 2k + 8 basis vectors; scipy's default (at
        # least 20) is the reference
        sys = systems(domain, level, k, tau)
        _, pairs = eigenpairs(domain, level, k, tau, m=6)
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda op, ncv, **kwargs: eigsh(op, **kwargs))
        ref = np.array([p.value for p in solve_modes(sys, 6)])
        assert np.all(np.abs(np.array([p.value for p in pairs]) - ref) <= 1e-12 * ref)

    def test_matches_secant_anisotropic(self, systems):
        # a12 != 0: no closed-form spectrum, so the two routes check each other
        sys = systems("square", 1, 1, mat=MaterialSpec(1.0, 0.4, 2.0))
        lams = np.array([p.value for p in solve_modes(sys, 6)])
        secant = secant_values(sys, 6)
        assert np.abs(lams - secant).max() <= 1e-10 * secant.max()

    def test_too_many_modes(self, systems):
        # Lanczos on T serves fewer than dim W_h modes, and the modes run
        # asks for at most the surrogate pencil's rank G <= min(ndof, dim W_h)
        # (here ndof = 80 < dim W_h = 96)
        sys = systems("square", 0, 1)
        for m, match in ((sys.dim_w, "modes of"), (sys.dim_w + 1, "modes of"),
                         (sys.ndof + 1, "kernel")):
            with pytest.raises(EigenSolveError, match=match):
                solve_modes(sys, m)

    def test_block_start_on_a_small_space(self, systems):
        # 3 m > dim W_h = 32: the LOBPCG basis [X, R, P] cannot stay
        # independent, and the dependent directions are dropped
        sys = systems("square", 0, 0)
        start = np.random.default_rng(1).standard_normal((sys.dim_w, 12))
        cold = [p.value for p in solve_modes(sys, 12)]
        warm = [p.value for p in solve_modes(sys, 12, lambda: start)]
        np.testing.assert_allclose(warm, cold, rtol=1e-12)

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_pre_change_routes(self, systems, eigenpairs, secants, domain, level, k,
                                       tau):
        # the three eigensolves against the routes they replaced: class-loop
        # T, the surrogate pencil in generalized mode on the assembled Gram
        # form, and the Newton loop with a Lanczos run per frozen pencil on
        # the assembled resolvent forms
        sys = systems(domain, level, k, tau)
        (values, traces), pairs = eigenpairs(domain, level, k, tau, m=6)
        new = {"surrogate": values,
               "secant": [p.value for p in secants(domain, level, k, tau)],
               "modes": [p.value for p in pairs]}
        old = {"surrogate": reference_pencil(sys, 0.0, 6)[0],
               "secant": sorted(reference_newton(sys, i, lam, vec) for i, (lam, vec)
                                in enumerate(zip(values, traces.T), 1)),
               "modes": reference_mode_values(sys, 6)}
        for route in new:
            np.testing.assert_allclose(new[route], old[route], rtol=1e-12, err_msg=route)

    @pytest.mark.parametrize("factor", [1.0, 1.5])
    def test_frozen_pencil_at_wall_is_typed(self, systems, factor):
        # M(kappa) = Z^T diag(1 / (1 - kappa w)) Z does not exist at or past
        # the wall: a typed error, never NaN or negative eigenvalues
        sys = systems("square", 1, 1)
        with pytest.raises(EigenSolveError, match="resonance"):
            frozen_solves(sys, factor * sys.wall, 1)
        thetas = frozen_solves(sys, 0.99 * sys.wall, 1)[0]
        assert np.isfinite(thetas).all() and thetas.min() > 0

    @pytest.mark.parametrize("route", ["solve_modes", "surrogate", "secant"])
    def test_arpack_no_convergence(self, systems, monkeypatch, capsys, route):
        # the modes' Lanczos run with ARPACK stalled, the surrogate's LOBPCG
        # run out of iterations, and the Newton route's frozen solve with
        # every new search direction taken for round-off
        from hdgeig.cli import main

        def stalled(op, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.ones(0),
                                                          np.ones((op.shape[0], 0)))

        sys = systems("square", 0, 1)
        seeds, _ = surrogate_seeds(sys, 2)
        run = {"solve_modes": lambda: solve_modes(sys, 2),
               # fresh modes: the seeds' surrogate run took over their Ritz block
               "surrogate": lambda: solve_linear_surrogate(sys, solve_modes(sys, 2)),
               "secant": lambda: solve_condensed_nonlinear(sys, SearchSpace(sys, *seeds),
                                                           2)}[route]
        command = "oracle-check" if route == "secant" else "solve"
        if route == "secant":
            # the search space's alone: _STALL_TOL also drops LOBPCG directions
            monkeypatch.setattr(eigensolve.SearchSpace, "_expand", lambda self, t, rhs: False)
        elif route == "surrogate":
            monkeypatch.setattr(eigensolve, "_LOBPCG_MAX_ITER", 1)
        else:
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(EigenSolveError, match="did not converge"):
            run()
        assert main([command, "--level", "0", "--modes", "2"]) == 3
        assert "did not converge" in capsys.readouterr().err


def eigenfields(sys, pairs):
    """The eigenfields (I - lam W)^-1 U eta of trace eigenpairs, as columns."""
    return np.column_stack([resolvent_lift(sys, p.value, p.vector).ravel() for p in pairs])


def injected_start(systems, eigenpairs, domain, level, k, tau, m=6):
    """The study's start block on ``level``: the eigenfields of the level
    below injected into it.  Level 0 has none below; there the level's own
    eigenfields perturbed by seeded noise of 1e-2 of their size stand in."""
    coarse = systems(domain, max(level - 1, 0), k, tau)
    fields = eigenfields(coarse, eigenpairs(domain, max(level - 1, 0), k, tau, m=m)[1])
    if level:
        return inject_fields(coarse.ref, fields)
    noise = np.random.default_rng(0).standard_normal(fields.shape)
    return fields + 1e-2 * np.abs(fields).max() * noise


class TestLobpcgWorkspace:
    """The LOBPCG run on its two preallocated workspaces against
    ``reference_lobpcg``, the block-list run it replaced."""

    @pytest.mark.parametrize("domain,level,k,tau", ROUTE_GRID)
    def test_matches_reference(self, systems, eigenpairs, domain, level, k, tau):
        # on T (solve_modes) and T0 (the surrogate, with either stop), from
        # the same block; where the reference stalls on a spurious cluster,
        # so does the run.  The application counts differ by a column or a
        # few on some cells: round-off decides in which iteration a slow
        # last column crosses the stop
        sys = systems(domain, level, k, tau)
        block = injected_start(systems, eigenpairs, domain, level, k, tau)
        for load, stop in ((sys.load_lift, "vectors"), (None, "vectors"), (None, "values")):
            runs = []
            for lobpcg, start in ((reference_lobpcg, block), (eigensolve._lobpcg, lambda: block)):
                op = eigensolve._Operator(sys, load)
                try:
                    runs.append(lobpcg(op, start, "T", stop)[0])
                except EigenSolveError:
                    runs.append(None)
            ref, new = runs
            if ref is None:
                assert new is None
            else:
                np.testing.assert_allclose(new, ref, rtol=1e-12)

    def test_application_counts_on_the_k2_study(self, monkeypatch):
        # every run of the k = 2 study once more through the reference, on a
        # copy of its operator (same LU, own counters); the surrogate runs
        # stop on their values, and start from the modes' Ritz block with
        # its image, where the reference applies the operator to the block
        counts, lobpcg = [], eigensolve._lobpcg

        def both(op, start, what, stop="vectors", image=None):
            block, ax = start(), None if image is None else image()
            ref = copy.copy(op)
            reference_lobpcg(ref, block, what, stop)
            out = lobpcg(op, lambda: block, what, stop, None if ax is None else lambda: ax)
            given = (0, 0) if image is None else (block.shape[1], 1)
            counts.append(((ref.applications - given[0], ref.solves - given[1]),
                           (op.applications, op.solves)))
            return out

        monkeypatch.setattr(eigensolve, "_lobpcg", both)
        details = []
        run_convergence_study(StudyConfig(k=2, levels=(0, 1, 2, 3, 4), modes=(1, 2, 4, 6),
                                          postprocess=False),
                              lambda level, seconds, detail: details.append(detail))
        assert len(counts) == 9 and all(ref == new for ref, new in counts)
        pattern = r"modes (\d+) operator applications in (\d+) .*surrogate (\d+) in (\d+)"
        got = [tuple(int(c) for c in re.search(pattern, d).groups()) for d in details]
        assert got == [(54, 54, 37, 7), (66, 13, 31, 6), (55, 11, 24, 5), (48, 10, 15, 3),
                       (41, 8, 9, 2)]

    def test_peak_memory_at_most_the_reference(self, systems, eigenpairs):
        # each run once untraced first, so that neither pays a lazy set-up
        sys = systems("square", 3, 2)
        block = injected_start(systems, eigenpairs, "square", 3, 2, "one")
        peaks = []
        for lobpcg, start in ((reference_lobpcg, block), (eigensolve._lobpcg, lambda: block)):
            op = eigensolve._Operator(sys, sys.load_lift)
            lobpcg(op, start, "T")
            tracemalloc.start()
            try:
                lobpcg(op, start, "T")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestSurrogateValues:
    """``solve_linear_surrogate``, every command's surrogate run from the
    modes run's Ritz block, stopped on its values, against the LOBPCG run
    with the vector stop from the same block."""

    TAUS = {"one": TauSpec.one(), "h": TauSpec.global_h(), "0.1": TauSpec.constant(0.1),
            "1e4": TauSpec.constant(1e4)}

    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_the_vector_stop(self, monkeypatch, domain, k):
        # every surrogate run of the study, levels 0-3, modes 1-6, once more
        # with the vector stop on a copy of its operator (same LU, own
        # counters).  Near the wall both runs take the vector stop.  The
        # L-shape at k = 3 leaves out tau = h and 0.1: there every surrogate
        # run is near the wall, and level 2, cold after the stalled level 1,
        # takes a Lanczos run of 28,552 (h) or 10,914 (0.1) applications, 17 s
        runs, lobpcg = [], eigensolve._lobpcg

        def both(op, start, what, stop="vectors", image=None):
            if what != "the surrogate pencil":
                return lobpcg(op, start, what, stop, image)
            block, ax = start(), image()
            out = lobpcg(op, lambda: block, what, stop, lambda: ax)
            runs.append((stop, out[0],
                         lobpcg(copy.copy(op), lambda: block, what, image=lambda: ax)[0]))
            return out

        monkeypatch.setattr(eigensolve, "_lobpcg", both)
        taus = ["one", "1e4"] if (domain, k) == ("lshape", 3) else list(self.TAUS)
        for tau in taus:
            run_convergence_study(StudyConfig(domain=domain, k=k, tau=self.TAUS[tau],
                                              levels=(0, 1, 2, 3), modes=(1, 2, 3, 4, 5, 6),
                                              postprocess=False))
        assert any(stop == "values" for stop, _, _ in runs)
        for _, new, ref in runs:
            np.testing.assert_allclose(1.0 / new, 1.0 / ref, rtol=1e-12)

    def test_the_ritz_block_start_saves_its_solve(self, monkeypatch):
        # the k = 2 study's surrogate runs start from the modes' Ritz block
        # with its image; each once more on a copy of its operator (same LU,
        # own counters) applying T0 to that block itself takes one solve and
        # m = 6 applications more for the same values.  lam~ lies within
        # 1e-14 of a cold Lanczos run on T0
        config = StudyConfig(k=2, levels=(0, 1, 2, 3, 4), modes=(1, 2, 4, 6),
                             postprocess=False)
        runs, lobpcg = [], eigensolve._lobpcg

        def both(op, start, what, stop="vectors", image=None):
            if what != "the surrogate pencil":
                return lobpcg(op, start, what, stop, image)
            assert image is not None
            block, ax = start(), image()
            ref = copy.copy(op)
            out = lobpcg(op, lambda: block, what, stop, lambda: ax)
            mu = lobpcg(ref, lambda: block, what, stop)[0]
            runs.append((ref.applications - op.applications, ref.solves - op.solves))
            np.testing.assert_allclose(mu, out[0], rtol=1e-12)
            return out

        monkeypatch.setattr(eigensolve, "_lobpcg", both)
        details = []
        report = run_convergence_study(
            config, lambda level, seconds, detail: details.append(detail))
        pattern = re.compile(r"surrogate (\d+) in (\d+)")
        assert [int(pattern.search(d).group(2)) for d in details] == [7, 6, 5, 3, 2]
        assert runs == [(6, 1)] * 5
        for level in config.levels:
            sys = assemble_condensed(build_square_mesh(level), SpaceConfig(2), TauSpec.one())
            lanczos = reference_surrogate_values(sys, 6)
            for mode in config.modes:
                assert report.cell(mode, level).lam_tilde == pytest.approx(lanczos[mode - 1],
                                                                           rel=1e-14)

    def test_per_column_stop_on_a_wide_spectrum(self, systems):
        # L-shape, k = 1, tau = 1e4, level 0: lam~_6 is about 1,400 lam~_1,
        # and a stop relative to the largest Ritz value 1 / lam~_1 for every
        # column left lam~_6 4.8e-10 off the vector stop's value
        sys = systems("lshape", 0, 1, 1e4)
        modes = solve_modes(sys, 6)
        block = modes.ritz  # held here: the surrogate run takes it over from the modes
        got = solve_linear_surrogate(sys, modes)
        ref = 1.0 / eigensolve._lobpcg(eigensolve._Operator(sys), lambda: block, "T0")[0]
        assert got.stop == "values" and got.values[5] > 1000 * got.values[0]
        assert got.residual <= eigensolve._VALUE_RTOL
        np.testing.assert_allclose(got.values, ref, rtol=1e-12)

    def test_near_wall_modes_keep_the_vector_stop(self, systems, eigenpairs):
        # square, k = 2, tau = 0.1, level 0: modes 2-6 are spurious, at
        # 2.52-2.53 under the wall at 2.598, and their eigenfields need not
        # span the surrogate's lowest subspace: the value stop settled on
        # 14.495 for lam~_6 = 10.855238
        sys = systems("square", 0, 2, 0.1)
        (surrogates, _), pairs = eigenpairs("square", 0, 2, 0.1, m=6)
        assert 2.5 < pairs[1].value < pairs[5].value < sys.wall < 2.6
        details = []
        rep = run_convergence_study(StudyConfig(k=2, tau=TauSpec.constant(0.1), levels=(0,),
                                                modes=(1, 2, 3, 4, 5, 6), postprocess=False),
                                    lambda level, seconds, detail: details.append(detail))
        assert "vectors stop" in details[0]
        for index, surrogate in enumerate(surrogates, 1):
            assert rep.cell(index, 0).lam_tilde == pytest.approx(surrogate, rel=1e-12)
        assert rep.cell(5, 0).lam_tilde == pytest.approx(10.855199, rel=1e-7)
        assert rep.cell(6, 0).lam_tilde == pytest.approx(10.855238, rel=1e-7)

    def test_a_value_outside_its_enclosure_raises(self, monkeypatch, systems):
        # a run that settles on the next eigenvalue up in its last column:
        # LOBPCG on one more column, whose value takes slot m
        lobpcg = eigensolve._lobpcg

        def skipping(op, start, what, stop="vectors", image=None):
            if what != "the surrogate pencil":
                return lobpcg(op, start, what, stop, image)
            extra = np.random.default_rng(0).standard_normal((op.shape[0], 1))
            mu, x, residual = lobpcg(op, lambda: np.hstack([start(), extra]), what, stop)
            return np.r_[mu[:-2], mu[-1:]], x[:, :-1], residual

        monkeypatch.setattr(eigensolve, "_lobpcg", skipping)
        sys = systems("square", 2, 1)
        pairs = solve_modes(sys, 6)  # carrying the Ritz block the surrogate run takes over
        with pytest.raises(EigenSolveError, match="surrogate value 6 .* outside its enclosure"):
            solve_linear_surrogate(sys, pairs)
        # the enclosure of lam~_6 narrows as the wall recedes: [8.23, 15.64]
        # on level 0 holds lam~_7 = 15.62, [9.76, 13.58] on level 1 barely
        # misses 13.60, [9.97, 11.64] on level 2 clearly misses 13.14
        rep = run_convergence_study(StudyConfig(k=1, levels=(2, 3), modes=(1, 2, 4, 6),
                                                postprocess=False))
        for cell in rep.cells:
            assert cell.lam is None and "outside its enclosure" in cell.note

    def test_values_lie_in_their_enclosure(self, systems):
        # lam_i <= lam~_i <= lam_i / (1 - lam_i / wall); at k = 0 on the
        # uniform square the upper bound is an equality
        for k, tau in ((0, "one"), (1, "one"), (2, "h"), (1, 1e4)):
            sys = systems("square", 1, k, tau)
            pairs = solve_modes(sys, 6)  # carrying the Ritz block the surrogate run takes over
            lams = np.array([p.value for p in pairs])
            got = solve_linear_surrogate(sys, pairs).values
            assert np.all(lams <= got * (1 + 1e-12))
            assert np.all(got <= lams / (1 - lams / sys.wall) * (1 + 1e-9))
            if k == 0:
                np.testing.assert_allclose(got, lams / (1 - lams / sys.wall), rtol=1e-12)

    def test_refuses_pairs_without_ritz_vectors(self, systems):
        # only solve_modes' Modes carry the Ritz block that the run starts
        # from: not the nonlinear eigensolve's pairs, the surrogate seeds,
        # a plain list of solve_modes' pairs, nor Modes whose block an
        # earlier surrogate run took over
        sys = systems("square", 1, 1)
        modes = solve_modes(sys, 2)
        solve_linear_surrogate(sys, modes)
        for pairs in (newton_pairs(sys, 2), surrogate_seeds(sys, 2)[0],
                      list(solve_modes(sys, 2)), modes):
            with pytest.raises(ValueError, match="these pairs carry none"):
                solve_linear_surrogate(sys, pairs)


class TestOperatorLifetime:
    """An eigensolve gives back every reference it took to the cached LU
    when it returns, with the cyclic collector off: no reference cycle
    keeps the factorization alive after the run, so releasing it frees it."""

    RUNS = {
        "modes": lambda sys, block, pairs: solve_modes(sys, 4),
        "modes_block": lambda sys, block, pairs: solve_modes(sys, 4, lambda: block),
        # oracle-check's seeds: the modes run, the surrogate run and the
        # seeds' block solve
        "surrogate": lambda sys, block, pairs: surrogate_seeds(sys, 4),
        "surrogate_block": lambda sys, block, pairs: solve_linear_surrogate(sys, pairs),
        "nonlinear": lambda sys, block, pairs: solve_condensed_nonlinear(
            sys, SearchSpace(sys, [p.value for p in pairs], pairs.traces), 2),
        # the result, which holds an operator, is dropped at once
        "oracle": lambda sys, block, pairs: oracle_full_eig(sys, 4),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_run_gives_back_the_factorization(self, systems, run):
        sys = systems("square", 1, 1)
        pairs = solve_modes(sys, 4)  # carrying the Ritz block the surrogate run takes over
        block = eigenfields(sys, pairs)
        gc.disable()
        try:
            before = getrefcount(sys.factorized())
            self.RUNS[run](sys, block, pairs)
            after = getrefcount(sys.factorized())  # outside the rewritten assert
        finally:
            gc.enable()
        assert after == before

    def test_operator_dies_with_its_last_reference(self, systems):
        op = eigensolve._Operator(systems("square", 1, 1))
        op.matvec(np.ones(op.shape[0]))
        alive = weakref.ref(op)
        gc.disable()
        try:
            del op
            assert alive() is None
        finally:
            gc.enable()


class TestModes:
    """``solve_modes`` returns its ascending pairs as ``Modes``, which own
    the run's three column-major blocks; each pair's arrays are views of
    their columns."""

    @pytest.mark.parametrize("started", [False, True])
    def test_pairs_are_views_of_the_blocks(self, systems, started):
        # the Lanczos run, and LOBPCG from the level's own eigenfields
        sys = systems("square", 1, 2)
        start = (lambda: solve_modes(sys, 4).fields) if started else None
        modes = solve_modes(sys, 4, start)
        assert [pair.index for pair in modes] == [1, 2, 3, 4]
        shapes = {"traces": (sys.ndof, 4), "fields": (sys.dim_w, 4), "ritz": (sys.dim_w, 4)}
        for name, shape in shapes.items():
            block = getattr(modes, name)
            assert block.shape == shape and block.flags.f_contiguous
        for pair, trace, field in zip(modes, modes.traces.T, modes.fields.T):
            assert np.shares_memory(pair.vector, trace) and pair.vector.shape == trace.shape
            assert np.shares_memory(pair.field, field)
            assert pair.field.shape == (sys.mesh.num_triangles, sys.ref.n_w)
            np.testing.assert_array_equal(pair.field.ravel(), field)
        traces = sys.factorized().solve(sys.moments @ modes.ritz)
        np.testing.assert_array_equal(modes.traces, traces)


class TestBlockOwnership:
    """A level's eigensolves (``solve_level``, square, k = 2, level 3, from
    level 2's eigenfields injected into it) hold no block that none of
    them reads any more: the start block and the surrogate image pass
    into the LOBPCG workspace, the surrogate run takes the modes run's
    Ritz block over, and W lives only for the modes run."""

    @staticmethod
    def level(systems, eigenpairs):
        """The level's system and its start, a function that injects level
        2's eigenfields into it, as the study's is."""
        coarse, sys = systems("square", 2, 2), systems("square", 3, 2)
        fields = eigenfields(coarse, eigenpairs("square", 2, 2, m=6)[1])
        return sys, lambda: inject_fields(sys.ref, fields)

    def test_blocks_die_before_the_surrogate_solves(self, monkeypatch, systems, eigenpairs):
        sys, inject = self.level(systems, eigenpairs)
        refs, seen = {}, []
        lobpcg, matmat = eigensolve._lobpcg, eigensolve._Operator._matmat

        def held(name, make):
            def spy():
                block = make()
                refs[name] = weakref.ref(block)
                return block
            return spy

        def spied(op, start, what, stop="vectors", image=None):
            if what == "the surrogate pencil":
                return lobpcg(op, held("surrogate start", start), what, stop,
                              held("surrogate image", image))
            out = lobpcg(op, start, what, stop, image)
            refs["modes Ritz block"] = weakref.ref(out[1])
            return out

        def solve(op, y):
            if op.load is None and not seen:  # the surrogate's first solve
                seen.append({name: ref() is None for name, ref in refs.items()})
            return matmat(op, y)

        monkeypatch.setattr(eigensolve, "_lobpcg", spied)
        monkeypatch.setattr(eigensolve._Operator, "_matmat", solve)
        modes, surrogate, _ = solve_level(sys, 6, held("injected start", inject))
        names = ("injected start", "modes Ritz block", "surrogate start", "surrogate image")
        assert seen == [dict.fromkeys(names, True)]
        assert "load_lift" not in vars(sys)
        assert modes.ritz is None and surrogate.ritz.shape == (sys.dim_w, 6)

    def test_peak_memory_of_a_level(self, systems, eigenpairs):
        # tracemalloc counts numpy's arrays, not SuperLU's factors: the
        # level's peak, start block and W included, in blocks of n x m.
        # 10.2 blocks here; 12.2 when the start block, W, the Ritz block
        # and the surrogate image were held to the end, not counting the
        # start block made before the call
        sys, inject = self.level(systems, eigenpairs)
        solve_level(sys, 6, inject)  # once untraced, so that no lazy set-up is counted
        sys.factorized()
        tracemalloc.start()
        try:
            solve_level(sys, 6, inject)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * sys.dim_w * 6 * 8


class TestLobpcgStops:
    """A LOBPCG run that ends without converging raises
    ``EigenSolveError`` naming the stop that ended it."""

    def test_out_of_iterations_before_any_expansion(self, monkeypatch, capsys):
        # no iteration allowed: the residuals of the start block's
        # Rayleigh-Ritz pairs still give the message its largest residual.
        # ``solve`` exits 3; the study records the error on every cell
        from hdgeig.cli import main

        monkeypatch.setattr(eigensolve, "_LOBPCG_MAX_ITER", 0)
        message = "LOBPCG run on the surrogate pencil did not converge within 0 iterations"
        assert main(["solve", "--level", "1", "--k", "1", "--modes", "3"]) == 3
        assert message in capsys.readouterr().err
        rep = run_convergence_study(StudyConfig(k=1, levels=(0, 1), modes=(1,)))
        for cell in rep.cells:
            assert cell.lam is None and message in cell.note

    def test_residuals_inside_the_basis(self, monkeypatch):
        # a start block spanning an invariant subspace, rotated in it, leaves
        # residuals of round-off inside that subspace, which no column meets
        # under a zero tolerance: the run stops on them, not on its
        # iteration count
        monkeypatch.setattr(eigensolve, "_LOBPCG_RTOL", 0.0)
        op = scipy.sparse.linalg.aslinearoperator(np.diag(np.arange(1.0, 9.0)))
        rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        with pytest.raises(EigenSolveError, match=r"LOBPCG run on T stalled after 0 "
                                                  r"iterations: its residuals lie in span"):
            eigensolve._lobpcg(op, lambda: np.eye(8)[:, 5:] @ rotation, "T")

    def test_round_off_residuals_leave_the_basis(self, monkeypatch):
        # 3m > n: after one iteration [X, P, R] spans the space, and the
        # residuals left are round-off in span [X, P].  Scaled to unit length
        # before the rank test they entered the basis as noise, and the run
        # ended after 100 iterations with a residual of 9.9 times the
        # operator's scale
        monkeypatch.setattr(eigensolve, "_LOBPCG_RTOL", 0.0)
        op = scipy.sparse.linalg.aslinearoperator(np.diag(np.arange(1.0, 11.0)))
        block = np.random.default_rng(0).standard_normal((10, 5))
        with pytest.raises(EigenSolveError, match=r"stalled after 1 iterations") as info:
            eigensolve._lobpcg(op, lambda: block, "T")
        residual = float(re.search(r"largest residual (\S+) of", str(info.value)).group(1))
        assert residual < 1e-13


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
            vals[tag] = np.sort([p.value for p in newton_pairs(sys, 4)])
        assert np.abs(vals["orig"] - vals["perm"]).max() <= 1e-10 * vals["orig"].max()

    def test_surrogate_gap_shrinks(self, eigenpairs):
        gaps = []
        for level in (1, 2, 3):
            (surr, _), pairs = eigenpairs("square", level, 1, m=1)
            gaps.append(abs(pairs[0].value - surr[0]))
        orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
        assert np.all(orders > 1.7)
