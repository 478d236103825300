import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import element_ops
from hdgeig.errors import EigenSolveError
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import Mesh
from hdgeig.recovery import (
    eig_residuals,
    postprocess,
    postprocess_q,
    postprocess_u,
    qstar_normal_jumps,
    rayleigh_eigenvalue,
    recover_fields,
)
from hdgeig.study import StudyConfig, run_convergence_study
from test_assembly import reference_local_trace, reference_trace_dofs


def norm_u(fields):
    """L2 norm of the recovered scalar (the basis is orthonormal)."""
    return float(np.sqrt(np.sum(fields.u**2)))


# --- reference implementations -------------------------------------------
# The quadrature loops that postprocess_u, postprocess_q and
# rayleigh_eigenvalue ran before they became products with the per-class
# maps of ElementOps.  Each takes one class's operators and the member
# elements' coefficient rows.


def reference_u_star(ops, u, q):
    pops = ops.p_ops
    n_p = ops.ref.n_p
    stiff = np.einsum("q,qia,qja->ij", ops.wq, pops["grads"], pops["grads"])
    means = np.einsum("q,qi->i", ops.wq, pops["vals"])
    bord = np.zeros((n_p + 1, n_p + 1))
    bord[:n_p, :n_p] = stiff
    bord[:n_p, n_p] = means
    bord[n_p, :n_p] = means
    qvals = np.einsum("qid,ei->eqd", ops.v_vals, q)
    cq = qvals @ ops.mat.c.T
    rhs_grad = -np.einsum("q,eqd,qjd->ej", ops.wq, cq, pops["grads"])
    rhs = np.concatenate([rhs_grad, (u @ ops.w_means)[:, None]], axis=1)
    sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(bord), rhs.T).T
    return sol[:, :n_p]


def reference_q_star(ops, eta_loc, u, q):
    rt = ops.rt_ops
    n_m = ops.n_m
    rows, rhs = [], []
    for l in range(3):
        fw = ops.face_wq[l]
        rows.append(np.einsum("e,em,ei->mi", fw, ops.t_face[l], rt["face_normal"][l]))
        qn = np.einsum("ei,gi->eg", q, ops.v_normal[l])
        uvals = np.einsum("ei,gi->eg", u, ops.w_face[l])
        etav = np.einsum("em,gm->eg", eta_loc[:, l * n_m : (l + 1) * n_m], ops.t_face[l])
        qhat = qn + ops.tau * (uvals - etav)
        rhs.append(np.einsum("g,eg,gm->em", fw, qhat, ops.t_face[l]))
    if ops.ref.spaces.k >= 1:
        ivals = ops.ref.i_vals / np.sqrt(ops.det)
        qvals = np.einsum("qid,ei->eqd", ops.v_vals, q)
        for d in range(2):
            rows.append(np.einsum("q,qi,qj->ij", ops.wq, ivals, rt["vol_vals"][:, :, d]))
            rhs.append(np.einsum("q,eq,qi->ei", ops.wq, qvals[:, :, d], ivals))
    lu = scipy.linalg.lu_factor(np.vstack(rows))
    return scipy.linalg.lu_solve(lu, np.concatenate(rhs, axis=1).T).T


def reference_rayleigh_terms(ops, u_star, q_star):
    """Energy and boundary-pairing terms of the numerator, and the
    denominator, summed over the class's elements."""
    pops = ops.p_ops
    grads = np.einsum("qja,ej->eqa", pops["grads"], u_star)
    energy = np.einsum("q,eqa,ab,eqb->", ops.wq, grads, ops.mat.alpha, grads)
    vals = np.einsum("qj,ej->eq", pops["vals"], u_star)
    mass = np.einsum("q,eq,eq->", ops.wq, vals, vals)
    pairing = 0.0
    for l in range(3):
        qn = np.einsum("ei,gi->eg", q_star, ops.rt_ops["face_normal"][l])
        uv = np.einsum("ej,gj->eg", u_star, pops["face"][l])
        pairing += np.einsum("g,eg->", ops.face_wq[l], qn * uv)
    return energy, pairing, mass


def reference_postprocess(sys, fields):
    """(u*, q*, lambda*) from the reference implementations."""
    eta_loc = reference_local_trace(sys, fields.eta)
    num_t = len(fields.u)
    u_star = np.empty((num_t, sys.ref.n_p))
    q_star = np.empty((num_t, sys.ref.n_rt))
    num = den = 0.0
    for ops, members in sys.class_groups:
        u, q = fields.u[members], fields.q[members]
        u_star[members] = reference_u_star(ops, u, q)
        q_star[members] = reference_q_star(ops, eta_loc[members], u, q)
        energy, pairing, mass = reference_rayleigh_terms(ops, u_star[members], q_star[members])
        num += energy + pairing
        den += mass
    return u_star, q_star, num / den


def assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(np.asarray(got) - want).max() <= rtol * np.abs(want).max()


def flux_values(ops, q_star):
    """q* fields at the volume points.  The x P_k members are nearly
    dependent on [P_k]^2 (the local system has cond ~1e4 at k = 3), so two
    round-off-close fields can differ in their coefficients by ~1e-11."""
    return np.einsum("qid,ei->eqd", ops.rt_ops["vol_vals"], q_star)


@pytest.fixture(scope="module")
def recovered(systems, eigenpairs):
    cache = {}

    def get(domain="square", level=1, k=1, tau="one", case="equal", mode=1):
        key = (domain, level, k, tau, case, mode)
        if key not in cache:
            sys = systems(domain, level, k, tau, case)
            _, pairs = eigenpairs(domain, level, k, tau, case, m=mode)
            cache[key] = (sys, recover_fields(sys, pairs[mode - 1]))
        return cache[key]

    return get


class TestRecoverFields:
    def test_unit_norm(self, recovered):
        _, fields = recovered()
        assert norm_u(fields) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_sign_positive(self, recovered):
        sys, fields = recovered()
        ops = sys.classes[sys.elem_class[fields.anchor_element]]
        assert ops.w_means @ fields.u[fields.anchor_element] > 0

    def test_eig_system_residuals(self, recovered):
        sys, fields = recovered()
        res = eig_residuals(sys, fields)
        assert max(res.values()) < 1e-9

    @pytest.mark.parametrize("domain,level,k", [
        ("square", 0, 0), ("square", 2, 2), ("lshape", 1, 1), ("lshape", 0, 2),
    ])
    def test_eig_residuals_across_configs(self, recovered, domain, level, k):
        sys, fields = recovered(domain, level, k)
        res = eig_residuals(sys, fields)
        assert max(res.values()) < 1e-9

    def test_anchor_located_once_per_mesh(self, monkeypatch):
        # the four recoveries of each study level share one search; each
        # level refines to a new mesh, which is searched once
        located, locate = [], Mesh.locate
        monkeypatch.setattr(Mesh, "locate",
                            lambda mesh, point: located.append(mesh) or locate(mesh, point))
        rep = run_convergence_study(StudyConfig(k=1, levels=(0, 1), modes=(1, 2, 4, 6),
                                                postprocess=False))
        assert all(cell.note == "" for cell in rep.cells)
        assert len(located) == 2 and located[0] is not located[1]

    def test_zero_trace_is_degenerate(self, systems):
        sys = systems("square", 0, 1)

        class Fake:
            value = 2.0
            vector = np.zeros(sys.ndof)
            field = np.zeros((sys.mesh.num_triangles, sys.n_w))

        with pytest.raises(EigenSolveError):
            recover_fields(sys, Fake())

    def test_surrogate_pair_is_refused(self, systems, eigenpairs):
        # a surrogate value with its seed trace carries no eigenfield of
        # the nonlinear problem
        (values, traces), _ = eigenpairs("square", 0, 1)

        class Surrogate:
            value, vector, index, field = values[0], traces[:, 0], 1, None

        with pytest.raises(ValueError, match="carries no eigenfield"):
            recover_fields(systems("square", 0, 1), Surrogate())


class TestPostprocessU:
    def test_polynomial_plug_in(self, systems):
        # if the flux is exactly -alpha grad p for a degree-(k+1)
        # polynomial p, the reconstruction returns p itself
        sys = systems("square", 0, 1)
        ops = sys.classes[0]
        n_p = sys.ref.n_p
        rng = np.random.default_rng(2)
        p_coef = rng.standard_normal(n_p)

        class Fields:
            pass

        fields = Fields()
        num_t = len(sys.mesh.triangles)
        fields.u = np.zeros((num_t, sys.ref.n_w))
        fields.q = np.zeros((num_t, sys.ref.n_v))
        # represent q = -grad p in the flux basis per class (identity
        # coefficient extraction via L2 projection, exact since the flux
        # space contains grad P_{k+1})
        for ops, members in sys.class_groups:
            pops = ops.p_ops
            grads = np.einsum("qja,j->qa", pops["grads"], p_coef)
            proj = np.einsum("q,qa,qia->i", ops.wq, -grads, ops.v_vals)
            fields.q[members] = proj
            mean = pops["means"] @ p_coef
            fields.u[members, 0] = mean / ops.w_means[0]
        out = postprocess_u(sys, fields)
        assert np.abs(out - p_coef).max() < 1e-12 * max(1.0, np.abs(p_coef).max())

    def test_mean_preservation(self, recovered):
        sys, fields = recovered()
        out = postprocess_u(sys, fields)
        for ops, members in sys.class_groups:
            pops = ops.p_ops
            mean_star = out[members] @ pops["means"]
            mean_u = fields.u[members] @ ops.w_means
            area = 0.5 * ops.det
            assert np.abs(mean_star - mean_u).max() < 1e-12 * np.sqrt(area)

    def test_benchmark_error_level2(self, recovered):
        from hdgeig.study import eigenfunction_error, exact_square_spectrum

        sys, fields = recovered("square", 2, 1)
        out = postprocess_u(sys, fields)
        mode = exact_square_spectrum(1)[0]
        err, = eigenfunction_error(sys, mode, out)
        assert 0.8 * 1.44e-4 < err < 1.2 * 1.44e-4


class TestPostprocessQ:
    def test_normal_jumps_vanish(self, recovered):
        sys, fields = recovered()
        q_star = postprocess_q(sys, fields)
        assert qstar_normal_jumps(sys, q_star) < 1e-10

    @pytest.mark.parametrize("domain,k", [("square", 1), ("lshape", 2)])
    def test_normal_jumps_match_edge_loop(self, recovered, domain, k):
        # the jump through the gather against moments summed edge by edge
        sys, fields = recovered(domain, 1, k)
        q_star = postprocess_q(sys, fields)
        dofs, signs = reference_trace_dofs(sys.mesh, k)
        jumps = np.zeros(sys.ndof)
        mags = np.zeros(sys.ndof)
        for t in range(len(q_star)):
            moments = q_star[t] @ sys.classes[sys.elem_class[t]].rt_moments
            for j in np.flatnonzero(dofs[t] >= 0):
                jumps[dofs[t, j]] += signs[t, j] * moments[j]
                mags[dofs[t, j]] += abs(moments[j])
        want = np.abs(jumps).max() / mags.max()
        assert qstar_normal_jumps(sys, q_star) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_local_system_nonsingular(self, systems, k):
        sys = systems("square", 0, k)
        for ops in sys.classes:
            assert np.isfinite(ops.post_q).all()  # the local system is solvable

    def test_conforming_input_reproduced(self, systems):
        # a globally linear flux with matching trace data has zero
        # penalty contribution, so the reconstruction returns it exactly
        sys = systems("square", 0, 1)
        num_t = len(sys.mesh.triangles)

        class Fields:
            pass

        fields = Fields()
        fields.q = np.zeros((num_t, sys.ref.n_v))
        fields.u = np.zeros((num_t, sys.ref.n_w))
        fields.eta = np.zeros(sys.ndof)
        qfun = lambda x, y: np.stack([2 * x - y + 1, x + 3 * y], axis=-1)
        for ops, members, x, y in sys.class_points(sys.ref.vol.points):
            vals = qfun(x, y)
            fields.q[members] = np.einsum(
                "q,eqd,qid->ei", ops.wq, vals, ops.v_vals
            )
        q_star = postprocess_q(sys, fields)
        # compare pointwise values of both fields at the volume points
        for ops, members in sys.class_groups:
            rt = ops.rt_ops
            got = np.einsum("qid,ei->eqd", rt["vol_vals"], q_star[members])
            want = np.einsum("qid,ei->eqd", ops.v_vals, fields.q[members])
            assert np.abs(got - want).max() < 1e-11


class TestRayleighEigenvalue:
    def test_green_identity_plug_in(self, systems):
        # with u* a polynomial vanishing nowhere near the boundary terms'
        # cancellation structure, q* = -grad u* -> quotient equals the
        # broken-energy Rayleigh value computed independently
        sys = systems("square", 0, 1)
        num_t = len(sys.mesh.triangles)
        rng = np.random.default_rng(6)
        u_star = np.zeros((num_t, sys.ref.n_p))
        q_star = np.zeros((num_t, sys.ref.n_rt))
        ufun = lambda x, y: np.sin(x) * np.sin(y)
        gfun = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)], axis=-1)
        for ops, members, x, y in sys.class_points(sys.ref.vol.points):
            pops = ops.p_ops
            rt = ops.rt_ops
            uvals = ufun(x, y)
            u_star[members] = np.einsum("q,eq,qj->ej", ops.wq, uvals, pops["vals"])
            gvals = -gfun(x, y)
            gram = np.einsum("q,qid,qjd->ij", ops.wq, rt["vol_vals"], rt["vol_vals"])
            rhs = np.einsum("q,eqd,qid->ei", ops.wq, gvals, rt["vol_vals"])
            q_star[members] = np.linalg.solve(gram, rhs.T).T
        lam = rayleigh_eigenvalue(sys, u_star, q_star)
        # independent evaluation: lambda = [energy + boundary pairing] / mass
        num = 0.0
        den = 0.0
        for ops, members in sys.class_groups:
            pops = ops.p_ops
            grads = np.einsum("qja,ej->eqa", pops["grads"], u_star[members])
            num += np.einsum("q,eqa,eqa->", ops.wq, grads, grads)
            vals = np.einsum("qj,ej->eq", pops["vals"], u_star[members])
            den += np.einsum("q,eq,eq->", ops.wq, vals, vals)
            rtq = ops.rt_ops
            for l in range(3):
                qn = np.einsum("ei,gi->eg", q_star[members], rtq["face_normal"][l])
                uv = np.einsum("ej,gj->eg", u_star[members], pops["face"][l])
                num += np.einsum("g,eg->", ops.face_wq[l], qn * uv)
        assert lam == pytest.approx(num / den, rel=1e-12)
        # both L2-projected fields approximate the first eigenpair, so on
        # this coarse mesh the quotient lands within a few percent of 2
        assert abs(lam - 2.0) < 0.1

    def test_benchmark_value_level2(self, systems, recovered):
        sys, fields = recovered("square", 2, 1)
        post = postprocess(sys, fields)
        err = abs(post.value_star - 2.0)
        assert 0.8 * 8.95e-6 < err < 1.2 * 8.95e-6

    def test_zero_field_rejected(self, systems):
        sys = systems("square", 0, 1)
        num_t = len(sys.mesh.triangles)
        with pytest.raises(Exception):
            rayleigh_eigenvalue(
                sys, np.zeros((num_t, sys.ref.n_p)), np.zeros((num_t, sys.ref.n_rt))
            )


class TestCompiledMaps:
    """The per-class postprocessing maps against the reference loops."""

    @pytest.mark.parametrize("domain,level,k,case,tau", [
        ("square", 1, 0, "equal", "one"), ("square", 2, 1, "equal", "one"),
        ("lshape", 1, 2, "equal", "h"), ("square", 1, 3, "equal", "invh"),
        ("square", 1, 2, "case1", "one"), ("lshape", 0, 1, "case2", "h"),
    ])
    def test_postprocess_matches_reference(self, systems, eigenpairs,
                                           domain, level, k, case, tau):
        sys = systems(domain, level, k, tau, case)
        _, pairs = eigenpairs(domain, level, k, tau, case, m=3)
        for pair in pairs:
            fields = recover_fields(sys, pair)
            post = postprocess(sys, fields)
            u_star, q_star, lam_star = reference_postprocess(sys, fields)
            assert_rel_close(post.u_star, u_star)
            for ops, members in sys.class_groups:
                assert_rel_close(flux_values(ops, post.q_star[members]),
                                 flux_values(ops, q_star[members]))
            assert post.value_star == pytest.approx(lam_star, rel=1e-12)

    @given(
        corners=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        log_size=st.floats(-2.0, 1.0),
        diag=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        corr=st.floats(-0.9, 0.9),
        tau=st.floats(1e-6, 1e4),
        k=st.integers(0, 3),
        case=st.sampled_from(["equal", "case1", "case2"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_element(self, corners, log_size, diag, corr, tau, k, case, seed):
        # random affine triangle (no sliver), SPD material, tau in (0, 1e4]
        case = case if k >= 1 else "equal"
        verts = np.array(corners).reshape(3, 2)
        e1, e2, e3 = verts[1] - verts[0], verts[2] - verts[1], verts[0] - verts[2]
        area = 0.5 * (e1[0] * -e3[1] - e1[1] * -e3[0])
        # shape quality 4 sqrt(3) area / sum of squared edges: 1 when equilateral
        assume(abs(area) > 0.05)
        assume(4 * np.sqrt(3) * abs(area) > 0.2 * (e1 @ e1 + e2 @ e2 + e3 @ e3))
        verts = 10.0**log_size * (verts if area > 0 else verts[[0, 2, 1]])
        a11, a22 = diag
        mat = MaterialSpec(a11, corr * np.sqrt(a11 * a22), a22)
        ops = element_ops(verts, SpaceConfig(k, case), TauSpec.constant(tau), mat)

        # local operator properties: a_loc symmetric PSD, Uw SPD
        scale = np.abs(ops.a_loc).max()
        assert np.abs(ops.a_loc - ops.a_loc.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(ops.a_loc).min() >= -1e-12 * scale
        uw = ops.uwmat
        assert np.abs(uw - uw.T).max() <= 1e-12 * np.abs(uw).max()
        assert np.linalg.eigvalsh(0.5 * (uw + uw.T)).min() > 0

        # the compiled maps on a one-class "system" of four elements
        rng = np.random.default_rng(seed)
        eta_loc = rng.standard_normal((4, ops.n_trace))
        fields = types.SimpleNamespace(
            eta=None, u=rng.standard_normal((4, ops.n_w)), q=rng.standard_normal((4, ops.n_v))
        )
        sys = types.SimpleNamespace(
            ref=ops.ref, class_groups=[(ops, np.arange(4))], local_trace=lambda eta: eta_loc
        )
        u_star, q_star = postprocess_u(sys, fields), postprocess_q(sys, fields)
        assert_rel_close(u_star, reference_u_star(ops, fields.u, fields.q))
        assert_rel_close(flux_values(ops, q_star),
                         flux_values(ops, reference_q_star(ops, eta_loc, fields.u, fields.q)))
        # random fields are no eigenpair: the two numerator terms can cancel,
        # so lambda* is compared relative to their magnitudes
        energy, pairing, mass = reference_rayleigh_terms(ops, u_star, q_star)
        lam_star = rayleigh_eigenvalue(sys, u_star, q_star)
        assert abs(lam_star - (energy + pairing) / mass) <= 1e-12 * (energy + abs(pairing)) / mass
