import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import element_ops
from hdgeig.errors import ConfigError, LocalSolveError
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import build_square_mesh
from test_assembly import CORRELATION, DIAGONAL, JACOBIAN, SEED, drawn_jacobian, drawn_material

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def lift_equation_terms(ops, mu, mat, part=lambda a: a):
    """Both defining equations of the trace lift, assembled by a fresh
    quadrature loop: per equation the list of its terms, vectors over the
    test functions that sum to zero.  With ``part=np.abs`` every factor
    is replaced by its absolute value, so the terms bound the round-off of
    the sums."""
    q = part(ops.qmat) @ part(mu)
    u = part(ops.umat) @ part(mu)
    qv = np.einsum("qid,i->qd", part(ops.v_vals), q)
    uv = part(ops.w_vals) @ u
    terms_a = [np.einsum("q,qd,dc,qic->i", ops.wq, qv, part(mat.c), part(ops.v_vals)),
               -np.einsum("q,q,qi->i", ops.wq, uv, part(ops.v_divs))]
    terms_b = [np.einsum("q,q,qi->i", ops.wq, part(ops.v_divs) @ q, part(ops.w_vals))]
    for l in range(3):
        muv = part(ops.t_face[l]) @ part(mu[l * ops.n_m : (l + 1) * ops.n_m])
        terms_a.append(np.einsum("g,g,gi->i", ops.face_wq[l], muv, part(ops.v_normal[l])))
        uvf = part(ops.w_face[l]) @ u
        for sign, vals in ((1.0, uvf), (-1.0, muv)):
            terms_b.append(sign * ops.tau * np.einsum(
                "g,g,gi->i", ops.face_wq[l], vals, part(ops.w_face[l])))
    return terms_a, terms_b


def load_lift_terms(ops, f, mat, part=lambda a: a):
    """Same for the load lift with f given by local coefficients."""
    q = part(ops.qwmat) @ part(f)
    u = part(ops.uwmat) @ part(f)
    qv = np.einsum("qid,i->qd", part(ops.v_vals), q)
    terms_a = [np.einsum("q,qd,dc,qic->i", ops.wq, qv, part(mat.c), part(ops.v_vals)),
               -np.einsum("q,q,qi->i", ops.wq, part(ops.w_vals) @ u, part(ops.v_divs))]
    terms_b = [np.einsum("q,q,qi->i", ops.wq, part(ops.v_divs) @ q, part(ops.w_vals)),
               -np.einsum("q,q,qi->i", ops.wq, part(ops.w_vals) @ part(f), part(ops.w_vals))]
    for l in range(3):
        uvf = part(ops.w_face[l]) @ u
        terms_b.append(ops.tau * np.einsum("g,g,gi->i", ops.face_wq[l], uvf,
                                           part(ops.w_face[l])))
    return terms_a, terms_b


def lift_equation_residuals(ops, mu, mat):
    """Max residual of the trace lift's equations over all test functions."""
    return max(np.abs(sum(terms)).max() for terms in lift_equation_terms(ops, mu, mat))


def load_lift_residuals(ops, f, mat):
    """Max residual of the load lift's equations over all test functions."""
    return max(np.abs(sum(terms)).max() for terms in load_lift_terms(ops, f, mat))


def assert_round_off(terms, bounds, rtol=1e-12):
    """An equation's residual is round-off: at most ``rtol`` times the sum
    its terms would have with every factor replaced by its absolute value."""
    assert np.abs(sum(terms)).max() <= rtol * np.abs(bounds).sum(axis=0).max()


class TestConfigTypes:
    def test_tau_variants(self):
        assert TauSpec.one().face_value() == 1.0
        assert TauSpec.constant(2.5).face_value() == 2.5
        assert TauSpec.zero().face_value() == 0.0
        assert TauSpec.zero() == TauSpec.constant(0.0)
        assert TauSpec.global_h().face_value(h=0.25) == 0.25
        assert TauSpec.inverse_global_h().face_value(h=0.25) == 4.0

    def test_tau_validation(self):
        with pytest.raises(ConfigError):
            TauSpec.constant(-1.0)
        with pytest.raises(ConfigError):
            TauSpec.constant(float("nan"))
        with pytest.raises(ConfigError):
            TauSpec("bogus")
        with pytest.raises(ConfigError):
            TauSpec.global_h().face_value()  # mesh size missing

    def test_material_validation(self):
        with pytest.raises(ConfigError):
            MaterialSpec(-1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            MaterialSpec(1.0, 2.0, 1.0)  # indefinite
        mat = MaterialSpec(2.0, 0.3, 1.5)
        assert np.abs(mat.c @ mat.alpha - np.eye(2)).max() < 1e-14

    def test_space_cases(self):
        assert SpaceConfig(2).k_w == 2 and SpaceConfig(2).k_v == 2
        assert SpaceConfig(2, "case1").k_w == 1 and SpaceConfig(2, "case1").k_v == 2
        assert SpaceConfig(2, "case2").k_w == 2 and SpaceConfig(2, "case2").k_v == 1
        with pytest.raises(ConfigError):
            SpaceConfig(0, "case1")
        with pytest.raises(ConfigError):
            SpaceConfig(2, "case3")

    def test_solvability_rules(self):
        SpaceConfig(1).validate_tau(TauSpec.one())
        SpaceConfig(1, "case1").validate_tau(TauSpec.zero())  # BDM
        with pytest.raises(ConfigError):
            SpaceConfig(1).validate_tau(TauSpec.zero())
        with pytest.raises(ConfigError):
            SpaceConfig(1, "case2").validate_tau(TauSpec.zero())


class TestElementLift:
    @pytest.mark.parametrize("case,k", [
        ("equal", 0), ("equal", 1), ("equal", 2), ("equal", 3),
        ("case1", 1), ("case1", 2), ("case2", 2),
    ])
    @given(jac=JACOBIAN, diag=DIAGONAL, corr=CORRELATION,
           tau=st.floats(0.0, 1e4, exclude_min=True), seed=SEED)
    def test_lift_equations_hold(self, case, k, jac, diag, corr, tau, seed):
        # random affine element, SPD material, tau in (0, 1e4]: either the
        # local saddle system is refused as singular (equal and case2
        # spaces need tau > 0, and tiny tau is singular in floating point)
        # or both lifts solve their equations to round-off
        rng = np.random.default_rng(seed)
        spaces = SpaceConfig(k, case)
        mat = drawn_material(diag, corr)
        try:
            ops = element_ops(REF @ drawn_jacobian(jac).T + 0.2, spaces,
                              TauSpec.constant(tau), mat)
        except LocalSolveError:
            assume(False)
        mu = rng.standard_normal(ops.n_trace)
        f = rng.standard_normal(ops.n_w)
        for equations in (lambda part: lift_equation_terms(ops, mu, mat, part),
                          lambda part: load_lift_terms(ops, f, mat, part)):
            for terms, bounds in zip(equations(lambda a: a), equations(np.abs)):
                assert_round_off(terms, bounds)

    def test_lift_equations_every_element_level0(self):
        mesh = build_square_mesh(0)
        mat = MaterialSpec.identity()
        rng = np.random.default_rng(0)
        for k in (0, 1, 2):
            spaces = SpaceConfig(k)
            mu = rng.standard_normal(3 * (k + 1))
            for t in range(mesh.num_triangles):
                ops = element_ops(
                    mesh.vertices[mesh.triangles[t]], spaces, TauSpec.one(), mat,
                    element=t,
                )
                assert lift_equation_residuals(ops, mu, mat) < 1e-11

    def test_uw_self_adjoint(self):
        # the local bases are orthonormal, so the mass matrix is I
        uw = element_ops(REF, SpaceConfig(2), TauSpec.one()).uwmat
        assert np.abs(uw - uw.T).max() < 1e-12 * np.abs(uw).max()

    def test_constants_reproduce_k0(self):
        ops = element_ops(REF * 0.7, SpaceConfig(0), TauSpec.one())
        const = 3.7
        mu = np.concatenate(
            [const * np.sqrt(ops.edge_lens[l]) * np.ones(1) for l in range(3)]
        )
        u = ops.umat @ mu
        q = ops.qmat @ mu
        assert abs((ops.w_vals @ u)[0] - const) < 1e-12
        assert np.abs(q).max() < 1e-12

    def test_degenerate_element_reported(self):
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])
        with pytest.raises(LocalSolveError, match="element 7"):
            element_ops(sliver, SpaceConfig(1), TauSpec.one(), element=7)

    def test_affine_covariance_translations(self):
        spaces = SpaceConfig(2)
        tau = TauSpec.one()
        a = element_ops(REF * 0.8, spaces, tau)
        b = element_ops(REF * 0.8 + np.array([1.3, -0.4]), spaces, tau)
        for attr in ("qmat", "umat", "qwmat", "uwmat"):
            assert np.abs(getattr(a, attr) - getattr(b, attr)).max() < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_uw_norm_shrinks_quadratically(self, k):
        # spectral radius of the scalar load lift scales like the element
        # diameter squared once the penalty is scaled with 1/h_K (which
        # pins the penalty-dependent prefactor of the bound); the ratio
        # across one refinement must sit in [3.5, 4.5]
        spaces = SpaceConfig(k)
        rhos = []
        for scale in (1.0, 0.5):
            h_k = np.sqrt(2) * scale
            ops = element_ops(REF * scale, spaces, TauSpec.constant(1.0 / h_k))
            rhos.append(np.abs(np.linalg.eigvalsh(ops.uwmat)).max())
        assert 3.5 < rhos[0] / rhos[1] < 4.5


class TestUwInverse:
    """ElementOps.resolvent builds (I - lam * Uw)^-1 through the spectrum
    of Uw, so it is exact to round-off."""

    def test_identity_at_zero(self):
        ops = element_ops(REF, SpaceConfig(1), TauSpec.one())
        w = np.arange(1.0, ops.n_w + 1)
        assert np.abs(ops.resolvent(0.0) @ w - w).max() <= 1e-14 * np.abs(w).max()

    def test_round_trip(self):
        ops = element_ops(REF, SpaceConfig(1), TauSpec.one())
        rng = np.random.default_rng(9)
        w = rng.standard_normal(ops.n_w)
        x = ops.resolvent(1.0) @ w
        back = (np.eye(ops.n_w) - 1.0 * ops.uwmat) @ x
        assert np.abs(back - w).max() < 1e-12 * max(1.0, np.abs(w).max())

    def test_against_dense_inverse(self):
        ops = element_ops(REF, SpaceConfig(2), TauSpec.one())
        rng = np.random.default_rng(10)
        w = rng.standard_normal(ops.n_w)
        x = ops.resolvent(2.0) @ w
        dense = np.linalg.inv(np.eye(ops.n_w) - 2.0 * ops.uwmat) @ w
        assert np.abs(x - dense).max() < 1e-11

    def test_error_beyond_invertibility(self):
        ops = element_ops(REF, SpaceConfig(1), TauSpec.one())
        rho = np.abs(np.linalg.eigvalsh(ops.uwmat)).max()
        with pytest.raises(LocalSolveError):
            ops.resolvent(1.0 / rho)

    @pytest.mark.parametrize("factor", [1.5, 10.0])
    def test_error_past_the_wall(self, factor):
        # past the first resonance I - lam Uw is indefinite: no eigenvalue
        # there is represented, however well conditioned the matrix may be
        ops = element_ops(REF, SpaceConfig(2), TauSpec.one())
        rho = np.linalg.eigvalsh(ops.uwmat).max()
        with pytest.raises(LocalSolveError):
            ops.resolvent(factor / rho)
        with pytest.raises(LocalSolveError):
            ops.resolvent_gap(factor / rho)

    def test_gap_is_the_spectrum_of_the_shifted_matrix(self):
        ops = element_ops(REF, SpaceConfig(2), TauSpec.one())
        lam = 0.5 / np.linalg.eigvalsh(ops.uwmat).max()
        want = np.linalg.eigvalsh(np.eye(ops.n_w) - lam * ops.uwmat)
        np.testing.assert_allclose(np.sort(ops.resolvent_gap(lam)), want, rtol=1e-13)


def per_face_operators(ops, mat):
    """The face-coupled operators of an element, built one face at a time
    from the reference bases and the element's own edges, by the per-face
    loops the face axis replaced: a reference independent of every face
    array of ``ops``."""
    ref, tau, scale = ops.ref, ops.tau, np.sqrt(ops.det)
    s = ref.edge.points.ravel()
    acc = np.kron(mat.c, np.eye(ref.n_v1))
    a_loc = ops.qmat.T @ acc @ ops.qmat
    cmat, emat, rt_moments, eta, pairing = [], [], [], [], 0.0
    for l in range(3):
        a, b = REF[l], REF[(l + 1) % 3]
        pts = a + s[:, None] * (b - a)
        tangent = ops.bmat @ (b - a)
        length = np.linalg.norm(tangent)
        normal = np.array([tangent[1], -tangent[0]]) / length
        fw = ref.edge.weights * length
        w = ref.wbasis.tabulate(pts)[0] / scale
        sv = ref.vbasis.tabulate(pts)[0] / scale
        vn = np.concatenate([sv * normal[0], sv * normal[1]], axis=1)
        t = ref.tbasis.tabulate(s) / np.sqrt(length)
        p = ref.pbasis.tabulate(pts)[0] / scale
        rtn = ops.rt_tabulate(pts) @ normal
        cmat.append(np.einsum("e,ei,em->im", fw, vn, t))
        emat.append(tau * np.einsum("e,ei,em->im", fw, w, t))
        mvals = np.zeros((len(s), ops.n_trace))
        mvals[:, l * ops.n_m:(l + 1) * ops.n_m] = t
        diff = w @ ops.umat - mvals
        a_loc = a_loc + tau * np.einsum("e,ei,ej->ij", fw, diff, diff)
        rt_moments.append(rtn.T @ (fw[:, None] * t))
        eta.append(-tau * t.T @ (fw[:, None] * t))
        pairing = pairing + rtn.T @ (fw[:, None] * p)
    rt_moments = np.hstack(rt_moments)
    # the eta rows of post_q: the face moments of q*.n take the eta part
    # -tau eta of the numerical flux; the interior moments take nothing
    system = [rt_moments.T]
    if ref.spaces.k >= 1:
        ivals = ops.wq[:, None] * ref.i_vals / scale
        system += [ivals.T @ ops.rt_ops["vol_vals"][:, :, d] for d in range(2)]
    system = np.vstack(system)
    rhs = np.zeros((len(system), ops.n_trace))
    rhs[:ops.n_trace] = scipy.linalg.block_diag(*eta).T
    post_q_eta = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), rhs).T
    return {"a_loc": a_loc, "cmat": np.hstack(cmat), "emat": np.hstack(emat),
            "rt_moments": rt_moments, "post_q_eta": post_q_eta, "pairing": pairing}


class TestFaceAxis:
    """Every face tabulation is one (3, n_g, n) array, and the operators
    contracted over the face axis are those of the per-face loops."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_face_arrays_have_a_face_axis(self, k):
        ops = element_ops(REF @ np.array([[1.0, 0.3], [-0.2, 0.8]]).T, SpaceConfig(k),
                          TauSpec.one())
        ref, n_g = ops.ref, len(ops.ref.edge)
        shapes = {
            "ref.face_ref_pts": (ref.face_ref_pts, 2),
            "ref.w_face": (ref.w_face, ref.n_w),
            "ref.v_face": (ref.v_face, ref.n_v1),
            "ref.p_face": (ref.p_face, ref.n_p),
            "w_face": (ops.w_face, ops.n_w),
            "v_normal": (ops.v_normal, ops.n_v),
            "t_face": (ops.t_face, ops.n_m),
            "p_ops face": (ops.p_ops["face"], ref.n_p),
            "rt_ops face_normal": (ops.rt_ops["face_normal"], ref.n_rt),
        }
        for name, (vals, n) in shapes.items():
            assert isinstance(vals, np.ndarray) and vals.shape == (3, n_g, n), name
        assert isinstance(ops.face_wq, np.ndarray) and ops.face_wq.shape == (3, n_g)

    @pytest.mark.parametrize("case,k", [
        ("equal", 0), ("equal", 1), ("equal", 2), ("equal", 3),
        ("case1", 1), ("case1", 2), ("case2", 2),
    ])
    @given(jac=JACOBIAN, diag=DIAGONAL, corr=CORRELATION, tau=st.floats(1e-3, 1e3))
    def test_operators_match_per_face_loops(self, case, k, jac, diag, corr, tau):
        mat = drawn_material(diag, corr)
        try:
            ops = element_ops(REF @ drawn_jacobian(jac).T + 0.2, SpaceConfig(k, case),
                              TauSpec.constant(tau), mat)
            ops.post_q
        except LocalSolveError:
            assume(False)
        want = per_face_operators(ops, mat)
        got = {"a_loc": ops.a_loc, "cmat": ops.cmat, "emat": ops.emat,
               "rt_moments": ops.rt_moments, "post_q_eta": ops.post_q[:ops.n_trace],
               "pairing": ops.rayleigh_forms[2]}
        for name, ref in want.items():
            assert np.abs(got[name] - ref).max() <= 1e-13 * np.abs(ref).max(), name
