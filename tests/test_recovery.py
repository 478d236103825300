import numpy as np
import pytest

from hdgeig.errors import EigenSolveError
from hdgeig.recovery import (
    eig_residuals,
    postprocess,
    postprocess_q,
    postprocess_u,
    qstar_normal_jumps,
    rayleigh_eigenvalue,
    recover_fields,
)


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
        assert fields.norm_u == pytest.approx(1.0, abs=1e-12)

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

    def test_zero_trace_is_degenerate(self, systems):
        sys = systems("square", 0, 1)

        class Fake:
            value = 2.0
            vector = np.zeros(sys.ndof)

        with pytest.raises(EigenSolveError):
            recover_fields(sys, Fake())


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
            area = ops.area
            assert np.abs(mean_star - mean_u).max() < 1e-12 * np.sqrt(area)

    def test_benchmark_error_level2(self, recovered):
        from hdgeig.study import eigenfunction_error, exact_square_spectrum

        sys, fields = recovered("square", 2, 1)
        out = postprocess_u(sys, fields)
        mode = exact_square_spectrum(1)[0]
        err = eigenfunction_error(sys, out, mode)
        assert 0.8 * 1.44e-4 < err < 1.2 * 1.44e-4


class TestPostprocessQ:
    def test_normal_jumps_vanish(self, recovered):
        sys, fields = recovered()
        q_star = postprocess_q(sys, fields)
        assert qstar_normal_jumps(sys, q_star) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_local_system_nonsingular(self, systems, k):
        sys = systems("square", 0, k)
        for ops in sys.classes:
            ops.rt_ops  # factorization succeeds

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
        pts = sys.volume_points()
        for ops, members in sys.class_groups:
            vals = qfun(pts[members][:, :, 0], pts[members][:, :, 1])
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
        pts = sys.volume_points()
        ufun = lambda x, y: np.sin(x) * np.sin(y)
        gfun = lambda x, y: np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)], axis=-1)
        for ops, members in sys.class_groups:
            pops = ops.p_ops
            rt = ops.rt_ops
            uvals = ufun(pts[members][:, :, 0], pts[members][:, :, 1])
            u_star[members] = np.einsum("q,eq,qj->ej", ops.wq, uvals, pops["vals"])
            gvals = -gfun(pts[members][:, :, 0], pts[members][:, :, 1])
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
