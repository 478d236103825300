import math

import numpy as np
import pytest

from hdgeig import basis
from hdgeig.errors import ConfigError
from hdgeig.localsolve import SpaceConfig, TauSpec, element_lift

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
AFFINE = np.array([[0.2, -0.1], [1.7, 0.3], [0.4, 2.2]])


def exact_tri_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestTriangleQuadrature:
    def test_area(self):
        rule = basis.triangle_quadrature(0)
        assert np.isclose(rule.weights.sum(), 0.5, rtol=1e-15)

    def test_low_order_monomials(self):
        rule = basis.triangle_quadrature(2)
        x, y = rule.points.T
        assert np.isclose(np.sum(rule.weights * x), 1 / 6, rtol=1e-14)
        assert np.isclose(np.sum(rule.weights * x * y), 1 / 24, rtol=1e-14)

    def test_degree_five_monomial(self):
        rule = basis.triangle_quadrature(5)
        x, y = rule.points.T
        assert np.isclose(np.sum(rule.weights * x**3 * y**2), 1 / 420, rtol=1e-13)

    @pytest.mark.parametrize("order", range(0, 21, 2))
    def test_exactness_all_monomials(self, order):
        rule = basis.triangle_quadrature(order)
        x, y = rule.points.T
        for a in range(order + 1):
            for b in range(order + 1 - a):
                got = np.sum(rule.weights * x**a * y**b)
                assert got == pytest.approx(exact_tri_monomial(a, b), rel=1e-13)

    def test_weights_positive(self):
        for order in range(0, 21):
            assert basis.triangle_quadrature(order).weights.min() > 0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            basis.triangle_quadrature(21)
        with pytest.raises(ValueError):
            basis.triangle_quadrature(-1)

    def test_mapped_rule_area(self, systems):
        # the mapped volume weights sum to the element areas, and the
        # per-class mapping of the error rule matches each element's own map
        e1, e2 = AFFINE[1] - AFFINE[0], AFFINE[2] - AFFINE[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        ops = element_lift(AFFINE, SpaceConfig(1), TauSpec.one())
        assert np.isclose(ops.wq.sum(), area, rtol=1e-12)
        sys = systems("lshape", 1, 1)
        verts = sys.mesh.vertices[sys.mesh.triangles]
        for ops, members, pts in sys.class_points(sys.ref.err.points):
            assert np.allclose(ops.det * sys.ref.err.weights.sum(), sys.mesh.areas[members],
                               rtol=1e-12, atol=0)
            own = np.stack([verts[members, 1] - verts[members, 0],
                            verts[members, 2] - verts[members, 0]], axis=2)
            want = verts[members, None, 0] + np.einsum("eab,qb->eqa", own, sys.ref.err.points)
            assert np.abs(pts - want).max() < 1e-12


class TestEdgeQuadrature:
    def test_constant(self):
        rule = basis.edge_quadrature(0)
        assert np.isclose(rule.weights.sum(), 1.0, rtol=1e-15)

    def test_examples(self):
        rule = basis.edge_quadrature(2)
        s = rule.points.ravel()
        assert np.isclose(np.sum(rule.weights * s**2), 1 / 3, rtol=1e-14)
        rule = basis.edge_quadrature(5)
        s = rule.points.ravel()
        assert np.isclose(np.sum(rule.weights * s**5), 1 / 6, rtol=1e-14)

    def test_exactness_sweep(self):
        for order in range(21):
            rule = basis.edge_quadrature(order)
            s = rule.points.ravel()
            for d in range(order + 1):
                assert np.sum(rule.weights * s**d) == pytest.approx(
                    1.0 / (d + 1), rel=1e-13
                )


class TestScalarBasis:
    @pytest.mark.parametrize("k", range(5))
    def test_dimension(self, k):
        vals, grads = basis.eval_scalar_basis(k, np.array([[0.3, 0.2]]))
        assert vals.shape == (1, (k + 1) * (k + 2) // 2)
        assert grads.shape == (1, (k + 1) * (k + 2) // 2, 2)

    def test_k0_constant(self):
        vals, grads = basis.eval_scalar_basis(0, np.array([[0.1, 0.1], [0.5, 0.2]]))
        assert np.allclose(vals[0], vals[1])
        assert np.allclose(grads, 0.0)

    def test_k1_constant_gradients(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.3], [0.2, 0.6]])
        _, grads = basis.eval_scalar_basis(1, pts)
        assert np.allclose(grads[0], grads[1]) and np.allclose(grads[0], grads[2])

    @pytest.mark.parametrize("k", range(5))
    def test_gram_identity(self, k):
        rule = basis.triangle_quadrature(2 * k + 2)
        vals, _ = basis.eval_scalar_basis(k, rule.points)
        gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
        np.linalg.cholesky(gram)  # positive definite
        assert np.abs(gram - np.eye(vals.shape[1])).max() < 1e-13

    def test_gram_condition_reported(self):
        assert basis.scalar_basis(3).gram_condition > 1.0

    @pytest.mark.parametrize("k", range(5))
    def test_gradients_against_finite_differences(self, k):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.05, 0.4, size=(10, 2))
        step = 1e-6
        _, grads = basis.eval_scalar_basis(k, pts)
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = step
            vp, _ = basis.eval_scalar_basis(k, pts + shift)
            vm, _ = basis.eval_scalar_basis(k, pts - shift)
            fd = (vp - vm) / (2 * step)
            assert np.abs(fd - grads[:, :, d]).max() < 1e-6

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            basis.eval_scalar_basis(5, np.array([[0.1, 0.1]]))


def random_affine_triangle(rng):
    """Counterclockwise triangle with a Jacobian determinant of at least 0.2."""
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(det) >= 0.2:
            return verts if det > 0 else verts[[0, 2, 1]]


class TestVectorBasis:
    """The flux tabulation of ElementOps: [P_k]^2, component-major."""

    @pytest.mark.parametrize("k", range(4))
    def test_dimension(self, k):
        ops = element_lift(AFFINE, SpaceConfig(k), TauSpec.one())
        n_v = (k + 1) * (k + 2)
        assert ops.n_v == n_v
        assert ops.v_vals.shape[1:] == (n_v, 2)
        assert ops.v_divs.shape[1] == n_v
        assert all(vn.shape[1] == n_v for vn in ops.v_normal)

    def test_divergence_consistency(self):
        # element Green identity (div v, w) + (v, grad w) = <v.n, w> for every
        # flux member v and scalar member w, on random affine elements
        rng = np.random.default_rng(5)
        for k in range(5):
            for _ in range(3):
                ops = element_lift(random_affine_triangle(rng), SpaceConfig(k),
                                   TauSpec.one())
                vol = np.einsum("q,qi,qj->ij", ops.wq, ops.v_divs, ops.w_vals)
                vol += np.einsum("q,qid,qjd->ij", ops.wq, ops.v_vals, ops.w_grads)
                bnd = sum(
                    np.einsum("g,gi,gj->ij", ops.face_wq[l], ops.v_normal[l], ops.w_face[l])
                    for l in range(3)
                )
                assert np.abs(vol - bnd).max() < 1e-11 * max(1.0, np.abs(bnd).max())


class TestRTBasis:
    """The flux postprocessing space [P_k]^2 + x P_k of ElementOps.rt_ops."""

    def test_dimensions(self):
        for k in range(4):
            ops = element_lift(AFFINE, SpaceConfig(k), TauSpec.one())
            rt = ops.rt_ops
            n_rt = (k + 1) * (k + 3)
            assert rt["vol_vals"].shape[1:] == (n_rt, 2)
            assert all(fn.shape[1] == n_rt for fn in rt["face_normal"])
            assert ops.post_q.shape == (ops.n_trace + ops.n_w + ops.n_v, n_rt)

    def test_unsupported_degree(self):
        with pytest.raises(ConfigError):
            element_lift(REF, SpaceConfig(4), TauSpec.one()).rt_ops

    @pytest.mark.parametrize("k", range(4))
    def test_divergence_against_finite_differences(self, k):
        # [P_k]^2 members take their divergence from the scalar gradients;
        # the x-part d m(d / h_K), m homogeneous of degree k, has divergence
        # (k + 2) m by Euler's identity
        ops = element_lift(AFFINE, SpaceConfig(k), TauSpec.one())
        ref = ops.ref
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.05, 0.4, size=(10, 2))
        n_qs = ref.qsbasis.dim
        sgrad = np.einsum("qib,ba->qia", ref.qsbasis.tabulate(pts)[1], ops.binv)
        sgrad /= np.sqrt(ops.det)
        want = np.zeros((len(pts), ref.n_rt))
        want[:, :n_qs] = sgrad[:, :, 0]
        want[:, n_qs : 2 * n_qs] = sgrad[:, :, 1]
        ds = (pts - 1.0 / 3.0) @ ops.bmat.T / ops.h_k
        for j, (a, b) in enumerate(ref.rt_homog):
            want[:, 2 * n_qs + j] = (k + 2) * ds[:, 0] ** a * ds[:, 1] ** b
        step = 1e-6
        fd = np.zeros_like(want)
        for d in range(2):
            shift = step * ops.binv[:, d]  # reference image of a physical step
            vp = ops.rt_tabulate(pts + shift)
            vm = ops.rt_tabulate(pts - shift)
            fd += (vp[:, :, d] - vm[:, :, d]) / (2 * step)
        assert np.abs(fd - want).max() < 1e-7 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("k", range(4))
    def test_reference_gram_full_rank(self, k):
        ops = element_lift(REF, SpaceConfig(k), TauSpec.one())
        vals = ops.rt_ops["vol_vals"]
        gram = np.einsum("q,qid,qjd->ij", ops.wq, vals, vals)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == ops.ref.n_rt

    @pytest.mark.parametrize("k", range(4))
    def test_edge_normal_trace_in_pk(self, k):
        # v . n restricted to each face is a polynomial of degree k in the
        # face parameter: the least-squares fit at the k + 3 face quadrature
        # points leaves no residual
        ops = element_lift(AFFINE, SpaceConfig(k), TauSpec.one())
        vander = np.vander(ops.ref.face_s, k + 1, increasing=True)
        for vn in ops.rt_ops["face_normal"]:
            coef = np.linalg.lstsq(vander, vn, rcond=None)[0]
            assert np.abs(vander @ coef - vn).max() < 1e-10 * max(1.0, np.abs(vn).max())
