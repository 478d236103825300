import numpy as np
import pytest

from hdgeig.errors import ConfigError, LocalSolveError
from hdgeig.localsolve import (
    MaterialSpec,
    SpaceConfig,
    TauSpec,
    element_lift,
)
from hdgeig.mesh import build_square_mesh

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def lift_equation_residuals(ops, mu, mat):
    """Assemble both defining equations of the trace lift by a fresh
    quadrature loop and return their max residuals over all test funcs."""
    q = ops.qmat @ mu
    u = ops.umat @ mu
    c = mat.c
    qv = np.einsum("qid,i->qd", ops.v_vals, q)
    uv = ops.w_vals @ u
    res_a = np.einsum("q,qd,dc,qic->i", ops.wq, qv, c, ops.v_vals)
    res_a -= np.einsum("q,q,qi->i", ops.wq, uv, ops.v_divs)
    res_b = np.einsum("q,q,qi->i", ops.wq, ops.v_divs @ q, ops.w_vals)
    for l in range(3):
        muv = ops.t_face[l] @ mu[l * ops.n_m : (l + 1) * ops.n_m]
        res_a += np.einsum("g,g,gi->i", ops.face_wq[l], muv, ops.v_normal[l])
        uvf = ops.w_face[l] @ u
        res_b += ops.tau[l] * np.einsum(
            "g,g,gi->i", ops.face_wq[l], uvf - muv, ops.w_face[l]
        )
    return max(np.abs(res_a).max(), np.abs(res_b).max())


def load_lift_residuals(ops, f, mat):
    """Same check for the load lift with f given by local coefficients."""
    q = ops.qwmat @ f
    u = ops.uwmat @ f
    c = mat.c
    qv = np.einsum("qid,i->qd", ops.v_vals, q)
    res_a = np.einsum("q,qd,dc,qic->i", ops.wq, qv, c, ops.v_vals)
    res_a -= np.einsum("q,q,qi->i", ops.wq, ops.w_vals @ u, ops.v_divs)
    fv = ops.w_vals @ f
    res_b = np.einsum("q,q,qi->i", ops.wq, ops.v_divs @ q - fv, ops.w_vals)
    for l in range(3):
        uvf = ops.w_face[l] @ u
        res_b += ops.tau[l] * np.einsum("g,g,gi->i", ops.face_wq[l], uvf, ops.w_face[l])
    return max(np.abs(res_a).max(), np.abs(res_b).max())


class TestConfigTypes:
    def test_tau_variants(self):
        assert TauSpec.one().face_value() == 1.0
        assert TauSpec.constant(2.5).face_value() == 2.5
        assert TauSpec.zero().face_value() == 0.0
        assert TauSpec.global_h().face_value(h=0.25) == 0.25
        assert TauSpec.inverse_global_h().face_value(h=0.25) == 4.0
        assert TauSpec.local_h().face_value(h_k=0.5) == 0.5
        assert TauSpec.inverse_local_h().face_value(h_k=0.5) == 2.0

    def test_tau_validation(self):
        with pytest.raises(ConfigError):
            TauSpec.constant(-1.0)
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
    def test_lift_equations_hold(self, case, k):
        rng = np.random.default_rng(42 + k)
        spaces = SpaceConfig(k, case)
        mat = MaterialSpec(2.0, 0.3, 1.5)
        ops = element_lift(REF * 1.3 + 0.2, spaces, TauSpec.one(), mat)
        mu = rng.standard_normal(spaces.n_trace)
        assert lift_equation_residuals(ops, mu, mat) < 1e-11
        f = rng.standard_normal(ops.n_w)
        assert load_lift_residuals(ops, f, mat) < 1e-11

    def test_lift_equations_every_element_level0(self):
        mesh = build_square_mesh(0)
        mat = MaterialSpec.identity()
        rng = np.random.default_rng(0)
        for k in (0, 1, 2):
            spaces = SpaceConfig(k)
            mu = rng.standard_normal(spaces.n_trace)
            for t in range(mesh.num_triangles):
                ops = element_lift(
                    mesh.vertices[mesh.triangles[t]], spaces, TauSpec.one(), mat,
                    element=t,
                )
                assert lift_equation_residuals(ops, mu, mat) < 1e-11

    def test_uw_self_adjoint(self):
        # the local bases are orthonormal, so the mass matrix is I
        uw = element_lift(REF, SpaceConfig(2), TauSpec.one()).uwmat
        assert np.abs(uw - uw.T).max() < 1e-12 * np.abs(uw).max()

    def test_constants_reproduce_k0(self):
        ops = element_lift(REF * 0.7, SpaceConfig(0), TauSpec.one())
        const = 3.7
        mu = np.concatenate(
            [const * np.sqrt(ops.edge_lens[l]) * np.ones(1) for l in range(3)]
        )
        u = ops.umat @ mu
        q = ops.qmat @ mu
        assert abs((ops.w_vals @ u)[0] - const) < 1e-12
        assert np.abs(q).max() < 1e-12

    def test_bad_vertices(self):
        with pytest.raises(ConfigError):
            element_lift(np.zeros((2, 2)), SpaceConfig(1), TauSpec.one())

    def test_degenerate_element_reported(self):
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])
        with pytest.raises(LocalSolveError, match="element 7"):
            element_lift(sliver, SpaceConfig(1), TauSpec.one(), element=7)

    def test_affine_covariance_translations(self):
        spaces = SpaceConfig(2)
        tau = TauSpec.one()
        a = element_lift(REF * 0.8, spaces, tau)
        b = element_lift(REF * 0.8 + np.array([1.3, -0.4]), spaces, tau)
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
            ops = element_lift(REF * scale, spaces, TauSpec.constant(1.0 / h_k))
            rhos.append(np.abs(np.linalg.eigvalsh(ops.uwmat)).max())
        assert 3.5 < rhos[0] / rhos[1] < 4.5


class TestUwInverse:
    """ElementOps.resolvent applies (I - lam * Uw)^-power through the
    spectrum of Uw, so it is exact to round-off."""

    def test_identity_at_zero(self):
        ops = element_lift(REF, SpaceConfig(1), TauSpec.one())
        w = np.arange(1.0, ops.n_w + 1)
        assert np.abs(ops.resolvent(0.0, w) - w).max() <= 1e-14 * np.abs(w).max()

    def test_round_trip(self):
        ops = element_lift(REF, SpaceConfig(1), TauSpec.one())
        rng = np.random.default_rng(9)
        w = rng.standard_normal(ops.n_w)
        x = ops.resolvent(1.0, w)
        back = (np.eye(ops.n_w) - 1.0 * ops.uwmat) @ x
        assert np.abs(back - w).max() < 1e-12 * max(1.0, np.abs(w).max())

    def test_against_dense_inverse(self):
        ops = element_lift(REF, SpaceConfig(2), TauSpec.one())
        rng = np.random.default_rng(10)
        w = rng.standard_normal(ops.n_w)
        x = ops.resolvent(2.0, w)
        dense = np.linalg.inv(np.eye(ops.n_w) - 2.0 * ops.uwmat) @ w
        assert np.abs(x - dense).max() < 1e-11

    def test_error_beyond_invertibility(self):
        ops = element_lift(REF, SpaceConfig(1), TauSpec.one())
        rho = np.abs(np.linalg.eigvalsh(ops.uwmat)).max()
        with pytest.raises(LocalSolveError):
            ops.resolvent(1.0 / rho, np.ones(ops.n_w))

    @pytest.mark.parametrize("factor", [1.5, 10.0])
    def test_error_past_the_wall(self, factor):
        # past the first resonance I - lam Uw is indefinite, with no real
        # square root, however well conditioned it may be
        ops = element_lift(REF, SpaceConfig(2), TauSpec.one())
        rho = np.linalg.eigvalsh(ops.uwmat).max()
        with pytest.raises(LocalSolveError):
            ops.resolvent(factor / rho, np.ones(ops.n_w), 0.5)

    def test_square_root(self):
        ops = element_lift(REF, SpaceConfig(2), TauSpec.one())
        lam = 0.5 / np.linalg.eigvalsh(ops.uwmat).max()
        root = ops.resolvent(lam, np.eye(ops.n_w), 0.5)
        full = np.linalg.inv(np.eye(ops.n_w) - lam * ops.uwmat)
        assert np.abs(root - root.T).max() <= 1e-14 * np.abs(root).max()
        assert np.abs(root @ root - full).max() <= 1e-12 * np.abs(full).max()
