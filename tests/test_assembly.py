import numpy as np
import pytest

from hdgeig.assembly import (
    TraceDofMap,
    assemble_condensed,
    assemble_m_of_lambda,
    assemble_source_rhs,
    load_moments,
    moment_rhs,
    resolvent_lift,
    solve_source,
)
from hdgeig.eigensolve import solve_modes
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import Mesh, build_square_mesh
from hdgeig.recovery import postprocess, recover_fields, source_residuals


class TestDofMap:
    def test_k0_level0_count(self, systems):
        assert systems("square", 0, 0).ndof == 40

    def test_k1_level1_count(self, systems):
        # interior edges at level 1: (3*128 - 32) / 2 = 176, two dofs each
        assert systems("square", 1, 1).ndof == 352

    def test_boundary_edges_carry_no_dofs(self, meshes):
        mesh = meshes("square", 0)
        dofmap = TraceDofMap(mesh, 2)
        assert (dofmap.edge_offset[mesh.boundary] == -1).all()
        offsets = dofmap.edge_offset[~mesh.boundary]
        assert sorted(offsets) == list(range(0, dofmap.ndof, 3))


class TestGlobalMatrices:
    def test_a_symmetric(self, systems):
        sys = systems("lshape", 1, 2)
        defect = np.abs(sys.A - sys.A.T).max()
        assert defect <= 1e-12 * np.abs(sys.A).max()

    def test_a_positive_definite(self, systems):
        sys = systems("square", 1, 1)
        np.linalg.cholesky(sys.A.toarray())

    def test_g_positive_semidefinite(self, systems):
        sys = systems("square", 1, 1)
        g = sys.G.toarray()
        assert np.abs(g - g.T).max() <= 1e-12 * np.abs(g).max()
        assert np.linalg.eigvalsh(g).min() > -1e-12 * np.abs(g).max()

    def test_m_at_zero_equals_gram(self, systems):
        sys = systems("square", 0, 0)
        m0 = assemble_m_of_lambda(sys, 0.0)
        assert np.abs((m0 - sys.G)).max() <= 1e-13 * np.abs(sys.G).max()

    def test_m_symmetric(self, systems):
        sys = systems("square", 1, 1)
        m = assemble_m_of_lambda(sys, 2.0)
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_m_applied_by_resolvent_lift(self, systems, lam):
        sys = systems("square", 1, 1)
        v = np.random.default_rng(7).standard_normal(sys.ndof)
        ref = assemble_m_of_lambda(sys, lam) @ v
        got = moment_rhs(sys, resolvent_lift(sys, lam, v))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_m_small_lambda_perturbation(self, systems):
        sys = systems("square", 0, 0)
        m = assemble_m_of_lambda(sys, 1e-6)
        gmax = np.abs(sys.G).max()
        assert np.abs(m - sys.G).max() / gmax < 1e-4

    def test_sparsity_pattern(self, systems):
        # nonzeros only couple dofs that share an element
        sys = systems("square", 1, 1)
        allowed = set()
        for dofs in sys.elem_dofs:
            live = dofs[dofs >= 0]
            for i in live:
                for j in live:
                    allowed.add((int(i), int(j)))
        coo = sys.A.tocoo()
        for i, j in zip(coo.row, coo.col):
            assert (int(i), int(j)) in allowed


class TestSourceRhs:
    def test_zero_source(self, systems):
        sys = systems("square", 0, 0)
        assert np.abs(assemble_source_rhs(sys, lambda x, y: 0.0 * x)).max() == 0.0

    def test_linearity(self, systems):
        sys = systems("square", 1, 1)
        f = lambda x, y: np.sin(x) * y
        g = lambda x, y: np.cos(y) + x
        b_sum = assemble_source_rhs(sys, lambda x, y: f(x, y) + g(x, y))
        b_split = assemble_source_rhs(sys, f) + assemble_source_rhs(sys, g)
        assert np.abs(b_sum - b_split).max() <= 1e-13 * np.abs(b_sum).max()

    def test_constant_source_against_independent_loop(self, meshes, systems):
        # recompute (1, U mu) edge by edge with a fresh per-element loop
        sys = systems("square", 0, 0)
        mesh = meshes("square", 0)
        b = assemble_source_rhs(sys, lambda x, y: np.ones_like(x))
        expected = np.zeros(sys.ndof)
        fmom = load_moments(sys, lambda x, y: np.ones_like(x))
        for t in range(mesh.num_triangles):
            ops = sys.classes[sys.elem_class[t]]
            local = fmom[t] @ ops.umat
            for j in range(sys.elem_dofs.shape[1]):
                dof = sys.elem_dofs[t, j]
                if dof >= 0:
                    expected[dof] += local[j] * sys.elem_signs[t, j]
        assert np.abs(b - expected).max() < 1e-12 * max(np.abs(b).max(), 1.0)


class TestSolveSource:
    def test_zero_data(self, systems):
        sys = systems("square", 0, 1)
        eta, u, q = solve_source(sys, lambda x, y: 0.0 * x)
        assert np.abs(eta).max() == 0.0
        assert np.abs(u).max() == 0.0
        assert np.abs(q).max() == 0.0

    def test_full_system_residual_random_source(self, systems):
        sys = systems("square", 1, 1)
        f = lambda x, y: np.sin(3 * x) * np.cos(y) + 0.3 * x * y
        eta, u, q = solve_source(sys, f)
        res = source_residuals(sys, eta, u, q, f)
        assert max(res.values()) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("level", [0, 1])
    def test_condensation_equivalence_random_sources(self, systems, k, level):
        # recovered triples satisfy all three discretized equations
        rng = np.random.default_rng(17 + k + level)
        sys = systems("square", level, k)
        for _ in range(4):
            coef = rng.standard_normal(4)
            f = lambda x, y: (
                coef[0] + coef[1] * np.sin(x + 0.3 * y)
                + coef[2] * x * y + coef[3] * np.cos(2 * y)
            )
            eta, u, q = solve_source(sys, f)
            res = source_residuals(sys, eta, u, q, f)
            assert max(res.values()) < 1e-10

    def test_manufactured_solution_convergence(self, systems):
        # -div grad (sin x sin y) = 2 sin x sin y: the scalar error must
        # shrink by about 2^3 per level at quadratic degree
        f = lambda x, y: 2.0 * np.sin(x) * np.sin(y)
        errors = []
        for level in (1, 2, 3):
            sys = systems("square", level, 2)
            _, u, _ = solve_source(sys, f)
            pts, wq = sys.error_rule
            vals = np.einsum("qi,ei->eq", sys.ref.w_err, u) / sys.w_scale()[:, None]
            exact = np.sin(pts[:, :, 0]) * np.sin(pts[:, :, 1])
            errors.append(np.sqrt(np.sum(wq * (vals - exact) ** 2)))
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert all(abs(r - 3.0) < 0.25 for r in rates)


_CLASS_TAUS = {"one": TauSpec.one(), "h": TauSpec.global_h(), "local_h": TauSpec.local_h()}


class TestCongruenceClasses:
    @pytest.mark.parametrize("tau", sorted(_CLASS_TAUS))
    @pytest.mark.parametrize("level", range(4))
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_class_map(self, meshes, domain, level, tau):
        mesh = meshes(domain, level)
        spec = _CLASS_TAUS[tau]
        sys = assemble_condensed(mesh, SpaceConfig(0), spec)
        tau_el = np.array([spec.face_value(h=mesh.spacing, h_k=h) for h in mesh.h_K])
        count = np.zeros(mesh.num_triangles, dtype=int)
        for ops, members in sys.class_groups:
            count[members] += 1
            assert np.abs(sys.bmats[members] - ops.bmat).max() <= 1e-12
            assert np.abs(tau_el[members, None] - ops.tau).max() <= 1e-12
        assert (count == 1).all()
        for i, a in enumerate(sys.classes):
            for b in sys.classes[i + 1:]:
                assert max(np.abs(a.bmat - b.bmat).max(), np.abs(a.tau - b.tau).max()) > 1e-12
        # reference: a per-element loop keyed by the rounded Jacobian bytes
        # and tau, numbering classes by first occurrence
        keys = {}
        for t in range(mesh.num_triangles):
            key = (np.round(sys.bmats[t], 12).tobytes(), round(tau_el[t], 12))
            keys.setdefault(key, len(keys))
            assert sys.elem_class[t] == keys[key]
        assert len(sys.classes) == level + 2

    def test_class_count_level6(self):
        sys = assemble_condensed(build_square_mesh(6), SpaceConfig(0), TauSpec.one())
        assert len(sys.classes) == 6
        assert sum(members.size for _, members in sys.class_groups) == 131072


def _signed_permutation(mesh, permuted, vperm):
    """Map dofs of `mesh` onto dofs of `permuted` given the vertex map."""
    k = 1
    dof_a = TraceDofMap(mesh, k)
    dof_b = TraceDofMap(permuted, k)
    edge_ids = {tuple(e): i for i, e in enumerate(map(tuple, permuted.edges))}
    perm = np.empty(dof_a.ndof, dtype=int)
    sign = np.empty(dof_a.ndof)
    for e in np.flatnonzero(~mesh.boundary):
        a, b = mesh.edges[e]
        pa, pb = vperm[a], vperm[b]
        flip = pa > pb
        eb = edge_ids[(min(pa, pb), max(pa, pb))]
        src = dof_a.edge_offset[e]
        dst = dof_b.edge_offset[eb]
        for m in range(k + 1):
            perm[src + m] = dst + m
            sign[src + m] = (-1.0) ** m if flip else 1.0
    return perm, sign


def _renumbered(mesh, seed=4):
    """The mesh with randomly permuted vertex and triangle numbering and
    rotated triangle vertex lists, and the vertex map used."""
    rng = np.random.default_rng(seed)
    vperm = rng.permutation(mesh.num_vertices)
    tris = vperm[mesh.triangles]
    tris = tris[rng.permutation(len(tris))]
    tris = np.stack([np.roll(t, rng.integers(3)) for t in tris])
    permuted = Mesh(mesh.vertices[np.argsort(vperm)], tris, level=mesh.level,
                    domain=mesh.domain)
    return permuted, vperm


class TestInvariances:
    def test_renumbering_leaves_forms_invariant(self, meshes):
        mesh = meshes("square", 0)
        permuted, vperm = _renumbered(mesh)

        spaces = SpaceConfig(1)
        sys_a = assemble_condensed(mesh, spaces, TauSpec.one())
        sys_b = assemble_condensed(permuted, spaces, TauSpec.one())
        perm, sign = _signed_permutation(mesh, permuted, vperm)
        for mat_a, mat_b in ((sys_a.A, sys_b.A), (sys_a.G, sys_b.G)):
            dense_a = (sign[:, None] * sign[None, :]) * mat_a.toarray()
            dense_b = mat_b.toarray()[np.ix_(perm, perm)]
            assert np.abs(dense_a - dense_b).max() <= 1e-10 * np.abs(dense_a).max()

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_renumbering_leaves_spectrum_invariant(self, meshes, k):
        # the edge parity signs and the local trace gather feed the flux
        # reconstruction, so lambda* checks them beyond the assembled forms
        values = []
        for mesh in (meshes("square", 2), _renumbered(meshes("square", 2))[0]):
            sys = assemble_condensed(mesh, SpaceConfig(k), TauSpec.one())
            pairs = solve_modes(sys, 6)
            values.append([(p.value, postprocess(sys, recover_fields(sys, p)).value_star)
                           for p in pairs])
        base, permuted = np.array(values)
        assert np.all(np.abs(permuted - base) <= 1e-10 * base)

    def test_coefficient_scaling_law(self, meshes):
        # scaling (alpha, tau) -> (s alpha, s tau) multiplies the
        # stiffness form by s and leaves the lift Gram form unchanged
        mesh = meshes("square", 0)
        spaces = SpaceConfig(1)
        s = 3.0
        base = assemble_condensed(mesh, spaces, TauSpec.one(), MaterialSpec.identity())
        scaled = assemble_condensed(
            mesh, spaces, TauSpec.constant(s), MaterialSpec.isotropic(s)
        )
        assert np.abs(scaled.A - s * base.A).max() <= 1e-10 * np.abs(base.A).max()
        assert np.abs(scaled.G - base.G).max() <= 1e-10 * np.abs(base.G).max()
