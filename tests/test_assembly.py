import itertools

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given
from hypothesis import strategies as st

from hdgeig.assembly import (
    assemble_condensed,
    assemble_m_of_lambda,
    assemble_source_rhs,
    dissection_keys,
    load_moments,
    resolvent_lift,
    solve_source,
)
from hdgeig.eigensolve import solve_modes
from hdgeig.localsolve import MaterialSpec, SpaceConfig, TauSpec
from hdgeig.mesh import Mesh, build_lshape_mesh, build_square_mesh
from hdgeig.recovery import postprocess, recover_fields, source_residuals


# --- class-loop references for the compiled sparse maps ---------------------


_REFERENCE_EDGES = {}


def reference_edges(mesh):
    """The reference numbering of a mesh, from its vertex lists alone: the
    trace block of each interior edge (an edge of two triangles), keyed by
    its sorted vertex pair, and per face (T, 3) that block (-1 on boundary
    faces) and whether the element runs against the edge's ascending
    vertex order.  Blocks follow the edges' nested-dissection keys
    (depth, region), ties in ascending order of the vertex pairs.

    Computed once per mesh; the cache keeps the mesh alive, so its id is
    not reused by another."""
    if id(mesh) not in _REFERENCE_EDGES:
        faces = [[(tri[l], tri[(l + 1) % 3]) for l in range(3)]
                 for tri in mesh.triangles.tolist()]
        count = {}
        for a, b in (face for tri in faces for face in tri):
            edge = (min(a, b), max(a, b))
            count[edge] = count.get(edge, 0) + 1
        interior = [edge for edge in sorted(count) if count[edge] == 2]
        depth, region = dissection_keys(mesh)
        rank = np.empty(len(interior), dtype=int)
        rank[np.lexsort((region, depth))] = np.arange(len(interior))
        blocks = dict(zip(interior, rank.tolist()))
        face_blocks = np.array([[blocks.get((min(a, b), max(a, b)), -1) for a, b in tri]
                                for tri in faces])
        flipped = np.array([[a > b for a, b in tri] for tri in faces])
        _REFERENCE_EDGES[id(mesh)] = (mesh, blocks, face_blocks, flipped)
    return _REFERENCE_EDGES[id(mesh)][1:]


def reference_trace_dofs(mesh, k):
    """Per-element trace dof ids (T, 3(k+1)), -1 on boundary faces, and face
    signs: k+1 consecutive dofs per edge block of ``reference_edges``, and
    mode m of a face negated by (-1)^m where the element runs against the
    edge's ascending vertex order."""
    _, face_blocks, flipped = reference_edges(mesh)
    modes = np.arange(k + 1)
    dofs = np.where(face_blocks[:, :, None] >= 0,
                    (k + 1) * face_blocks[:, :, None] + modes, -1)
    signs = np.where(flipped[:, :, None], (-1.0) ** modes, 1.0)
    return dofs.reshape(len(dofs), -1), signs.reshape(len(dofs), -1)


def reference_local_trace(sys, eta):
    """Signed element-local face blocks of a trace, element by element."""
    dofs, signs = reference_trace_dofs(sys.mesh, sys.spaces.k)
    return np.where(dofs >= 0, eta[dofs], 0.0) * signs


def reference_moment_rhs(sys, fmom):
    """sum_K (f_K, U_K mu) for load moments (T, n_w), element class by class."""
    dofs, signs = reference_trace_dofs(sys.mesh, sys.spaces.k)
    local = np.empty(dofs.shape)
    for ops, members in sys.class_groups:
        local[members] = fmom[members] @ ops.umat
    out = np.zeros(sys.ndof)
    mask = dofs >= 0
    np.add.at(out, dofs[mask], (local * signs)[mask])
    return out


def reference_lift(sys, eta):
    """Per-element scalar lift U eta (T, n_w), element class by class."""
    eta_loc = reference_local_trace(sys, eta)
    u = np.empty((len(sys.mesh.triangles), sys.n_w))
    for ops, members in sys.class_groups:
        u[members] = eta_loc[members] @ ops.umat.T
    return u


def reference_class_cores(sys, core_fn):
    """Per-class (d, d) blocks core_fn(ops), signed and summed into a
    sparse (ndof, ndof) matrix, element class by element class."""
    elem_dofs, elem_signs = reference_trace_dofs(sys.mesh, sys.spaces.k)
    rows, cols, vals = [], [], []
    for ops, members in sys.class_groups:
        core = core_fn(ops)
        signs = elem_signs[members]
        dofs = elem_dofs[members]
        blocks = np.einsum("ij,ei,ej->eij", core, signs, signs)
        valid = dofs >= 0
        mask = valid[:, :, None] & valid[:, None, :]
        d = dofs.shape[1]
        rows.append(np.broadcast_to(dofs[:, :, None], (members.size, d, d))[mask])
        cols.append(np.broadcast_to(dofs[:, None, :], (members.size, d, d))[mask])
        vals.append(blocks[mask])
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sys.ndof, sys.ndof),
    )


def reference_m_of_lambda(sys, lam):
    """M(lam) assembled from per-class blocks U^T (I - lam Uw)^-1 U, each
    with a dense local solve."""
    return reference_class_cores(sys, lambda ops: ops.umat.T @ np.linalg.solve(
        np.eye(ops.n_w) - lam * ops.uwmat, ops.umat))


# strategies of the property tests: a random affine map I + J of a
# reference geometry, an SPD material, a stabilization and a space
JACOBIAN = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)
DOMAIN = st.sampled_from(["square", "lshape"])
DIAGONAL = st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
CORRELATION = st.floats(-0.9, 0.9)
TAU = st.floats(1e-3, 1e3)
DEGREE = st.integers(0, 3)
CASE = st.sampled_from(["equal", "case1", "case2"])
SEED = st.integers(0, 2**32 - 1)


def drawn_jacobian(jac):
    """I + J for a drawn J; draws with det(I + J) <= 0.25 are rejected."""
    jac = np.eye(2) + np.reshape(jac, (2, 2))
    assume(np.linalg.det(jac) > 0.25)
    return jac


def drawn_material(diag, corr):
    """SPD material with the drawn diagonal and correlation coefficient."""
    a11, a22 = diag
    return MaterialSpec(a11, corr * np.sqrt(a11 * a22), a22)


def assert_rel_close(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestDofMap:
    def test_k0_level0_count(self, systems):
        assert systems("square", 0, 0).ndof == 40

    def test_k1_level1_count(self, systems):
        # interior edges at level 1: (3*128 - 32) / 2 = 176, two dofs each
        assert systems("square", 1, 1).ndof == 352

    def test_boundary_edges_carry_no_dofs(self, systems):
        # boundary-face rows of the gather are empty, every other row holds
        # one +-1 entry
        sys = systems("lshape", 1, 2)
        n_m = sys.ref.n_m
        on_boundary = np.repeat(sys.mesh.boundary[sys.mesh.elem_edges].ravel(), n_m)
        per_row = np.diff(sys.gather.indptr)
        assert (per_row[on_boundary] == 0).all() and (per_row[~on_boundary] == 1).all()
        assert sys.ndof == n_m * sys.mesh.num_interior_edges

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_columns_pair_two_elements(self, systems, domain, k):
        # every trace dof is one face mode shared by exactly two elements
        gather = systems(domain, 1, k).gather.tocsc()
        assert (np.diff(gather.indptr) == 2).all()
        assert (np.abs(gather.data) == 1.0).all()
        elements = (gather.indices // (3 * (k + 1))).reshape(-1, 2)
        assert (elements[:, 0] != elements[:, 1]).all()

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("level", [0, 2])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_gather_matches_element_loop(self, systems, domain, level, k):
        sys = systems(domain, level, k)
        eta = np.random.default_rng(level + k).standard_normal(sys.ndof)
        assert np.array_equal(sys.local_trace(eta), reference_local_trace(sys, eta))
        dofs, _ = reference_trace_dofs(sys.mesh, k)
        assert sys.ndof == dofs.max() + 1


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
        got = sys.moments @ resolvent_lift(sys, lam, v).ravel()
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
        for dofs in reference_trace_dofs(sys.mesh, 1)[0]:
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
        elem_dofs, elem_signs = reference_trace_dofs(mesh, 0)
        for t in range(mesh.num_triangles):
            ops = sys.classes[sys.elem_class[t]]
            local = fmom[t] @ ops.umat
            for j in range(elem_dofs.shape[1]):
                dof = elem_dofs[t, j]
                if dof >= 0:
                    expected[dof] += local[j] * elem_signs[t, j]
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
            err2 = 0.0
            for ops, members, pts in sys.class_points(sys.ref.err.points):
                vals = u[members] @ sys.ref.w_err.T / np.sqrt(ops.det)
                exact = np.sin(pts[:, :, 0]) * np.sin(pts[:, :, 1])
                err2 += ops.det * np.sum(sys.ref.err.weights * (vals - exact) ** 2)
            errors.append(np.sqrt(err2))
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
        bmats = np.stack([mesh.vertices[tri[1:]] - mesh.vertices[tri[0]] for tri in mesh.triangles])
        bmats = bmats.transpose(0, 2, 1)
        count = np.zeros(mesh.num_triangles, dtype=int)
        for ops, members in sys.class_groups:
            count[members] += 1
            assert np.abs(bmats[members] - ops.bmat).max() <= 1e-12
            assert np.abs(tau_el[members, None] - ops.tau).max() <= 1e-12
        assert (count == 1).all()
        for i, a in enumerate(sys.classes):
            for b in sys.classes[i + 1:]:
                assert max(np.abs(a.bmat - b.bmat).max(), np.abs(a.tau - b.tau).max()) > 1e-12
        # reference: a per-element loop keyed by the rounded Jacobian bytes
        # and tau, numbering classes by first occurrence
        keys = {}
        for t in range(mesh.num_triangles):
            key = (np.round(bmats[t], 12).tobytes(), round(tau_el[t], 12))
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
    blocks_a, blocks_b = reference_edges(mesh)[0], reference_edges(permuted)[0]
    perm = np.empty((k + 1) * len(blocks_a), dtype=int)
    sign = np.empty(perm.size)
    for (a, b), block in blocks_a.items():
        pa, pb = vperm[a], vperm[b]
        flip = pa > pb
        src = (k + 1) * block
        dst = (k + 1) * blocks_b[min(pa, pb), max(pa, pb)]
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


class TestCompiledOperators:
    """The sparse lift, moment map and resolvent form against the class
    loops, on affinely mapped, renumbered meshes."""

    @staticmethod
    def mapped_system(jac, domain, diag, corr, tau, k, case, seed):
        """Condensed system on the level-0 mesh renumbered by ``seed`` and
        mapped by I + ``jac``."""
        case = case if k >= 1 else "equal"
        build = build_square_mesh if domain == "square" else build_lshape_mesh
        renumbered, _ = _renumbered(build(0), seed)
        mesh = Mesh(renumbered.vertices @ drawn_jacobian(jac).T, renumbered.triangles,
                    domain=domain)
        return assemble_condensed(mesh, SpaceConfig(k, case), TauSpec.constant(tau),
                                  drawn_material(diag, corr))

    @given(jac=JACOBIAN, domain=DOMAIN, diag=DIAGONAL, corr=CORRELATION, tau=TAU,
           k=DEGREE, case=CASE, seed=SEED)
    def test_against_class_loops(self, jac, domain, diag, corr, tau, k, case, seed):
        sys = self.mapped_system(jac, domain, diag, corr, tau, k, case, seed)
        mesh = sys.mesh

        rng = np.random.default_rng(seed)
        fmom = rng.standard_normal((len(mesh.triangles), sys.n_w))
        eta = rng.standard_normal(sys.ndof)
        assert_rel_close(sys.moments @ fmom.ravel(), reference_moment_rhs(sys, fmom))
        assert_rel_close((sys.lift @ eta).reshape(fmom.shape), reference_lift(sys, eta))
        rho = max(np.linalg.eigvalsh(ops.uwmat).max() for ops in sys.classes)
        assert sys.wall == pytest.approx(1.0 / rho, rel=1e-12)
        for kappa in (0.0, 0.5 * sys.wall):
            assert_rel_close(assemble_m_of_lambda(sys, kappa).toarray(),
                             reference_m_of_lambda(sys, kappa).toarray())
        reference_a = reference_class_cores(sys, lambda ops: ops.a_loc)
        assert_rel_close(sys.A.toarray(), reference_a.toarray())

    @given(jac=JACOBIAN, domain=DOMAIN, diag=DIAGONAL, corr=CORRELATION, tau=TAU,
           k=DEGREE, case=CASE, seed=SEED)
    def test_resolvent_form_grows_below_the_wall(self, jac, domain, diag, corr, tau, k,
                                                 case, seed):
        # dM/dkappa = U^T R W R U with R = (I - kappa W)^-1 and W SPD, so
        # x . M(kappa) x grows with kappa; the frozen pencil's theta_i(kappa)
        # and the secant's bracket rest on that
        sys = self.mapped_system(jac, domain, diag, corr, tau, k, case, seed)
        x = np.random.default_rng(seed).standard_normal(sys.ndof)
        grid = np.linspace(0.0, 0.9 * sys.wall, 12)
        forms = np.array([x @ (sys.moments @ resolvent_lift(sys, kappa, x).ravel())
                          for kappa in grid])
        assert forms[0] > 0
        assert np.all(np.diff(forms) >= -1e-13 * forms.max())


class TestDissectionOrder:
    """The nested-dissection numbering of the trace unknowns, read off the
    gather, on renumbered meshes and on affinely mapped ones."""

    @staticmethod
    def check_numbering(sys):
        mesh, n_m = sys.mesh, sys.ref.n_m
        depth, region = dissection_keys(mesh)
        interior = np.flatnonzero(~mesh.boundary)
        # mode m of each interior edge at the column of its gather rows
        gather = sys.gather.tocoo()
        face, mode = np.divmod(gather.row, n_m)
        dofs = np.full((len(mesh.edges), n_m), -1)
        dofs[mesh.elem_edges.ravel()[face], mode] = gather.col
        dofs = dofs[interior]
        # a permutation of 0..ndof-1 that keeps each edge's k+1 dofs
        # together and in mode order, edges in ascending (depth, region)
        # with ties in edge order
        assert np.array_equal(dofs, dofs[:, :1] + np.arange(n_m))
        assert np.array_equal(np.sort(dofs.ravel()), np.arange(sys.ndof))
        assert np.array_equal(np.argsort(dofs[:, 0]), np.lexsort((region, depth)))
        # on every element, the separator regions of its interior edges are
        # nested, so the edges a separator splits apart share no element
        position = np.full(len(mesh.edges), -1)
        position[interior] = np.arange(interior.size)
        local = position[mesh.elem_edges]
        for l1, l2 in itertools.permutations(range(3), 2):
            i, j = local[:, l1], local[:, l2]
            both = (i >= 0) & (j >= 0)
            i, j = i[both], j[both]
            inner = depth[i] <= depth[j]
            i, j = i[inner], j[inner]
            assert np.array_equal(region[i] >> (depth[j] - depth[i]), region[j])

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_renumbered_meshes(self, meshes, domain, level, k):
        mesh, _ = _renumbered(meshes(domain, level), seed=level)
        self.check_numbering(assemble_condensed(mesh, SpaceConfig(k), TauSpec.one()))

    @given(jac=JACOBIAN, domain=DOMAIN, k=DEGREE, seed=SEED)
    def test_mapped_meshes(self, jac, domain, k, seed):
        self.check_numbering(TestCompiledOperators.mapped_system(
            jac, domain, (1.0, 1.0), 0.0, 1.0, k, "equal", seed))
