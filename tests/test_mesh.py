import numpy as np
import pytest

from hdgeig.mesh import (
    Mesh,
    build_lshape_mesh,
    build_square_mesh,
    refine,
)


def reference_locate(mesh, point):
    """``Mesh.locate`` as a batched solve with each element's Jacobian, the
    index of the first hit or None."""
    point, p = np.asarray(point, dtype=float), mesh.vertices[mesh.triangles]
    b = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    bary = np.linalg.solve(b, (point - p[:, 0])[:, :, None])[:, :, 0]
    hits = np.flatnonzero((bary >= -1e-12).all(axis=1) & (bary.sum(axis=1) <= 1.0 + 1e-12))
    return int(hits[0]) if hits.size else None


def total_area(mesh):
    p = mesh.vertices[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return float(0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]).sum())


class TestSquareMesh:
    def test_level0_counts(self):
        m = build_square_mesh(0)
        assert m.num_triangles == 32
        assert m.num_vertices == 25
        assert len(m.edges) == 56
        assert np.count_nonzero(m.boundary) == 16
        assert np.count_nonzero(~m.boundary) == 40

    def test_level2_count(self):
        assert build_square_mesh(2).num_triangles == 512

    def test_area(self):
        m = build_square_mesh(0)
        assert abs(total_area(m) - np.pi**2) < 1e-12 * np.pi**2

    def test_euler_relation(self):
        for level in range(3):
            m = build_square_mesh(level)
            assert m.num_vertices - len(m.edges) + m.num_triangles == 1

    def test_negative_level(self):
        with pytest.raises(ValueError):
            build_square_mesh(-1)


class TestLshapeMesh:
    def test_level0_counts(self):
        # 4x4 grid minus the 4 cut-out squares: 24 triangles; vertex and
        # edge counts pinned by the Euler relation V - E + T = 1
        m = build_lshape_mesh(0)
        assert m.num_triangles == 24
        assert m.num_vertices == 21
        assert len(m.edges) == 44
        assert np.count_nonzero(m.boundary) == 16
        assert np.count_nonzero(~m.boundary) == 28
        assert m.num_vertices - len(m.edges) + m.num_triangles == 1

    def test_level1_count(self):
        assert build_lshape_mesh(1).num_triangles == 96

    def test_area(self):
        assert abs(total_area(build_lshape_mesh(0)) - 3.0) < 1e-12 * 3.0

    def test_reentrant_corner_present(self):
        for level in range(3):
            m = build_lshape_mesh(level)
            d = np.linalg.norm(m.vertices - np.array([1.0, 1.0]), axis=1)
            assert d.min() < 1e-14

    def test_no_vertex_inside_cutout(self):
        m = build_lshape_mesh(1)
        inside = (m.vertices[:, 0] > 1 + 1e-12) & (m.vertices[:, 1] > 1 + 1e-12)
        assert not inside.any()


class TestRefine:
    def test_matches_direct_build(self):
        refined = refine(build_square_mesh(0))
        direct = build_square_mesh(1)
        assert refined.num_triangles == direct.num_triangles
        assert refined.num_vertices == direct.num_vertices
        # same triangles as coordinate sets, up to renumbering
        def canon(mesh):
            tri_pts = mesh.vertices[mesh.triangles].round(12)
            keys = [tuple(sorted(map(tuple, t))) for t in tri_pts]
            return sorted(keys)
        assert canon(refined) == canon(direct)

    def test_h_halves(self):
        m = build_square_mesh(0)
        h0 = m.spacing
        for level in range(1, 4):
            m = refine(m)
            assert m.spacing == pytest.approx(h0 / 2**level, rel=1e-14)

    def test_counts_multiply_by_four(self):
        m = build_lshape_mesh(0)
        m1 = refine(m)
        assert m1.num_triangles == 4 * m.num_triangles

    def test_edge_slot_counting(self):
        m = refine(build_lshape_mesh(0))
        interior = np.count_nonzero(~m.boundary)
        assert 3 * m.num_triangles == 2 * interior + np.count_nonzero(m.boundary)

    def test_boundary_edges_on_domain_boundary(self):
        m = refine(build_lshape_mesh(0))
        for e in np.flatnonzero(m.boundary):
            a, b = m.vertices[m.edges[e]]
            mid = 0.5 * (a + b)
            on_outer = (
                abs(mid[0]) < 1e-12 or abs(mid[1]) < 1e-12
                or abs(mid[0] - 2) < 1e-12 or abs(mid[1] - 2) < 1e-12
            )
            on_reentrant = (
                (abs(mid[0] - 1) < 1e-12 and mid[1] > 1) or
                (abs(mid[1] - 1) < 1e-12 and mid[0] > 1)
            )
            assert on_outer or on_reentrant


class TestMeshInvariants:
    @pytest.mark.parametrize("build,level", [
        (build_square_mesh, 0), (build_square_mesh, 1),
        (build_lshape_mesh, 0), (build_lshape_mesh, 2),
    ])
    def test_edge_slot_identity(self, build, level):
        m = build(level)
        interior = np.count_nonzero(~m.boundary)
        assert 3 * m.num_triangles == 2 * interior + np.count_nonzero(m.boundary)

    def test_ccw_orientation_enforced(self):
        verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            Mesh(verts, np.array([[0, 1, 2]]))

    def test_elem_edges_incidence(self):
        # local edge l of every triangle is the global edge joining its
        # vertices l and l+1; boundary edges have one element, others two
        m = build_lshape_mesh(1)
        local = m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)
        assert np.array_equal(m.edges[m.elem_edges], np.sort(local, axis=2))
        counts = np.bincount(m.elem_edges.ravel(), minlength=len(m.edges))
        assert np.array_equal(counts, np.where(m.boundary, 1, 2))

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("build", [build_square_mesh, build_lshape_mesh])
    def test_edges_match_row_unique(self, build, level):
        # the 1-D key lo * V + hi against a unique over sorted vertex-pair rows
        m = build(level)
        raw = np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        edges, inverse = np.unique(raw, axis=0, return_inverse=True)
        assert m.edges.dtype == edges.dtype and np.array_equal(m.edges, edges)
        assert np.array_equal(m.elem_edges, inverse.reshape(-1, 3))

    def test_locate(self):
        m = build_square_mesh(0)
        e = m.locate((np.pi / 2 - 0.01, np.pi / 2 - 0.01))
        assert 0 <= e < m.num_triangles
        with pytest.raises(ValueError):
            m.locate((-1.0, -1.0))

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("build", [build_square_mesh, build_lshape_mesh])
    def test_locate_matches_the_batched_solve(self, build, level):
        # random points inside elements, on their edges, on vertices, and
        # in a box around the domain: the L-shape's cut-out and the
        # outside give the "outside" error on both routes
        m = build(level)
        rng = np.random.default_rng(level)
        rows, face = np.arange(30), rng.integers(3, size=30)
        corners = m.vertices[m.triangles[rng.integers(m.num_triangles, size=30)]]
        inside = np.einsum("pi,pid->pd", rng.dirichlet(np.ones(3), size=30), corners)
        start, end = corners[rows, face], corners[rows, (face + 1) % 3]
        on_edges = start + rng.random((30, 1)) * (end - start)
        on_vertices = m.vertices[rng.integers(m.num_vertices, size=30)]
        lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
        around = lo + (hi - lo) * rng.uniform(-0.25, 1.25, size=(60, 2))
        outside = 0
        for point in np.concatenate([inside, on_edges, on_vertices, around]):
            want = reference_locate(m, point)
            if want is None:
                outside += 1
                with pytest.raises(ValueError, match="outside the mesh"):
                    m.locate(point)
            else:
                assert m.locate(point) == want
        assert outside >= 10

