"""Structured triangular meshes of the two test domains.

Both initial meshes come from a 4x4 grid of squares, each split into two
triangles by its positively sloped diagonal; the L-shaped domain drops
the squares inside the cut-out corner.  Refinement subdivides every
triangle into four congruent children through the edge midpoints, so the
mesh size halves per level and element shapes never degrade.
"""

import numpy as np

from .errors import ConfigError

__all__ = [
    "Mesh",
    "build_square_mesh",
    "build_lshape_mesh",
    "refine",
]


class Mesh:
    """Conforming triangulation with full edge connectivity.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counterclockwise vertex triples
    edges : (E, 2) int array, each row sorted, rows in lexicographic order
    elem_edges : (T, 3) int array; local edge l of a triangle joins its
        local vertices l and (l+1) % 3
    boundary : (E,) bool array
    h_K : (T,) per-element diameter (longest edge)
    h : global mesh size, max of h_K
    level : refinement count from the initial mesh
    domain : 'square', 'lshape', or None
    """

    def __init__(self, vertices, triangles, level=0, domain=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.level = int(level)
        self.domain = domain
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")

        p = self.vertices[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("all triangles must be counterclockwise")
        self.areas = 0.5 * cross

        # unique sorted vertex pairs in lexicographic order, keyed lo * V + hi
        a, b = self.triangles.ravel(), self.triangles[:, [1, 2, 0]].ravel()
        num_v = len(self.vertices)
        keys, inverse = np.unique(np.minimum(a, b) * num_v + np.maximum(a, b), return_inverse=True)
        self.edges = np.column_stack(np.divmod(keys, num_v))
        self.elem_edges = inverse.reshape(-1, 3)

        counts = np.bincount(self.elem_edges.ravel(), minlength=len(self.edges))
        if counts.max() > 2 or counts.min() < 1:
            raise ValueError("mesh is not conforming")
        self.boundary = counts == 1

        lengths = np.linalg.norm(
            self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]], axis=1
        )
        self.edge_lengths = lengths
        self.h_K = lengths[self.elem_edges].max(axis=1)
        self.h = float(self.h_K.max())

        for arr in (self.vertices, self.triangles, self.edges, self.elem_edges,
                    self.boundary, self.h_K, self.areas, self.edge_lengths):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_interior_edges(self):
        return int(np.count_nonzero(~self.boundary))

    @property
    def num_boundary_edges(self):
        return int(np.count_nonzero(self.boundary))

    @property
    def total_area(self):
        return float(self.areas.sum())

    @property
    def spacing(self):
        """Structured grid spacing: the shortest edge length.

        On these meshes every element has two axis-aligned edges of this
        length and a diagonal sqrt(2) times longer; the benchmark tables
        for the mesh-size stabilization variants are pinned to this
        quantity rather than to the element diameter.
        """
        return float(self.edge_lengths.min())

    def locate(self, point):
        """Index of the first triangle containing ``point`` (tol 1e-12)."""
        point = np.asarray(point, dtype=float)
        p0 = self.vertices[self.triangles[:, 0]]
        b = np.stack(
            [
                self.vertices[self.triangles[:, 1]] - p0,
                self.vertices[self.triangles[:, 2]] - p0,
            ],
            axis=2,
        )
        rhs = point - p0
        bary = np.linalg.solve(b, rhs[:, :, None])[:, :, 0]
        ok = (bary[:, 0] >= -1e-12) & (bary[:, 1] >= -1e-12) & (
            bary.sum(axis=1) <= 1.0 + 1e-12
        )
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            raise ValueError("point %s is outside the mesh" % (point,))
        return int(hits[0])


def _grid_mesh(n, spacing, keep_cell):
    """Triangulate an n x n grid of squares, keeping cells where keep_cell."""
    vid = -np.ones((n + 1, n + 1), dtype=np.int64)
    vertices = []
    triangles = []

    def vertex(i, j):
        if vid[i, j] < 0:
            vid[i, j] = len(vertices)
            vertices.append((i * spacing, j * spacing))
        return vid[i, j]

    for j in range(n):
        for i in range(n):
            if not keep_cell(i, j):
                continue
            v00 = vertex(i, j)
            v10 = vertex(i + 1, j)
            v11 = vertex(i + 1, j + 1)
            v01 = vertex(i, j + 1)
            # positively sloped diagonal from (i, j) to (i+1, j+1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return np.array(vertices, dtype=float), np.array(triangles, dtype=np.int64)


def build_square_mesh(level):
    """Uniform mesh of the square (0, pi)^2 after ``level`` refinements.

    The initial mesh has 32 triangles; every refinement multiplies the
    count by four.  Levels up to at least 6 fit comfortably in memory.
    """
    level = _check_level(level)
    verts, tris = _grid_mesh(4, np.pi / 4.0, lambda i, j: True)
    mesh = Mesh(verts, tris, level=0, domain="square")
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def build_lshape_mesh(level):
    """Mesh of the L-shaped domain (0,2)^2 minus (1,2)^2 after refinements.

    The cut-out corner is the upper-right quadrant; the reentrant corner
    vertex (1, 1) is present at every level.
    """
    level = _check_level(level)
    verts, tris = _grid_mesh(4, 0.5, lambda i, j: not (i >= 2 and j >= 2))
    mesh = Mesh(verts, tris, level=0, domain="lshape")
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def _check_level(level):
    level = int(level)
    if level < 0:
        raise ConfigError("refinement level must be nonnegative")
    return level


def refine(mesh):
    """Subdivide every triangle into four through the edge midpoints."""
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    verts = np.vstack([mesh.vertices, mids])
    offset = mesh.num_vertices
    m01 = offset + mesh.elem_edges[:, 0]
    m12 = offset + mesh.elem_edges[:, 1]
    m20 = offset + mesh.elem_edges[:, 2]
    v0, v1, v2 = mesh.triangles.T
    children = np.empty((4 * mesh.num_triangles, 3), dtype=np.int64)
    children[0::4] = np.column_stack([v0, m01, m20])
    children[1::4] = np.column_stack([m01, v1, m12])
    children[2::4] = np.column_stack([m20, m12, v2])
    children[3::4] = np.column_stack([m01, m12, m20])
    return Mesh(verts, children, level=mesh.level + 1, domain=mesh.domain)

