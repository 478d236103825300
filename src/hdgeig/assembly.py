"""The signed trace gather and the compiled condensed operators.

Elements are grouped into congruence classes (translated copies share
every local matrix).  Interior edges carry k+1 consecutive trace
unknowns each, numbered in nested-dissection order (``dissection_keys``)
so that the sparse LU of the condensed stiffness fills in little;
boundary edges carry none.  One signed gather maps a
global trace vector to the element-local face slots: the sign reconciles
each element's edge parametrization with the global one fixed by
ascending vertex index.  From the per-class matrices and the gather each
system compiles, once, sparse matrices: the condensed stiffness A, the
scalar trace lift U (its transpose maps a load to the condensed
right-hand side), the block-diagonal load lift W, and on request the
resolvent (I - kappa W)^-p from one eigendecomposition of Uw per class.
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NumericalError
from .localsolve import ElementOps, MaterialSpec, reference_tables

__all__ = [
    "CondensedSystem",
    "assemble_condensed",
    "assemble_m_of_lambda",
    "assemble_source_rhs",
    "dissection_keys",
    "flux_field",
    "resolvent_lift",
    "solve_source",
]


class CondensedSystem:
    """Compiled condensed operators over two element maps: the congruence
    classes and the signed trace gather."""

    def __init__(self, mesh, spaces, tau, mat, ref, classes, elem_class, gather):
        self.mesh = mesh
        self.spaces = spaces
        self.tau = tau
        self.mat = mat
        self.ref = ref
        self.classes = classes
        self.elem_class = elem_class
        #: P, (T 3(k+1), ndof): row (t, i) holds the sign of face slot i of
        #: element t at its trace dof, and is empty on boundary faces
        self.gather = gather
        self._class_members = [
            np.flatnonzero(elem_class == c) for c in range(len(classes))
        ]
        self.A = (gather.T @ self._block_diagonal([ops.a_loc for ops in classes])
                  @ gather).tocsr()
        self._splu = None

    @property
    def class_groups(self):
        """Pairs (ElementOps, member element indices), one per class."""
        return zip(self.classes, self._class_members)

    @property
    def ndof(self):
        return self.gather.shape[1]

    @property
    def n_w(self):
        return self.ref.n_w

    @property
    def n_v(self):
        return self.ref.n_v

    @property
    def dim_w(self):
        """Dimension of the scalar space W_h."""
        return len(self.mesh.triangles) * self.n_w

    def local_trace(self, eta):
        """Signed element-local face blocks (T, 3(k+1)) of a global trace."""
        return (self.gather @ eta).reshape(len(self.mesh.triangles), -1)

    def class_points(self, points):
        """Per class: (ElementOps, members, physical points (n, n_q, 2)) of
        reference ``points``, mapped through the class Jacobian."""
        p0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        for ops, members in self.class_groups:
            yield ops, members, p0[members, None, :] + points @ ops.bmat.T

    def factorized(self):
        """Cached sparse LU of A.  A is SPD, so diagonal pivots are stable,
        and its unknowns are already numbered in nested-dissection order:
        SuperLU factors it in that order and computes none of its own."""
        if self._splu is None:
            try:
                self._splu = scipy.sparse.linalg.splu(
                    self.A.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise NumericalError("condensed matrix factorization failed: %s" % exc)
        return self._splu

    def _block_diagonal(self, blocks):
        """Sparse block-diagonal matrix with the per-class block of each element."""
        data = np.stack(blocks)[self.elem_class]
        num_t, r, c = data.shape
        return scipy.sparse.bsr_matrix(
            (data, np.arange(num_t), np.arange(num_t + 1)), shape=(num_t * r, num_t * c)
        ).tocsr()

    @cached_property
    def lift(self):
        """U: global trace to per-element scalar coefficients, (dim W_h, ndof)."""
        return self._block_diagonal([ops.umat for ops in self.classes]) @ self.gather

    @cached_property
    def moments(self):
        """U^T: per-element load coefficients to the condensed right-hand
        side (a transposed view of ``lift``, sharing its arrays)."""
        return self.lift.T

    @cached_property
    def load_lift(self):
        """W: block-diagonal scalar load lift Uw, (dim W_h, dim W_h)."""
        return self._block_diagonal([ops.uwmat for ops in self.classes])

    @cached_property
    def G(self):
        """Surrogate lift Gram matrix U^T U."""
        return (self.moments @ self.lift).tocsr()

    @cached_property
    def wall(self):
        """First resolvent resonance, where I - kappa W becomes singular; the
        condensed problem represents every eigenvalue strictly below it."""
        rho = max(float(ops.uw_spectrum[0].max()) for ops in self.classes)
        return np.inf if rho <= 0.0 else 1.0 / rho

    def resolvent(self, kappa, power=1.0):
        """Sparse block-diagonal (I - kappa W)^-power; raises
        ``LocalSolveError`` at or beyond the wall."""
        eye = np.eye(self.n_w)
        return self._block_diagonal([ops.resolvent(kappa, eye, power) for ops in self.classes])


def assemble_condensed(mesh, spaces, tau, mat=None):
    """Build the condensed system for a mesh and discretization choice."""
    mat = mat or MaterialSpec.identity()
    spaces.validate_tau(tau)
    ref = reference_tables(spaces)
    tris = mesh.triangles
    verts = mesh.vertices
    num_t = len(tris)

    p0 = verts[tris[:, 0]]
    bmats = np.stack([verts[tris[:, 1]] - p0, verts[tris[:, 2]] - p0], axis=2)

    tau_vals = np.broadcast_to(tau.face_value(h=mesh.spacing, h_k=mesh.h_K), num_t)

    # congruence classes: same Jacobian (to 12 digits) and same tau, keyed
    # by the bytes of the rounded values (so -0.0 and 0.0 differ) and
    # numbered by first occurrence
    keys = np.column_stack([np.round(bmats, 12).reshape(num_t, 4), np.round(tau_vals, 12)])
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    elem_class = np.argsort(by_first)[inverse]
    classes = [
        ElementOps(bmats[t], np.full(3, tau_vals[t]), mat, ref, element_hint=t)
        for t in first[by_first]
    ]

    # the signed gather: k+1 consecutive dofs per interior edge, edges
    # sorted by their nested-dissection keys (ties in edge order); face
    # mode m changes sign by (-1)^m where the element runs against the
    # edge's ascending vertex order
    n_m = ref.n_m
    interior = ~mesh.boundary
    depth, region = dissection_keys(mesh)
    block = np.full(len(mesh.edges), -1)
    block[np.flatnonzero(interior)[np.lexsort((region, depth))]] = np.arange(depth.size)
    cols = (n_m * block[mesh.elem_edges])[:, :, None] + np.arange(n_m)
    signs = np.where((tris > tris[:, [1, 2, 0]])[:, :, None], ref.parity, 1.0)
    live = np.repeat(interior[mesh.elem_edges].ravel(), n_m)
    gather = scipy.sparse.csr_matrix(
        (signs.ravel()[live], cols.ravel()[live], np.concatenate([[0], np.cumsum(live)])),
        shape=(live.size, n_m * depth.size),
    )
    return CondensedSystem(mesh, spaces, tau, mat, ref, classes, elem_class, gather)


def _spread_bits(x):
    """The low 26 bits of nonnegative int64 ``x`` moved to the even bit positions."""
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        x = (x | (x << shift)) & mask
    return x


def dissection_keys(mesh):
    """Nested-dissection keys (depth, region) of the interior edges, in
    edge order: a geometric dissection of the elements (George, SIAM J.
    Numer. Anal. 10 (1973)) read off Morton codes, for any mesh.

    Each element gets the Morton code of its centroid, 26 bits per axis on
    the centroids' bounding box.  The codes that agree from bit ``d`` up
    form a region, which bit d-1 splits in two halves.  An interior edge
    between elements with codes a <= b, depth = bit_length(a ^ b), joins
    the two halves of the region ``a >> depth``: it lies on that region's
    separator.  A trace dof couples only to the edges of its two elements,
    and each of those lies inside a half, on the same separator or on the
    separator of an enclosing region, so numbering the edges in ascending
    (depth, region) puts each separator after everything inside its region.
    """
    centroids = mesh.vertices[mesh.triangles].sum(axis=1) / 3.0
    lo = centroids.min(axis=0)
    span = centroids.max(axis=0) - lo
    # 26 bits per axis keep the codes below 2^52: the xor of two converts
    # to float64 exactly, and np.frexp gives its bit length
    scale = (2 ** 26 - 1) / np.where(span > 0.0, span, 1.0)
    grid = ((centroids - lo) * scale).astype(np.int64)
    code = (_spread_bits(grid[:, 1]) << 1) | _spread_bits(grid[:, 0])

    faces, codes = mesh.elem_edges.ravel(), np.repeat(code, 3)
    a = np.full(len(mesh.edges), code.max())
    b = np.zeros(len(mesh.edges), dtype=np.int64)
    np.minimum.at(a, faces, codes)
    np.maximum.at(b, faces, codes)
    interior = ~mesh.boundary
    a, b = a[interior], b[interior]
    depth = np.frexp((a ^ b).astype(float))[1]
    return depth, a >> depth


def assemble_m_of_lambda(sys, lam):
    """Sparse resolvent Gram form M(lam) = U^T (I - lam W)^-1 U; M(0) = G."""
    return (sys.moments @ sys.resolvent(lam) @ sys.lift).tocsr()


def resolvent_lift(sys, lam, eta):
    """Per-element scalar field (I - lam W)^-1 U eta, shape (T, n_w).

    ``sys.moments`` of it is M(lam) eta without assembling M(lam).
    """
    return (sys.resolvent(lam) @ (sys.lift @ eta)).reshape(-1, sys.n_w)


def flux_field(sys, eta, load):
    """Per-element flux coefficients Q eta + Qw load, shape (T, n_v), for
    load moments (T, n_w)."""
    eta_loc = sys.local_trace(eta)
    q = np.empty((len(eta_loc), sys.n_v))
    for ops, members in sys.class_groups:
        q[members] = eta_loc[members] @ ops.qmat.T + load[members] @ ops.qwmat.T
    return q


def load_moments(sys, f):
    """Per-element coefficients of the L2 projection of f onto the local
    scalar space (the load enters the lifts only through these)."""
    out = np.empty((len(sys.mesh.triangles), sys.n_w))
    for ops, members, pts in sys.class_points(sys.ref.vol.points):
        vals = np.asarray(f(pts[:, :, 0], pts[:, :, 1]), dtype=float)
        out[members] = (vals * ops.wq) @ ops.w_vals
    return out


def assemble_source_rhs(sys, f):
    """Condensed right-hand side b(mu) = (f, U mu) for a source density f.

    ``f`` must accept numpy arrays (vectorized) of x and y coordinates.
    """
    return sys.moments @ load_moments(sys, f).ravel()


def solve_source(sys, f):
    """Solve the condensed source problem and recover all fields.

    Returns (eta, u, q): the global trace vector, per-element scalar
    coefficients (T, n_w), and per-element flux coefficients (T, n_v).
    """
    fmom = load_moments(sys, f)
    eta = sys.factorized().solve(sys.moments @ fmom.ravel())
    u = (sys.lift @ eta + sys.load_lift @ fmom.ravel()).reshape(fmom.shape)
    return eta, u, flux_field(sys, eta, fmom)
