"""The signed trace gather and the compiled condensed operators.

Elements are grouped into congruence classes (translated copies share
every local matrix).  Interior edges carry k+1 consecutive trace
unknowns each, numbered in nested-dissection order (``dissection_keys``)
so that the sparse LU of the condensed stiffness fills in little;
boundary edges carry none.  One signed gather maps a
global trace vector to the element-local face slots: the sign reconciles
each element's edge parametrization with the global one fixed by
ascending vertex index.  From the per-class matrices and the gather each
system compiles, once, sparse matrices: the condensed stiffness A and the
scalar trace lift U (its transpose maps a load to the condensed
right-hand side).  On request it builds the block-diagonal load lift W,
the resolvent (I - kappa W)^-1 and the spectral lift, the last two from
one eigendecomposition of Uw per class.
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import NumericalError
from .localsolve import ElementOps, MaterialSpec, reference_tables

__all__ = [
    "RUN_LENGTH",
    "CondensedSystem",
    "assemble_condensed",
    "assemble_m_of_lambda",
    "dissection_keys",
    "flux_field",
    "resolvent_lift",
    "solve_source",
]


#: elements per run of ``CondensedSystem.class_runs``: per-point arrays of
#: a pass over the mesh are (run, n_q), 0.8 MB at 49 points, not (T, n_q)
RUN_LENGTH = 2048


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
        #: CSC, the form SuperLU takes (P^T is CSC, and a product keeps the
        #: format of its left factor), put in canonical form here rather
        #: than in place by SuperLU
        self.A = gather.T @ self._block_diagonal([ops.a_loc for ops in classes]) @ gather
        self.A.sum_duplicates()
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

    @property
    def class_runs(self):
        """Pairs (ElementOps, member element indices) in runs of at most
        ``RUN_LENGTH`` elements of one class."""
        for ops, members in self.class_groups:
            for start in range(0, len(members), RUN_LENGTH):
                yield ops, members[start:start + RUN_LENGTH]

    def class_points(self, points):
        """Per run of ``class_runs``: (ElementOps, members, x, y), the
        physical coordinates (n, n_q) of reference ``points`` mapped through
        the class Jacobian, each contiguous.  A pass over the mesh holds one
        run's points at a time."""
        p0 = self.mesh.vertices[self.mesh.triangles[:, 0]]
        for ops, members in self.class_runs:
            offsets = points @ ops.bmat.T
            yield (ops, members, p0[members, 0, None] + offsets[:, 0],
                   p0[members, 1, None] + offsets[:, 1])

    def factorized(self):
        """Cached sparse LU of A.  A is SPD, so diagonal pivots are stable,
        and its unknowns are already numbered in nested-dissection order:
        SuperLU factors it in that order and computes none of its own.  A
        is stored as CSC, so SuperLU takes its own arrays and no copy is
        made.  SuperLU's working arrays grow as ndof times the panel
        width; a panel of 4 columns instead of its default 20 keeps them
        small beside the factors, with the same fill, and factors faster."""
        if self._splu is None:
            try:
                self._splu = scipy.sparse.linalg.splu(
                    self.A, permc_spec="NATURAL", diag_pivot_thresh=0,
                    panel_size=4, options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise NumericalError("condensed matrix factorization failed: %s" % exc)
        return self._splu

    def release_factorization(self):
        """Drop the cached LU, the largest object a system holds; a later
        ``factorized`` call factors A again."""
        self._splu = None

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

    @property
    def load_lift(self):
        """W: block-diagonal scalar load lift Uw, (dim W_h, dim W_h), built
        on each access and not kept: only the modes run's operator and
        ``solve_source`` apply it, and each holds it no longer than it runs."""
        return self._block_diagonal([ops.uwmat for ops in self.classes])

    @cached_property
    def wall(self):
        """First resolvent resonance, where I - kappa W becomes singular; the
        condensed problem represents every eigenvalue strictly below it."""
        rho = max(float(ops.uw_spectrum[0].max()) for ops in self.classes)
        return np.inf if rho <= 0.0 else 1.0 / rho

    def resolvent(self, kappa):
        """Sparse block-diagonal (I - kappa W)^-1; raises
        ``LocalSolveError`` at or beyond the wall."""
        return self._block_diagonal([ops.resolvent(kappa) for ops in self.classes])

    @cached_property
    def spectral_lift(self):
        """(Z, w): the trace lift in the eigenbasis Q of each element's Uw
        block, Z = Q^T U (CSR, dim W_h x ndof), and the matching
        eigenvalues w of Uw, so that M(kappa) = U^T (I - kappa W)^-1 U is
        Z^T diag(1 / (1 - kappa w)) Z.  Built on first use; only the
        nonlinear eigensolve asks for it."""
        spectra = [ops.uw_spectrum for ops in self.classes]
        z = self._block_diagonal([vecs.T @ ops.umat
                                  for ops, (_, vecs) in zip(self.classes, spectra)])
        return z @ self.gather, np.stack([mu for mu, _ in spectra])[self.elem_class].ravel()


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

    tau_value = tau.face_value(h=mesh.spacing)

    # congruence classes: same Jacobian to 12 digits, keyed by the bytes of
    # the rounded entries (so -0.0 and 0.0 differ) and numbered by first
    # occurrence
    keys = np.round(bmats, 12).reshape(num_t, 4)
    keys = keys.view(np.dtype((np.void, keys.itemsize * 4))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    elem_class = np.argsort(by_first)[inverse]
    classes = [
        ElementOps(bmats[t], tau_value, mat, ref, element_hint=t)
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
    # one stable sort on (depth, region) packed in an int64: depth <= 52
    # and region < 2^52, so the key stays below 2^58.  Built in place: with
    # the two temporaries of one expression, the peak RSS of the level-6,
    # k = 0 study was 218-223 MB in six runs, against 210-219 MB
    key = depth.astype(np.int64)
    key <<= 52
    key |= region
    block[np.flatnonzero(interior)[np.argsort(key, kind="stable")]] = np.arange(depth.size)
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
    v, (t0, t1, t2) = mesh.vertices, mesh.triangles.T
    centroids = (v[t0] + v[t1] + v[t2]) / 3.0
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
    """Sparse resolvent Gram form M(lam) = U^T (I - lam W)^-1 U."""
    return (sys.moments @ sys.resolvent(lam) @ sys.lift).tocsr()


def resolvent_lift(sys, lam, eta):
    """Per-element scalar field (I - lam W)^-1 U eta, shape (T, n_w), with
    the local resolvent applied class by class (``LocalSolveError`` at or
    beyond the wall); ``sys.moments`` of it is M(lam) eta without M(lam)."""
    u = (sys.lift @ eta).reshape(-1, sys.n_w)
    for ops, members in sys.class_groups:
        u[members] = u[members] @ ops.resolvent(lam).T
    return u


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
    for ops, members, x, y in sys.class_points(sys.ref.vol.points):
        vals = np.asarray(f(x, y), dtype=float)
        out[members] = (vals * ops.wq) @ ops.w_vals
    return out


def solve_source(sys, f):
    """Solve the condensed source problem and recover all fields.

    Returns (eta, u, q): the global trace vector, per-element scalar
    coefficients (T, n_w), and per-element flux coefficients (T, n_v).
    """
    fmom = load_moments(sys, f)
    eta = sys.factorized().solve(sys.moments @ fmom.ravel())
    u = (sys.lift @ eta + sys.load_lift @ fmom.ravel()).reshape(fmom.shape)
    return eta, u, flux_field(sys, eta, fmom)
