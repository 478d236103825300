"""Global trace-dof numbering and assembly of the condensed forms.

The condensed stiffness form, the surrogate Gram form, the
eigenvalue-dependent resolvent form, and the condensed source right-hand
side are all sums of per-element blocks built from the local lift
matrices.  Elements are grouped into congruence classes (translated
copies share every local matrix); per element only a diagonal of signs
remains, which reconciles the element-local edge parametrization with
the global one fixed by ascending vertex index.
"""

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import NumericalError
from .localsolve import ElementOps, MaterialSpec, reference_tables

__all__ = [
    "TraceDofMap",
    "CondensedSystem",
    "assemble_condensed",
    "assemble_m_of_lambda",
    "assemble_source_rhs",
    "moment_rhs",
    "resolvent_lift",
    "solve_source",
]


class TraceDofMap:
    """Numbering of the trace unknowns: k+1 per interior edge, none on
    boundary edges, contiguous and ordered by edge index."""

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = int(k)
        self.n_m = self.k + 1
        interior = ~mesh.boundary
        self.edge_offset = -np.ones(mesh.num_edges, dtype=np.int64)
        self.edge_offset[interior] = self.n_m * np.arange(int(interior.sum()))
        self.ndof = self.n_m * int(interior.sum())

    def element_dofs(self, mesh):
        """(T, 3*(k+1)) global dof ids; -1 marks boundary-face slots."""
        base = self.edge_offset[mesh.elem_edges]  # (T, 3)
        dofs = base[:, :, None] + np.arange(self.n_m)[None, None, :]
        dofs[base < 0] = -1
        return dofs.reshape(len(mesh.triangles), 3 * self.n_m)


class CondensedSystem:
    """Assembled condensed operators plus the per-element lift cache."""

    def __init__(self, mesh, spaces, tau, mat, ref, classes, elem_class,
                 elem_signs, elem_dofs, dofmap, amat, gmat, bmats, p0):
        self.mesh = mesh
        self.spaces = spaces
        self.tau = tau
        self.mat = mat
        self.ref = ref
        self.classes = classes
        self.elem_class = elem_class
        self.elem_signs = elem_signs
        self.elem_dofs = elem_dofs
        self.dofmap = dofmap
        self.A = amat
        self.G = gmat
        self.bmats = bmats
        self.p0 = p0
        self._class_members = [
            np.flatnonzero(elem_class == c) for c in range(len(classes))
        ]
        self._splu = None

    @property
    def class_groups(self):
        """Pairs (ElementOps, member element indices), one per class."""
        return zip(self.classes, self._class_members)

    @property
    def ndof(self):
        return self.dofmap.ndof

    @property
    def n_w(self):
        return self.ref.n_w

    @property
    def n_v(self):
        return self.ref.n_v

    def local_trace(self, eta):
        """Gather a global trace vector into signed element-local blocks."""
        dofs = self.elem_dofs
        padded = np.concatenate([np.asarray(eta, dtype=float), [0.0]])
        local = padded[np.where(dofs >= 0, dofs, len(padded) - 1)]
        return local * self.elem_signs

    def scatter_trace(self, local):
        """Accumulate signed element-local blocks into a global vector."""
        out = np.zeros(self.ndof)
        vals = local * self.elem_signs
        mask = self.elem_dofs >= 0
        np.add.at(out, self.elem_dofs[mask], vals[mask])
        return out

    def volume_points(self, rule=None):
        """Physical points (T, n_q, 2) of a reference rule (default: the
        volume rule), mapped once per congruence class."""
        pts = (self.ref.vol if rule is None else rule).points
        offsets = np.stack([pts @ ops.bmat.T for ops in self.classes])
        return self.p0[:, None, :] + offsets[self.elem_class]

    @cached_property
    def error_rule(self):
        """Physical points (T, n_q, 2) and weights (T, n_q) of the
        high-order rule for errors against closed-form functions."""
        det = np.array([ops.det for ops in self.classes])[self.elem_class]
        return self.volume_points(self.ref.err), det[:, None] * self.ref.err.weights

    def w_scale(self):
        """Per-element sqrt(det B): physical basis = reference / scale."""
        return np.sqrt(np.linalg.det(self.bmats))

    def factorized(self):
        """Cached sparse LU of A.  A is SPD: a symmetric ordering with
        diagonal pivots is stable and fills in far less than COLAMD."""
        if self._splu is None:
            try:
                self._splu = scipy.sparse.linalg.splu(
                    self.A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise NumericalError("condensed matrix factorization failed: %s" % exc)
        return self._splu

    def class_cores(self, core_fn):
        """Per-class (d, d) blocks -> assembled sparse symmetric matrix."""
        rows, cols, vals = [], [], []
        for ops, members in self.class_groups:
            core = core_fn(ops)
            signs = self.elem_signs[members]
            dofs = self.elem_dofs[members]
            blocks = np.einsum("ij,ei,ej->eij", core, signs, signs)
            valid = dofs >= 0
            mask = valid[:, :, None] & valid[:, None, :]
            d = dofs.shape[1]
            rows.append(np.broadcast_to(dofs[:, :, None], (members.size, d, d))[mask])
            cols.append(np.broadcast_to(dofs[:, None, :], (members.size, d, d))[mask])
            vals.append(blocks[mask])
        mat = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.ndof, self.ndof),
        )
        return mat.tocsr()


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

    n_m = ref.n_m
    parity = ref.parity
    flip = tris[:, [0, 1, 2]] > tris[:, [1, 2, 0]]  # (T, 3)
    elem_signs = np.where(flip[:, :, None], parity[None, None, :], 1.0).reshape(
        num_t, 3 * n_m
    )

    dofmap = TraceDofMap(mesh, spaces.k)
    elem_dofs = dofmap.element_dofs(mesh)

    sys = CondensedSystem(
        mesh, spaces, tau, mat, ref, classes, elem_class, elem_signs,
        elem_dofs, dofmap, None, None, bmats, p0,
    )
    sys.A = sys.class_cores(lambda ops: ops.a_loc)
    sys.G = sys.class_cores(lambda ops: ops.g_loc)
    return sys


def assemble_m_of_lambda(sys, lam):
    """Gram form of the resolvent-corrected scalar lifts at eigenvalue lam.

    At lam = 0 this reproduces the surrogate Gram matrix entrywise.
    """
    lam = float(lam)

    def core(ops):
        resolved = ops.resolvent(lam, ops.umat)
        return ops.umat.T @ resolved

    return sys.class_cores(core)


def resolvent_lift(sys, lam, eta):
    """Per-element scalar field (I - lam Uw)^-1 U eta, shape (T, n_w).

    ``moment_rhs`` of it is M(lam) eta without assembling M(lam).
    """
    eta_loc = sys.local_trace(eta)
    u = np.empty((len(sys.mesh.triangles), sys.n_w))
    for ops, members in sys.class_groups:
        u[members] = ops.resolvent(lam, ops.umat @ eta_loc[members].T).T
    return u


def load_moments(sys, f):
    """Per-element coefficients of the L2 projection of f onto the local
    scalar space (the load enters the lifts only through these)."""
    pts = sys.volume_points()
    vals = np.asarray(f(pts[:, :, 0], pts[:, :, 1]), dtype=float)
    out = np.empty((len(vals), sys.n_w))
    for ops, members in sys.class_groups:
        out[members] = (vals[members] * ops.wq) @ ops.w_vals
    return out


def assemble_source_rhs(sys, f):
    """Condensed right-hand side b(mu) = (f, U mu) for a source density f.

    ``f`` must accept numpy arrays (vectorized) of x and y coordinates.
    """
    return moment_rhs(sys, load_moments(sys, f))


def moment_rhs(sys, fmom):
    """Condensed right-hand side sum_K (f_K, U_K mu) for load moments (T, n_w)."""
    local = np.empty_like(sys.elem_signs)
    for ops, members in sys.class_groups:
        local[members] = fmom[members] @ ops.umat
    return sys.scatter_trace(local)


def solve_source(sys, f):
    """Solve the condensed source problem and recover all fields.

    Returns (eta, u, q): the global trace vector, per-element scalar
    coefficients (T, n_w), and per-element flux coefficients (T, n_v).
    """
    eta = sys.factorized().solve(assemble_source_rhs(sys, f))
    u, q = recover_source_fields(sys, eta, load_moments(sys, f))
    return eta, u, q


def recover_source_fields(sys, eta, fmom):
    """u = U eta + Uw f and q = Q eta + Qw f, element by element."""
    eta_loc = sys.local_trace(eta)
    u = np.empty((len(sys.mesh.triangles), sys.n_w))
    q = np.empty((len(sys.mesh.triangles), sys.n_v))
    for ops, members in sys.class_groups:
        loc = eta_loc[members]
        u[members] = loc @ ops.umat.T + fmom[members] @ ops.uwmat.T
        q[members] = loc @ ops.qmat.T + fmom[members] @ ops.qwmat.T
    return u, q
