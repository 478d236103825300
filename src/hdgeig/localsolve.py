"""Element-local HDG solution operators.

For each element the two local lift families share one saddle-point
matrix: the trace lift maps polynomial data on the element boundary to a
local (flux, scalar) pair, and the load lift maps an interior load to
such a pair.  Everything downstream (condensed forms, resolvents,
recovery of eigenfunctions) is built from the four dense matrices
computed here, and the postprocessing from the per-class maps below.

Bases on the physical element are the mapped reference bases scaled by
the inverse square root of the Jacobian determinant, so local mass
matrices are exactly the identity.  Face quantities are tabulated in the
element-local edge parametrization (vertex l to vertex l+1), face
first: n functions at the n_g edge quadrature points of faces 0, 1, 2
make one (3, n_g, n) array, and trace dof l n_m + m is member m on face
l.  A global edge may be parametrized the other way by its second
element, which flips the sign of the odd edge-basis members.  Congruent
elements therefore share all matrices below, and assembly only applies
per-face sign diagonals.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from . import basis
from .errors import ConfigError, LocalSolveError

_COND_LIMIT = 1e12
_REF_EDGE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
#: reference face l runs from vertex l to vertex l+1
_REF_EDGE_TANGENTS = np.roll(_REF_EDGE_VERTICES, -1, axis=0) - _REF_EDGE_VERTICES
_ERROR_QUAD_ORDER = 12


@dataclass(frozen=True)
class TauSpec:
    """Stabilization parameter: one value on every face of a mesh.

    Variants: ``constant`` (a fixed finite value, at least 0) and
    ``global_h`` / ``inverse_global_h`` (the mesh's structured grid spacing
    or its reciprocal; the benchmark tables fix this reading of "mesh
    size" rather than the element diameter, which is sqrt(2) larger
    here).  ``zero()`` is the constant 0.
    """

    variant: str
    value: float = None

    _VARIANTS = ("constant", "global_h", "inverse_global_h")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ConfigError("unknown tau variant %r" % (self.variant,))
        if self.variant == "constant":
            if self.value is None or not 0.0 <= self.value < np.inf:
                raise ConfigError("constant tau needs a finite nonnegative value; got %r"
                                  % (self.value,))
        elif self.value is not None:
            raise ConfigError("variant %r takes no value" % (self.variant,))

    @staticmethod
    def constant(value):
        return TauSpec("constant", float(value))

    @staticmethod
    def one():
        return TauSpec("constant", 1.0)

    @staticmethod
    def zero():
        return TauSpec.constant(0.0)

    @staticmethod
    def global_h():
        return TauSpec("global_h")

    @staticmethod
    def inverse_global_h():
        return TauSpec("inverse_global_h")

    @property
    def is_positive(self):
        return not (self.variant == "constant" and self.value == 0.0)

    def face_value(self, h=None):
        """The value on every face of a mesh with grid spacing ``h``."""
        if self.variant == "constant":
            return self.value
        if h is None:
            raise ConfigError("tau variant %r requires the grid spacing" % (self.variant,))
        return float(h) if self.variant == "global_h" else 1.0 / float(h)

    def label(self):
        if self.variant == "constant":
            return "tau=%g" % self.value
        return {"global_h": "tau=h", "inverse_global_h": "tau=1/h"}[self.variant]


@dataclass(frozen=True)
class MaterialSpec:
    """Constant symmetric positive definite diffusion coefficient."""

    a11: float = 1.0
    a12: float = 0.0
    a22: float = 1.0

    def __post_init__(self):
        det = self.a11 * self.a22 - self.a12**2
        if self.a11 <= 0 or det <= 0:
            raise ConfigError("diffusion coefficient must be positive definite")

    @staticmethod
    def identity():
        return MaterialSpec()

    @property
    def alpha(self):
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @property
    def c(self):
        det = self.a11 * self.a22 - self.a12**2
        return np.array([[self.a22, -self.a12], [-self.a12, self.a11]]) / det


@dataclass(frozen=True)
class SpaceConfig:
    """Polynomial degrees of the three local spaces.

    ``k`` is the trace degree.  The equal-degree method uses degree k for
    the scalar and flux spaces as well; ``case1`` lowers the scalar space
    to k-1 and ``case2`` lowers the flux space to k-1.
    """

    k: int
    case: str = "equal"

    def __post_init__(self):
        if self.case not in ("equal", "case1", "case2"):
            raise ConfigError("unknown space case %r" % (self.case,))
        if not 0 <= self.k <= basis.MAX_SCALAR_DEGREE:
            raise ConfigError("trace degree k=%r outside supported range" % (self.k,))
        if self.case != "equal" and self.k < 1:
            raise ConfigError("mixed-degree cases require k >= 1")

    @property
    def k_w(self):
        return self.k - 1 if self.case == "case1" else self.k

    @property
    def k_v(self):
        return self.k - 1 if self.case == "case2" else self.k

    def validate_tau(self, tau):
        """Check the unique-solvability condition for this space choice:
        every case but ``case1`` (the BDM-like spaces) needs tau > 0."""
        if self.case != "case1" and not tau.is_positive:
            raise ConfigError("space case %r needs a positive stabilization; got %s"
                              % (self.case, tau.label()))

    def validate_postprocess(self):
        """Check that the flux postprocessing space is tabulated for k."""
        if self.k > basis.MAX_RT_DEGREE:
            raise ConfigError("flux postprocessing supports k <= %d; got k=%d"
                              % (basis.MAX_RT_DEGREE, self.k))


@lru_cache(maxsize=None)
def reference_tables(spaces):
    return ReferenceTables(spaces)


class ReferenceTables:
    """Reference-element tabulations shared by every congruence class;
    face tabulations are (3, n_g, n) but for the edge basis ``t_face``
    (n_g, n_m), which is the same on every face."""

    def __init__(self, spaces):
        self.spaces = spaces
        k = spaces.k
        order = 2 * k + 4
        self.vol = basis.triangle_quadrature(order)
        self.edge = basis.edge_quadrature(order)

        self.wbasis = basis.scalar_basis(spaces.k_w)
        self.vbasis = basis.scalar_basis(spaces.k_v)
        self.tbasis = basis.edge_basis(k)
        self.pbasis = basis.scalar_basis(k + 1)

        self.n_w = self.wbasis.dim
        self.n_v1 = self.vbasis.dim
        self.n_v = 2 * self.n_v1
        self.n_m = self.tbasis.dim
        self.n_p = self.pbasis.dim

        pts = self.vol.points
        self.w_vals, self.w_grads = self.wbasis.tabulate(pts)
        self.v_vals, self.v_grads = self.vbasis.tabulate(pts)
        self.p_vals, self.p_grads = self.pbasis.tabulate(pts)

        # face points in reference coordinates, face l from vertex l to l+1
        s = self.edge.points.ravel()
        self.face_ref_pts = _REF_EDGE_VERTICES[:, None] + s[:, None] * _REF_EDGE_TANGENTS[:, None]
        self.w_face, self.v_face, self.p_face = (
            b.tabulate(self.face_ref_pts.reshape(-1, 2))[0].reshape(3, len(s), -1)
            for b in (self.wbasis, self.vbasis, self.pbasis))
        self.t_face = self.tbasis.tabulate(s)

        # fixed high-order rule for integrals against non-polynomial data
        self.err = basis.triangle_quadrature(_ERROR_QUAD_ORDER)
        self.w_err = self.wbasis.tabulate(self.err.points)[0]
        self.p_err = self.pbasis.tabulate(self.err.points)[0]

        # pieces for the flux postprocessing space [P_k]^2 + x P_k
        self.qsbasis = basis.scalar_basis(k)
        self.rt_homog = [(k - j, j) for j in range(k + 1)]
        self.n_rt = (k + 1) * (k + 3)
        self.i_vals = basis.scalar_basis(k - 1).tabulate(pts)[0] if k >= 1 else None

        #: dof signs for a face whose global parametrization is reversed
        self.parity = (-1.0) ** np.arange(self.n_m)


class ElementOps:
    """Dense local operators for one congruence class of elements.

    ``bmat`` maps reference to physical coordinates (columns are the two
    edge vectors from vertex 0); elements that differ only by translation
    share an instance.  ``tau`` is the stabilization value on all three
    faces.  Face tabulations are (3, n_g, n) arrays, the face quadrature
    weights ``face_wq`` (3, n_g).
    """

    def __init__(self, bmat, tau, mat, ref, element_hint=0):
        # a copy: a view would keep the mesh-wide Jacobian array alive
        self.bmat = np.array(bmat, dtype=float)
        self.tau = float(tau)
        self.mat = mat
        self.ref = ref
        sp = ref.spaces

        det = self.bmat[0, 0] * self.bmat[1, 1] - self.bmat[0, 1] * self.bmat[1, 0]
        if det <= 0:
            raise LocalSolveError("element %d has nonpositive Jacobian" % element_hint)
        self.det = det
        self.binv = np.array(
            [[self.bmat[1, 1], -self.bmat[0, 1]], [-self.bmat[1, 0], self.bmat[0, 0]]]
        ) / det
        scale = np.sqrt(det)

        # face geometry: tangent from local vertex l to l+1, outward normal
        tangents = _REF_EDGE_TANGENTS @ self.bmat.T
        self.edge_lens = np.linalg.norm(tangents, axis=1)
        self.normals = np.column_stack([tangents[:, 1], -tangents[:, 0]]) / self.edge_lens[:, None]
        self.h_k = self.edge_lens.max()

        # physical tabulations (orthonormal in L2 of the element)
        self.wq = ref.vol.weights * det
        self.w_vals = ref.w_vals / scale
        self.w_grads = np.einsum("qib,ba->qia", ref.w_grads, self.binv) / scale
        sv = ref.v_vals / scale
        sg = np.einsum("qib,ba->qia", ref.v_grads, self.binv) / scale
        n_v1 = ref.n_v1
        self.v_vals = np.zeros((len(ref.vol), ref.n_v, 2))
        self.v_vals[:, :n_v1, 0] = sv
        self.v_vals[:, n_v1:, 1] = sv
        self.v_divs = np.concatenate([sg[:, :, 0], sg[:, :, 1]], axis=1)

        # v_normal: the flux basis dotted with each face's outward normal
        self.w_face = ref.w_face / scale
        svf = ref.v_face[:, :, None] / scale
        self.v_normal = (svf * self.normals[:, None, :, None]).reshape(3, len(ref.edge), -1)
        self.t_face = ref.t_face / np.sqrt(self.edge_lens)[:, None, None]
        self.face_wq = ref.edge.weights * self.edge_lens[:, None]

        self.n_w = ref.n_w
        self.n_v = ref.n_v
        self.n_m = ref.n_m
        self.n_trace = 3 * ref.n_m

        # saddle matrix shared by both lift families; cmat and emat hold the
        # trace-basis face moments of q.n and of tau u
        c = mat.c
        acc = np.kron(c, np.eye(n_v1))
        bdiv = np.einsum("q,qi,qj->ij", self.wq, self.w_vals, self.v_divs)
        # trace column l n_m + m is member m of face l; face sums run in
        # face order after the per-face products
        fw = self.face_wq
        dtau = sum(self.tau * np.einsum("le,lei,lej->lij", fw, self.w_face, self.w_face))
        self.cmat = np.einsum("le,lei,lem->ilm", fw, self.v_normal, self.t_face).reshape(
            self.n_v, self.n_trace)
        self.emat = self.tau * np.einsum("le,lei,lem->ilm", fw, self.w_face, self.t_face).reshape(
            self.n_w, self.n_trace)

        lhs = np.block([[acc, -bdiv.T], [bdiv, dtau]])
        cond = np.linalg.cond(lhs)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise LocalSolveError(
                "local saddle system singular on element %d (cond %.1e); the "
                "stabilization must satisfy the solvability condition for the "
                "chosen spaces (%s, %s)"
                % (element_hint, cond, sp.case, TauSpec.constant(self.tau).label())
            )
        lhs_lu = scipy.linalg.lu_factor(lhs)

        rhs_tr = np.vstack([-self.cmat, self.emat])
        sol = scipy.linalg.lu_solve(lhs_lu, rhs_tr)
        self.qmat = sol[: self.n_v]
        self.umat = sol[self.n_v :]

        rhs_load = np.vstack([np.zeros((self.n_v, self.n_w)), np.eye(self.n_w)])
        sol = scipy.linalg.lu_solve(lhs_lu, rhs_load)
        self.qwmat = sol[: self.n_v]
        self.uwmat = sol[self.n_v :]

        # condensed stiffness block a(.,.); each trace member's values on
        # the faces (3, n_g, n_trace) are zero off its own face
        own = (np.eye(3)[:, None, :, None] * self.t_face[:, :, None]).reshape(3, -1, self.n_trace)
        diff = self.w_face @ self.umat - own
        self.a_loc = sum(self.tau * np.einsum("le,lei,lej->lij", fw, diff, diff),
                         start=self.qmat.T @ acc @ self.qmat)

        self.w_means = np.einsum("q,qi->i", self.wq, self.w_vals)

    @cached_property
    def uw_spectrum(self):
        """Ascending eigenvalues and orthonormal eigenvectors of Uw, which is
        symmetric positive definite (symmetrized against round-off)."""
        return np.linalg.eigh(0.5 * (self.uwmat + self.uwmat.T))

    def resolvent_gap(self, lam):
        """Eigenvalues 1 - lam mu of I - lam * Uw, in the order of
        ``uw_spectrum``; raises ``LocalSolveError`` at or beyond the
        resonance, or where their spread exceeds ``_COND_LIMIT``."""
        mu = self.uw_spectrum[0]
        gap = 1.0 - lam * mu
        if gap.min() <= 0.0 or gap.max() > _COND_LIMIT * gap.min():
            raise LocalSolveError("eigenvalue %.6g is at or beyond the local resolvent "
                                  "resonance %.6g; refine the mesh or request lower "
                                  "modes" % (lam, 1.0 / mu.max()))
        return gap

    def resolvent(self, lam):
        """(I - lam * Uw)^-1 on this element class, (n_w, n_w)."""
        vecs = self.uw_spectrum[1]
        return (vecs * (1.0 / self.resolvent_gap(lam))) @ vecs.T

    # --- post-solve maps (built on first use, once per class) ---

    @cached_property
    def p_ops(self):
        """Physical tabulations of the degree-(k+1) reconstruction space."""
        ref = self.ref
        scale = np.sqrt(self.det)
        p_vals = ref.p_vals / scale
        return {
            "vals": p_vals,
            "grads": np.einsum("qib,ba->qia", ref.p_grads, self.binv) / scale,
            "means": self.wq @ p_vals,
            "face": ref.p_face / scale,
        }

    def rt_tabulate(self, ref_pts):
        """Values (n, n_rt, 2) of the flux postprocessing space [P_k]^2 + x P_k
        at reference points.  The x-part is centred at the centroid and
        scaled by the element diameter, using only the homogeneous degree-k
        monomials (lower degrees are already in [P_k]^2)."""
        ref = self.ref
        qs_vals = ref.qsbasis.tabulate(ref_pts)[0] / np.sqrt(self.det)
        n_qs = ref.qsbasis.dim
        vals = np.zeros((ref_pts.shape[0], ref.n_rt, 2))
        vals[:, :n_qs, 0] = qs_vals
        vals[:, n_qs : 2 * n_qs, 1] = qs_vals
        d = (ref_pts - np.array([1.0 / 3.0, 1.0 / 3.0])) @ self.bmat.T
        ds = d / self.h_k
        for j, (a, b) in enumerate(ref.rt_homog):
            m = ds[:, 0] ** a * ds[:, 1] ** b
            vals[:, 2 * n_qs + j] = d * m[:, None]
        return vals

    @cached_property
    def rt_ops(self):
        """Volume values and face normal components of the flux
        postprocessing space."""
        ref = self.ref
        ref.spaces.validate_postprocess()
        face_vals = self.rt_tabulate(ref.face_ref_pts.reshape(-1, 2))
        return {
            "vol_vals": self.rt_tabulate(ref.vol.points),
            "face_normal": (face_vals.reshape(3, len(ref.edge), ref.n_rt, 2)
                            @ self.normals[:, None, :, None])[..., 0],
        }

    def _face_moments(self, vals, test):
        """Per-face moments (3, n, n_t) of face values (3, n_g, n) against (3, n_g, n_t)."""
        return vals.transpose(0, 2, 1) @ (self.face_wq[..., None] * test)

    @cached_property
    def rt_moments(self):
        """(n_rt, n_trace): face moments of the normal component of each
        flux postprocessing member."""
        return np.hstack(self._face_moments(self.rt_ops["face_normal"], self.t_face))

    @cached_property
    def post_u(self):
        """(n_v + n_w, n_p) map of [q | u] to the degree-(k+1) scalar u*, the
        solution of the local Neumann problem (grad u*, grad p) = -(c q, grad p)
        whose element mean, imposed through a border, is that of u."""
        p, n_p = self.p_ops, self.ref.n_p
        bord = np.zeros((n_p + 1, n_p + 1))
        bord[:n_p, :n_p] = np.einsum("q,qia,qja->ij", self.wq, p["grads"], p["grads"])
        bord[:n_p, n_p] = bord[n_p, :n_p] = p["means"]
        data = np.zeros((self.n_v + self.n_w, n_p + 1))
        data[: self.n_v, :n_p] = np.einsum(
            "q,qid,ad,qja->ij", -self.wq, self.v_vals, self.mat.c, p["grads"])
        data[self.n_v :, n_p] = self.w_means
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(bord), data.T).T[:, :n_p]

    @cached_property
    def post_q(self):
        """(n_trace + n_w + n_v, n_rt) map of [eta_loc | u | q] to the
        normal-continuous flux q*: the face moments of q*.n are those of the
        numerical flux q.n + tau (u - eta) and, for k >= 1, the moments of
        q* against [P_{k-1}]^2 are those of q."""
        eta = scipy.linalg.block_diag(*(-self.tau * self._face_moments(self.t_face, self.t_face)))
        system, data = [self.rt_moments.T], [np.vstack([eta, self.emat, self.cmat])]
        if self.ref.spaces.k >= 1:
            ivals = self.wq[:, None] * self.ref.i_vals / np.sqrt(self.det)
            zeros = np.zeros((self.n_trace + self.n_w, ivals.shape[1]))
            for d in range(2):
                system.append(ivals.T @ self.rt_ops["vol_vals"][:, :, d])
                data.append(np.vstack([zeros, self.v_vals[:, :, d].T @ ivals]))
        system = np.vstack(system)
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise LocalSolveError("flux reconstruction system singular (cond %.1e)" % cond)
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(system), np.hstack(data).T).T

    @cached_property
    def rayleigh_forms(self):
        """(S, M, F): the postprocessed eigenvalue is (u*.S u* + q*.F u*) /
        u*.M u*, with S the alpha-weighted stiffness and M the mass of the
        degree-(k+1) space, and F pairing q*.n with u* on the boundary."""
        p, normal = self.p_ops, self.rt_ops["face_normal"]
        stiff = np.einsum("q,qia,ab,qjb->ij", self.wq, p["grads"], self.mat.alpha, p["grads"])
        mass = (self.wq[:, None] * p["vals"]).T @ p["vals"]
        pairing = sum(self._face_moments(normal, p["face"]))
        return stiff, mass, pairing
