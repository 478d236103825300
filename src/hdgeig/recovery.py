"""Recovery of eigenfunction fields and element-local postprocessing.

From a converged trace eigenpair the scalar and flux fields are
recovered through the local lifts, normalized to unit L2 norm with a
deterministic sign.  Two local postprocessing steps follow: a
degree-(k+1) scalar reconstruction driven by the recovered flux (one
extra order of accuracy for k >= 1), and a normal-continuous flux
reconstruction in the Raviart-Thomas-type space whose edge data is the
numerical flux.  A Rayleigh-quotient-like formula combines both into a
superconvergent eigenvalue.

Each step is linear (the eigenvalue: quadratic) in the per-element
coefficients, so it is compiled into matrices built once per congruence
class by ``ElementOps``: ``post_u`` maps [q | u] to u*, ``post_q`` maps
[eta_loc | u | q] to q*, and ``rayleigh_forms`` holds the stiffness,
mass and boundary-pairing forms of the quotient.  Every class loop here
is one matrix product with them.

The module also provides residual diagnostics that re-integrate the
discretized equations against the full test bases, independently of the
lift matrices used to compute the fields.
"""

import weakref

import numpy as np

from .assembly import flux_field, load_moments
from .errors import EigenSolveError, NumericalError

__all__ = [
    "RecoveredFields",
    "PostprocessedFields",
    "recover_fields",
    "postprocess_u",
    "postprocess_q",
    "rayleigh_eigenvalue",
    "postprocess",
    "eig_residuals",
    "source_residuals",
    "qstar_normal_jumps",
]

#: sign anchor: the recovered eigenfunction has positive element mean here
_ANCHORS = {"square": (np.pi / 2 - 1e-2, np.pi / 2 - 1e-2), "lshape": (0.5, 0.5)}
#: the element holding the anchor, per mesh: ``Mesh.locate`` computes the
#: barycentric coordinates of the anchor in every triangle, so each mesh is
#: searched once
_anchor_elements = weakref.WeakKeyDictionary()


class RecoveredFields:
    """Recovered eigenfields, unit L2 norm, deterministic sign."""

    def __init__(self, value, eta, u, q, anchor_element):
        self.value = float(value)
        self.eta = eta
        self.u = u
        self.q = q
        self.anchor_element = int(anchor_element)


class PostprocessedFields:
    """Locally postprocessed scalar, flux, and eigenvalue."""

    def __init__(self, u_star, q_star, value_star):
        self.u_star = u_star
        self.q_star = q_star
        self.value_star = float(value_star)


def recover_fields(sys, pair):
    """Recover (u, q) from a converged trace eigenpair and normalize.

    u is the pair's ``field``, the resolvent-corrected trace lift of eta,
    which every pair from ``solve_modes`` or ``solve_condensed_nonlinear``
    carries; q adds the scaled load lift of u to the flux lift of eta.
    All three are rescaled so that u has unit L2 norm, with the sign fixed
    by the element mean at the domain's anchor point.
    """
    lam, u = pair.value, pair.field
    if u is None:
        raise ValueError("pair %d carries no eigenfield (surrogate pairs have none)" % pair.index)
    q = flux_field(sys, pair.vector, lam * u)

    norm = np.sqrt(np.sum(u**2))
    if norm < 1e-300:
        raise EigenSolveError("degenerate eigenfield: recovered u is zero")

    if sys.mesh not in _anchor_elements:
        anchor = _ANCHORS.get(sys.mesh.domain)
        _anchor_elements[sys.mesh] = 0 if anchor is None else sys.mesh.locate(anchor)
    anchor_elem = _anchor_elements[sys.mesh]
    ops = sys.classes[sys.elem_class[anchor_elem]]
    mean = ops.w_means @ u[anchor_elem]
    if mean == 0.0:
        flat = u.ravel()
        mean = flat[np.flatnonzero(flat)[0]]
    sign = 1.0 if mean > 0 else -1.0
    scale = sign / norm
    return RecoveredFields(lam, pair.vector * scale, u * scale, q * scale, anchor_elem)


def postprocess_u(sys, fields):
    """Element-by-element degree-(k+1) scalar reconstruction.

    On each element the reconstruction matches the weak gradient of the
    recovered flux and keeps the element mean of the recovered scalar;
    the mean constraint closes the local Neumann problem.
    """
    data = np.hstack([fields.q, fields.u])
    out = np.empty((len(data), sys.ref.n_p))
    for ops, members in sys.class_groups:
        out[members] = data[members] @ ops.post_u
    return out


def postprocess_q(sys, fields):
    """Normal-continuous flux reconstruction in [P_k]^2 + x P_k.

    Edge moments match the numerical flux branch values (single-valued
    across interior edges by construction of the method); for k >= 1,
    interior moments match the recovered flux against degree-(k-1)
    vector polynomials.
    """
    data = np.hstack([sys.local_trace(fields.eta), fields.u, fields.q])
    out = np.empty((len(data), sys.ref.n_rt))
    for ops, members in sys.class_groups:
        out[members] = data[members] @ ops.post_q
    return out


def rayleigh_eigenvalue(sys, u_star, q_star):
    """Rayleigh-quotient-like eigenvalue from the postprocessed fields.

    Numerator: broken energy of the scalar reconstruction plus the
    element-boundary pairing of the reconstructed normal flux with the
    scalar branch values; denominator: L2 norm of the reconstruction.
    """
    num = 0.0
    den = 0.0
    for ops, members in sys.class_groups:
        stiff, mass, pairing = ops.rayleigh_forms
        us = u_star[members]
        num += np.sum((us @ stiff + q_star[members] @ pairing) * us)
        den += np.sum((us @ mass) * us)
    if den <= 0:
        raise NumericalError("postprocessed field has zero norm")
    return num / den


def postprocess(sys, fields):
    """Run both local reconstructions and the eigenvalue formula."""
    u_star = postprocess_u(sys, fields)
    q_star = postprocess_q(sys, fields)
    return PostprocessedFields(u_star, q_star, rayleigh_eigenvalue(sys, u_star, q_star))


# --- residual diagnostics -------------------------------------------------


def _system_residuals(sys, eta_loc, u, q, rhs_mom):
    """Re-integrate the three discrete equations against full test bases.

    Returns relative residuals keyed by equation: 'flux' for the
    constitutive equation, 'balance' for the elementwise flux balance,
    and 'continuity' for single-valuedness of the numerical flux moments
    on interior edges.
    """
    n_m = sys.ref.n_m
    c = sys.mat.c

    res_a = []
    res_b = []
    mag_a = np.zeros(3)
    mag_b = np.zeros(3)
    flux_moments = np.empty((len(eta_loc), 3, n_m))

    for ops, members in sys.class_groups:
        qvals = np.einsum("qid,ei->eqd", ops.v_vals, q[members])
        uvals = np.einsum("qi,ei->eq", ops.w_vals, u[members])
        rhsvals = np.einsum("qi,ei->eq", ops.w_vals, rhs_mom[members])
        cq = qvals @ c.T

        t1 = np.einsum("q,eqd,qid->ei", ops.wq, cq, ops.v_vals)
        t2 = np.einsum("q,eq,qi->ei", ops.wq, uvals, ops.v_divs)
        t4 = np.einsum("q,eqd,qid->ei", ops.wq, qvals, ops.w_grads)
        t6 = np.einsum("q,eq,qi->ei", ops.wq, rhsvals, ops.w_vals)
        # face values (e, 3, n_g) of the trace and of the numerical flux
        # q.n + tau (u - eta); face sums run in face order
        fw = ops.face_wq
        etav = np.einsum("elm,lgm->elg", eta_loc[members].reshape(-1, 3, n_m), ops.t_face)
        qhat = (np.einsum("ei,lgi->elg", q[members], ops.v_normal)
                + ops.tau * (np.einsum("ei,lgi->elg", u[members], ops.w_face) - etav))
        t3 = sum(np.einsum("lg,elg,lgi->lei", fw, etav, ops.v_normal))
        t5 = sum(np.einsum("lg,elg,lgi->lei", fw, qhat, ops.w_face))
        flux_moments[members] = np.einsum("lg,elg,lgm->elm", fw, qhat, ops.t_face)
        res_a.append(t1 - t2 + t3)
        res_b.append(-t4 + t5 - t6)
        mag_a += [np.linalg.norm(t1), np.linalg.norm(t2), np.linalg.norm(t3)]
        mag_b += [np.linalg.norm(t4), np.linalg.norm(t5), np.linalg.norm(t6)]

    scale_a = max(mag_a.max(), 1e-300)
    scale_b = max(mag_b.max(), 1e-300)
    return {
        "flux": float(np.linalg.norm(np.concatenate(res_a, axis=None)) / scale_a),
        "balance": float(np.linalg.norm(np.concatenate(res_b, axis=None)) / scale_b),
        "continuity": _edge_jump(sys, flux_moments),
    }


def _edge_jump(sys, moments):
    """Largest interior-edge sum of signed element face moments (T, 3(k+1))
    or (T, 3, k+1), relative to the largest sum of their magnitudes."""
    jumps = sys.gather.T @ moments.ravel()
    mags = abs(sys.gather).T @ np.abs(moments).ravel()
    return float(np.abs(jumps).max() / max(mags.max(), 1e-300))


def eig_residuals(sys, fields):
    """Relative residuals of the recovered eigen-triple in the discrete
    eigenproblem (right-hand side lambda * u)."""
    eta_loc = sys.local_trace(fields.eta)
    rhs_mom = fields.value * fields.u
    return _system_residuals(sys, eta_loc, fields.u, fields.q, rhs_mom)


def source_residuals(sys, eta, u, q, f):
    """Relative residuals of a recovered source-problem triple."""
    eta_loc = sys.local_trace(eta)
    rhs_mom = load_moments(sys, f)
    return _system_residuals(sys, eta_loc, u, q, rhs_mom)


def qstar_normal_jumps(sys, q_star):
    """Largest interior-edge moment jump of the reconstructed normal flux,
    scaled by the overall moment magnitude."""
    moments = np.empty((len(q_star), 3 * sys.ref.n_m))
    for ops, members in sys.class_groups:
        moments[members] = q_star[members] @ ops.rt_moments
    return _edge_jump(sys, moments)
