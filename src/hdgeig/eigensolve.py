"""Trace eigenproblem solvers.

Every discrete eigenvalue is 1/mu for an eigenvalue mu of the symmetric
positive definite source-solution operator T (load f to scalar solution
u).  ``solve_modes``, the entry point of the command line, the study and
the tests, finds the lowest modes with one Lanczos run on T, applied
matrix-free with one solve of the cached stiffness factorization.

The paper's route stays as the reference: a linear surrogate pencil
(stiffness vs. scalar-lift Gram) seeds the condensed nonlinear problem,
whose eigenvalues are the roots of the strictly decreasing
F(kappa) = theta_i(kappa) - kappa (theta_i: i-th eigenvalue with the
resolvent Gram matrix frozen at kappa), found by a bracketed secant.
The surrogate is the frozen pencil at kappa = 0.  The Gram matrices may
have a kernel (they do for k = 0), so both pencils are solved in
inverted form with the positive definite stiffness on the right.  All
three eigensolves are ARPACK Lanczos runs that apply the stiffness
inverse through the cached factorization.
"""

import collections

import numpy as np
import scipy.sparse.linalg

from .assembly import assemble_condensed, assemble_m_of_lambda, moment_rhs
from .assembly import recover_source_fields
from .errors import ConvergenceError, EigenSolveError
from .localsolve import MaterialSpec

__all__ = [
    "SurrogatePair",
    "EigenPair",
    "OracleSpectrum",
    "solve_linear_surrogate",
    "solve_condensed_nonlinear",
    "solve_modes",
    "oracle_full_eig",
]

_RESIDUAL_TOL = 1e-9
_KERNEL_FLOOR = 1e-12
_SECANT_TOL = 1e-12
_SECANT_MAX_ITER = 50


class SurrogatePair:
    """Eigenpair of the linear surrogate pencil, Gram-normalized.

    ``index`` is the 1-based position in the ascending surrogate
    spectrum; the nonlinear solver locks onto the same position.
    """

    def __init__(self, value, vector, index=None):
        self.value = float(value)
        self.vector = np.asarray(vector, dtype=float)
        self.index = index


class EigenPair:
    """Converged eigenpair of the condensed nonlinear problem.

    From ``solve_modes``: ``iterations`` counts solution-operator
    applications in the Lanczos run, ``defect`` is the relative residual
    |A eta - lam M(lam) eta| / |A eta|.  From the secant: its iteration
    count, last relative update and iterates (``history``).
    """

    def __init__(self, value, vector, iterations, defect, history=()):
        self.value = float(value)
        self.vector = np.asarray(vector, dtype=float)
        self.iterations = int(iterations)
        self.defect = float(defect)
        self.history = list(history)


#: ascending eigenvalues of the full problem and the solution operator
#: (a matrix-free LinearOperator) they come from
OracleSpectrum = collections.namedtuple("OracleSpectrum", "values t_matrix")


def _deterministic_start(n):
    return np.random.default_rng(20240814).standard_normal(n)


def _scalar_dim(sys):
    """dim W_h: the number of per-element scalar coefficients."""
    return len(sys.mesh.triangles) * sys.n_w


def _eigsh(op, k, what, **kwargs):
    """Largest-algebraic Lanczos run; the one ARPACK call site.  Looked
    up in ``scipy.sparse.linalg`` at call time so it can be replaced."""
    try:
        return scipy.sparse.linalg.eigsh(op, k=k, which="LA", **kwargs)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigenSolveError("%s did not converge: %s" % (what, exc))


def _pencil_lowest(sys, gram, count, v0=None):
    """Lowest ``count`` eigenpairs of A x = theta gram x, ascending.

    ``gram`` is G = U^T U or the frozen M(kappa) = U^T (I - kappa Uw)^-1 U,
    so its rank is at most dim W_h.  The pencil is solved inverted,
    gram x = (1/theta) A x, so that kernel maps harmlessly to 0.
    """
    n, dim_w = sys.ndof, _scalar_dim(sys)
    if count > dim_w:
        raise EigenSolveError(
            "mode %d lies in the kernel of the lift Gram matrix, whose rank is at "
            "most dim W_h = %d; this flags a space configuration that cannot "
            "resolve that many modes" % (count, dim_w)
        )
    if not 1 <= count < n:
        raise EigenSolveError("requested %d modes of an n=%d trace pencil; at most "
                              "n - 1 can be computed" % (count, n))
    lu = sys.factorized()
    ainv = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve)
    w, vecs = _eigsh(gram, count, "pencil Lanczos run", M=sys.A, Minv=ainv,
                     v0=v0 if v0 is not None else _deterministic_start(n))
    pos = np.flatnonzero(w > _KERNEL_FLOOR * np.abs(w).max())
    if pos.size < count:
        raise EigenSolveError(
            "the lift Gram matrix has only %d positive modes of the %d requested "
            "(the rest lie in its kernel)" % (pos.size, count)
        )
    # largest w correspond to the smallest theta = 1/w
    pos = pos[np.argsort(w[pos])[::-1]]
    return 1.0 / w[pos], vecs[:, pos]


def solve_linear_surrogate(sys, m):
    """Lowest m eigenpairs of the surrogate pencil (stiffness, lift Gram).

    The Gram matrix is only positive semidefinite; requested modes must
    stay clear of its numerical kernel, otherwise the space configuration
    cannot resolve them and an error is raised.
    """
    m = int(m)
    lams, vecs = _pencil_lowest(sys, sys.G, m)
    pairs = []
    for i, lam in enumerate(lams):
        vec = vecs[:, i]
        gnorm = vec @ (sys.G @ vec)
        vec = vec / np.sqrt(gnorm)
        res = np.linalg.norm(sys.A @ vec - lam * (sys.G @ vec))
        if res > _RESIDUAL_TOL * np.linalg.norm(sys.A @ vec):
            raise EigenSolveError("surrogate eigenpair %d residual too large" % (i + 1))
        pairs.append(SurrogatePair(lam, vec, index=i + 1))
    return pairs


def _resolvent_limit(sys):
    """First resolvent resonance: the smallest eigenvalue parameter at
    which I - lam * Uw becomes singular on some element.  The condensed
    problem represents every eigenvalue strictly below this wall."""
    rho = 0.0
    for ops in sys.classes:
        rho = max(rho, float(np.linalg.eigvalsh(0.5 * (ops.uwmat + ops.uwmat.T)).max()))
    return np.inf if rho == 0.0 else 1.0 / rho


def _wall_cap(sys):
    """Largest representable eigenvalue: just inside the resolvent wall."""
    return (1.0 - 1e-3) * _resolvent_limit(sys)


def _checked_defect(sys, lam, vec):
    """Relative residual |A v - lam M(lam) v| / |A v|, checked against the tolerance."""
    av = sys.A @ vec
    res = np.linalg.norm(av - lam * (assemble_m_of_lambda(sys, lam) @ vec))
    defect = res / np.linalg.norm(av)
    if defect > _RESIDUAL_TOL:
        raise EigenSolveError("eigenpair at %.6g fails the nonlinear residual check "
                              "(relative %.2e vs %.2e)" % (lam, defect, _RESIDUAL_TOL))
    return defect


def solve_condensed_nonlinear(sys, seed):
    """Refine a surrogate eigenpair into a condensed nonlinear eigenpair.

    Each iteration freezes the resolvent Gram matrix at the current
    iterate kappa and solves the resulting linear pencil for the
    eigenvalue theta at the seed's spectral index.  The first update is
    the plain fixed-point step kappa <- theta; afterwards a secant step
    on F(kappa) = theta(kappa) - kappa is used, kept inside the bracket
    that the sign of F provides (F is strictly decreasing).  On fine
    meshes the fixed point contracts and the secant just accelerates it;
    on coarse meshes it keeps the iteration from oscillating.
    """
    lam = float(seed.value)
    if lam <= 0:
        raise EigenSolveError("seed eigenvalue must be positive")
    vec = getattr(seed, "vector", None)
    index = getattr(seed, "index", None)
    lam_cap = _wall_cap(sys)
    kappa = min(lam, lam_cap)
    lo, hi = 0.0, None  # F(0) = surrogate value > 0
    prev = None
    history = [kappa]

    for iteration in range(1, _SECANT_MAX_ITER + 1):
        mmat = assemble_m_of_lambda(sys, kappa)
        if index is None:
            # index-less seed: lock onto the positive mode closest to it
            cap = min(sys.ndof - 1, _scalar_dim(sys))
            count = min(8, cap)
            thetas, vecs = _pencil_lowest(sys, mmat, count, v0=vec)
            if thetas[-1] < kappa and count < cap:
                count = min(2 * count, cap)
                thetas, vecs = _pencil_lowest(sys, mmat, count, v0=vec)
            index = int(np.argmin(np.abs(thetas - kappa))) + 1
        else:
            thetas, vecs = _pencil_lowest(sys, mmat, index, v0=vec)
        theta, vec = thetas[index - 1], vecs[:, index - 1]
        resid = theta - kappa
        defect = abs(resid) / abs(theta)
        history.append(theta)
        if defect <= _SECANT_TOL:
            _checked_defect(sys, theta, vec)
            return EigenPair(theta, vec, iteration, defect, history)

        # bracket update: F decreasing, so F > 0 puts the root above kappa
        if resid > 0:
            lo = max(lo, kappa)
        else:
            hi = kappa if hi is None else min(hi, kappa)

        if prev is None or prev[1] == resid:
            nxt = theta  # plain fixed-point step
        else:
            k0, f0 = prev
            nxt = kappa - resid * (kappa - k0) / (resid - f0)
        prev = (kappa, resid)
        if hi is not None and not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        elif hi is None and not nxt > lo:
            nxt = 0.5 * (lo + min(kappa, lam_cap))
        if lo >= lam_cap * (1.0 - 1e-12):
            raise EigenSolveError(
                "eigenvalue tracked from seed %.6g lies beyond the first "
                "resolvent resonance %.6g; the condensed problem cannot "
                "represent it on this mesh" % (lam, lam_cap)
            )
        kappa = min(nxt, lam_cap)

    raise ConvergenceError(
        "nonlinear eigenvalue iteration did not reach a relative update of "
        "%.1e within %d iterations" % (_SECANT_TOL, _SECANT_MAX_ITER),
        history=history,
    )


def _source_operator(sys):
    """The solution operator T f = U eta(f) + Uw f, eta(f) = A^{-1} B f,
    on the per-element scalar coefficients (orthonormal local bases, so
    T is a symmetric matrix).  ``applications`` counts its matvecs."""
    lu = sys.factorized()
    shape = (len(sys.mesh.triangles), sys.n_w)

    def matvec(f):
        op.applications += 1
        fmom = np.reshape(f, shape)
        return recover_source_fields(sys, lu.solve(moment_rhs(sys, fmom)), fmom)[0].ravel()

    op = scipy.sparse.linalg.LinearOperator((shape[0] * shape[1],) * 2, matvec=matvec,
                                            dtype=float)
    op.applications = 0
    return op


def solve_modes(sys, m):
    """Lowest m eigenpairs, ascending, from one Lanczos run on T.

    The largest eigenvalues mu of T give lam = 1/mu.  An eigenvector u of
    T is a scalar field with source lam u, so its trace is A^{-1} B u up
    to scale.  A pair at or beyond the resolvent wall, or failing the
    nonlinear residual check, raises ``EigenSolveError``.
    """
    m, op = int(m), _source_operator(sys)
    n = op.shape[0]
    if not 1 <= m < n:
        raise EigenSolveError("requested %d modes of a dimension-%d scalar space" % (m, n))
    mu, vecs = _eigsh(op, m, "Lanczos run on the solution operator",
                      v0=_deterministic_start(n))
    order = np.argsort(mu)[::-1]
    shape = (len(sys.mesh.triangles), sys.n_w)
    rhs = [moment_rhs(sys, np.reshape(vecs[:, i], shape)) for i in order]
    etas = sys.factorized().solve(np.column_stack(rhs))
    lam_cap = _wall_cap(sys)
    pairs = []
    for eta, mu_i in zip(etas.T, mu[order]):
        lam = 1.0 / mu_i if mu_i > 0 else -np.inf
        if not 0.0 < lam < lam_cap:
            raise EigenSolveError(
                "eigenvalue %d (%.6g) is not inside (0, %.6g), the resonance-free "
                "interval of the resolvent on this mesh" % (len(pairs) + 1, lam, lam_cap)
            )
        pairs.append(EigenPair(lam, eta, op.applications, _checked_defect(sys, lam, eta)))
    return pairs


def oracle_full_eig(mesh, spaces, tau, mat=None, m=6):
    """Lowest m eigenvalues of the full problem via the solution operator,
    from ``solve_modes`` on a condensed system assembled here."""
    sys = assemble_condensed(mesh, spaces, tau, mat or MaterialSpec.identity())
    values = np.array([p.value for p in solve_modes(sys, m)])
    return OracleSpectrum(values, _source_operator(sys))
