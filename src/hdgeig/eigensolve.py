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
The Gram matrices may have a kernel (they do for k = 0), so pencils are
solved in inverted form with the positive definite stiffness on the right.
"""

import collections

import numpy as np
import scipy.linalg
import scipy.sparse
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

_DENSE_CUTOFF = 900
_RESIDUAL_TOL = 1e-9
_KERNEL_FLOOR = 1e-12


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


def _as_dense(mat):
    return mat.toarray() if scipy.sparse.issparse(mat) else np.asarray(mat)


def _stiffness_inverse_operator(sys):
    """LinearOperator applying the cached stiffness factorization."""
    lu = sys.factorized()
    n = sys.ndof
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve)


def _inverted_pencil_largest(p, q, m, v0=None, qinv=None):
    """Largest m eigenvalues of p x = mu q x with q positive definite.

    Used with the possibly singular Gram matrix on the left so that its
    kernel maps harmlessly to mu = 0.  ``qinv`` may supply a reusable
    factorization of q.
    """
    n = p.shape[0]
    if n <= _DENSE_CUTOFF or m >= n - 1:
        vals, vecs = scipy.linalg.eigh(_as_dense(p), _as_dense(q))
        sel = np.argsort(vals)[::-1][:m]
    else:
        vals, vecs = scipy.sparse.linalg.eigsh(
            scipy.sparse.csc_matrix(p), k=m, M=scipy.sparse.csc_matrix(q),
            which="LM", v0=v0 if v0 is not None else _deterministic_start(n),
            Minv=qinv,
        )
        sel = np.argsort(vals)[::-1]
    return vals[sel], vecs[:, sel]


def solve_linear_surrogate(sys, m):
    """Lowest m eigenpairs of the surrogate pencil (stiffness, lift Gram).

    The Gram matrix is only positive semidefinite; requested modes must
    stay clear of its numerical kernel, otherwise the space configuration
    cannot resolve them and an error is raised.
    """
    m = int(m)
    if not 1 <= m <= sys.ndof:
        raise EigenSolveError("requested %d modes of an n=%d system" % (m, sys.ndof))
    qinv = _stiffness_inverse_operator(sys) if sys.ndof > _DENSE_CUTOFF else None
    mu, vecs = _inverted_pencil_largest(sys.G, sys.A, m, qinv=qinv)
    if mu[0] <= 0:
        raise EigenSolveError("surrogate Gram matrix is numerically zero")
    if mu[-1] <= _KERNEL_FLOOR * mu[0]:
        raise EigenSolveError(
            "surrogate Gram matrix is singular at the requested mode count "
            "(mode %d lies in its kernel); this flags a space configuration "
            "that cannot resolve that many modes" % m
        )
    pairs = []
    for i in range(m):
        lam = 1.0 / mu[i]
        vec = vecs[:, i]
        gnorm = vec @ (sys.G @ vec)
        vec = vec / np.sqrt(gnorm)
        res = np.linalg.norm(sys.A @ vec - lam * (sys.G @ vec))
        if res > _RESIDUAL_TOL * np.linalg.norm(sys.A @ vec):
            raise EigenSolveError("surrogate eigenpair %d residual too large" % (i + 1))
        pairs.append(SurrogatePair(lam, vec, index=i + 1))
    return pairs


def _pencil_positive_modes(amat, mmat, count, v0=None, ainv=None):
    """Lowest ``count`` positive eigenvalues theta of a x = theta m x.

    Solved as the inverted pencil m x = (1/theta) a x so that a singular
    m only contributes harmless zero eigenvalues.
    """
    n = amat.shape[0]
    if n <= _DENSE_CUTOFF:
        w, vecs = scipy.linalg.eigh(_as_dense(mmat), _as_dense(amat))
    else:
        k = min(max(count + 2, 6), n - 1)
        try:
            w, vecs = scipy.sparse.linalg.eigsh(
                scipy.sparse.csc_matrix(mmat), k=k, M=scipy.sparse.csc_matrix(amat),
                which="LA", v0=v0 if v0 is not None else _deterministic_start(n),
                Minv=ainv,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise EigenSolveError("sparse pencil eigensolver did not converge: %s" % exc)
    floor = _KERNEL_FLOOR * np.abs(w).max()
    pos = np.flatnonzero(w > floor)
    if pos.size < count:
        raise EigenSolveError(
            "frozen pencil has only %d positive modes, need %d" % (pos.size, count)
        )
    # largest w correspond to the smallest theta = 1/w
    pos = pos[np.argsort(w[pos])[::-1][:count]]
    return 1.0 / w[pos], vecs[:, pos]


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


def solve_condensed_nonlinear(sys, seed, rel_tol=1e-12, max_iter=50):
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
    ainv = _stiffness_inverse_operator(sys) if sys.ndof > _DENSE_CUTOFF else None
    lo, hi = 0.0, None  # F(0) = surrogate value > 0
    prev = None
    history = [kappa]

    for iteration in range(1, int(max_iter) + 1):
        mmat = assemble_m_of_lambda(sys, kappa)
        if index is None:
            # index-less seed: lock onto the positive mode closest to it
            count = min(8, sys.ndof)
            thetas, vecs = _pencil_positive_modes(sys.A, mmat, count, v0=vec, ainv=ainv)
            if thetas[-1] < kappa and count < sys.ndof:
                count = min(2 * count, sys.ndof)
                thetas, vecs = _pencil_positive_modes(sys.A, mmat, count, v0=vec, ainv=ainv)
            index = int(np.argmin(np.abs(thetas - kappa))) + 1
            theta, vec = thetas[index - 1], vecs[:, index - 1]
        else:
            thetas, vecs = _pencil_positive_modes(sys.A, mmat, index, v0=vec, ainv=ainv)
            theta, vec = thetas[index - 1], vecs[:, index - 1]
        resid = theta - kappa
        defect = abs(resid) / abs(theta)
        history.append(theta)
        if defect <= rel_tol:
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
        "nonlinear eigenvalue iteration did not reach rel_tol=%.1e within "
        "%d iterations" % (rel_tol, max_iter),
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
    try:
        mu, vecs = scipy.sparse.linalg.eigsh(op, k=m, which="LA", v0=_deterministic_start(n))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigenSolveError("Lanczos run on the solution operator did not converge: %s" % exc)
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
