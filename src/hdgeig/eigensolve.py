"""Trace eigenproblem solvers.

Static condensation leaves three maps on the scalar space W_h (per-element
scalar coefficients, orthonormal local bases): the trace lift U, the
moment map U^T and the stiffness inverse A^-1 (the cached factorization).
``CondensedSystem`` compiles U and the block-diagonal load lift W into
sparse matrices, and every eigensolve here is one standard-mode ARPACK
Lanczos run, for the largest eigenvalues mu, on a member of the family
D U A^-1 U^T D (+ W) of symmetric operators on W_h:

* ``solve_modes`` (the entry point of the command line, the study and the
  tests) on the source-solution operator T = U A^-1 U^T + W: lam = 1/mu;
* the surrogate pencil A x = theta G x, G = U^T U, on T0 = U A^-1 U^T;
* the secant's frozen pencil A x = theta M(kappa) x, M(kappa) = U^T R U
  with R = (I - kappa W)^-1, on D T0 D with D = R^(1/2).  The surrogate is
  the frozen pencil at kappa = 0; theta = 1/mu for both.

An eigenvector y gives the trace A^-1 U^T D y.  The kernel of G becomes
zero eigenvalues of T0 (theta infinite), which never reach the lowest
modes.  The secant is the paper's route, kept as the reference: its roots
of the strictly decreasing F(kappa) = theta_i(kappa) - kappa are the
condensed nonlinear eigenvalues.  Every pair carries its spectral index:
M(kappa) grows with kappa, so the i-th eigenvalue is the fixed point of
theta_i(kappa) = kappa, and the secant started from any pair refines the
mode at that index.  Residual checks apply M(lam) through the resolvent
lift.
"""

import collections

import numpy as np
import scipy.sparse.linalg

from .assembly import resolvent_lift
# not called here; perfbench/spans.py still wraps them under these names
from .assembly import assemble_condensed, assemble_m_of_lambda  # noqa: F401
from .errors import ConvergenceError, EigenSolveError

__all__ = [
    "EigenPair",
    "OracleSpectrum",
    "solve_linear_surrogate",
    "solve_condensed_nonlinear",
    "solve_modes",
    "oracle_full_eig",
]

_RESIDUAL_TOL = 1e-9
_SECANT_TOL = 1e-12
_SECANT_MAX_ITER = 50


class EigenPair:
    """Trace eigenpair; ``index`` is its 1-based position in the ascending
    spectrum.

    From ``solve_modes``: ``iterations`` counts solution-operator
    applications in the Lanczos run, ``defect`` is the relative residual
    |A eta - lam M(lam) eta| / |A eta|.  From the surrogate: a
    Gram-normalized vector, no iterations and ``defect`` |A v - theta G v|
    / |A v|.  From the secant: its iteration count, last relative update
    and iterates (``history``).
    """

    def __init__(self, value, vector, index, iterations=0, defect=0.0, history=()):
        self.value = float(value)
        self.vector = np.asarray(vector, dtype=float)
        self.index = int(index)
        self.iterations = int(iterations)
        self.defect = float(defect)
        self.history = list(history)


#: ascending eigenvalues of the full problem and the solution operator
#: (a matrix-free LinearOperator) they come from
OracleSpectrum = collections.namedtuple("OracleSpectrum", "values t_matrix")


def _deterministic_start(n):
    return np.random.default_rng(20240814).standard_normal(n)


def _eigsh(op, k, what, **kwargs):
    """Largest-algebraic Lanczos run; the one ARPACK call site.  Looked
    up in ``scipy.sparse.linalg`` at call time so it can be replaced."""
    try:
        return scipy.sparse.linalg.eigsh(op, k=k, which="LA", **kwargs)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigenSolveError("%s did not converge: %s" % (what, exc))


def _operator(sys, root=None, load=None):
    """y -> D U A^-1 U^T D y + W y on W_h for D = ``root`` (None: identity)
    and W = ``load`` (None: zero); ``applications`` counts its matvecs."""
    lu, lift, moments = sys.factorized(), sys.lift, sys.moments

    def matvec(y):
        op.applications += 1
        x = y if root is None else root @ y
        x = lift @ lu.solve(moments @ x)
        if root is not None:
            x = root @ x
        return x if load is None else x + load @ y

    op = scipy.sparse.linalg.LinearOperator((sys.dim_w,) * 2, matvec=matvec, dtype=float)
    op.applications = 0
    return op


def _frozen_pencil(sys, kappa, count, start=None):
    """Lowest ``count`` eigenpairs of A x = theta M(kappa) x: theta ascending
    and the trace vectors as columns, from Lanczos on D T0 D (D fails with
    ``LocalSolveError`` at or beyond the wall).  M(kappa) has rank at most
    that of U, so modes beyond min(ndof, dim W_h) lie in its kernel.  The
    run starts from D U ``start`` for a trace vector ``start``."""
    n, rank = sys.dim_w, min(sys.ndof, sys.dim_w)
    if count > rank:
        raise EigenSolveError("mode %d lies in the kernel of the lift Gram matrix, whose "
                              "rank is at most min(ndof, dim W_h) = %d" % (count, rank))
    if not 1 <= count < n:
        raise EigenSolveError("requested %d modes of a dimension-%d scalar space" % (count, n))
    root = sys.resolvent(kappa, 0.5) if kappa else None
    v0 = _deterministic_start(n) if start is None else sys.lift @ start
    if start is not None and root is not None:
        v0 = root @ v0
    mu, vecs = _eigsh(_operator(sys, root), count, "pencil Lanczos run", v0=v0)
    order = np.argsort(mu)[::-1]
    mu, vecs = mu[order], vecs[:, order]
    if mu[-1] <= 0.0:
        raise EigenSolveError("mode %d lies in the kernel of the lift Gram matrix"
                              % (np.count_nonzero(mu > 0.0) + 1))
    if root is not None:
        vecs = root @ vecs
    return 1.0 / mu, sys.factorized().solve(sys.moments @ vecs)


def solve_linear_surrogate(sys, m):
    """Lowest m eigenpairs of the surrogate pencil (stiffness, lift Gram);
    modes in the kernel of the Gram matrix raise ``EigenSolveError``."""
    lams, vecs = _frozen_pencil(sys, 0.0, int(m))
    pairs = []
    for i, (lam, vec) in enumerate(zip(lams, vecs.T), 1):
        u = sys.lift @ vec
        scale = np.linalg.norm(u)  # Gram norm: vec . G vec = |U vec|^2
        vec, u = vec / scale, u / scale
        av = sys.A @ vec
        defect = np.linalg.norm(av - lam * (sys.moments @ u)) / np.linalg.norm(av)
        if defect > _RESIDUAL_TOL:
            raise EigenSolveError("surrogate eigenpair %d residual too large" % i)
        pairs.append(EigenPair(lam, vec, i, defect=defect))
    return pairs


def _wall_cap(sys):
    """Largest representable eigenvalue: just inside the resolvent wall."""
    return (1.0 - 1e-3) * sys.wall


def _checked_defect(sys, lam, vec):
    """Relative residual |A v - lam M(lam) v| / |A v|, checked against the tolerance."""
    av = sys.A @ vec
    res = np.linalg.norm(av - lam * (sys.moments @ resolvent_lift(sys, lam, vec).ravel()))
    defect = res / np.linalg.norm(av)
    if defect > _RESIDUAL_TOL:
        raise EigenSolveError("eigenpair at %.6g fails the nonlinear residual check "
                              "(relative %.2e vs %.2e)" % (lam, defect, _RESIDUAL_TOL))
    return defect


def solve_condensed_nonlinear(sys, seed):
    """Refine an eigenpair into a condensed nonlinear eigenpair.

    The seed is any ``EigenPair``; its value starts the iteration, its
    vector starts each Lanczos run.  Each iteration freezes the resolvent
    Gram matrix at the current iterate kappa and solves the resulting
    linear pencil for the eigenvalue theta at the seed's spectral index.
    The first update is the plain fixed-point step kappa <- theta;
    afterwards a secant step on F(kappa) = theta(kappa) - kappa is used,
    kept inside the bracket that the sign of F provides (F is strictly
    decreasing).  On fine meshes the fixed point contracts and the secant
    just accelerates it; on coarse meshes it keeps the iteration from
    oscillating.
    """
    lam = float(seed.value)
    if lam <= 0:
        raise EigenSolveError("seed eigenvalue must be positive")
    vec, index = seed.vector, seed.index
    lam_cap = _wall_cap(sys)
    kappa = min(lam, lam_cap)
    lo, hi = 0.0, None  # F(0) = surrogate value > 0
    prev = None
    history = [kappa]

    for iteration in range(1, _SECANT_MAX_ITER + 1):
        thetas, vecs = _frozen_pencil(sys, kappa, index, start=vec)
        theta, vec = thetas[index - 1], vecs[:, index - 1]
        resid = theta - kappa
        defect = abs(resid) / abs(theta)
        history.append(theta)
        if defect <= _SECANT_TOL:
            _checked_defect(sys, theta, vec)
            return EigenPair(theta, vec, index, iteration, defect, history)

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


def solve_modes(sys, m):
    """Lowest m eigenpairs, ascending, from one Lanczos run on T.

    The largest eigenvalues mu of T give lam = 1/mu.  An eigenvector u of
    T is a scalar field with source lam u, so its trace is A^-1 U^T u up
    to scale.  A pair at or beyond the resolvent wall, or failing the
    nonlinear residual check, raises ``EigenSolveError``.
    """
    m, op = int(m), _operator(sys, load=sys.load_lift)
    n = op.shape[0]
    if not 1 <= m < n:
        raise EigenSolveError("requested %d modes of a dimension-%d scalar space" % (m, n))
    mu, vecs = _eigsh(op, m, "Lanczos run on the solution operator",
                      v0=_deterministic_start(n))
    order = np.argsort(mu)[::-1]
    etas = sys.factorized().solve(sys.moments @ vecs[:, order])
    lam_cap = _wall_cap(sys)
    pairs = []
    for index, (eta, mu_i) in enumerate(zip(etas.T, mu[order]), 1):
        lam = 1.0 / mu_i if mu_i > 0 else -np.inf
        if not 0.0 < lam < lam_cap:
            raise EigenSolveError(
                "eigenvalue %d (%.6g) is not inside (0, %.6g), the resonance-free "
                "interval of the resolvent on this mesh" % (index, lam, lam_cap)
            )
        pairs.append(EigenPair(lam, eta, index, op.applications,
                               _checked_defect(sys, lam, eta)))
    return pairs


def oracle_full_eig(sys, m=6):
    """Lowest m eigenvalues of the full problem via the solution operator
    of the condensed system ``sys``, from ``solve_modes``."""
    values = np.array([p.value for p in solve_modes(sys, m)])
    return OracleSpectrum(values, _operator(sys, load=sys.load_lift))
