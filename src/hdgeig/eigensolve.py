"""Trace eigenproblem solvers.

Static condensation leaves three maps on the scalar space W_h (per-element
scalar coefficients, orthonormal local bases): the trace lift U, the
moment map U^T and the stiffness inverse A^-1 (the cached factorization).
``CondensedSystem`` compiles U and the block-diagonal load lift W into
sparse matrices, and every eigensolve here finds the largest eigenvalues
mu of a member of the family D U A^-1 U^T D (+ W) of symmetric operators
on W_h, applied to a vector or, with one multi-right-hand-side solve, to
the columns of a block:

* ``solve_modes`` (the entry point of the command line, the study and the
  tests) on the source-solution operator T = U A^-1 U^T + W: lam = 1/mu;
* the surrogate pencil A x = theta G x, G = U^T U, on T0 = U A^-1 U^T;
* the nonlinear eigensolve's frozen pencil A x = theta M(kappa) x,
  M(kappa) = U^T R U with R = (I - kappa W)^-1, on D T0 D with
  D = R^(1/2).  The surrogate is the frozen pencil at kappa = 0;
  theta = 1/mu for both.

Without a start block a run is a standard-mode ARPACK Lanczos run from a
fixed vector.  Given a block of approximate eigenvectors (the study's
nested levels provide one), it is a LOBPCG run from that block, which
needs fewer multi-right-hand-side solves when the block is close.  From
a random block LOBPCG is slower than Lanczos and stalls on clusters, so
no cold run uses it.

An eigenvector y gives the trace A^-1 U^T D y.  The kernel of G becomes
zero eigenvalues of T0 (theta infinite), which never reach the lowest
modes.  The paper's route, kept as the reference, is surrogate-seeded,
predictor plus safeguarded Newton on the frozen-pencil fixed point
(``solve_condensed_nonlinear``): the roots of the strictly decreasing
F(kappa) = theta_i(kappa) - kappa are the condensed nonlinear
eigenvalues, and the frozen pencil's own eigenvector gives the slope
theta_i' = -theta_i z.W z / y.y (Hellmann-Feynman; Ruhe, SIAM J. Numer.
Anal. 10 (1973)).  On the 96 modes of the coarse oracle grid (square and
L-shape, levels 0-1, k = 0-1, tau = 1 and h) it takes 231 frozen-pencil
solves.
Every pair carries its spectral index: M(kappa) grows with kappa, so the
i-th eigenvalue is the fixed point of theta_i(kappa) = kappa, and the
iteration started from any pair refines the mode at that index.
Residual checks apply M(lam) through the resolvent lift.
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
#: LOBPCG stops when every residual |T x - mu x| (unit x) is at most this
#: times the operator's scale; looser values let the eigenvectors, and
#: with them the eigenfunction errors, drift from the Lanczos run's
_LOBPCG_RTOL = 1e-12
_LOBPCG_MAX_ITER = 100


class EigenPair:
    """Trace eigenpair; ``index`` is its 1-based position in the ascending
    spectrum.

    From ``solve_modes``: ``iterations`` counts solution-operator
    applications in the run (Lanczos matvecs, or LOBPCG block columns
    from a start block), ``defect`` is the relative residual
    |A eta - lam M(lam) eta| / |A eta|.  From the surrogate: a
    Gram-normalized vector, the run's operator applications and
    ``defect`` |A v - theta G v| / |A v|.  From the nonlinear eigensolve:
    its frozen-pencil solves (Newton iterations), the last relative update
    |theta - kappa| / theta and ``history``, the first frozen kappa (the
    predictor's) followed by each solve's theta, so that
    ``len(history) == iterations + 1``.
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


def _eigsh(op, k, what, v0):
    """Largest-algebraic Lanczos run from ``v0``, to machine precision;
    the one ARPACK call site.  Looked up in ``scipy.sparse.linalg`` at
    call time so it can be replaced.  The Lanczos basis holds 2k + 8
    vectors (scipy's floor is 20, an n x 20 array even for one mode)."""
    try:
        return scipy.sparse.linalg.eigsh(op, k=k, which="LA", v0=v0,
                                         ncv=min(op.shape[0], 2 * k + 8))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigenSolveError("Lanczos run on %s did not converge: %s" % (what, exc))


def _orthonormal(v, against=()):
    """Columns of ``v`` made orthonormal and orthogonal to the orthonormal
    blocks in ``against``, in two passes of a block Gram-Schmidt step
    against them and an eigendecomposition of the Gram matrix that drops
    directions dependent to round-off."""
    for _ in range(2):
        if not v.shape[1]:
            break
        for q in against:
            v -= q @ (q.T @ v)
        gram = v.T @ v
        d = 1.0 / np.sqrt(np.maximum(np.diag(gram), np.finfo(float).tiny))
        w, u = np.linalg.eigh(d[:, None] * gram * d)
        keep = w > 1e-12 * w[-1]
        v = v @ (d[:, None] * u[:, keep] / np.sqrt(w[keep]))
    return v


def _combine(blocks, coeffs):
    """sum_i blocks[i] @ coeffs[i], accumulated in place."""
    out = blocks[0] @ coeffs[0]
    for block, c in zip(blocks[1:], coeffs[1:]):
        out += block @ c
    return out


def _lobpcg(op, block, what):
    """Largest eigenpairs of ``op``, mu descending, by LOBPCG (Knyazev,
    SISC 23 (2001)) from the columns of ``block``.

    Each iteration applies ``op`` once, to the residuals R of the columns
    not yet converged (one multi-right-hand-side solve), and takes the
    Rayleigh-Ritz pairs on the orthonormal basis [X, R, P].  The new
    directions P are the update's part outside the new X, orthonormalized
    in the small Rayleigh-Ritz space (Hetmaniuk & Lehoucq, J. Comput.
    Phys. 218 (2006)), so only R is orthonormalized against the big
    blocks.  A column has converged when its residual |op x - mu x| is
    at most ``_LOBPCG_RTOL`` times the operator's scale, the largest Ritz
    value of the start block.  The run keeps X, R, P and their images:
    ``scipy.sparse.linalg.lobpcg`` keeps about fourteen blocks, which
    raised the study's peak memory by 15%.  No convergence within
    ``_LOBPCG_MAX_ITER`` iterations raises ``EigenSolveError``.
    """
    x = _orthonormal(np.asarray(block, dtype=float))
    if x.shape[1] < block.shape[1]:
        raise EigenSolveError("the start block of the LOBPCG run on %s has dependent "
                              "columns" % what)
    ax = op.matmat(x)
    h = x.T @ ax
    theta, y = np.linalg.eigh(0.5 * (h + h.T))
    theta, y = theta[::-1], y[:, ::-1]
    x, ax = x @ y, ax @ y
    tol = _LOBPCG_RTOL * abs(theta[0])
    m = x.shape[1]
    basis = [(x, ax)]
    for _ in range(_LOBPCG_MAX_ITER):
        r = x * theta
        np.subtract(ax, r, out=r)
        norms = np.linalg.norm(r, axis=0)
        if norms.max() <= tol:
            return theta, x
        if norms.min() <= tol:
            r = r[:, norms > tol]
        r = _orthonormal(r, [v for v, _ in basis])
        if not r.shape[1]:
            break  # the residuals lie in span [X, P] to round-off: no progress left
        basis.insert(1, (r, op.matmat(r)))
        h = np.block([[v.T @ av for _, av in basis] for v, _ in basis])
        w, y = np.linalg.eigh(0.5 * (h + h.T))
        theta, y = w[::-1][:m], y[:, ::-1][:, :m]
        z = y.copy()
        z[:m] = 0.0
        z = _orthonormal(z, [y])
        rows = np.cumsum([v.shape[1] for v, _ in basis])[:-1]
        ys, zs = np.split(y, rows), np.split(z, rows)
        blocks, images = zip(*basis)
        del basis, r, x, ax  # each old block goes once it is combined
        x, p = _combine(blocks, ys), _combine(blocks, zs)
        del blocks
        ax, ap = _combine(images, ys), _combine(images, zs)
        del images
        basis = [(x, ax), (p, ap)]
    raise EigenSolveError("LOBPCG run on %s did not converge within %d iterations "
                          "(largest residual %.1e of the operator's scale)"
                          % (what, _LOBPCG_MAX_ITER, norms.max() / abs(theta[0])))


def _largest(op, count, what, start=None):
    """Largest ``count`` eigenpairs of the symmetric ``op``, mu descending:
    LOBPCG from the columns of a block ``start`` (n, count), otherwise a
    Lanczos run from the vector ``start`` or from the deterministic one."""
    if start is not None and start.ndim == 2:
        return _lobpcg(op, start, what)
    v0 = _deterministic_start(op.shape[0]) if start is None else start
    mu, vecs = _eigsh(op, count, what, v0)
    order = np.argsort(mu)[::-1]
    return mu[order], vecs[:, order]


class _Operator(scipy.sparse.linalg.LinearOperator):
    """y -> D U A^-1 U^T D y + W y on W_h for D = ``root`` (None: identity)
    and W = ``load`` (None: zero), on a vector or the columns of a block
    (one multi-right-hand-side solve); ``applications`` counts columns.

    A subclass rather than a closure that updates the operator's counter:
    such a closure refers to its own operator, and the reference cycle
    kept the LU alive after the run until the cyclic collector ran.
    """

    def __init__(self, sys, root=None, load=None):
        super().__init__(float, (sys.dim_w,) * 2)
        self.lu, self.lift, self.moments = sys.factorized(), sys.lift, sys.moments
        self.root, self.load = root, load
        self.applications = 0

    def _matmat(self, y):
        self.applications += 1 if y.ndim == 1 else y.shape[1]
        x = y if self.root is None else self.root @ y
        x = self.lift @ self.lu.solve(self.moments @ x)
        if self.root is not None:
            x = self.root @ x
        if self.load is not None:
            x += self.load @ y
        return x

    _matvec = _matmat


def _check_count(sys, m):
    """Both problems have at most rank U <= min(ndof, dim W_h) modes: the
    further surrogate modes lie in the kernel of the lift Gram matrix, and
    the further modes of T at or beyond the resolvent wall (each mode below
    it has a nonzero trace A^-1 U^T u).  Lanczos also needs m < dim W_h."""
    n, rank = sys.dim_w, min(sys.ndof, sys.dim_w)
    if m > rank:
        raise EigenSolveError(
            "requested %d modes of a level that represents at most min(ndof, dim W_h) = %d: "
            "the further modes lie in the kernel of the lift Gram matrix or at the resolvent "
            "wall" % (m, rank))
    if not 1 <= m < n:
        raise EigenSolveError("requested %d modes of a dimension-%d scalar space" % (m, n))


def _frozen_pencil(sys, kappa, count, start=None):
    """Lowest ``count`` eigenpairs of A x = theta M(kappa) x: theta ascending,
    the slopes d theta / d kappa, the trace vectors as columns and the
    operator applications, from the largest eigenpairs of D T0 D (D fails
    with ``LocalSolveError`` at or beyond the wall).  A trace vector
    ``start`` seeds the Lanczos run with D U ``start``; a (dim W_h, count)
    block ``start`` of approximate eigenvectors of D T0 D starts LOBPCG.

    The slopes are Hellmann-Feynman derivatives: M'(kappa) = U^T R W R U,
    and an eigenvector y of D T0 D gives the trace x = A^-1 U^T z, z = D y,
    with x.M x = mu^2 y.y and x.M' x = mu^2 z.W z, so that
    theta' = -theta x.M' x / x.M x = -theta z.W z / y.y.
    """
    _check_count(sys, count)
    root = sys.resolvent(kappa, 0.5) if kappa else None
    if start is not None and start.ndim == 1:
        start = sys.lift @ start
        if root is not None:
            start = root @ start
    op = _Operator(sys, root)
    mu, vecs = _largest(op, count, "the frozen pencil", start)
    if mu[-1] <= 0.0:
        raise EigenSolveError("mode %d lies in the kernel of the lift Gram matrix"
                              % (np.count_nonzero(mu > 0.0) + 1))
    z = vecs if root is None else root @ vecs
    slopes = (-np.einsum("ij,ij->j", z, sys.load_lift @ z)
              / (mu * np.einsum("ij,ij->j", vecs, vecs)))
    return 1.0 / mu, slopes, sys.factorized().solve(sys.moments @ z), op.applications


def solve_linear_surrogate(sys, m, start=None):
    """Lowest m eigenpairs of the surrogate pencil (stiffness, lift Gram);
    modes in the kernel of the Gram matrix raise ``EigenSolveError``.

    The largest eigenpairs of T0 come from a Lanczos run, or with a block
    ``start`` (dim W_h, m) of approximate eigenfields, such as those of
    ``solve_modes`` (the surrogate perturbs T by -W), from LOBPCG started
    from its columns.  Each pair counts the operator applications (block
    columns for LOBPCG) in ``iterations``.
    """
    lams, _, vecs, applications = _frozen_pencil(sys, 0.0, int(m), start)
    pairs = []
    for i, (lam, vec) in enumerate(zip(lams, vecs.T), 1):
        u = sys.lift @ vec
        scale = np.linalg.norm(u)  # Gram norm: vec . G vec = |U vec|^2
        vec, u = vec / scale, u / scale
        av = sys.A @ vec
        defect = np.linalg.norm(av - lam * (sys.moments @ u)) / np.linalg.norm(av)
        if defect > _RESIDUAL_TOL:
            raise EigenSolveError("surrogate eigenpair %d residual too large" % i)
        pairs.append(EigenPair(lam, vec, i, applications, defect))
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


def _rayleigh(sys, kappa, vec):
    """Rayleigh quotient rho = x.A x / x.M(kappa) x of the trace ``vec`` and
    its slope d rho / d kappa = -rho x.M' x / x.M x, M' = U^T R W R U."""
    ru = resolvent_lift(sys, kappa, vec).ravel()
    gram = vec @ (sys.moments @ ru)
    rho = vec @ (sys.A @ vec) / gram
    return rho, -rho * (ru @ (sys.load_lift @ ru)) / gram


def solve_condensed_nonlinear(sys, seed):
    """Refine an eigenpair into a condensed nonlinear eigenpair.

    The seed is any ``EigenPair``; its value starts the iteration, its
    vector starts each Lanczos run.  Each iteration freezes the resolvent
    Gram matrix at the current iterate kappa and solves the resulting
    linear pencil for the eigenvalue theta at the seed's spectral index
    and its slope theta' (``_frozen_pencil``).  The update is a Newton
    step on F(kappa) = theta(kappa) - kappa; F' = theta' - 1 <= -1, so the
    step always exists, and it is kept inside the bracket that the sign of
    F provides (F is strictly decreasing), with bisection where it leaves
    it.  The first kappa comes from one Newton step on the seed vector's
    Rayleigh quotient x.A x / x.M(kappa) x at the seed value, kept where it
    lies in (0, wall cap).  At k = 0 on a uniform mesh W = wI, the Rayleigh
    quotient of a surrogate eigenvector is linear in kappa and that step
    lands on the eigenvalue: one frozen-pencil solve confirms it.  A
    converged seed is confirmed by the first solve as well.
    """
    lam = float(seed.value)
    if lam <= 0:
        raise EigenSolveError("seed eigenvalue must be positive")
    vec, index = seed.vector, seed.index
    lam_cap = _wall_cap(sys)
    kappa = min(lam, lam_cap)
    rho, slope = _rayleigh(sys, kappa, vec)
    predicted = kappa - (rho - kappa) / (slope - 1.0)
    if 0.0 < predicted < lam_cap:
        kappa = predicted
    lo, hi = 0.0, None  # F(0) = surrogate value > 0
    history = [kappa]

    for iteration in range(1, _SECANT_MAX_ITER + 1):
        thetas, slopes, vecs, _ = _frozen_pencil(sys, kappa, index, start=vec)
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

        nxt = kappa - resid / (slopes[index - 1] - 1.0)
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


def solve_modes(sys, m, start=None):
    """Lowest m eigenpairs, ascending, from the largest eigenpairs of T.

    The largest eigenvalues mu of T give lam = 1/mu.  An eigenvector u of
    T is a scalar field with source lam u, so its trace is A^-1 U^T u up
    to scale.  Without ``start`` one Lanczos run finds them; a block
    ``start`` (dim W_h, m) of approximate eigenfields, such as the
    previous level's injected into this one, starts LOBPCG instead, which
    pays only when the block is close.  ``iterations`` counts the
    operator applications (block columns for LOBPCG).  A pair at or
    beyond the resolvent wall, or failing the nonlinear residual check,
    raises ``EigenSolveError``.
    """
    m, op = int(m), _Operator(sys, load=sys.load_lift)
    _check_count(sys, m)
    mu, vecs = _largest(op, m, "the solution operator", start)
    etas = sys.factorized().solve(sys.moments @ vecs)
    lam_cap = _wall_cap(sys)
    pairs = []
    for index, (eta, mu_i) in enumerate(zip(etas.T, mu), 1):
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
    return OracleSpectrum(values, _Operator(sys, load=sys.load_lift))
