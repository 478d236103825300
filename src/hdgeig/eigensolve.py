"""Trace eigenproblem solvers.

Static condensation leaves three maps on the scalar space W_h (per-element
scalar coefficients, orthonormal local bases): the trace lift U, the
moment map U^T and the stiffness inverse A^-1 (the cached factorization).
Both linear eigensolves find the largest eigenvalues mu of a symmetric
operator U A^-1 U^T (+ W, the block-diagonal load lift) on W_h, applied
to a vector or, in one solve, to the columns of a block:

* ``solve_modes`` (the first eigensolve of every command) on the
  source-solution operator T = U A^-1 U^T + W: lam = 1/mu;
* ``solve_linear_surrogate``, the surrogate pencil A x = theta G x,
  G = U^T U, on T0 = U A^-1 U^T: theta = 1/mu.

Without a start block the modes run is an ARPACK Lanczos run from a fixed
vector.  From a block of approximate eigenvectors (the study's nested
levels provide one) it is LOBPCG, which needs fewer solves when the block
is close; from a random block it is slower and stalls on clusters.  An
eigenvector y gives the trace A^-1 U^T y.  The surrogate run is LOBPCG on
T0 from the modes run's Ritz block, which it takes over from its
``Modes``, and whose image their traces already give, until the values,
not the vectors, have converged; it checks each value against the
enclosure that the nonlinear eigenvalues give it, and returns its Ritz
block, whose traces seed the paper's route.
The kernel of G becomes zero eigenvalues of T0 (theta infinite), which
never reach the lowest modes.

The paper's route, kept as the reference, is surrogate-seeded Newton on
the frozen-pencil fixed point (``solve_condensed_nonlinear``): the roots
of the strictly decreasing F(kappa) = theta_i(kappa) - kappa are the
condensed nonlinear eigenvalues of the frozen pencils A x = theta
M(kappa) x, M(kappa) = U^T (I - kappa W)^-1 U, whose eigenvector gives
the slope theta_i' (Hellmann-Feynman; Ruhe, SIAM J. Numer. Anal. 10
(1973)), solved by Rayleigh-Ritz on a bounded search space
(``SearchSpace``) that owns the seeds and that their modes share,
restarted thick with the converged modes locked.
M(kappa) grows with kappa, so the i-th eigenvalue is the fixed point of
theta_i(kappa) = kappa: every pair carries its spectral index.  Residual
checks apply M(lam) through the resolvent lift.
"""

import collections
import functools

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .assembly import resolvent_lift
# not called here; perfbench/spans.py still wraps them under these names
from .assembly import assemble_condensed, assemble_m_of_lambda  # noqa: F401
from .errors import ConvergenceError, EigenSolveError, LocalSolveError

__all__ = [
    "EigenPair",
    "Modes",
    "OracleSpectrum",
    "SurrogateValues",
    "solve_linear_surrogate",
    "solve_condensed_nonlinear",
    "SearchSpace",
    "solve_modes",
    "oracle_full_eig",
]

_RESIDUAL_TOL = 1e-9
_SECANT_TOL = 1e-12
_SECANT_MAX_ITER = 50
#: the frozen pencils' residual floor: below it Rayleigh-Ritz on the
#: search space stops growing it at every Newton iteration
_FROZEN_TOL = 1e-12
#: a search-space direction keeping at most this fraction of its A-norm
#: after the projection out of V, or a LOBPCG direction of its norm after
#: the projection out of the basis, is round-off
_STALL_TOL = 1e-8
#: the search space's bound and the margin of its thick restart, which
#: keeps the top index + _SPACE_MARGIN Ritz vectors.  Six modes on one
#: space took, at bound/margin 24/6, 28/6, 32/4, 32/6, 32/8 and 40/8, 686,
#: 667, 673, 653, 634 and 602 LU solves on the 16 cells of the criterion-1
#: oracle grid, and 641, 608, 627, 559, 574 and 504 (L-shape, level 2, k =
#: 2, tau = h) and 839, 711, 753, 719, 631 and 637 (square, level 1, k = 3,
#: tau = 0.1) on two near-wall clusters, where a space per mode, unbounded,
#: took 857, 583 and 791.  The grid's route took 0.10-0.11 s at each (best
#: of three in-process passes, OpenBLAS on one thread, 2 vCPUs) against
#: 0.14 s; 32/6 is the smallest bound and margin tried that solve less
#: than a space per mode on both clusters.  Margin 0 stalls the square's
#: mode 6
_SPACE_MAX = 32
_SPACE_MARGIN = 6
#: LOBPCG's vector stop: every residual |T x - mu x| (unit x) at most this
#: times the operator's scale; looser values let the eigenvectors, and
#: with them the eigenfunction errors, drift from the Lanczos run's
_LOBPCG_RTOL = 1e-12
_LOBPCG_MAX_ITER = 100
#: LOBPCG's value stop: each residual at most this times its own Ritz
#: value.  A Ritz value's error is at most |r|^2 / gap (Parlett, The
#: Symmetric Eigenvalue Problem, 1998), so the values are then at round-off
_VALUE_RTOL = np.sqrt(np.finfo(float).eps)
#: relative slack of the surrogate values' enclosure, whose upper bound
#: is an equality at k = 0 on uniform meshes
_ENCLOSURE_SLACK = 1e-9


class EigenPair:
    """A trace eigenpair that ``solve_modes`` or ``solve_condensed_nonlinear``
    returns: ``index`` is its 1-based position in the ascending spectrum,
    ``residual`` the nonlinear residual |A eta - lam M(lam) eta| / |A eta|
    that the eigensolve checked, and ``field`` the eigenfield (I - lam
    W)^-1 U eta (T, n_w) that the check lifted.

    From ``solve_modes``: ``iterations`` counts the run's operator
    applications (Lanczos matvecs, or LOBPCG block columns), ``solves``
    the solves that made them, and ``vector`` and ``field`` are views of
    columns of the run's ``Modes`` blocks.  From the nonlinear eigensolve:
    an A-normalized trace (v.A v = 1), its frozen-pencil solves (Newton
    iterations), the LU solves its call made on the search space
    (``solves``), the space's dimension when it returned (``space``) and
    ``history``, each frozen kappa (the first the predictor's) followed by
    the last solve's theta, so that ``len(history) == iterations + 1`` and
    the last relative update is |theta - kappa| / theta of its last two.
    The modes run leaves ``history`` empty and ``space`` 0.
    """

    def __init__(self, value, vector, index, iterations, residual, solves, field, history=(),
                 space=0):
        self.value = float(value)
        self.vector = np.asarray(vector, dtype=float)
        self.index = int(index)
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.solves = int(solves)
        self.field = field
        self.history = list(history)
        self.space = int(space)


class Modes(list):
    """The ascending pairs of ``solve_modes`` and the column-major blocks
    their ``vector``s and ``field``s are views of: ``traces`` (ndof, m) and
    ``fields`` (dim W_h, m), with ``ritz``, the run's unit Ritz vectors x
    of T, which ``solve_linear_surrogate`` takes over, leaving None."""

    def __init__(self, pairs, traces, fields, ritz):
        super().__init__(pairs)
        self.traces, self.fields, self.ritz = traces, fields, ritz


#: ascending eigenvalues of the full problem and the solution operator
#: (a matrix-free LinearOperator) they come from
OracleSpectrum = collections.namedtuple("OracleSpectrum", "values t_matrix")


@functools.lru_cache(maxsize=8)
def _deterministic_start(n):
    """The fixed start vector of size ``n``, drawn once, shared read-only."""
    v = np.random.default_rng(20240814).standard_normal(n)
    v.setflags(write=False)
    return v


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


#: rows per block of the in-place products on the LOBPCG workspace
_ROWS = 4096


def _times(a, c):
    """a[:, :c.shape[1]] = a @ c in place, ``_ROWS`` rows at a time, column-major."""
    for i in range(0, len(a), _ROWS):
        a[i:i + _ROWS, :c.shape[1]] = (c.T @ a[i:i + _ROWS].T).T


def _orthonormalize(v, against, image=None):
    """Make the columns of ``v`` orthonormal and orthogonal to the
    orthonormal columns of ``against``, in place, in two passes of a block
    Gram-Schmidt step and an eigendecomposition of the Gram matrix that
    drops directions dependent to round-off (and columns keeping at most
    ``_STALL_TOL`` of their norm after the projection); returns how many
    lead ``v``.  With ``against`` empty each pass is a product with a
    small matrix, and ``image``, an operator applied to ``v``, takes the
    same products."""
    k = v.shape[1]
    for _ in range(2):
        if not k:
            break
        u = v[:, :k]
        before = np.einsum("ij,ij->j", u, u)
        u -= ((u.T @ against) @ against.T).T  # column-major, as u
        gram = u.T @ u
        d = 1.0 / np.sqrt(np.maximum(np.diag(gram), np.finfo(float).tiny))
        d[np.diag(gram) <= _STALL_TOL**2 * before] = 0.0
        w, q = np.linalg.eigh(d[:, None] * gram * d)
        keep = w > 1e-12 * w[-1]
        c = d[:, None] * q[:, keep] / np.sqrt(w[keep])
        _times(u, c)
        if image is not None:
            _times(image[:, :k], c)
        k = np.count_nonzero(keep)
    return k


def _lobpcg(op, start, what, stop="vectors", image=None):
    """Largest eigenpairs of ``op``, mu descending, by LOBPCG (Knyazev,
    SISC 23 (2001)) from the m columns of the block that ``start()``
    returns, with the largest relative residual |op x - mu x| / mu of the
    returned pairs.  Given ``image``, ``image()`` returns op applied to
    that block, and the run makes no solve for it.  Each is called once,
    and the run copies what it returns into its workspace and keeps no
    other reference: a block the caller does not hold lives only until
    then.

    Each iteration applies ``op`` to the residuals R of the columns not
    yet converged (one solve) and takes the Rayleigh-Ritz pairs on the
    orthonormal basis [X | P | R].  The new directions P are the update's
    part outside the new X, orthonormalized in the small Rayleigh-Ritz
    space (Hetmaniuk & Lehoucq, J. Comput. Phys. 218 (2006)), so only R is
    orthonormalized against the big blocks.  A column has converged when
    |op x - mu x| is at most ``_LOBPCG_RTOL`` times the largest Ritz value
    of the start block (``stop="vectors"``), or ``_VALUE_RTOL`` times its
    own Ritz value (``stop="values"``).  A run still short of that after
    ``_LOBPCG_MAX_ITER`` iterations, or whose residuals lie in span [X, P]
    to round-off, raises ``EigenSolveError`` naming that stop.

    The basis and its image live in two preallocated column-major (n, 3m)
    arrays (Duersch, Shao, Yang & Gu, SISC 40 (2018)): the Rayleigh-Ritz
    matrix is one product, R is built and orthonormalized in its own slot,
    and the update is one product per array, in place by rows.  The run
    peaks at about 8.5 blocks of n x m, a start block that ``start`` makes
    included (``scipy.sparse.linalg.lobpcg``: 14, its start block not
    included).
    """
    block = start()
    n, m = block.shape
    s = np.empty((n, 3 * m), order="F")  # [X | P | R]
    s[:, :m] = block
    del block
    a = np.empty_like(s)  # op [X | P | R]

    def apply(lo, hi):
        """a[:, lo:hi] = op s[:, lo:hi], read row-major from the slot: scipy's
        sparse products would copy a column-major block to row-major."""
        rows = a[:, lo:hi].T.reshape(n, hi - lo)
        rows[...] = s[:, lo:hi]
        a[:, lo:hi] = op.matmat(rows)

    if image is not None:
        a[:, :m] = image()
    if _orthonormalize(s[:, :m], s[:, :0], None if image is None else a[:, :m]) < m:
        raise EigenSolveError("the start block of the LOBPCG run on %s has dependent "
                              "columns" % what)
    if image is None:
        apply(0, m)
    width, p = m, 0  # columns of the basis, and of P
    for iteration in range(_LOBPCG_MAX_ITER + 1):
        h = s[:, :width].T @ a[:, :width]
        mu, y = np.linalg.eigh(0.5 * (h + h.T))
        theta, y = mu[::-1][:m], y[:, ::-1][:, :m]
        if iteration:
            z = np.vstack([np.zeros((m, m)), y[m:]])
            p = _orthonormalize(z, y)
            y = np.hstack([y, z[:, :p]])
        else:
            tol = _LOBPCG_RTOL * abs(theta[0])
        _times(s[:, :width], y)
        _times(a[:, :width], y)
        r = s[:, m + p:2 * m + p]
        np.subtract(a[:, :m], np.multiply(s[:, :m], theta, out=r), out=r)
        norms = np.sqrt(np.einsum("ij,ij->j", r, r))
        if stop == "values":
            tol = _VALUE_RTOL * np.abs(theta)
        if (norms <= tol).all():
            return theta, s[:, :m].copy(order="F"), (norms / np.abs(theta)).max()
        if iteration == _LOBPCG_MAX_ITER:
            ended = "did not converge within %d iterations" % _LOBPCG_MAX_ITER
            break
        live = np.flatnonzero(norms > tol)
        for j, c in enumerate(live):  # converged columns leave R
            r[:, j] = r[:, c]
        k = _orthonormalize(r[:, :live.size], s[:, :m + p])
        if not k:
            ended = ("stalled after %d iterations: its residuals lie in span [X, P] to "
                     "round-off" % iteration)
            break
        width = m + p + k
        apply(m + p, width)
    raise EigenSolveError("LOBPCG run on %s %s (largest residual %.1e of the operator's "
                          "scale)" % (what, ended, norms.max() / abs(theta[0])))


class _Operator(scipy.sparse.linalg.LinearOperator):
    """y -> U A^-1 U^T y + W y on W_h for W = ``load`` (None: zero), on a
    vector or the columns of a block (one multi-right-hand-side solve);
    ``applications`` counts columns and ``solves`` the solves.

    A subclass rather than a closure that updates the operator's counter:
    such a closure refers to its own operator, and the reference cycle
    kept the LU alive after the run until the cyclic collector ran.
    """

    def __init__(self, sys, load=None):
        super().__init__(float, (sys.dim_w,) * 2)
        self.lu, self.lift, self.moments, self.load = sys.factorized(), sys.lift, sys.moments, load
        self.applications = self.solves = 0

    def _matmat(self, y):
        self.applications += 1 if y.ndim == 1 else y.shape[1]
        self.solves += 1
        x = self.lift @ self.lu.solve(self.moments @ y)
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
        raise EigenSolveError("requested %d modes of a level that represents at most min(ndof, "
                              "dim W_h) = %d: the further modes lie in the kernel of the lift "
                              "Gram matrix or at the resolvent wall" % (m, rank))
    if not 1 <= m < n:
        raise EigenSolveError("requested %d modes of a dimension-%d scalar space" % (m, n))


#: the surrogate's ascending eigenvalues, the run's operator applications
#: and solves, its stop ("values" or "vectors"), largest relative residual
#: and Ritz block (dim W_h, m), the values' unit eigenvectors x of T0
SurrogateValues = collections.namedtuple("SurrogateValues",
                                         "values applications solves stop residual ritz")


def solve_linear_surrogate(sys, modes):
    """The lowest len(modes) eigenvalues of the surrogate pencil, with the
    Ritz block of T0 they come from, for the ``Modes`` of ``solve_modes``,
    by LOBPCG on T0 from their Ritz block X, whose image T0 X = U A^-1
    U^T X is U applied to their traces: the start costs no solve.  The
    run takes the Ritz block over, and ``modes.ritz`` becomes None, so
    that neither the block nor its image outlives its copy in the run's
    workspace.  Modes without ``ritz`` (pairs that are not a ``Modes``, or
    whose block a surrogate run already took) raise ``ValueError``.

    The run takes the value stop, unless the modes lie near the wall
    (lam_m > wall / 2): there the eigenfields of spurious modes need not
    span the surrogate's lowest subspace, and the value stop can settle
    on a higher eigenvalue.  W is SPD, so G <= M(kappa) <= G / (1 - kappa
    / wall), and each value must lie in the enclosure lam_i <= theta_i <=
    lam_i / (1 - lam_i / wall); one outside it by more than
    ``_ENCLOSURE_SLACK`` relative (a mode in the kernel of G among them)
    raises ``EigenSolveError``.
    """
    if getattr(modes, "ritz", None) is None:
        raise ValueError("the surrogate run starts from the Ritz block of solve_modes' Modes, "
                         "and these pairs carry none")
    lams = np.array([p.value for p in modes])
    _check_count(sys, len(lams))
    stop = "vectors" if lams[-1] > 0.5 * sys.wall else "values"
    op = _Operator(sys)

    def ritz_block():  # the run takes the block over: the modes let it go
        block, modes.ritz = modes.ritz, None
        return block

    mu, ritz, residual = _lobpcg(op, ritz_block, "the surrogate pencil", stop,
                                 lambda: sys.lift @ modes.traces)
    values, upper = 1.0 / mu, lams / (1.0 - lams / sys.wall)
    outside = np.flatnonzero((values < lams * (1.0 - _ENCLOSURE_SLACK))
                             | (values > upper * (1.0 + _ENCLOSURE_SLACK)))
    if outside.size:
        i = outside[0]
        raise EigenSolveError("surrogate value %d (%.10g) lies outside its enclosure [%.10g, "
                              "%.10g]" % (i + 1, values[i], lams[i], upper[i]))
    return SurrogateValues(values, op.applications, op.solves, stop, residual, ritz)


def _wall_cap(sys):
    """Largest representable eigenvalue: just inside the resolvent wall."""
    return (1.0 - 1e-3) * sys.wall


def _checked_residual(sys, lam, vec):
    """Relative residual |A v - lam M(lam) v| / |A v|, checked against the
    tolerance, and the eigenfield (I - lam W)^-1 U v (T, n_w) it lifts."""
    field, av = resolvent_lift(sys, lam, vec), sys.A @ vec
    res = np.linalg.norm(av - lam * (sys.moments @ field.ravel()))
    residual = res / np.linalg.norm(av)
    if residual > _RESIDUAL_TOL:
        raise EigenSolveError("eigenpair at %.6g fails the nonlinear residual check "
                              "(relative %.2e vs %.2e)" % (lam, residual, _RESIDUAL_TOL))
    return residual, field


def _resolvent_diagonal(w, classes, kappa):
    """d = 1 / (1 - kappa w); ``EigenSolveError`` where the resolvent of
    any class is singular or conditioned worse than the local limit (the
    wall)."""
    try:
        for ops in classes:
            ops.resolvent_gap(kappa)
    except LocalSolveError as exc:
        raise EigenSolveError(str(exc))
    return 1.0 / (1.0 - kappa * w)


def _quotient(sys, kappa, x):
    """Rayleigh quotient rho = x.A x / x.M(kappa) x of the trace ``x`` and
    its slope d rho / d kappa = -rho x.M' x / x.M x, with M(kappa) =
    Z^T diag(d) Z and M'(kappa) = Z^T diag(w d^2) Z from the spectral lift."""
    z, w = sys.spectral_lift
    d, zx = _resolvent_diagonal(w, sys.classes, kappa), z @ x
    gram = zx @ (d * zx)
    rho = x @ (sys.A @ x) / gram
    return rho, -rho * (zx @ (w * d * d * zx)) / gram


def _ritz_pairs(h, lo, hi):
    """Eigenpairs ``lo``..``hi`` (1-based, ascending) of the symmetric ``h``,
    read from its lower triangle, in one LAPACK call (MRRR, ``dsyevr``)."""
    mu, y, count, _, info = scipy.linalg.lapack.dsyevr(h, range="I", il=lo, iu=hi, lower=1)
    if info or count != hi - lo + 1:
        raise EigenSolveError("the projected pencil's eigensolve failed (LAPACK dsyevr info "
                              "%d)" % info)
    return mu[:count], y


class SearchSpace:
    """Rayleigh-Ritz for the frozen pencils A x = theta M(kappa) x of the
    nonlinear eigensolves, on an A-orthonormal basis V of traces (V^T A V
    = I) kept across the pencils (Voss, BIT 44 (2004)) and, when shared,
    across the modes.  The space owns the seeds of its modes: their
    ascending ``values`` and the block ``traces`` (ndof, m), such as the
    surrogate's values and the traces A^-1 U^T x of its Ritz vectors x,
    of which ``span`` are independent.

    With the spectral lift (Z, w) of the system, M(kappa) = Z^T diag(d) Z
    for d = 1 / (1 - kappa w), so the projected pencil is the symmetric
    H = (Z V)^T diag(d) (Z V): its largest eigenvalues mu are 1 / theta
    of the lowest Ritz values, and no resolvent is built per kappa.  The
    space keeps V, AV, ZV and H, which is rebuilt per kappa and bordered
    as V grows, by one solve with the cached LU per direction.

    V starts from the seed traces and one generic direction at mode 1's
    predicted kappa.  The seeds are close to eigenvectors of the surrogate
    pencil, so they carry next to nothing of a frozen eigenvector that
    none of them approximates: the partner of a near-double whose order
    the resolvent swaps, or a near-wall mode that no surrogate mode
    resembles.
    Rayleigh-Ritz cannot find what the space lacks, and its index-th
    value would then converge to the next eigenvalue up.  The generic
    direction A^-1 M(kappa) g of a fixed vector g gives every eigenvector
    a share, which the expansions then grow.

    The space is bounded by a thick restart (Betcke & Voss, Future Gener.
    Comput. Syst. 20 (2004)): at ``_SPACE_MAX`` directions V becomes the
    top index + ``_SPACE_MARGIN`` Ritz vectors of the current pencil, so
    that a near-double's partner survives, and the traces of the modes
    already converged on the space (``locked``), with no solve.
    """

    def __init__(self, sys, values, traces):
        self.values, self.traces = values, traces
        self.A, self.lu, self.classes = sys.A, sys.factorized(), sys.classes
        self.z, self.w = sys.spectral_lift
        self.zT = self.z.T
        # the block row-major here, and each seed a column of ``traces`` as
        # given in _predicted: the layouts set the values' last bits
        v = np.ascontiguousarray(traces)
        av = sys.A @ v
        for _ in range(2):  # A-orthonormal columns, dependent ones dropped
            gram = v.T @ av
            s = 1.0 / np.sqrt(np.maximum(np.diag(gram), np.finfo(float).tiny))
            mu, c = np.linalg.eigh(s[:, None] * gram * s)
            keep = mu > 1e-12 * mu[-1]
            c = s[:, None] * c[:, keep] / np.sqrt(mu[keep])
            v, av = v @ c, av @ c
        # V, AV and ZV are kept as the leading rows of row-major buffers
        # that double when full, so that a new direction copies no old one
        self.size = self.span = v.shape[1]
        self._rows = [v.T.copy(), av.T.copy(), (self.z @ v).T.copy()]
        self.kappa, self.solves, self.locked = None, 0, []
        self._freeze(_predicted(sys, values[0], traces[:, 0]))
        mg = self.zT @ (self.d * (self.z @ _deterministic_start(sys.ndof)))
        self._expand(self._solve(mg), mg)

    v = property(lambda self: self._rows[0][:self.size].T)
    av = property(lambda self: self._rows[1][:self.size].T)
    zv = property(lambda self: self._rows[2][:self.size].T)

    def _freeze(self, kappa):
        """d and H for the pencil at ``kappa``."""
        if kappa != self.kappa:
            self.kappa, self.d = kappa, _resolvent_diagonal(self.w, self.classes, kappa)
            self.h = self.zv.T @ (self.d[:, None] * self.zv)

    def frozen(self, kappa, index, tol):
        """theta_index(kappa) with its Hellmann-Feynman slope, Ritz vector
        (x.A x = 1) and relative residual |A x - theta M(kappa) x| / |A x|,
        after growing V by A^-1 r until that residual is at most ``tol``.

        With y the unit eigenvector of H, x.M x = mu and x.M' x =
        (ZVy).(w d^2 ZVy), so theta' = -theta x.M' x / mu.  Once V spans
        the traces, Rayleigh-Ritz is exact and the space stops growing.
        The space restarts once it holds ``_SPACE_MAX`` directions, or
        ``_SPACE_MARGIN`` more than a restart keeps, whichever is more; a
        call that grows it by as many directions as there are traces
        without converging has stalled.
        """
        self._freeze(kappa)
        limit = max(_SPACE_MAX, index + len(self.locked) + 2 * _SPACE_MARGIN)
        for _ in range(self.A.shape[0] + 1):
            (mu,), y = _ritz_pairs(self.h, self.size - index + 1, self.size - index + 1)
            if mu <= 0.0:
                raise EigenSolveError("mode %d lies in the kernel of the lift Gram matrix"
                                      % index)
            y = y[:, 0]
            theta, ax, zx = 1.0 / mu, self.av @ y, self.zv @ y
            r = ax - theta * (self.zT @ (self.d * zx))
            residual = np.linalg.norm(r) / np.linalg.norm(ax)
            if residual <= tol or self.size == len(r):
                slope = -theta * (zx @ (self.w * self.d * self.d * zx)) / mu
                return theta, slope, self.v @ y, residual
            if self.size >= limit:
                self._restart(index)
            if not self._expand(self._solve(r), r):
                break
        raise EigenSolveError(
            "the frozen pencil at %.6g did not converge for mode %d: the search space "
            "stalled at dimension %d with relative residual %.1e > %.1e"
            % (kappa, index, self.size, residual, tol))

    def _restart(self, index):
        """V becomes the top index + ``_SPACE_MARGIN`` Ritz vectors V Y of
        the current pencil, on which H is diagonal, bordered by the locked
        traces' A-orthonormal parts; no solve."""
        keep = index + _SPACE_MARGIN
        mu, y = _ritz_pairs(self.h, self.size - keep + 1, self.size)
        for rows in self._rows:
            rows[:keep] = y.T @ rows[:self.size]
        self.size, self.h = keep, np.diag(mu)
        for trace in self.locked:
            self._expand(trace.copy(), self.A @ trace)

    def _solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)

    def _expand(self, t, rhs):
        """Add the A-orthonormal part of t = A^-1 ``rhs`` to V, unless it
        keeps at most ``_STALL_TOL`` of its A-norm |t|_A = (t.rhs)^(1/2):
        that part is round-off.  For rhs = r, Galerkin makes t A-orthogonal
        to V already, so such a loss means the expansion has stalled."""
        before = np.sqrt(abs(t @ rhs))
        for _ in range(2):
            t -= self.v @ (self.av.T @ t)
        at = self.A @ t
        norm = np.sqrt(abs(t @ at))
        if not norm > _STALL_TOL * before:
            return False
        t, at = t / norm, at / norm
        zt = self.z @ t
        dzt, h = self.d * zt, np.empty((self.size + 1,) * 2)
        h[:-1, :-1] = self.h
        h[-1, :-1] = h[:-1, -1] = self.zv.T @ dzt
        h[-1, -1] = zt @ dzt
        self.h = h
        if self.size == len(self._rows[0]):
            self._rows = [np.concatenate([rows, np.empty_like(rows)]) for rows in self._rows]
        for rows, new in zip(self._rows, (t, at, zt)):
            rows[self.size] = new
        self.size += 1
        return True


def _predicted(sys, lam, trace):
    """The first kappa of the nonlinear eigensolve from the seed value
    ``lam`` and its ``trace``: one Newton step on the trace's Rayleigh
    quotient x.A x / x.M(kappa) x at the seed value (capped at the wall),
    kept where it lies in (0, wall cap)."""
    if lam <= 0:
        raise EigenSolveError("seed eigenvalue must be positive")
    lam_cap = _wall_cap(sys)
    kappa = min(lam, lam_cap)
    rho, slope = _quotient(sys, kappa, trace)
    predicted = kappa - (rho - kappa) / (slope - 1.0)
    return predicted if 0.0 < predicted < lam_cap else kappa


def solve_condensed_nonlinear(sys, space, index):
    """The condensed nonlinear eigenpair at ``index`` (1-based), refined
    from seed ``index`` of ``space``, a ``SearchSpace``.

    The seed's value starts the iteration.  The modes' calls share the
    space: each starts from what the earlier ones added and locks its
    converged trace in it.  Fewer than ``index`` independent seed traces
    raise ``EigenSolveError``.  Each iteration freezes the resolvent
    Gram matrix at the current iterate kappa and solves the resulting
    linear pencil for its ``index``-th eigenvalue theta and its slope
    theta' by Rayleigh-Ritz on the space, grown until the pencil's relative
    residual is at most max(1e-12, 1e-2 delta^2), with delta the last
    relative update (first, the predictor's move from the seed value).  The
    update is a Newton step on F(kappa) = theta(kappa) - kappa; F' =
    theta' - 1 <= -1, so the step always exists, and it is kept inside the
    bracket that the sign of F provides (F is strictly decreasing), with
    bisection where it leaves it.  The first kappa comes from one Newton
    step on the seed trace's Rayleigh quotient x.A x / x.M(kappa) x at the
    seed value, kept where it lies in (0, wall cap).  At k = 0 on a uniform
    mesh W = wI, the Rayleigh quotient of a surrogate eigenvector is
    linear in kappa and that step lands on the eigenvalue: one
    frozen-pencil solve, with no expansion, confirms it.  A converged seed
    is confirmed by the first solve as well.  The pair's ``solves`` are
    the LU solves this call made, its ``space`` the space's dimension when
    it returned.
    """
    index = int(index)
    if not 1 <= index <= space.span:
        raise EigenSolveError("mode %d needs at least %d independent seed traces; the %d "
                              "seeds span %d" % (index, index, len(space.values), space.span))
    lam = float(space.values[index - 1])
    kappa, lam_cap = _predicted(sys, lam, space.traces[:, index - 1]), _wall_cap(sys)
    solves = space.solves
    lo, hi = 0.0, None  # F(0) = surrogate value > 0
    history = []
    update = abs(kappa - lam) / kappa

    for iteration in range(1, _SECANT_MAX_ITER + 1):
        history.append(kappa)
        theta, slope, vec, _ = space.frozen(kappa, index,
                                            max(_FROZEN_TOL, 1e-2 * update**2))
        resid = theta - kappa
        update = abs(resid) / abs(theta)
        if update <= _SECANT_TOL:
            residual, field = _checked_residual(sys, theta, vec)
            space.locked.append(vec)
            return EigenPair(theta, vec, index, iteration, residual, space.solves - solves,
                             field, history + [theta], space.size)

        # bracket update: F decreasing, so F > 0 puts the root above kappa
        if resid > 0:
            lo = max(lo, kappa)
        else:
            hi = kappa if hi is None else min(hi, kappa)

        nxt = kappa - resid / (slope - 1.0)
        if hi is not None and not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        elif hi is None and not nxt > lo:
            nxt = 0.5 * (lo + min(kappa, lam_cap))
        if lo >= lam_cap * (1.0 - 1e-12):
            raise EigenSolveError("eigenvalue tracked from seed %.6g lies beyond the first "
                                  "resolvent resonance %.6g; the condensed problem cannot "
                                  "represent it on this mesh" % (lam, lam_cap))
        kappa = min(nxt, lam_cap)

    raise ConvergenceError("nonlinear eigenvalue iteration did not reach a relative update of "
                           "%.1e within %d iterations" % (_SECANT_TOL, _SECANT_MAX_ITER),
                           history=history)


def solve_modes(sys, m, start=None):
    """Lowest m eigenpairs, ascending (``Modes``), from the largest of T.

    The largest eigenvalues mu of T give lam = 1/mu.  An eigenvector u of
    T is a scalar field with source lam u, so its trace is A^-1 U^T u up
    to scale.  Without ``start`` one Lanczos run finds them; with it,
    LOBPCG from the block (dim W_h, m) of approximate eigenfields that
    ``start()`` returns, such as the previous level's injected into this
    one, which pays only when the block is close.  The run copies the
    block into its workspace, so a block made by ``start`` lives no longer
    than that.  W (``sys.load_lift``) is built for this call's operator and
    freed with it.  ``iterations`` counts the operator applications (block
    columns for LOBPCG), ``solves`` the solves.  A pair at or beyond the
    resolvent wall, or failing the nonlinear residual check, raises
    ``EigenSolveError``; the check writes its eigenfield into ``fields``.
    """
    m, op = int(m), _Operator(sys, load=sys.load_lift)
    _check_count(sys, m)
    if start is None:
        mu, ritz = _eigsh(op, m, "the solution operator", _deterministic_start(op.shape[0]))
        order = np.argsort(mu)[::-1]
        mu, ritz = mu[order], np.asfortranarray(ritz[:, order])
    else:
        mu, ritz = _lobpcg(op, start, "the solution operator")[:2]
    traces = np.asfortranarray(sys.factorized().solve(sys.moments @ ritz))
    fields = np.empty((sys.dim_w, m), order="F")
    lam_cap = _wall_cap(sys)
    pairs = []
    for index, (eta, column, mu_i) in enumerate(zip(traces.T, fields.T, mu), 1):
        lam = 1.0 / mu_i if mu_i > 0 else -np.inf
        if not 0.0 < lam < lam_cap:
            raise EigenSolveError("eigenvalue %d (%.6g) is not inside (0, %.6g), the resonance-"
                                  "free interval of the resolvent on this mesh"
                                  % (index, lam, lam_cap))
        residual, field = _checked_residual(sys, lam, eta)
        column[:] = field.ravel()
        pairs.append(EigenPair(lam, eta, index, op.applications, residual, op.solves,
                               column.reshape(field.shape)))
    return Modes(pairs, traces, fields, ritz)


def oracle_full_eig(sys, m=6):
    """Lowest m eigenvalues of the full problem via the solution operator
    of the condensed system ``sys``, from ``solve_modes``."""
    values = np.array([p.value for p in solve_modes(sys, m)])
    return OracleSpectrum(values, _Operator(sys, load=sys.load_lift))
