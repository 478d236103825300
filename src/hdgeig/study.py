"""Convergence-study harness: exact references, errors, orders, tables.

Reproduces the benchmark layout of the eigenvalue experiments: for each
mesh level, ``solve_level`` (also ``solve``'s) solves the eigenproblem
and then the surrogate problem's values (for the surrogate gap); the
fields are recovered from the pairs' eigenfields and postprocessed, and
errors tabulated with their observed orders (log2 of consecutive-level
error ratios, valid because refinement halves the mesh size).

The levels are nested, so each level's eigenfields inject exactly into
the next one and start its modes run (LOBPCG).  A first level L > 0
starts from the eigenfields of a cold run on the mesh of level
max(0, L - ``_COARSE_OFFSET``), injected up to L; level 0, a first level
whose coarse run fails, and a level after a failed one run Lanczos from
the deterministic vector.  Near the resolvent wall a warm run may stall
where a cold one converges: a first level whose coarse start stalls
runs once more cold, a later level keeps the stalled run's note.  The
surrogate run starts from the level's own Ritz block, with the image
that the modes' trace solve gave it, and stops once its values have
converged (its vectors only where the modes lie near the
resolvent wall).  Every level still solves its own discrete problem to
the same tolerances.
"""

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import assemble_condensed
from .eigensolve import _columns, solve_linear_surrogate, solve_modes
# the paper's nonlinear route, not called here; perfbench/spans.py times it
from .eigensolve import solve_condensed_nonlinear  # noqa: F401
from .errors import ConfigError, EigenSolveError, HdgError, UnsupportedModeError
from .localsolve import MaterialSpec, SpaceConfig, TauSpec
from .mesh import Mesh, build_lshape_mesh, build_square_mesh, refine
from .recovery import postprocess, recover_fields

__all__ = [
    "ExactMode",
    "StudyConfig",
    "CellResult",
    "ConvergenceReport",
    "exact_square_spectrum",
    "exact_lshape_values",
    "eigenfunction_error",
    "estimate_order",
    "inject_fields",
    "run_convergence_study",
    "emit_table",
]

#: reference eigenvalues on the L-shaped domain: the first (singular)
#: mode from Betcke & Trefethen's benchmark computation, the third known
#: in closed form
_LSHAPE_MODE1 = 9.63972384464540
_LSHAPE_MODE3 = 2 * np.pi**2

#: a study's first level L > 0 starts its modes run from the eigenfields
#: of a cold run on the mesh of level max(0, L - _COARSE_OFFSET).  The
#: eigenfields converge at rate k + 1, so two levels down they are still
#: a close start, and that run costs about 1/16 of the level's.  Measured
#: as one-level studies (medians of three in-process runs, OpenBLAS on one
#: thread), cold against offsets 1, 2 and 3: the square at k = 0, level 6,
#: one mode, 2.27 against 2.04, 1.75 and 1.62 s (21 operator applications
#: against 8, 7 and 8); at k = 2, level 4, six modes, 1.04 against 0.80,
#: 0.74 and 0.75 s; at k = 1, level 5, 2.69 against 2.27, 2.06 and 2.44 s;
#: the L-shape at k = 0, level 5, 0.55 against 0.60, 0.55 and 0.59 s
_COARSE_OFFSET = 2


@dataclass(frozen=True)
class ExactMode:
    """Reference data for one exact eigenvalue."""

    domain: str
    index: int
    value: float | None
    multiplicity: int = 1
    mn: tuple | None = None
    note: str = ""

    @property
    def evaluator(self):
        """Closed-form eigenfunction, or None if unavailable/ambiguous."""
        if self.domain == "square" and self.mn is not None and self.multiplicity == 1:
            m, n = self.mn
            return lambda x, y: np.sin(m * x) * np.sin(n * y)
        return None

    def run_values(self, p0, offsets):
        """``evaluator`` on one class run: (n, n_q) values at p0[e] +
        offsets[q], for element origins ``p0`` (n, 2) and the class's point
        offsets (n_q, 2), from per-element and per-point factors: by sin(m
        (x0 + d)) = sin(m x0) cos(m d) + cos(m x0) sin(m d), each axis is
        one (n, 2) @ (2, n_q) product."""
        def axis(c, x0, d):
            return (np.column_stack([np.sin(c * x0), np.cos(c * x0)])
                    @ np.stack([np.cos(c * d), np.sin(c * d)]))

        (m, n), (x0, y0), (dx, dy) = self.mn, p0.T, offsets.T
        return axis(m, x0, dx) * axis(n, y0, dy)

    @property
    def norm(self):
        """L2 norm of ``evaluator``: pi/2 for every sin(m x) sin(n y) on (0, pi)^2."""
        return None if self.evaluator is None else np.pi / 2


def exact_square_spectrum(count, a=1.0, b=1.0):
    """First ``count`` exact square-domain modes for alpha = diag(a, b),
    ascending with multiplicity: a m^2 + b n^2, sin(m x) sin(n y)."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    # (1..count, 1) give count values up to a count^2 + b, and (1, 1..count)
    # up to a + b count^2, so every value up to the count-th has m, n <= count
    pairs = range(1, count + 1)
    enumerated = sorted((a * m * m + b * n * n, m, n) for m in pairs for n in pairs)
    # multiplicities must come from the full enumeration, not the truncated
    # list, or a cluster cut at the requested count would look simple;
    # values that differ only by round-off (non-integer a, b) are one
    # multiple eigenvalue
    values = np.array([v for v, _, _ in enumerated])
    cluster = np.cumsum(np.diff(values, prepend=-np.inf) > 1e-12 * values)
    counts = np.bincount(cluster)[cluster]
    modes = []
    for i, (v, m, n) in enumerate(enumerated[:count]):
        modes.append(
            ExactMode("square", i + 1, float(v), multiplicity=int(counts[i]), mn=(m, n))
        )
    return modes


def exact_lshape_values():
    """Reference eigenvalues on the L-shaped domain (modes 1 and 3)."""
    return {1: _LSHAPE_MODE1, 3: _LSHAPE_MODE3}


def _lshape_modes(count):
    refvals = exact_lshape_values()
    notes = {1: "singular reentrant-corner mode", 3: "smooth mode, value 2*pi^2"}
    return [
        ExactMode("lshape", i, refvals.get(i), note=notes.get(i, ""))
        for i in range(1, count + 1)
    ]


def domain_modes(domain, count, material=None):
    """Reference modes for a domain and material: closed forms on the
    square for a diagonal alpha, the L-shape values for the identity, and
    no reference value otherwise."""
    material = material or MaterialSpec.identity()
    if domain not in ("square", "lshape"):
        raise ConfigError("unknown domain %r" % (domain,))
    if domain == "square" and material.a12 == 0.0:
        return exact_square_spectrum(count, material.a11, material.a22)
    if domain == "lshape" and material == MaterialSpec.identity():
        return _lshape_modes(count)
    return [ExactMode(domain, i, None, note="no closed form for this material")
            for i in range(1, count + 1)]


def eigenfunction_error(sys, mode, *fields):
    """L2 distances between unit-normalized discrete and exact eigenfunctions.

    One distance per field, each with the sign that minimizes it.  A field
    holds per-element coefficients of the recovered scalar or of its
    degree-(k+1) reconstruction (told apart by the column count).  ``mode``
    gives ``evaluator``, the exact eigenfunction, its values on a class run
    (``run_values``, as ``ExactMode``'s) and ``norm``, its L2 norm on the
    domain.  Raises for modes without a usable closed-form eigenfunction.
    """
    if mode.evaluator is None:
        raise UnsupportedModeError(
            "mode %d of domain %r has no usable closed-form eigenfunction "
            "(multiplicity %d)" % (mode.index, mode.domain, mode.multiplicity)
        )
    ref = sys.ref
    tabs = {ref.n_w: ref.w_err, ref.n_p: ref.p_err}
    fields = [np.asarray(coeffs) for coeffs in fields]
    for coeffs in fields:
        if coeffs.shape[1] not in tabs:
            raise ValueError("unrecognized field dimension %d" % coeffs.shape[1])
    # the element bases are orthonormal, so a field's L2 norm is that of
    # its coefficients
    norms = [np.linalg.norm(coeffs) for coeffs in fields]
    if not all(norms):
        raise ValueError("discrete field is identically zero")
    # the element basis is the reference one over sqrt(det B) and the
    # weights are det B times the reference ones, so with the exact values
    # scaled by sqrt(det B) every integral takes the reference weights.
    # These are positive: with their square roots folded into the values
    # on both sides, each integral is a dot product.  One pass over
    # ``class_runs``: every array here is one run's (n, n_q), and no
    # mesh-wide point or value array is formed
    root = np.sqrt(ref.err.weights)
    weighted = [tabs[coeffs.shape[1]].T * (root / nrm) for coeffs, nrm in zip(fields, norms)]
    distances = np.zeros((len(fields), 2))  # squared, to the exact mode and its negative
    p0 = sys.mesh.vertices[sys.mesh.triangles[:, 0]]
    for ops, members in sys.class_runs:
        exact = mode.run_values(p0[members], ref.err.points @ ops.bmat.T)
        exact *= root * (np.sqrt(ops.det) / mode.norm)
        for dist, coeffs, tab in zip(distances, fields, weighted):
            vals = coeffs[members] @ tab
            minus = (vals - exact).ravel()
            plus = np.add(vals, exact, out=vals).ravel()
            dist += minus @ minus, plus @ plus
    return [float(np.sqrt(min(plus, minus))) for plus, minus in distances]


#: the reference triangle refined once, for the children's corners
_CHILDREN = refine(Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]]))


@functools.lru_cache(maxsize=None)
def _child_maps(ref):
    """(4, n_w, n_w), once per ``ReferenceTables``: the coefficients on
    child j of an element from the parent's, in ``refine``'s order.

    Child j sits at xi = c_j0 + C_j xi' in its parent's reference
    coordinates, c_j the corners of ``_CHILDREN``'s triangle j.  With
    the element basis the reference one over sqrt(det B), and det B four
    times smaller on a child, the map is 0.5 times the reference L2
    product of the child basis with the parent basis pulled back through
    that affine map.
    """
    pts, weights = ref.vol.points, ref.vol.weights
    child = ref.wbasis.tabulate(pts)[0] * weights[:, None]
    maps = []
    for c0, c1, c2 in _CHILDREN.vertices[_CHILDREN.triangles]:
        parent = ref.wbasis.tabulate(c0 + pts @ np.column_stack([c1 - c0, c2 - c0]).T)[0]
        maps.append(0.5 * child.T @ parent)
    maps = np.stack(maps)
    maps.setflags(write=False)  # shared by every injection on ``ref``
    return maps


def inject_fields(ref, block):
    """Columns of ``block`` (T n_w, m), fields of W_h on a mesh, as fields
    of W_h on ``refine`` of it: child j of element t is element 4t + j.
    W_h is nested, so the injection is exact."""
    coarse = block.reshape(-1, 1, ref.n_w, block.shape[1])
    return (_child_maps(ref) @ coarse).reshape(-1, block.shape[1])


def estimate_order(errors):
    """Observed orders log2(e_{l-1} / e_l); None where undefined."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two levels to estimate an order")
    orders = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev is None or cur is None or prev <= 0 or cur <= 0:
            orders.append(None)
        else:
            orders.append(math.log2(prev / cur))
    return orders


@dataclass(frozen=True)
class StudyConfig:
    """One convergence-study request."""

    domain: str = "square"
    k: int = 1
    case: str = "equal"
    tau: TauSpec = field(default_factory=TauSpec.one)
    levels: tuple = (0, 1, 2, 3)
    modes: tuple = (1, 2, 4, 6)
    postprocess: bool = True
    material: MaterialSpec = field(default_factory=MaterialSpec.identity)

    def __post_init__(self):
        if self.domain not in ("square", "lshape"):
            raise ConfigError("unknown domain %r" % (self.domain,))
        levels = tuple(int(l) for l in self.levels)
        if len(levels) < 1 or any(b - a != 1 for a, b in zip(levels, levels[1:])):
            raise ConfigError("levels must be consecutive and ascending")
        if levels[0] < 0:
            raise ConfigError("levels must be nonnegative")
        modes = tuple(int(m) for m in self.modes)
        if len(modes) < 1 or any(m < 1 for m in modes) or list(modes) != sorted(set(modes)):
            raise ConfigError("modes must be distinct ascending positive indices")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "modes", modes)
        # validates k/case/tau compatibility, and postprocessing, up front
        self.spaces.validate_tau(self.tau)
        if self.postprocess:
            self.spaces.validate_postprocess()

    @property
    def spaces(self):
        return SpaceConfig(self.k, self.case)


@dataclass
class CellResult:
    """Study results for one (mode, level) pair.

    ``iterations`` is the number of solution-operator applications in the
    level's modes run (shared by the level's modes): Lanczos matvecs on a
    cold level, LOBPCG block columns on a level started from eigenfields
    (the previous level's, or on a first level those of a coarser mesh,
    whose own run, and a stalled run from it, are not counted).
    """

    mode: int
    level: int
    lam: float | None = None
    lam_tilde: float | None = None
    lam_star: float | None = None
    err_lam: float | None = None
    err_lam_star: float | None = None
    err_u: float | None = None
    err_u_star: float | None = None
    gap: float | None = None
    iterations: int | None = None
    note: str = ""


_METRICS = {
    "lam": ("err_lam", "eigenvalue error"),
    "lam_star": ("err_lam_star", "postprocessed eigenvalue error"),
    "u": ("err_u", "eigenfunction L2 error"),
    "u_star": ("err_u_star", "postprocessed eigenfunction L2 error"),
    "gap": ("gap", "surrogate-to-nonlinear eigenvalue distance"),
}

#: metrics that are differences of eigenvalues, and the fraction of the
#: eigenvalue below which such a difference is round-off: no order is
#: reported from it.  At k = 2, level 4, the postprocessed mode-1 error
#: of about 2.5e-12 (lam = 2) moved its order from 5.50 to 5.67 when only
#: the elimination order of the LU changed
_EIGENVALUE_METRICS = ("lam", "lam_star", "gap")
_ROUNDOFF_FLOOR = 1e-11


@dataclass
class ConvergenceReport:
    """All study cells plus per-level timing and the config echo."""

    domain: str
    k: int
    case: str
    tau_label: str
    levels: list
    modes: list
    cells: list
    timings: list

    def cell(self, mode, level):
        for c in self.cells:
            if c.mode == mode and c.level == level:
                return c
        raise KeyError((mode, level))

    def errors(self, metric, mode):
        attr = _METRICS[metric][0]
        return [getattr(self.cell(mode, l), attr) for l in self.levels]

    def orders(self, metric, mode):
        """Observed orders of a metric; None where undefined, and for an
        eigenvalue metric where either error is below the round-off floor
        ``_ROUNDOFF_FLOOR`` times the level's eigenvalue."""
        if len(self.levels) < 2:
            return [None] * len(self.levels)
        errors = self.errors(metric, mode)
        if metric in _EIGENVALUE_METRICS:
            lams = [self.cell(mode, l).lam for l in self.levels]
            errors = [None if e is not None and e < _ROUNDOFF_FLOOR * abs(lam) else e
                      for e, lam in zip(errors, lams)]
        return estimate_order(errors)

    def to_dict(self):
        return {
            "domain": self.domain,
            "k": self.k,
            "case": self.case,
            "tau": self.tau_label,
            "levels": list(self.levels),
            "modes": list(self.modes),
            "cells": [asdict(c) for c in self.cells],
            "timings": list(self.timings),
        }

    @staticmethod
    def from_dict(data):
        return ConvergenceReport(
            domain=data["domain"],
            k=data["k"],
            case=data["case"],
            tau_label=data["tau"],
            levels=list(data["levels"]),
            modes=list(data["modes"]),
            cells=[CellResult(**c) for c in data["cells"]],
            timings=list(data["timings"]),
        )


def build_domain_mesh(domain, level):
    if domain == "square":
        return build_square_mesh(level)
    if domain == "lshape":
        return build_lshape_mesh(level)
    raise ConfigError("unknown domain %r" % (domain,))


def run_convergence_study(config, progress=None):
    """Run the full pipeline for every requested level and mode.

    Each level's modes run starts from the previous level's eigenfields.
    A first level L > 0 starts from those of a cold run on the mesh of
    level max(0, L - ``_COARSE_OFFSET``), or cold where that run raises
    ``HdgError`` or the run from its eigenfields ``EigenSolveError``;
    level 0 starts cold.  Failures at one level are recorded in the
    affected cells' notes and do not abort the remaining cells; the level
    after a failed one starts cold.  Near the wall a warm run can stall
    where a cold one would not: on the L-shape with tau = h at k = 1,
    levels 2:3 and 0:3 both give numbers on level 2 and the note on 3.
    ``progress(level, seconds, detail)`` is called after each level,
    ``detail`` naming the nonzeros of its LU factors, the operator
    applications of its two eigensolves, the solves that made them, how
    each started (a coarse start with its own run's applications and
    solves, "cold after a stalled" one), and the stop that ended the
    surrogate run ("values" or "vectors") with its largest relative
    residual.
    """
    spaces = config.spaces
    max_mode = max(config.modes)
    modes_ref = domain_modes(config.domain, max_mode, config.material)
    cells = [
        CellResult(mode=m, level=l) for m in config.modes for l in config.levels
    ]
    report = ConvergenceReport(
        domain=config.domain,
        k=config.k,
        case=config.case,
        tau_label=config.tau.label(),
        levels=list(config.levels),
        modes=list(config.modes),
        cells=cells,
        timings=[],
    )

    mesh = eigenfields = None
    for level in config.levels:
        start = time.perf_counter()
        if mesh is None:
            # the first level refines the mesh its coarse start runs on
            coarse_mesh = mesh = build_domain_mesh(config.domain,
                                                   max(0, level - _COARSE_OFFSET))
            while mesh.level < level:
                mesh = refine(mesh)
        else:
            mesh, coarse_mesh = refine(mesh), None
        try:
            eigenfields, detail = _run_level(config, spaces, mesh, level, modes_ref, report,
                                             eigenfields, coarse_mesh)
        except HdgError as exc:
            for m in config.modes:
                report.cell(m, level).note = str(exc)
            eigenfields, detail = None, "failed"
        report.timings.append(time.perf_counter() - start)
        if progress is not None:
            progress(level, report.timings[-1], detail)
    return report


def solve_level(sys, m, start=None):
    """The eigensolves of one mesh level, for ``solve`` and the study:
    ``solve_modes`` for m pairs (from the block ``start``, if given), then
    ``solve_linear_surrogate`` from those pairs, then the LU is released.
    Returns the pairs, the ``SurrogateValues``, the eigenfields (dim W_h,
    m) and the LU's nonzeros."""
    pairs = solve_modes(sys, m, start)
    eigenfields = _columns(pairs, "field")
    surrogate = solve_linear_surrogate(sys, pairs)
    lu_nnz = sys.factorized().nnz
    sys.release_factorization()  # the last solve with A: recovery needs none
    return pairs, surrogate, eigenfields, lu_nnz


def _coarse_start(config, spaces, coarse_mesh, level, m):
    """The eigenfields of a cold modes run on ``coarse_mesh``, the mesh of
    level max(0, level - ``_COARSE_OFFSET``), injected up to ``level``,
    and the start's label; None and "cold" where that run raises
    ``HdgError``."""
    coarse_level = coarse_mesh.level
    try:
        sys = assemble_condensed(coarse_mesh, spaces, config.tau, config.material)
        pairs = solve_modes(sys, m)
        block = _columns(pairs, "field")
    except HdgError:
        return None, "cold"
    for _ in range(level - coarse_level):
        block = inject_fields(sys.ref, block)
    return block, ("block start from level %d, %d operator applications in %d solves"
                   % (coarse_level, pairs[0].iterations, pairs[0].solves))


def _run_level(config, spaces, mesh, level, modes_ref, report, coarse, coarse_mesh):
    """Fill the level's cells, starting the modes run from the previous
    level's eigenfields ``coarse``; without them, from those of
    ``coarse_mesh`` (``_coarse_start``) on a first level above 0 (cold if
    that stalls), else cold.  Returns this level's eigenfields (dim W_h, m) and the
    progress detail, which ends with the seconds of each stage."""
    seconds = dict.fromkeys(("assembly", "factorization", "eigensolves", "recovery", "error"),
                            0.0)
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        clock, before = time.perf_counter(), clock
        seconds[stage] += clock - before

    sys = assemble_condensed(mesh, spaces, config.tau, config.material)
    lap("assembly")
    # factor first, also before a first level's coarse run: run before the
    # level's assembly, that run raised the level-6, k = 0 study's median
    # peak RSS by 11 MB
    sys.factorized()
    lap("factorization")
    m = max(config.modes)
    if coarse is not None:
        start, started = inject_fields(sys.ref, coarse), "block start"
    elif level > 0 and level == config.levels[0]:
        start, started = _coarse_start(config, spaces, coarse_mesh, level, m)
    else:
        start, started = None, "cold"
    try:
        pairs, surrogate, eigenfields, lu_nnz = solve_level(sys, m, start)
    except EigenSolveError:
        if coarse is not None or start is None:
            raise
        # a stalled coarse start: run once cold, on the LU left cached
        pairs, surrogate, eigenfields, lu_nnz = solve_level(sys, m)
        started = "cold after a stalled " + started
    lap("eigensolves")
    for mode_idx in config.modes:
        cell = report.cell(mode_idx, level)
        pair = pairs[mode_idx - 1]
        exact = modes_ref[mode_idx - 1]
        cell.lam, cell.lam_tilde = pair.value, float(surrogate.values[mode_idx - 1])
        cell.gap = abs(cell.lam - cell.lam_tilde)
        cell.iterations = pair.iterations
        if exact.value is not None:
            cell.err_lam = abs(pair.value - exact.value)
        fields = recover_fields(sys, pair)
        scalars = [fields.u]
        if config.postprocess:
            post = postprocess(sys, fields)
            cell.lam_star = post.value_star
            if exact.value is not None:
                cell.err_lam_star = abs(post.value_star - exact.value)
            scalars.append(post.u_star)
        lap("recovery")
        if exact.evaluator is not None:
            cell.err_u, cell.err_u_star = (eigenfunction_error(sys, exact, *scalars) + [None])[:2]
        lap("error")
    detail = ("LU nnz %d, modes %d operator applications in %d block solves (%s), surrogate "
              "%d in %d (block start, %s stop, relative residual %.1e), seconds: %s"
              % (lu_nnz, pairs[0].iterations, pairs[0].solves, started, surrogate.applications,
                 surrogate.solves, surrogate.stop, surrogate.residual,
                 ", ".join("%s %.3f" % item for item in seconds.items())))
    return eigenfields, detail


# --- table rendering -------------------------------------------------------


def _fmt_err(value):
    return "--" if value is None else "%.2e" % value


def _fmt_order(value):
    return "--" if value is None else "%.2f" % value


def _metrics_present(report):
    out = []
    for metric, (attr, _) in _METRICS.items():
        if any(getattr(c, attr) is not None for c in report.cells):
            out.append(metric)
    return out


def emit_table(report, fmt="markdown"):
    """Render a report as markdown, CSV, or a lossless JSON document."""
    if fmt == "markdown":
        return _emit_markdown(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    raise ConfigError("unknown table format %r" % (fmt,))


def _emit_markdown(report):
    lines = [
        "# Convergence study: domain=%s k=%d case=%s %s"
        % (report.domain, report.k, report.case, report.tau_label),
        "",
    ]
    for metric in _metrics_present(report):
        lines.append("## %s" % _METRICS[metric][1])
        header = "| k | level |"
        rule = "|---|---|"
        for m in report.modes:
            header += " mode %d error | order |" % m
            rule += "---|---|"
        lines += [header, rule]
        orders = {m: report.orders(metric, m) for m in report.modes}
        errors = {m: report.errors(metric, m) for m in report.modes}
        for i, level in enumerate(report.levels):
            row = "| %d | %d |" % (report.k, level)
            for m in report.modes:
                row += " %s | %s |" % (
                    _fmt_err(errors[m][i]),
                    _fmt_order(orders[m][i]),
                )
            lines.append(row)
        lines.append("")
    notes = [c for c in report.cells if c.note]
    if notes:
        lines.append("## notes")
        for c in notes:
            lines.append("- mode %d level %d: %s" % (c.mode, c.level, c.note))
        lines.append("")
    return "\n".join(lines)


def _emit_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    metrics = _metrics_present(report)
    header = ["domain", "case", "tau", "k", "level"]
    for metric in metrics:
        for m in report.modes:
            header += ["%s_mode%d_error" % (metric, m), "%s_mode%d_order" % (metric, m)]
    writer.writerow(header)
    table = {
        metric: {m: (report.errors(metric, m), report.orders(metric, m)) for m in report.modes}
        for metric in metrics
    }
    for i, level in enumerate(report.levels):
        row = [report.domain, report.case, report.tau_label, report.k, level]
        for metric in metrics:
            for m in report.modes:
                errs,ords = table[metric][m]
                row += [
                    "" if errs[i] is None else repr(errs[i]),
                    "" if ords[i] is None else repr(ords[i]),
                ]
        writer.writerow(row)
    return buf.getvalue()
