"""Convergence-study harness: exact references, errors, orders, tables.

Reproduces the benchmark layout of the eigenvalue experiments: for each
mesh level, solve the surrogate problem (for the surrogate gap) and the
eigenproblem (``solve_modes``), recover and postprocess the fields, and
tabulate errors with their observed orders (log2 of consecutive-level
error ratios, valid because refinement halves the mesh size).
"""

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import assemble_condensed
from .eigensolve import solve_linear_surrogate, solve_modes
# the paper's secant route; perfbench/spans.py times it under this name
from .eigensolve import solve_condensed_nonlinear  # noqa: F401
from .errors import ConfigError, HdgError, UnsupportedModeError
from .localsolve import MaterialSpec, SpaceConfig, TauSpec
from .mesh import build_lshape_mesh, build_square_mesh, refine
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
    "run_convergence_study",
    "emit_table",
]

#: reference eigenvalues on the L-shaped domain: the first (singular)
#: mode from Betcke & Trefethen's benchmark computation, the third known
#: in closed form
_LSHAPE_MODE1 = 9.63972384464540
_LSHAPE_MODE3 = 2 * np.pi**2


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
    degree-(k+1) reconstruction (told apart by the column count).  Raises
    for modes without a usable closed-form eigenfunction.
    """
    evaluator = mode.evaluator
    if evaluator is None:
        raise UnsupportedModeError(
            "mode %d of domain %r has no usable closed-form eigenfunction "
            "(multiplicity %d)" % (mode.index, mode.domain, mode.multiplicity)
        )
    ref = sys.ref
    tabs = {ref.n_w: ref.w_err, ref.n_p: ref.p_err}
    # the element basis is the reference one over sqrt(det B) and the
    # weights are det B times the reference ones, so with the exact values
    # scaled by sqrt(det B) every integral takes the reference weights
    norm2 = lambda f: np.einsum("q,eq,eq->", ref.err.weights, f, f)
    exact = np.empty((len(sys.mesh.triangles), len(ref.err)))
    for ops, members, pts in sys.class_points(ref.err.points):
        exact[members] = np.sqrt(ops.det) * evaluator(pts[:, :, 0], pts[:, :, 1])
    exact /= np.sqrt(norm2(exact))
    errors = []
    for coeffs in map(np.asarray, fields):
        if coeffs.shape[1] not in tabs:
            raise ValueError("unrecognized field dimension %d" % coeffs.shape[1])
        vals = coeffs @ tabs[coeffs.shape[1]].T
        nrm = np.sqrt(norm2(vals))
        if nrm == 0.0:
            raise ValueError("discrete field is identically zero")
        vals /= nrm
        plus = norm2(vals - exact)
        minus = norm2(np.add(vals, exact, out=vals))
        errors.append(float(np.sqrt(min(plus, minus))))
    return errors


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
        # validates k/case/tau compatibility up front
        SpaceConfig(self.k, self.case).validate_tau(self.tau)

    @property
    def spaces(self):
        return SpaceConfig(self.k, self.case)


@dataclass
class CellResult:
    """Study results for one (mode, level) pair.

    ``iterations`` is the number of solution-operator applications in the
    level's Lanczos run (shared by the level's modes).
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
        if len(self.levels) < 2:
            return [None] * len(self.levels)
        return estimate_order(self.errors(metric, mode))

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

    def __eq__(self, other):
        return isinstance(other, ConvergenceReport) and self.to_dict() == other.to_dict()


def build_domain_mesh(domain, level):
    if domain == "square":
        return build_square_mesh(level)
    if domain == "lshape":
        return build_lshape_mesh(level)
    raise ConfigError("unknown domain %r" % (domain,))


def run_convergence_study(config, progress=None):
    """Run the full pipeline for every requested level and mode.

    Failures at one level are recorded in the affected cells' notes and
    do not abort the remaining cells.
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

    mesh = None
    for level in config.levels:
        start = time.perf_counter()
        if mesh is None:
            mesh = build_domain_mesh(config.domain, level)
        else:
            mesh = refine(mesh)
        try:
            _run_level(config, spaces, mesh, level, modes_ref, report)
        except HdgError as exc:
            for m in config.modes:
                report.cell(m, level).note = str(exc)
        report.timings.append(time.perf_counter() - start)
        if progress is not None:
            progress(level, report.timings[-1])
    return report


def _run_level(config, spaces, mesh, level, modes_ref, report):
    sys = assemble_condensed(mesh, spaces, config.tau, config.material)
    surrogates = solve_linear_surrogate(sys, max(config.modes))
    pairs = solve_modes(sys, max(config.modes))
    for mode_idx in config.modes:
        cell = report.cell(mode_idx, level)
        pair = pairs[mode_idx - 1]
        seed = surrogates[mode_idx - 1]
        exact = modes_ref[mode_idx - 1]
        cell.lam = pair.value
        cell.lam_tilde = seed.value
        cell.gap = abs(pair.value - seed.value)
        cell.iterations = pair.iterations
        if exact.value is not None:
            cell.err_lam = abs(pair.value - exact.value)
        try:
            fields = recover_fields(sys, pair)
        except HdgError as exc:
            cell.note = str(exc)
            continue
        scalars = [fields.u]
        if config.postprocess:
            post = postprocess(sys, fields)
            cell.lam_star = post.value_star
            if exact.value is not None:
                cell.err_lam_star = abs(post.value_star - exact.value)
            scalars.append(post.u_star)
        if exact.evaluator is not None:
            cell.err_u, cell.err_u_star = (eigenfunction_error(sys, exact, *scalars) + [None])[:2]


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
    if fmt in ("markdown", "md"):
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
