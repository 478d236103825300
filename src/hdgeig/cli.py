"""Command-line front end: solve, study, and oracle-check workflows.

Exit codes form a stable contract for CI: 0 success, 1 check failure,
2 configuration error, 3 numerical failure.
"""

import argparse
import errno
import json
import logging
import os
import resource
import sys as _sys

import numpy as np

from .assembly import assemble_condensed
from .eigensolve import oracle_full_eig, solve_condensed_nonlinear, solve_linear_surrogate
from .errors import ConfigError, HdgError, NumericalError
from .localsolve import MaterialSpec, SpaceConfig, TauSpec
from .recovery import postprocess, recover_fields
from .study import (
    StudyConfig,
    build_domain_mesh,
    emit_table,
    run_convergence_study,
    solve_level,
)

log = logging.getLogger("hdgeig")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_KEYS = {
    "domain", "level", "levels", "k", "case", "tau", "modes", "postprocess",
    "format", "output", "verbose",
}

#: largest relative disagreement of the two routes that oracle-check passes
_ORACLE_TOL = 1e-9

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
#: boolean config keys and the flag that turns each away from its default
_SWITCHES = {"postprocess": "--no-postprocess", "verbose": "--verbose"}
#: the spellings ``parse_tau`` accepts
_TAU_SPELLINGS = "one|h|invh|zero|const:<x>"


def parse_tau(text):
    """Parse a tau spelling, one of ``_TAU_SPELLINGS``."""
    text = str(text).strip()
    if text in ("one", "1"):
        return TauSpec.one()
    if text == "h":
        return TauSpec.global_h()
    if text == "invh":
        return TauSpec.inverse_global_h()
    if text == "zero" or text == "0":
        return TauSpec.zero()
    if text.startswith("const:"):
        try:
            return TauSpec.constant(float(text[6:]))
        except ValueError:
            raise ConfigError("bad tau constant in %r" % text)
    raise ConfigError("unknown tau spelling %r (use %s)" % (text, _TAU_SPELLINGS))


def parse_levels(text):
    """Parse a level range a:b (inclusive) or a single level."""
    text = str(text).strip()
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError("bad level range %r" % text)
        if hi < lo:
            raise ConfigError("level range %r is not ascending" % text)
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise ConfigError("bad level %r" % text)


def parse_modes(text):
    try:
        modes = tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise ConfigError("bad mode list %r" % (text,))
    return modes


def read_config_file(path):
    """Read `key = value` lines; '#' starts a comment."""
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror))
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            values[key] = val
    return values


def _build_parser(parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="hdg-eig",
        description="Condensed-trace eigenvalue solver for the Dirichlet "
        "diffusion operator on the square and L-shaped benchmark domains.",
    )
    parser.add_argument("--config", help="key = value file with defaults; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", choices=["square", "lshape"], default="square")
        p.add_argument("--k", type=int, default=1, help="trace polynomial degree")
        p.add_argument("--case", choices=["equal", "case1", "case2"], default="equal")
        p.add_argument("--tau", default="one", help=_TAU_SPELLINGS)
        p.add_argument("--format", choices=["markdown", "csv", "json"],
                       default="markdown")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("-v", "--verbose", action="store_true")

    p_solve = sub.add_parser("solve", help="eigenvalues on a single mesh")
    common(p_solve)
    p_solve.add_argument("--level", type=int, default=1)
    p_solve.add_argument("--modes", type=int, default=6,
                         help="number of lowest modes to compute")
    p_solve.add_argument("--no-postprocess", dest="postprocess",
                         action="store_false", default=True)

    p_study = sub.add_parser("study", help="convergence table over mesh levels")
    common(p_study)
    p_study.add_argument("--levels", default="0:3", help="inclusive range a:b")
    p_study.add_argument("--modes", default="1,2,4,6", help="comma-separated indices")
    p_study.add_argument("--no-postprocess", dest="postprocess",
                         action="store_false", default=True)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare condensed eigenvalues against the full-problem oracle",
    )
    common(p_oracle)
    p_oracle.add_argument("--level", type=int, default=0)
    p_oracle.add_argument("--modes", type=int, default=6)
    return parser


class _ConfigFileParser(argparse.ArgumentParser):
    """Checks config-file entries: a bad one is a ConfigError, not an exit."""

    def error(self, message):
        raise ConfigError(message)


def _with_config_file(argv):
    """argv with the --config file's entries as flags right after the
    subcommand, so argparse checks their types and choices and explicit
    flags, which come later, win.  Keys the subcommand lacks are skipped."""
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    path = peek.parse_known_args(argv)[0].config
    at = 0
    while at < len(argv) and argv[at].startswith("-"):
        at += 2 if argv[at] == "--config" else 1
    if not path or at == len(argv):
        return argv
    values = read_config_file(path)
    check = _build_parser(_ConfigFileParser)
    defaults = vars(check.parse_args(argv[at : at + 1]))
    tokens = []
    try:
        for key, val in values.items():
            if key in _SWITCHES:
                if val.lower() not in _BOOLEANS:
                    raise ConfigError("%s must be one of %s, not %r"
                                      % (key, "/".join(_BOOLEANS), val))
                val = _BOOLEANS[val.lower()]
            if key in defaults and val != defaults[key]:
                tokens.append(_SWITCHES.get(key, "--%s=%s" % (key, val)))
        check.parse_args(argv[at : at + 1] + tokens)
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (path, exc))
    return argv[: at + 1] + tokens + argv[at + 1 :]


def _check_output(args):
    """Refuse an ``--output`` in a missing directory before any work; the
    file itself is written only at the end, so a failed run leaves an
    existing one as it was."""
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise ConfigError("cannot write %s: %s" % (args.output, os.strerror(errno.ENOENT)))


def _write_output(text, args):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (args.output, exc.strerror))
    else:
        _sys.stdout.write(text)


def _table(header, rows, fmt):
    """Rows as a JSON list of objects, CSV, or a padded markdown table."""
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in r)
                  for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), 18) for h in header]
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        cells = ["%.12g" % v if isinstance(v, float) else str(v) for v in r]
        out.append("| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |")
    return "\n".join(out) + "\n"


def _peak_rss_mb():
    """The process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _assemble(args):
    """The condensed system that solve and oracle-check work on."""
    spaces = SpaceConfig(args.k, args.case)
    tau = parse_tau(args.tau)
    spaces.validate_tau(tau)
    if args.modes < 1:
        raise ConfigError("--modes must be >= 1")
    mesh = build_domain_mesh(args.domain, args.level)
    return assemble_condensed(mesh, spaces, tau, MaterialSpec.identity())


def cmd_solve(args):
    if args.postprocess:
        SpaceConfig(args.k, args.case).validate_postprocess()
    sys = _assemble(args)
    pairs, surrogate, _, lu_nnz = solve_level(sys, args.modes)
    log.info("surrogate %d operator applications in %d block solves (block start, %s stop, "
             "relative residual %.1e)", *surrogate[1:])
    star = ["lambda_star"] if args.postprocess else []
    header = ["mode", "lambda", "lambda_tilde", *star, "iterations"]
    rows = []
    for pair, lam_tilde in zip(pairs, surrogate.values.tolist()):
        post = [postprocess(sys, recover_fields(sys, pair)).value_star] if star else []
        rows.append([pair.index, pair.value, lam_tilde, *post, pair.iterations])
        log.info("mode %d: lambda=%.12g (%d operator applications, residual %.1e), "
                 "peak RSS %.0f MB, LU nnz %d", pair.index, pair.value, pair.iterations,
                 pair.defect, _peak_rss_mb(), lu_nnz)
    _write_output(_table(header, rows, args.format), args)
    return EXIT_OK


def cmd_study(args):
    config = StudyConfig(
        domain=args.domain,
        k=args.k,
        case=args.case,
        tau=parse_tau(args.tau),
        levels=parse_levels(args.levels),
        modes=parse_modes(args.modes),
        postprocess=args.postprocess,
    )
    report = run_convergence_study(
        config,
        progress=lambda level, dt, detail: log.info(
            "level %d done in %.2fs, peak RSS %.0f MB: %s", level, dt, _peak_rss_mb(), detail),
    )
    _write_output(emit_table(report, args.format), args)
    return EXIT_OK


def cmd_oracle_check(args):
    """The paper's route, surrogate-seeded, predictor plus safeguarded
    Newton on the frozen-pencil fixed point, against the solution
    operator's Lanczos run."""
    sys = _assemble(args)
    seeds = solve_linear_surrogate(sys, args.modes)
    condensed = []
    for index in range(1, args.modes + 1):
        pair = solve_condensed_nonlinear(sys, seeds, index)
        condensed.append(pair.value)
        log.info("mode %d: lambda=%.12g (%d Newton iterations, search space %d, %d LU "
                 "solves, residual %.1e), peak RSS %.0f MB", index, pair.value,
                 pair.iterations, pair.space, pair.solves, pair.residual, _peak_rss_mb())
    condensed = np.sort(condensed)
    oracle = oracle_full_eig(sys, m=args.modes).values
    rel = np.abs(condensed - oracle) / np.abs(oracle)
    rows = [[i + 1, *vals] for i, vals in
            enumerate(zip(condensed.tolist(), oracle.tolist(), rel.tolist()))]
    _write_output(_table(["mode", "condensed", "oracle", "rel diff"], rows, args.format),
                  args)
    if rel.max() >= _ORACLE_TOL:
        log.error("oracle disagreement: max rel diff %.2e >= %.1e", rel.max(), _ORACLE_TOL)
        return EXIT_CHECK_FAILED
    return EXIT_OK


#: the handler of the ``hdgeig`` logger, added once and pointed at the
#: current ``sys.stderr`` on every call of ``main``
_handler = logging.StreamHandler()
_handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))


def _configure_log(verbose):
    """INFO lines with ``verbose``, else warnings and errors only, on the
    current stderr.  Set on every call: ``logging.basicConfig`` does
    nothing once the root logger has a handler, so a second call in the
    same process would keep the first call's level and stream."""
    log.setLevel(logging.INFO if verbose else logging.WARNING)
    # not setStream, which flushes the previous stream: it may be closed
    # by now, and the handler flushes after every record anyway
    _handler.stream = _sys.stderr
    if _handler not in log.handlers:
        log.addHandler(_handler)


def main(argv=None):
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_with_config_file(argv))
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=_sys.stderr)
        return EXIT_CONFIG
    _configure_log(args.verbose)
    try:
        _check_output(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "study":
            return cmd_study(args)
        return cmd_oracle_check(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=_sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=_sys.stderr)
        return EXIT_NUMERICAL
    except HdgError as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
