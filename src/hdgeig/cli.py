"""Command-line front end: solve, study, and oracle-check workflows.

Exit codes form a stable contract for CI: 0 success, 1 check failure,
2 configuration error, 3 numerical failure.
"""

import argparse
import json
import logging
import sys as _sys

import numpy as np

from .assembly import assemble_condensed
from .eigensolve import oracle_full_eig, solve_condensed_nonlinear, solve_linear_surrogate
from .eigensolve import solve_modes
from .errors import ConfigError, HdgError, NumericalError
from .localsolve import MaterialSpec, SpaceConfig, TauSpec
from .recovery import postprocess, recover_fields
from .study import (
    StudyConfig,
    build_domain_mesh,
    emit_table,
    run_convergence_study,
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

#: largest relative secant/oracle disagreement that oracle-check passes
_ORACLE_TOL = 1e-9

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def parse_tau(text):
    """Parse the tau spelling: one|h|invh|zero|const:<x>."""
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
    raise ConfigError("unknown tau spelling %r (use one|h|invh|zero|const:<x>)" % text)


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


def _build_parser():
    parser = argparse.ArgumentParser(
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
        p.add_argument("--tau", default="one", help="one|h|invh|zero|const:<x>")
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


def _apply_config_file(parser, argv):
    # peek at --config before the real parse so file values become defaults
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config")
    known, _ = peek.parse_known_args(argv)
    if not known.config:
        return
    values = read_config_file(known.config)
    converted = {}
    for key, val in values.items():
        if key in ("k", "level"):
            try:
                converted[key] = int(val)
            except ValueError:
                raise ConfigError("%s: %s must be an integer, not %r"
                                  % (known.config, key, val))
        elif key in ("postprocess", "verbose"):
            if val.lower() not in _BOOLEANS:
                raise ConfigError("%s: %s must be one of %s, not %r"
                                  % (known.config, key, "/".join(_BOOLEANS), val))
            converted[key] = _BOOLEANS[val.lower()]
        else:
            converted[key] = val
    parser.set_defaults(**converted)
    for action in parser._subparsers._group_actions[0].choices.values():
        action.set_defaults(**{k: v for k, v in converted.items()
                               if k in {a.dest for a in action._actions}})


def _write_output(text, args):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
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
    sys = _assemble(args)
    surrogates = solve_linear_surrogate(sys, args.modes)
    header = ["mode", "lambda", "lambda_tilde"]
    if args.postprocess:
        header.append("lambda_star")
    header.append("iterations")
    rows = []
    for pair, surrogate in zip(solve_modes(sys, args.modes), surrogates):
        row = [pair.index, pair.value, surrogate.value]
        if args.postprocess:
            fields = recover_fields(sys, pair)
            row.append(postprocess(sys, fields).value_star)
        row.append(pair.iterations)
        rows.append(row)
        log.info("mode %d: lambda=%.12g (%d operator applications, residual %.1e)",
                 pair.index, pair.value, pair.iterations, pair.defect)
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
        progress=lambda level, dt: log.info("level %d done in %.2fs", level, dt),
    )
    _write_output(emit_table(report, args.format), args)
    return EXIT_OK


def cmd_oracle_check(args):
    """The paper's secant route against the solution operator's Lanczos run."""
    sys = _assemble(args)
    condensed = np.sort([solve_condensed_nonlinear(sys, s).value
                         for s in solve_linear_surrogate(sys, args.modes)])
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


def main(argv=None):
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=_sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=_sys.stderr,
    )
    try:
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
