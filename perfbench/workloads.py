"""Workloads of the hdgeig benchmark and the checks on their results.

A workload is a list of ``hdg-eig`` calls, each run in-process through
``hdgeig.cli.main``.  A *result* is one study cell (mode, level) or one
``oracle-check`` call.  Every result is compared with the values stored in
``reference.json`` beside this file, which were computed at the commit
that introduced the benchmark, with OpenBLAS pinned to one thread.

This module imports nothing from hdgeig, numpy or scipy, so the
orchestrator can use it without paying for those imports.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# eigenvalues must agree to this relative tolerance; an eigenvalue error
# below it is round-off for this check and is covered by the eigenvalue
# comparison alone
LAM_RTOL = 1e-9
# eigenfunction errors (relative L2 distances) below this are round-off
ERR_U_FLOOR = 1e-8
ORACLE_MODES = 6


@dataclass(frozen=True)
class Call:
    """One ``hdg-eig`` invocation: a convergence study or an oracle check."""

    kind: str  # "study" | "oracle"
    domain: str
    tau: str
    k: int
    levels: tuple  # study: (first, last) inclusive; oracle: (level,)
    modes: tuple = ()

    @property
    def argv(self):
        common = ["--domain", self.domain, "--case", "equal", "--tau", self.tau,
                  "--k", str(self.k)]
        if self.kind == "study":
            return ["study", *common, "--levels", "%d:%d" % self.levels,
                    "--modes", ",".join(map(str, self.modes)), "--format", "json"]
        return ["oracle-check", *common, "--level", str(self.levels[0]),
                "--modes", str(ORACLE_MODES)]

    def result_keys(self):
        if self.kind == "study":
            lo, hi = self.levels
            return [study_key(self.domain, self.tau, self.k, level, mode)
                    for mode in self.modes for level in range(lo, hi + 1)]
        return ["oracle/%s/%s/k%d/L%d" % (self.domain, self.tau, self.k, self.levels[0])]


def study_key(domain, tau, k, level, mode):
    return "study/%s/%s/k%d/L%d/m%d" % (domain, tau, k, level, mode)


def _oracle_grid(levels):
    # acceptance criterion 1: {square, lshape} x levels x k {0, 1} x tau {one, h}
    return [Call("oracle", d, tau, k, (level,))
            for d in ("square", "lshape") for level in levels
            for k in (0, 1) for tau in ("one", "h")]


# name -> (full calls, smoke calls); smoke runs the coarsest levels only
WORKLOADS = {
    "study_k2": (
        [Call("study", "square", "one", 2, (0, 4), (1, 2, 4, 6))],
        [Call("study", "square", "one", 2, (0, 1), (1, 2, 4, 6))],
    ),
    "fine_k0": (
        [Call("study", "square", "one", 0, (6, 6), (1,))],
        [Call("study", "square", "one", 0, (3, 3), (1,))],
    ),
    "coarse_oracle": (_oracle_grid((0, 1)), _oracle_grid((0,))),
}


def calls(workload, seed, smoke=False):
    """The workload's calls in the order the seed fixes."""
    out = list(WORKLOADS[workload][1 if smoke else 0])
    random.Random(seed).shuffle(out)
    return out


def expected_results(workload_calls):
    return sum(len(c.result_keys()) for c in workload_calls)


def run_call(main, call):
    """Run one call in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(call.argv))
    return code, buf.getvalue()


def parse_output(call, code, text):
    """Map a call's output to {result key: values}; values are None when
    the call failed as a whole."""
    if code != 0:
        return dict.fromkeys(call.result_keys())
    if call.kind == "study":
        report = json.loads(text)
        out = {}
        for cell in report["cells"]:
            key = study_key(report["domain"], call.tau, report["k"], cell["level"], cell["mode"])
            out[key] = {name: cell[name] for name in
                        ("lam", "lam_star", "err_lam", "err_lam_star", "err_u", "note")}
        return out
    rows = [line.strip("|").split("|") for line in text.splitlines()[2:] if line.strip()]
    return {call.result_keys()[0]: {
        "condensed": [float(r[1]) for r in rows],
        "oracle": [float(r[2]) for r in rows],
    }}


def _rel_close(got, ref, rtol):
    return got is not None and abs(got - ref) <= rtol * abs(ref)


def _same_printed_digits(got, ref):
    # the tables print errors as %.2e: agree to half a unit of the third digit
    if got is None:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 2)
    return abs(got - ref) <= 0.5 * unit


def check(key, got, ref):
    """None when ``got`` matches the reference, else the reason it does not."""
    if ref is None:
        return "no reference value"
    if got is None:
        return "call failed (non-zero exit or exception)"
    if key.startswith("oracle/"):
        for column in ("condensed", "oracle"):
            if len(got[column]) != len(ref[column]) or not all(
                    _rel_close(g, r, LAM_RTOL) for g, r in zip(got[column], ref[column])):
                return "%s eigenvalues differ from the reference" % column
        return None
    if got["note"]:
        return "cell carries a note: %s" % got["note"]
    for name in ("lam", "lam_star"):
        if not _rel_close(got[name], ref[name], LAM_RTOL):
            return "%s=%r differs from reference %r" % (name, got[name], ref[name])
    for name, floor in (("err_lam", LAM_RTOL * abs(ref["lam"])),
                        ("err_lam_star", LAM_RTOL * abs(ref["lam"])),
                        ("err_u", ERR_U_FLOOR)):
        if (got[name] is None) != (ref[name] is None):
            return "%s presence differs from the reference" % name
        if ref[name] is not None and ref[name] > floor and not _same_printed_digits(
                got[name], ref[name]):
            return "%s=%.3e differs from reference %.3e" % (name, got[name], ref[name])
    return None


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["results"]


def perturbed(reference):
    """A copy of the reference with every eigenvalue moved by 1e-6 relative;
    the smoke mode checks that the checks then reject every result."""
    out = {}
    for key, ref in reference.items():
        if key.startswith("oracle/"):
            ref = dict(ref, condensed=[v * (1 + 1e-6) for v in ref["condensed"]])
        else:
            ref = dict(ref, lam=ref["lam"] * (1 + 1e-6))
        out[key] = ref
    return out
