"""Spans and counters around hdgeig's public functions, for traced runs.

Each wrapper replaces a function in the namespace its callers look it up
in (``hdgeig.study.solve_condensed_nonlinear``, ``hdgeig.cli.assemble_condensed``
and so on), so the program itself is unchanged.  Spans are kept in memory
as dicts with name, metric, start, end and parent; the worker sends them
to the orchestrator, which writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  A wrapped call that raises counts as a failure of its layer,
and so does a non-zero exit code from ``hdgeig.cli.main``.  ``scipy``
entry points are not spans: the wrappers only count the calls that come
from hdgeig, and ``splu`` returns a proxy that counts and times ``.solve``.
"""

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "assembly", "eigensolve", "recovery", "study", "cli")

# self-time metrics, one per wrapped function group; "bench.self" is the
# benchmark's own work in a pass (building inputs, parsing, checking)
TIMED = (
    "mesh.build", "mesh.refine",
    "assembly.assemble", "assembly.factor", "assembly.m_of_lambda",
    "eigensolve.surrogate", "eigensolve.nonlinear", "eigensolve.oracle",
    "recovery.recover", "recovery.postprocess",
    "study.self", "study.error",
    "cli.self", "bench.self",
)

COUNTED = (
    "mesh.triangles",
    "assembly.classes", "assembly.ndof", "assembly.nnz",
    "assembly.factorizations", "assembly.lu_nnz",
    "eigensolve.nonlinear_iters", "eigensolve.eigsh_calls", "eigensolve.eigh_calls",
    "eigensolve.lu_solves", "eigensolve.oracle_columns",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = defaultdict(float)
        self._stack = []

    def call(self, metric, name, fn, args, kwargs):
        span = {"name": name, "metric": metric, "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.totals[metric.split(".")[0] + ".failed"] += 1
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, metric, tally=None):
        """Replace ``owner.attr`` by a wrapper that records a span."""
        fn = getattr(owner, attr)
        name = "%s.%s" % (getattr(owner, "__name__", owner), attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(metric, name, fn, args, kwargs)
            if tally is not None:
                tally(result)
            return result

        setattr(owner, attr, wrapper)

    def count_from_hdgeig(self, owner, attr, counter, adapt=None):
        """Count calls of ``owner.attr`` made by hdgeig's own modules."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if sys._getframe(1).f_globals.get("__name__", "").startswith("hdgeig."):
                self.totals[counter] += 1
                if adapt is not None:
                    result = adapt(result)
            return result

        setattr(owner, attr, wrapper)

    def metrics(self, reported_modes):
        """Per-layer metrics of one pass."""
        self_s = defaultdict(float)
        for span in self.spans:
            dur = span["end"] - span["start"]
            self_s[span["metric"]] += dur
            if span["parent"] is not None:
                self_s[self.spans[span["parent"]]["metric"]] -= dur
        out = {m + "_s": self_s[m] for m in TIMED}
        out.update({c: int(self.totals[c]) for c in COUNTED})
        out["eigensolve.lu_solve_s"] = self.totals["eigensolve.lu_solve_s"]
        pairs = self.totals["eigensolve.nonlinear_pairs"]
        out["eigensolve.useful_pair_ratio"] = reported_modes / pairs if pairs else 0.0
        out.update({layer + ".failed": int(self.totals[layer + ".failed"]) for layer in LAYERS})
        return out


class _CountingLU:
    """Proxy for a SuperLU object that counts and times ``solve``."""

    def __init__(self, lu, totals):
        self._lu = lu
        self._totals = totals

    def solve(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._totals["eigensolve.lu_solve_s"] += time.perf_counter() - start
            self._totals["eigensolve.lu_solves"] += 1

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument(tracer):
    """Install every wrapper; call once per process, before the pass."""
    import scipy.linalg
    import scipy.sparse.linalg

    import hdgeig.assembly as assembly
    import hdgeig.cli as cli
    import hdgeig.eigensolve as eigensolve
    import hdgeig.mesh as mesh
    import hdgeig.study as study

    totals = tracer.totals

    def tally_exit(code):
        # cli.main turns errors into exit codes instead of raising
        totals["cli.failed"] += code != 0

    def tally_mesh(m):
        totals["mesh.triangles"] += m.num_triangles

    def tally_system(s):
        totals["assembly.classes"] += len(s.classes)
        totals["assembly.ndof"] += s.ndof
        totals["assembly.nnz"] += s.A.nnz

    def tally_pair(p):
        totals["eigensolve.nonlinear_pairs"] += 1
        totals["eigensolve.nonlinear_iters"] += p.iterations

    def tally_oracle(o):
        totals["eigensolve.oracle_columns"] += o.t_matrix.shape[0]

    def counting_lu(lu):
        totals["assembly.lu_nnz"] += lu.L.nnz + lu.U.nnz
        return _CountingLU(lu, totals)

    plan = [
        (cli, "main", "cli.self", tally_exit),
        (cli, "run_convergence_study", "study.self", None),
        (study, "eigenfunction_error", "study.error", None),
        # meshes handed to the study are tallied; refinements inside a
        # build are timed but not tallied again
        (study, "build_square_mesh", "mesh.build", tally_mesh),
        (study, "build_lshape_mesh", "mesh.build", tally_mesh),
        (study, "refine", "mesh.refine", tally_mesh),
        (mesh, "refine", "mesh.refine", None),
        (assembly.CondensedSystem, "factorized", "assembly.factor", None),
        (eigensolve, "assemble_m_of_lambda", "assembly.m_of_lambda", None),
        (eigensolve, "assemble_condensed", "assembly.assemble", tally_system),
        (cli, "oracle_full_eig", "eigensolve.oracle", tally_oracle),
    ]
    for module in (study, cli):
        plan += [
            (module, "assemble_condensed", "assembly.assemble", tally_system),
            (module, "solve_linear_surrogate", "eigensolve.surrogate", None),
            (module, "solve_condensed_nonlinear", "eigensolve.nonlinear", tally_pair),
            (module, "recover_fields", "recovery.recover", None),
            (module, "postprocess", "recovery.postprocess", None),
        ]
    for owner, attr, metric, tally in plan:
        tracer.wrap(owner, attr, metric, tally)
    tracer.count_from_hdgeig(scipy.sparse.linalg, "eigsh", "eigensolve.eigsh_calls")
    tracer.count_from_hdgeig(scipy.linalg, "eigh", "eigensolve.eigh_calls")
    tracer.count_from_hdgeig(scipy.sparse.linalg, "splu", "assembly.factorizations",
                             adapt=counting_lu)
