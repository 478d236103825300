"""The public surface of ``hdgeig``: the README's library example runs as
written, and every function the package exports, and every static
constructor of an exported class, is reached by a command or is a named
reference check; an import kept for the benchmark alone names what the
benchmark wraps."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import hdgeig
from hdgeig import basis, localsolve
from hdgeig.cli import main

#: exported functions and static methods that no command calls, and why
#: each stays
NOT_CALLED_BY_COMMANDS = {
    "assemble_m_of_lambda": "the benchmark times it as assembly.m_of_lambda",
    "solve_source": "acceptance criterion 10 checks the condensation on a source problem",
    "source_residuals": "criterion 10's residuals of that source problem",
    "eig_residuals": "criterion 10's residuals of a recovered eigen-triple",
    "qstar_normal_jumps": "criterion 10's normal continuity of the postprocessed flux",
    "ConvergenceReport.from_dict": "the lossless JSON round trip",
}

#: each command at level 0, and each --tau and --case spelling that
#: picks a TauSpec constructor; the studies add level 1 for the nested start
COMMANDS = [
    ["solve", "--level", "0", "--modes", "2"],
    ["solve", "--level", "0", "--modes", "1", "--tau", "h"],
    ["solve", "--level", "0", "--modes", "1", "--tau", "invh"],
    ["solve", "--level", "0", "--modes", "1", "--tau", "const:2"],
    ["solve", "--level", "0", "--modes", "1", "--case", "case1", "--tau", "zero"],
    ["study", "--levels", "0:1", "--modes", "1"],
    ["study", "--domain", "lshape", "--levels", "0:1", "--modes", "1"],
    ["oracle-check", "--level", "0", "--modes", "2"],
]


def readme_python_block(heading):
    """The first fenced Python block under a README section heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## %s\n" % heading, 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    scope = {}
    exec(readme_python_block("Library entry points"), scope)
    lam = scope["pairs"][0].value
    assert 2.0 < lam < 2.0 + 2e-4  # "lambda_1 ~ 2 + 1.1e-4"
    assert abs(scope["pair"].value - lam) <= 1e-12 * lam  # "same lambda_1"


def test_every_exported_function_is_called_by_a_command(capsys):
    exported = {name: inspect.unwrap(obj).__code__ for name, obj in vars(hdgeig).items()
                if callable(obj) and not isinstance(obj, type)}
    exported.update(("%s.%s" % (name, attr), method.__func__.__code__)
                    for name, cls in vars(hdgeig).items() if isinstance(cls, type)
                    for attr, method in vars(cls).items() if isinstance(method, staticmethod))
    # cached tabulations warmed by earlier tests would hide their builders
    for module in (basis, localsolve):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(COMMANDS)
    uncalled = {name for name, code in exported.items() if code not in entered}
    unlisted = sorted(uncalled - set(NOT_CALLED_BY_COMMANDS))
    assert not unlisted, "no command calls %s: delete it, or list it with a reason" % unlisted
    called = sorted(set(NOT_CALLED_BY_COMMANDS) - uncalled)
    assert not called, "a command calls %s now: drop it from the list" % called


def test_benchmark_only_imports_are_wrapped():
    # an import that no code of its module uses (``# noqa: F401``) is kept
    # for perfbench/spans.py alone: it must name a function that
    # ``instrument`` wraps in that module.  A tracer that only records the
    # wraps collects them, so nothing is patched
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    class Recorder:
        def __init__(self):
            self.totals, self.wrapped = {}, set()

        def wrap(self, owner, attr, metric, tally=None):
            self.wrapped.add((owner.__name__, attr))

        def count_from_hdgeig(self, owner, attr, counter, adapt=None):
            pass

    recorder = Recorder()
    spans.instrument(recorder)
    kept = []
    for path in sorted((root / "src" / "hdgeig").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "F401" in lines[node.end_lineno - 1].partition("noqa")[2]):
                kept += [("hdgeig." + path.stem, alias.asname or alias.name)
                         for alias in node.names]
    unwrapped = sorted(set(kept) - recorder.wrapped)
    assert not unwrapped, "imported for the benchmark but not wrapped by it: %s" % unwrapped
