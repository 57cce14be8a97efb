"""List the functions of ``src/mhdbayes`` that no program path reaches.

Runs every CLI subcommand at small sizes, in the configurations that take
different code: ``fit`` with a fixed-k prior, a random-k prior and
parameter bounds; ``robustness`` with and without BMH; ``efficiency``
under both priors; ``bvm``; ``posterior-dump`` as JSON and as CSV; and
``bmh_fit`` called as a library function.  All of it runs in one process
under ``sys.settrace``, which records the code object of every Python
call.  Every function, method or lambda defined in the package whose code
never ran is then printed as ``module.py:line qualname``, in file order.
A hook declaration, whose body only raises ``NotImplementedError``, has
no body to reach and is not listed.

Run ``python tests/reach.py`` from the repository root.  Only the success
paths run, so a function that serves only an error message is listed too.
"""

import ast
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mhdbayes"
# code objects that are not functions of their own
_NOT_FUNCTIONS = {"<module>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}

SMALL_FIT = ["--data", "bundled:newcomb", "--n-boot", "50", "--n-samples", "100"]
SMALL_SWEEP = ["--n", "120", "--reps", "2", "--z-grid", "5,50"]
RUNS = [
    ["fit", *SMALL_FIT],
    ["fit", *SMALL_FIT, "--prior-mode", "random"],
    ["fit", *SMALL_FIT, "--mu-bounds", "0,60", "--sigma-bounds", "0.5,30"],
    ["robustness", *SMALL_SWEEP, "--n-samples", "100"],
    ["robustness", *SMALL_SWEEP, "--estimators", "mhb,mle"],
    ["robustness", *SMALL_SWEEP, "--estimators", "mle", "--format", "csv"],
    ["efficiency", "--n", "200", "--reps", "100"],
    ["efficiency", "--n", "200", "--reps", "100", "--prior-mode", "random"],
    ["bvm", "--data", "bundled:newcomb", "--n-samples", "100"],
    ["posterior-dump", "--data", "bundled:newcomb", "--n-samples", "100"],
    ["posterior-dump", "--data", "bundled:newcomb", "--n-samples", "100",
     "--format", "csv"],
]


def _declarations(tree):
    """First lines of the functions in ``tree`` whose body, past an optional
    docstring, is one ``raise NotImplementedError``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if (len(body) == 1 and isinstance(body[0], ast.Raise)
                    and "NotImplementedError" in ast.unparse(body[0])):
                lines.add(min([node.lineno] + [d.lineno for d in node.decorator_list]))
    return lines


def defined_functions():
    """The (file, first line, qualname) of every function in the package
    that is not a hook declaration."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        skip = _declarations(ast.parse(source))
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            if code.co_name not in _NOT_FUNCTIONS and code.co_firstlineno not in skip:
                found.append((code.co_filename, code.co_firstlineno,
                              getattr(code, "co_qualname", code.co_name)))
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return sorted(found)


def reached_functions(runs=RUNS):
    """The (file, first line) of every function that ``runs`` call."""
    reached = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))

    sys.settrace(tracer)
    try:
        # imported under the tracer, so that import-time calls count too
        from mhdbayes.cli import main
        from mhdbayes.datasets import load_dataset
        from mhdbayes.estimators import bmh_fit

        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "report")
            for argv in runs:
                if main([*argv, "--seed", "1", "--out", out]) != 0:
                    raise SystemExit(f"run failed: mhdbayes {' '.join(argv)}")
        bmh_fit(load_dataset("bundled:newcomb").values, n_samples=100, rng=1)
    finally:
        sys.settrace(None)
    return reached


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    reached = reached_functions()
    for filename, line, qualname in defined_functions():
        if (filename, line) not in reached:
            print(f"{Path(filename).name}:{line} {qualname}")
