"""The statements of ``src/relu_unwrap/`` that the test suite never executes.

    python3 tests/tools/uncovered.py [PYTEST ARGS...]

Runs pytest in this process (default: every test under ``tests/``) with a
line tracer installed through ``sys.settrace``, then prints one line per
statement of ``src/relu_unwrap/*.py`` that no test executed:
``path:line: source``, followed on stderr by the count.  Docstrings are
not statements here.  A compound statement (``def``, ``if``, ``for``, ...)
counts as executed when any line of it ran, so only statements that never
ran are listed; their bodies are listed statement by statement.  Only the
standard library is used, and pytest does not collect this file.  Code run
in a subprocess is not seen.  The exit code is pytest's.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "relu_unwrap"


def statements(path: Path) -> list[tuple[int, int]]:
    """``(first, last)`` lines of every statement in ``path``, docstrings
    left out; a decorated definition starts at its first decorator."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in docstrings:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        # frames without a file name (some appear at interpreter shutdown) are skipped
        name = frame.f_code.co_filename
        if not name or name not in ran:
            return None
        lines = ran[name]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(trace)
    try:
        code = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for first, last in statements(path):
            if not ran[name].intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements never executed (pytest exit code {int(code)})", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
