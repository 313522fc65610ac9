"""List the functions in src/ that the acceptance and CLI tests never call.

Runs pytest on tests/test_acceptance.py and tests/test_cli.py in this
process with a profile hook (``sys.setprofile``) that records every Python
code object entered, then prints each function or method defined under
src/ that was never entered, one ``path:line qualname`` per line, followed
by a count.

    python scripts/reachability.py [extra pytest args]

The profile hook slows the tests several-fold, so timing assertions under
it (criterion 6) may fail; the pytest exit status is printed, and the list
is still complete for the code that ran.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ["tests/test_acceptance.py", "tests/test_cli.py"]


def defined_functions() -> dict[tuple[str, str], int]:
    """(resolved file, qualname) -> def line for every function under src/."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                out[(path, qual)] = child.lineno
                walk(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)

    for file in sorted(SRC.rglob("*.py")):
        path = str(file.resolve())
        walk(ast.parse(file.read_text(encoding="utf-8")), "", path)
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT)]
                             + [str(ROOT / t) for t in TESTS] + argv)
    finally:
        sys.setprofile(None)

    called = {(str(Path(c.co_filename).resolve()), c.co_qualname)
              for c in seen}
    missing = sorted((path, line, qual)
                     for (path, qual), line in defined_functions().items()
                     if (path, qual) not in called)
    print(f"\npytest exit status: {int(status)}")
    for path, line, qual in missing:
        print(f"{Path(path).relative_to(ROOT)}:{line} {qual}")
    print(f"{len(missing)} functions under src/ never called")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
