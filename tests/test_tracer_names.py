"""The benchmark tracer (perfbench/tracer.py) names the functions it wraps
by qualified name inside each gl2local layer, and reports a name it cannot
find as a zero metric rather than an error.  Resolving every name here, the
way the tracer does, makes a rename fail the suite instead."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str, str]]:
    # read the list statically: importing the tracer is not needed
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {TRACER}")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    missing = []
    for layer, _, qualname in traced:
        holder = importlib.import_module(f"gl2local.{layer}")
        owner, _, attr = qualname.rpartition(".")
        for part in owner.split(".") if owner else []:
            holder = getattr(holder, part, None)
        if holder is None or attr not in vars(holder):
            missing.append(f"{layer}.{qualname}")
    assert not missing
