"""Per-edge values are summed in one place, ``graph.edge_sum``.

Its running sum keeps every edge total bitwise equal to a loop over
``g.edges``; a ``cumsum`` anywhere else in ``src/distsig`` is a second copy
of that rule.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "distsig"


def _cumsum_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "cumsum":
                yield node


def test_cumsum_only_in_edge_sum():
    found = []  # (module, top-level function or None, line) per cumsum call
    for path in sorted(LIBRARY.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            found += [(path.stem, owner, call.lineno) for call in _cumsum_calls(top)]
    assert [(module, owner) for module, owner, _ in found] == [("graph", "edge_sum")], found
