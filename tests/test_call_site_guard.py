"""Some calls belong inside named functions of ``src/distsig`` and nowhere else.

- ``cumsum`` only in ``graph.edge_sum``: its running sum keeps every edge
  total bitwise equal to a loop over ``g.edges``, and a ``cumsum`` anywhere
  else is a second copy of that rule.
- ``Graph(...)`` only in ``graph.build_graph``, which checks edge lists from
  outside the library, and in the three producers whose edges are canonical
  by construction: ``gnn.load_cora``, ``graph.main_component`` and
  ``graph.sbm_generate``.  Any other graph is built by ``build_graph``.
- ``toarray`` only in ``spectral.laplacian_spectrum`` and
  ``spectral.laplacian_coefficients``: each route densifies the Laplacian
  once, in Fortran order, which LAPACK's working copy takes without a
  transpose.
"""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "distsig"


def _calls(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                yield node


@pytest.mark.parametrize("name, owners", [
    ("cumsum", [("graph", "edge_sum")]),
    ("Graph", [("gnn", "load_cora"), ("graph", "build_graph"), ("graph", "main_component"),
               ("graph", "sbm_generate")]),
    ("toarray", [("spectral", "laplacian_spectrum"), ("spectral", "laplacian_coefficients")]),
], ids=["cumsum", "Graph", "toarray"])
def test_called_only_inside(name, owners):
    found = []  # (module, top-level function or None, line) per call
    for path in sorted(LIBRARY.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            found += [(path.stem, owner, call.lineno) for call in _calls(top, name)]
    assert [(module, owner) for module, owner, _ in found] == owners, found
