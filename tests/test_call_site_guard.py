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
- ``reduce`` only in ``regularizer.softmax_rows`` and
  ``regularizer._class_sum``: a running class-axis sum gives ``np.sum``'s
  bits only below 8 classes, so that rule lives in one helper, and the row
  max beside it is exact in any order.

One attribute belongs to one module: ``Graph``'s stored edge array is read
only in ``graph.py``.  Every other module, script and benchmark file reads
``endpoints``, ``edges``, ``m`` and ``n``, so the storage format can change
in one place.
"""

import ast
from pathlib import Path

import pytest

from distsig.graph import build_graph

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "distsig"
EDGE_FIELD = "_uv"  # Graph's stored edge array


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
    ("reduce", [("regularizer", "softmax_rows"), ("regularizer", "_class_sum")]),
], ids=["cumsum", "Graph", "toarray", "reduce"])
def test_called_only_inside(name, owners):
    found = []  # (module, top-level function or None, line) per call
    for path in sorted(LIBRARY.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            found += [(path.stem, owner, call.lineno) for call in _calls(top, name)]
    assert [(module, owner) for module, owner, _ in found] == owners, found


def test_only_graph_reads_the_edge_array():
    assert EDGE_FIELD in vars(build_graph(2, [(0, 1)]))  # the guard names the real field
    readers = set()
    paths = sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # an attribute read, or a name string as getattr would take it
            if (isinstance(node, ast.Attribute) and node.attr == EDGE_FIELD
                    or isinstance(node, ast.Constant) and node.value == EDGE_FIELD):
                readers.add(path.relative_to(ROOT).as_posix())
    assert readers == {"src/distsig/graph.py"}
