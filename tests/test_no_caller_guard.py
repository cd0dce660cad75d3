"""Every module-level name of the library has a caller outside its definition.

A name counts as called when some ``Name``, ``Attribute`` or import alias in
``src/``, ``scripts/`` or ``perfbench/`` reads it; the tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "distsig"
# computed only by acceptance criteria 1, 4 and 5, which check the paper's
# identities on them
GATE_ONLY = {("distributional", "optimal_coupling"), ("spectral", "total_variation"),
             ("regularizer", "nonuniformity_bound_check")}


def _definitions(tree):
    """Names bound at module level by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_library_name_has_a_caller():
    read = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            read.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    uncalled = set()
    for path in LIBRARY.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uncalled.update((path.stem, name) for name in _definitions(tree)
                        if not name.startswith("__") and name not in read)
    assert uncalled == GATE_ONLY
