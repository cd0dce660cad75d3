"""The benchmark tracer (perfbench/tracing.py) patches distsig by name.

A rename inside distsig would otherwise only show up as a crash or as zeroed
per-layer metrics of a traced benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from distsig import distributional

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve their module by name
    spec.loader.exec_module(tracing)
    return tracing.targets()


def test_trace_targets_resolve():
    for owner, attr, _, _ in _targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_cover_search_positional_signature():
    # the lattice-cell counter reads these four arguments by position
    params = list(inspect.signature(distributional._min_weight_cover).parameters)
    assert params[:4] == ["masks", "weights", "n_edges", "size_cap"]
