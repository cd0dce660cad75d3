import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from distsig import build_graph
from distsig.gnn import cora_features, cora_files, load_cora


@pytest.fixture
def p2():
    return build_graph(2, [(0, 1)])


@pytest.fixture
def p3():
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture(scope="session")
def cora():
    """Raw Cora dataset as (graph, features, labels), or skip when the files
    are not on this machine."""
    try:
        content, cites = cora_files(None)
        g, labels = load_cora(content, cites)
        return g, cora_features(content), labels
    except FileNotFoundError:
        pytest.skip("raw Cora files not present (set DISTSIG_DATA_DIR)")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Prepended to every run_python snippet.  A child's ru_maxrss starts at the
# pytest process's peak: subprocess starts it with vfork, and Linux carries
# the parent's RSS high-water mark across exec into ru_maxrss.  VmHWM is the
# high-water mark of the child's own address space, which exec starts afresh.
_PEAK_RSS = """
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024
"""


@pytest.fixture
def run_python():
    """Run a Python snippet (dedented) in a fresh interpreter on ``src``; returns its stdout.

    The snippet can call ``peak_rss()``: the child's own peak resident set in
    bytes, independent of the process that started it.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(code):
        r = subprocess.run([sys.executable, "-c", _PEAK_RSS + textwrap.dedent(code)],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert r.returncode == 0, r.stderr
        return r.stdout

    return run
