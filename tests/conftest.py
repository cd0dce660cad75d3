import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from distsig import build_graph
from distsig.gnn import (
    CORA_SPLIT,
    TrainConfig,
    cora_files,
    load_cora,
    make_split,
    train,
    tune_eta,
)


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
    """Raw Cora dataset, or skip when the files are not on this machine."""
    try:
        return load_cora(*cora_files(None))
    except FileNotFoundError:
        pytest.skip("raw Cora files not present (set DISTSIG_DATA_DIR)")


class _CoraRuns:
    """Lazy cache of trained Cora models shared by the acceptance criteria.

    Training is deterministic, so each plain run (variant, seed, eta) and each
    tuned run (variant, seed) is trained at most once per session.  Every
    run's output analysis reads the one main-component spectrum that
    ``gnn.component_spectrum`` keeps for the session's graph.
    """

    def __init__(self, dataset):
        self.g, self.features, self.labels, self.class_names = dataset
        self._cache = {}
        self._tuned = {}
        self.train_seconds = 0.0

    def split(self, seed):
        return make_split(self.labels, *CORA_SPLIT, seed)

    def run(self, variant, seed, eta=0.5):
        key = (variant, seed, eta)
        if key not in self._cache:
            cfg = TrainConfig(variant=variant, eta=eta, seed=seed)
            t0 = time.perf_counter()
            self._cache[key] = train(self.g, self.features, self.labels, self.split(seed), cfg)
            self.train_seconds += time.perf_counter() - t0
        return self._cache[key]

    def tuned(self, variant, seed):
        """``tune_eta``'s best-validation run over its eta grid."""
        if variant == "gcn":
            return self.run("gcn", seed)
        key = (variant, seed)
        if key not in self._tuned:
            cfg = TrainConfig(variant=variant, seed=seed)
            t0 = time.perf_counter()
            self._tuned[key], _ = tune_eta(self.g, self.features, self.labels,
                                           self.split(seed), cfg)
            self.train_seconds += time.perf_counter() - t0
        return self._tuned[key]


@pytest.fixture(scope="session")
def cora_runs(cora):
    return _CoraRuns(cora)


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
