"""The benchmark tracer (perfbench/tracing.py) patches distsig by name, and
the workloads (perfbench/workloads.py) call it by position and keyword.

A rename or a signature change inside distsig would otherwise only show up
as a crash, as failed ops or as zeroed per-layer metrics of a benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from distsig import cli, distributional, gnn, graph, spectral
from distsig.graph import cover_size_cap, sbm_generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    """Load perfbench/<name>.py as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _perfbench("tracing")


def _targets():
    return _tracing().targets()


def test_trace_targets_resolve():
    for owner, attr, _, _ in _targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_run_reports_work_counters(tmp_path, capsys):
    # each counter hook reads a return value or an argument of the call it
    # wraps; a changed type there would zero the metric without any error
    tracing = _tracing()
    tr = tracing.Tracer()
    with tr.install(tracing.targets()):
        report = distributional.check_tv_bounds(*distributional.random_bound_instance(
            (0, 1), *distributional.BOUND_CORPUS))
        assert cli.main(["train", "--blocks", "20,20", "--variant", "r", "--epochs", "2",
                         "--val-size", "10", "--test-size", "10", "--tune",
                         "--out", str(tmp_path / "run.json")]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tr)
    # the bound check must reach the cover search and the rooted-tree bound
    # through the module globals the tracer patches
    for name in ("graph.trees_enumerated", "graph._min_weight_cover.calls",
                 "graph.cover_lattice_cells", "distributional.tv_tree_rooted.calls",
                 "simplex.lp_columns", "spectral.eig_sym.n", "gnn.feature_nnz", "gnn.epochs"):
        assert metrics[name] > 0, name
    assert metrics["gnn.epochs"] == 2  # the eta grid trains as one stack
    # the block model's one-hot: one indicator per node, counted at float64's
    # size, so a feature type the counter reads otherwise fails here
    assert metrics["gnn.feature_nnz"] == 40
    assert metrics["gnn.feature_bytes_dense"] == 40 * 64 * 8
    assert metrics["graph.trees_enumerated"] == report["tree_count"]
    # the cover search gets one packed mask per tree over the host's edges;
    # a mask list of another length, such as the table's transpose, would
    # skew this count without failing the search
    host_edges = len(report["graph"]["edges"])
    assert metrics["graph.cover_lattice_cells"] == (
        cover_size_cap(report["c1"]) * report["tree_count"] * 2 ** host_edges)
    assert metrics["spectral.eig_sym.n"] <= 40

    plain_tr = tracing.Tracer()
    with plain_tr.install(tracing.targets()):
        assert cli.main(["train", "--blocks", "20,20", "--variant", "r", "--epochs", "3",
                         "--val-size", "10", "--test-size", "10"]) == 0
    capsys.readouterr()
    plain = tracing.layer_metrics(plain_tr)
    assert plain["gnn.epochs"] == 3
    # the forward's span name reads its dropout/rng keywords, and an epoch runs
    # from loss_and_grad to the eval-side regularizer, each called under its
    # module name with train as the nearest traced caller; passing those
    # keywords by position, or calling either under another name or from a
    # traced helper, would zero these spans without any error
    for run in (plain, metrics):
        for name in ("gnn.gcn_forward.train.busy_s", "gnn.gcn_forward.eval.busy_s",
                     "gnn.gcn_backward.busy_s", "regularizer.reg_value_and_grad.busy_s",
                     "gnn.epoch_ms.p50"):
            assert run[name] > 0, name


def test_traced_enumeration_runs_inside_its_span(monkeypatch):
    # the bounds read the host's cached trees; if the first listing ran
    # inside a bound, the tree count would still match, but its time would
    # show up as that bound's self time
    tracing = _tracing()
    tr = tracing.Tracer()
    innermost = []
    real = graph._spans

    def spy(g, rows):
        innermost.append(tr.spans[tr._stack[-1]].name if tr._stack else None)
        return real(g, rows)

    monkeypatch.setattr(graph, "_spans", spy)
    with tr.install(tracing.targets()):
        distributional.check_tv_bounds(*distributional.random_bound_instance(
            (0, 1), *distributional.BOUND_CORPUS))
    assert innermost == ["graph.enumerate_spanning_trees"]


def test_traced_tv_exact_reports_its_lp():
    # the tracer wraps distributional.solve_lp and counts its first argument,
    # the cost vector; calling the solver under another name, or passing the
    # cost elsewhere, would read 0 calls or 0 columns without any error
    tracing = _tracing()
    g, nn = distributional.random_bound_instance((0, 3), *distributional.BOUND_CORPUS)
    tr = tracing.Tracer()
    with tr.install(tracing.targets()):
        distributional.tv_exact(g, nn)
    metrics = tracing.layer_metrics(tr)
    assert metrics["simplex.solve_lp.calls"] == 1
    assert metrics["simplex.lp_columns"] == nn.m ** nn.n == 81


def test_cover_search_positional_signature():
    # the lattice-cell counter reads these four arguments by position
    params = list(inspect.signature(distributional._min_weight_cover).parameters)
    assert params[:4] == ["masks", "weights", "n_edges", "size_cap"]


def test_train_receives_dense_features(tmp_path, monkeypatch, capsys):
    # the feature counter reads train's second argument with np.asarray, which
    # raises on a sparse matrix, so the benchmark's datasets, file and sbm,
    # must reach train dense from tune_eta and the CLI; only --dataset cora,
    # which no workload loads, hands train a CSR matrix
    seen = []
    real_train = gnn.train

    def spy(g, features, *args, **kwargs):
        seen.append(type(features))
        return real_train(g, features, *args, **kwargs)

    monkeypatch.setattr(gnn, "train", spy)
    g, f, y = gnn.sbm_dataset((20, 20), 0.3, 0.05, seed=1)
    split = gnn.make_split(y, 5, 10, 10, seed=1)
    gnn.tune_eta(g, f, y, split, gnn.TrainConfig(variant="r", epochs=2), analysis=False)

    prefix = tmp_path / "g"
    assert cli.main(["gen-sbm", "--blocks", "20,20", "--out", str(prefix)]) == 0
    np.save(tmp_path / "f.npy", f)
    files = ["--dataset", "file", "--graph", f"{prefix}.graph", "--labels",
             f"{prefix}.labels", "--features", str(tmp_path / "f.npy")]
    for extra in ([], ["--tune"]):
        assert cli.main(["train", *files, "--variant", "r", "--epochs", "2",
                         "--val-size", "10", "--test-size", "10", *extra]) == 0
    capsys.readouterr()
    assert len(seen) == 3  # one call per eta grid, one per plain run
    assert all(t is np.ndarray for t in seen), seen


def test_eig_sym_receives_dense_matrix(tmp_path, monkeypatch, capsys):
    # the eigensolver-size counter reads eig_sym's first argument with
    # np.asarray, which turns a sparse matrix into a 0-d object array
    seen = []
    real_eig_sym = spectral.eig_sym

    def spy(mat, *args, **kwargs):
        seen.append(mat)
        return real_eig_sym(mat, *args, **kwargs)

    monkeypatch.setattr(spectral, "eig_sym", spy)
    spectral.laplacian_spectrum(sbm_generate([10, 10], 0.4, 0.1, seed=3)[0])
    out = tmp_path / "run.json"
    assert cli.main(["train", "--blocks", "20,20", "--variant", "r", "--epochs", "2",
                     "--val-size", "10", "--test-size", "10", "--tune",
                     "--out", str(out)]) == 0
    assert cli.main(["spectrum", "--blocks", "20,20", "--probs", f"{out}.probs.npy",
                     "--out", str(tmp_path / "spec")]) == 0
    capsys.readouterr()
    assert len(seen) == 3
    assert all(type(m) is np.ndarray and m.ndim == 2 for m in seen), [type(m) for m in seen]


@pytest.mark.parametrize("name", ["Corpus", "SbmTrend"])
def test_cheap_workloads_run_a_round_without_failed_ops(name):
    # the corpus draws pooled instances by position and runs the corpus by
    # keyword; the trend loop calls train and tune_eta by keyword.  cora_tune
    # is left out: its set-up writes a 31 MB stand-in and its round takes
    # seconds
    workload = getattr(_perfbench("workloads"), name)()
    rd = workload.run_round(workload.setup(0), 0)
    assert rd.attempted > 0
    assert rd.failed == 0, rd.failures
