"""The benchmark tracer (perfbench/tracing.py) patches distsig by name.

A rename inside distsig would otherwise only show up as a crash or as zeroed
per-layer metrics of a traced benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from distsig import cli, distributional, gnn, spectral
from distsig.graph import sbm_generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve their module by name
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    return _tracing().targets()


def test_trace_targets_resolve():
    for owner, attr, _, _ in _targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_run_reports_work_counters(capsys):
    # each counter hook reads a return value or an argument of the call it
    # wraps; a changed type there would zero the metric without any error
    tracing = _tracing()
    tr = tracing.Tracer()
    with tr.install(tracing.targets()):
        report = distributional.check_tv_bounds(*distributional.random_bound_instance((0, 1)))
        assert cli.main(["train", "--blocks", "20,20", "--variant", "r", "--epochs", "2",
                         "--val-size", "10", "--test-size", "10", "--tune"]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tr)
    for name in ("graph.trees_enumerated", "simplex.lp_columns", "spectral.eig_sym.n",
                 "gnn.feature_nnz", "gnn.epochs"):
        assert metrics[name] > 0, name
    assert metrics["gnn.epochs"] == 2  # the eta grid trains as one stack
    assert metrics["graph.trees_enumerated"] == report["tree_count"]
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


def test_cover_search_positional_signature():
    # the lattice-cell counter reads these four arguments by position
    params = list(inspect.signature(distributional._min_weight_cover).parameters)
    assert params[:4] == ["masks", "weights", "n_edges", "size_cap"]


def test_train_receives_dense_features(tmp_path, monkeypatch, capsys):
    # the feature counter reads train's second argument with np.asarray, which
    # raises on a sparse matrix, so tune_eta and the CLI must pass it dense
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
