"""Command-line front end.

Subcommands: spectrum, bounds, train, analyze, gen-sbm.  Exit codes:
0 success, 1 property violation, 2 usage error, 3 I/O error, 70 internal
error.  All randomness flows from --seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import gnn
from .distributional import run_bound_corpus
from .graph import (
    GraphError,
    main_component,
    read_graph_file,
    read_labels_file,
    sbm_generate,
    write_graph_file,
    write_labels_file,
)
from .regularizer import check_prob_matrix, nonuniformity_sweep, write_nonuniformity_csv
from .spectral import (
    export_spectrum_csv,
    gft,
    laplacian_spectrum,
    matched_random_signal,
    normalize_unless_constant,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 70


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_blocks(text: str) -> list[int]:
    try:
        blocks = [int(b) for b in text.split(",") if b.strip()]
    except ValueError:
        raise CliError(f"bad --blocks value {text!r}", EXIT_USAGE) from None
    if not blocks:
        raise CliError("empty --blocks value", EXIT_USAGE)
    return blocks


def _read(reader, *args):
    """Run a file reader; a GraphError from a malformed file is an I/O error."""
    try:
        return reader(*args)
    except GraphError as e:
        raise CliError(str(e), EXIT_IO) from None


def _load_dataset(args):
    """Resolve --dataset into (graph, features, labels)."""
    if args.dataset == "cora":
        g, f, y, _ = _read(gnn.load_cora_dir, getattr(args, "data_dir", None))
        return g, f, y
    if args.dataset == "sbm":
        blocks = _parse_blocks(args.blocks)
        g, f, y = gnn.sbm_dataset(blocks, args.p_in, args.p_out, args.seed)
        return g, f, y
    if args.dataset == "file":
        if not args.graph or not args.labels:
            raise CliError("--dataset file needs --graph and --labels", EXIT_USAGE)
        g = _read(read_graph_file, args.graph)
        y = _read(read_labels_file, args.labels)
        if y.shape[0] != g.n:
            raise CliError(
                f"label count {y.shape[0]} does not match graph size {g.n}", EXIT_IO
            )
        feat_path = getattr(args, "features", None)
        f = _read_matrix(feat_path, "feature", g.n) if feat_path else gnn.sbm_features(g.n)
        return g, f, y
    raise CliError(f"unknown dataset {args.dataset!r}", EXIT_USAGE)


def _read_matrix(path, kind, n):
    """Load a finite real 2-D matrix, with n rows unless n is None.

    Anything else in the file is an I/O error; ``kind`` names the matrix in
    the messages.
    """
    try:
        with warnings.catch_warnings():
            # an empty text file is reported below, as an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            f = np.load(path) if path.endswith(".npy") else np.loadtxt(path, dtype=float,
                                                                       ndmin=2)
    except (ValueError, EOFError) as e:  # EOFError: an empty .npy file
        raise CliError(f"{path}: unreadable {kind} matrix: {e}", EXIT_IO) from None
    if not isinstance(f, np.ndarray):  # an .npz archive under a .npy name
        f.close()
        raise CliError(f"{path}: unreadable {kind} matrix: an archive, not one array", EXIT_IO)
    if f.ndim != 2:
        raise CliError(f"{path}: {kind} matrix must be a 2-D array, got {f.ndim}-D", EXIT_IO)
    if f.size == 0:
        raise CliError(f"{path}: empty {kind} matrix", EXIT_IO)
    if f.dtype.kind not in "biuf":
        raise CliError(f"{path}: {kind} matrix must be real numbers, got dtype {f.dtype}",
                       EXIT_IO)
    if n is not None and f.shape[0] != n:
        raise CliError(f"{kind} rows {f.shape[0]} do not match graph size {n}", EXIT_IO)
    bad = ~np.isfinite(f)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise CliError(
            f"{path}: {kind} matrix must be finite, got {int(bad.sum())} non-finite "
            f"value(s), first at row {row}, column {col}", EXIT_IO
        )
    return f


def _read_probs(path, n):
    """``_read_matrix`` for a row-stochastic matrix; other rows are an I/O error."""
    x = _read_matrix(path, "probability", n)
    try:
        return check_prob_matrix(x)
    except ValueError as e:
        raise CliError(f"{path}: not a probability matrix: {e}", EXIT_IO) from None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- subcommands ----------------------------------------------------------

def cmd_spectrum(args) -> int:
    g, _, y = _load_dataset(args)
    probs = _read_probs(args.probs, g.n) if args.probs else None
    sub, nodes = main_component(g)
    spec = laplacian_spectrum(sub)
    norm = not args.no_normalize

    def coeffs(signal):
        x = np.asarray(signal, dtype=float)
        if norm:
            x = normalize_unless_constant(x)
        return gft(spec, x)

    label_sig = y[nodes].astype(float)
    rand_sig = matched_random_signal(y, args.seed)[nodes]
    export_spectrum_csv(f"{args.out}_label.csv", spec.eigenvalues, coeffs(label_sig))
    export_spectrum_csv(f"{args.out}_random.csv", spec.eigenvalues, coeffs(rand_sig))
    written = 2
    if probs is not None:
        for s in range(probs.shape[1]):
            export_spectrum_csv(
                f"{args.out}_class{s}.csv", spec.eigenvalues, coeffs(probs[nodes, s])
            )
            written += 1
    print(f"wrote {written} spectrum file(s) with prefix {args.out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    report = run_bound_corpus(
        args.trials, args.seed, max_n=args.n, max_m=args.m,
        keep_instances=not args.summary_only,
    )
    if args.out:
        _write_json(args.out, report)
    print(
        f"{report['trials']} instances, {report['violation_count']} violation(s); "
        f"weak-constant pass rate {report['c3_paper_pass_rate']:.3f}"
    )
    print(f"{'inequality':<24} worst margin")
    for name, margin in report["worst_margins"].items():
        print(f"{name:<24} {margin:+.3e}")
    if report["violation_count"]:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = gnn.TrainConfig(
        variant=args.variant, eta=args.eta, epochs=args.epochs, seed=args.seed,
        hidden=args.hidden, lr=args.lr, weight_decay=args.weight_decay,
        dropout=args.dropout,
    )
    g, f, y = _load_dataset(args)
    cora = args.dataset == "cora"
    per_class = args.per_class if args.per_class is not None else (20 if cora else 5)
    val_size = args.val_size if args.val_size is not None else (500 if cora else 50)
    test_size = args.test_size if args.test_size is not None else (1000 if cora else 100)
    split = gnn.make_split(y, per_class, val_size, test_size, args.seed)
    if args.tune:
        metrics, runs = gnn.tune_eta(g, f, y, split, cfg)
    else:
        metrics = gnn.train(g, f, y, split, cfg)
    print(
        f"variant={metrics.config.variant} eta={metrics.config.eta} "
        f"test_acc={metrics.test_acc:.4f} best_epoch={metrics.best_epoch}"
    )
    if args.out:
        report = metrics.to_json_dict()
        if args.tune:
            report["tune"] = [{"eta": m.config.eta, "best_val_acc": max(m.val_acc),
                               "best_epoch": m.best_epoch} for m in runs]
        _write_json(args.out, report)
        np.save(f"{args.out}.probs.npy", metrics.final_probs)
    return EXIT_OK


def cmd_analyze(args) -> int:
    probs = _read_probs(args.probs, None)
    records = nonuniformity_sweep(probs)
    write_nonuniformity_csv(args.out, records, args.tag)
    print(f"wrote non-uniformity sweep for {probs.shape[0]}x{probs.shape[1]} entries to {args.out}")
    return EXIT_OK


def cmd_gen_sbm(args) -> int:
    blocks = _parse_blocks(args.blocks)
    g, y = sbm_generate(blocks, args.p_in, args.p_out, args.seed)
    write_graph_file(f"{args.out}.graph", g)
    write_labels_file(f"{args.out}.labels", y)
    print(f"wrote {args.out}.graph ({g.n} nodes, {g.m} edges) and {args.out}.labels")
    return EXIT_OK


# --- parser ---------------------------------------------------------------

def _add_dataset_args(p: argparse.ArgumentParser, with_features: bool = True):
    p.add_argument("--dataset", choices=("cora", "sbm", "file"), default="sbm")
    p.add_argument("--graph", default=None, help="graph file for --dataset file")
    if with_features:
        p.add_argument("--features", default=None, help="feature matrix (.npy or text)")
    p.add_argument("--labels", default=None, help="labels file for --dataset file")
    p.add_argument("--data-dir", default=None, help="override DISTSIG_DATA_DIR")
    p.add_argument("--blocks", default="50,50,50,50", help="SBM block sizes")
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distsig")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="label/random/prediction spectra as CSV")
    _add_dataset_args(p, with_features=False)
    p.add_argument("--probs", default=None, help="optional .npy probability matrix")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip mean-centering + l2 normalization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="fuzz the variation inequality chains")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6, help="max graph size")
    p.add_argument("--m", type=int, default=3, help="max alphabet size")
    p.add_argument("--summary-only", action="store_true",
                   help="omit per-instance records from the report")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("train", help="train one model variant")
    _add_dataset_args(p)
    p.add_argument("--variant", choices=gnn.VARIANTS, default="gcn")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--per-class", type=int, default=None,
                   help="training nodes per class (default: 20 cora, 5 otherwise)")
    p.add_argument("--val-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--tune", action="store_true", help="grid-search eta on validation")
    p.add_argument("--out", default=None, help="metrics JSON path (+ .probs.npy)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="non-uniformity count sweep of saved outputs")
    p.add_argument("--probs", required=True, help=".npy probability matrix")
    p.add_argument("--tag", default="model", help="model tag column value")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-sbm", help="sample a block-model graph to files")
    p.add_argument("--blocks", default="50,50,50,50")
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_sbm)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:  # a GraphError here did not come from reading a file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # keep exit 1 reserved for property violations
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
