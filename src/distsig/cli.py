"""Command-line front end.

Subcommands: spectrum, bounds, train, analyze, gen-sbm.  Exit codes:
0 success, 1 property violation, 2 usage error, 3 I/O error, 70 internal
error.  All randomness flows from --seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import gnn
from .distributional import BOUND_CORPUS, run_bound_corpus
from .graph import (
    GraphError,
    read_graph_file,
    read_labels_file,
    sbm_generate,
    write_graph_file,
    write_labels_file,
)
from .regularizer import check_prob_matrix, nonuniformity_sweep, write_nonuniformity_csv
from .spectral import export_spectrum_csv, matched_random_signal

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


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _tag(text: str) -> str:
    """A --tag value: the CSV writes it raw, so it holds no CSV syntax."""
    if any(c in text for c in ',"\r\n'):
        raise argparse.ArgumentTypeError(
            f"must not hold a comma, a double quote or a line break, got {text!r}")
    return text


def _read(reader, *args):
    """Run a file reader; a GraphError from a malformed file is an I/O error."""
    try:
        return reader(*args)
    except GraphError as e:
        raise CliError(str(e), EXIT_IO) from None


def _load_dataset(args):
    """Resolve --dataset into (graph, features, labels)."""
    if args.dataset == "cora":
        g, f, y, _ = _read(gnn.load_cora_dir, args.data_dir)
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
    the messages.  A ``.npy`` file is memory-mapped, not copied: the result
    is a plain ``ndarray`` view of the map, and the file must not be
    rewritten while it is in use.
    """
    try:
        with warnings.catch_warnings():
            # an empty text file is reported below, as an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            f = (np.load(path, mmap_mode="r") if path.endswith(".npy")
                 else np.loadtxt(path, dtype=float, ndmin=2))
    except (ValueError, EOFError) as e:  # EOFError: an empty .npy file
        raise CliError(f"{path}: unreadable {kind} matrix: {e}", EXIT_IO) from None
    if not isinstance(f, np.ndarray):  # an .npz archive under a .npy name
        f.close()
        raise CliError(f"{path}: unreadable {kind} matrix: an archive, not one array", EXIT_IO)
    f = np.asarray(f)  # a memmap's ndarray view: callers see the type a copy would have
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
    signals = {"label": y.astype(float), "random": matched_random_signal(y, args.seed)}
    if probs is not None:
        signals.update((f"class{s}", probs[:, s]) for s in range(probs.shape[1]))
    for name, signal in signals.items():
        export_spectrum_csv(f"{args.out}_{name}.csv", *gnn.component_gft(g, signal))
    print(f"wrote {len(signals)} spectrum file(s) with prefix {args.out}")
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
    cfg = gnn.TrainConfig(variant=args.variant, eta=args.eta, epochs=args.epochs,
                          seed=args.seed)
    g, f, y = _load_dataset(args)
    protocol = gnn.CORA_SPLIT if args.dataset == "cora" else gnn.SBM_SPLIT
    sizes = [given if given is not None else default for given, default in
             zip((args.per_class, args.val_size, args.test_size), protocol)]
    split = gnn.make_split(y, *sizes, args.seed)
    # pass the features on without keeping them here: training holds them
    # as CSR and frees the dense matrix before the first epoch
    dense = [f]
    del f
    if args.tune:
        metrics, runs = gnn.tune_eta(g, dense.pop(), y, split, cfg)
    else:
        metrics = gnn.train(g, dense.pop(), y, split, cfg)
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
    _add_sbm_args(p)


def _add_sbm_args(p: argparse.ArgumentParser):
    """--blocks, --p-in and --p-out, defaulting to ``gnn.SBM_4BLOCK``."""
    blocks, p_in, p_out = gnn.SBM_4BLOCK
    p.add_argument("--blocks", default=",".join(map(str, blocks)), help="SBM block sizes")
    p.add_argument("--p-in", type=float, default=p_in)
    p.add_argument("--p-out", type=float, default=p_out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distsig")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="label/random/prediction spectra as CSV")
    _add_dataset_args(p, with_features=False)
    p.add_argument("--probs", default=None, help="optional .npy probability matrix")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="fuzz the variation inequality chains")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    max_n, max_m = BOUND_CORPUS
    p.add_argument("--n", type=int, default=max_n, help=f"max graph size (default {max_n})")
    p.add_argument("--m", type=int, default=max_m, help=f"max alphabet size (default {max_m})")
    p.add_argument("--summary-only", action="store_true",
                   help="omit per-instance records from the report")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("train", help="train one model variant")
    _add_dataset_args(p)
    defaults = gnn.TrainConfig()
    p.add_argument("--variant", choices=gnn.VARIANTS, default=defaults.variant)
    p.add_argument("--eta", type=float, default=defaults.eta)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--per-class", type=int, default=None,
                   help=f"training nodes per class (default: {gnn.CORA_SPLIT[0]} cora, "
                        f"{gnn.SBM_SPLIT[0]} otherwise)")
    p.add_argument("--val-size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--tune", action="store_true", help="grid-search eta on validation")
    p.add_argument("--out", default=None, help="metrics JSON path (+ .probs.npy)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="non-uniformity count sweep of saved outputs")
    p.add_argument("--probs", required=True, help=".npy probability matrix")
    p.add_argument("--tag", type=_tag, default="model", help="model tag column value")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-sbm", help="sample a block-model graph to files")
    _add_sbm_args(p)
    p.add_argument("--seed", type=_seed, default=0)
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
        # every subcommand's --out is a path or prefix: refuse it before any work
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise CliError(f"--out {args.out}: its directory does not exist", EXIT_IO)
        # spectrum and gen-sbm take --out as a prefix, so there a directory name is fine
        if args.command in ("bounds", "train", "analyze") and os.path.isdir(args.out or ""):
            raise CliError(f"--out {args.out}: is a directory", EXIT_IO)
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
