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


def _blocks(text: str) -> list[int]:
    """A --blocks value: comma-separated block sizes, at least one."""
    try:
        blocks = [int(b) for b in text.split(",") if b.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid block sizes: {text!r}") from None
    if not blocks:
        raise argparse.ArgumentTypeError(f"names no block size: {text!r}")
    return blocks


def _int_at_least(text: str, low: int) -> int:
    """An int value of at least ``low``; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative integers."""
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    """A split size or a script's --seeds: a count of 0 leaves nothing to train or score."""
    return _int_at_least(text, 1)


def _tag(text: str) -> str:
    """A --tag value: the CSV writes it raw, so it holds no CSV syntax."""
    if any(c in text for c in ',"\r\n'):
        raise argparse.ArgumentTypeError(
            f"must not hold a comma, a double quote or a line break, got {text!r}")
    return text


def _path(text: str) -> str:
    """A file or directory path value: an empty string names none."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _read(reader, *args):
    """Run a file reader; a GraphError from a malformed file is an I/O error."""
    try:
        return reader(*args)
    except GraphError as e:
        raise CliError(str(e), EXIT_IO) from None


def _given(values, defaults) -> list:
    """Each of ``values``, or the default at its position where it is None."""
    return [default if given is None else given for given, default in zip(values, defaults)]


def _load_graph(args):
    """Resolve --dataset into (graph, labels): all that ``spectrum`` and ``gen-sbm`` read."""
    if args.dataset == "cora":
        return _read(gnn.load_cora, *gnn.cora_files(args.data_dir))
    if args.dataset == "sbm":
        return sbm_generate(*_given((args.blocks, args.p_in, args.p_out), gnn.SBM_4BLOCK),
                            args.seed)
    if not args.graph or not args.labels:
        raise CliError("--dataset file needs --graph and --labels", EXIT_USAGE)
    g = _read(read_graph_file, args.graph)
    y = _read(read_labels_file, args.labels)
    if y.shape[0] != g.n:
        raise CliError(
            f"label count {y.shape[0]} does not match graph size {g.n}", EXIT_IO
        )
    return g, y


def _load_dataset(args):
    """(graph, features, labels): Cora's features as ``gnn.cora_features`` CSR, others dense."""
    g, y = _load_graph(args)
    if args.dataset == "cora":
        return g, _read(gnn.cora_features, gnn.cora_files(args.data_dir)[0]), y
    f = _read_matrix(args.features, "feature", g.n) if args.features else gnn.sbm_features(g.n)
    return g, f, y


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


def _refuse_output(path, args) -> None:
    """Refuse a name derived from --out whose directory is missing, that is a
    directory, or that names a file the run reads."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise CliError(f"--out {args.out}: its directory does not exist", EXIT_IO)
    if os.path.isdir(path):
        raise CliError(f"--out {path}: is a directory", EXIT_IO)
    inputs = [(f"--{dest}", getattr(args, dest, None)) for dest in _INPUTS]
    if getattr(args, "dataset", None) == "cora":
        inputs += [("--data-dir", f) for f in gnn.cora_files(args.data_dir)]
    for option, given in inputs:
        if given is None:
            continue
        if os.path.exists(path) and os.path.exists(given):
            same = os.path.samefile(path, given)
        else:
            same = os.path.realpath(path) == os.path.realpath(given)
        if same:
            raise CliError(f"--out {args.out} would overwrite {path}, the {option} input",
                           EXIT_USAGE)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- subcommands ----------------------------------------------------------

def cmd_spectrum(args) -> int:
    g, y = _load_graph(args)
    signals = {"label": y.astype(float), "random": matched_random_signal(y, args.seed)}
    if args.probs:
        probs = _read_probs(args.probs, g.n)
        for s in range(probs.shape[1]):  # main refused the label and random files
            _refuse_output(f"{args.out}_class{s}.csv", args)
            signals[f"class{s}"] = probs[:, s]
    vals, coefs = gnn.component_coefficients(g, np.column_stack(list(signals.values())))
    for name, c in zip(signals, coefs.T):
        export_spectrum_csv(f"{args.out}_{name}.csv", vals, c)
    print(f"wrote {len(signals)} spectrum file(s) with prefix {args.out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    max_n, max_m = BOUND_CORPUS
    report = run_bound_corpus(args.trials, args.seed, max_n=max_n, max_m=max_m,
                              keep_instances=not args.summary_only)
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
    sizes = _given((args.per_class, args.val_size, args.test_size), protocol)
    split = gnn.make_split(y, *sizes, args.seed)
    metrics, runs = gnn.tune_eta(g, f, y, split, cfg,
                                 gnn.ETA_GRID if args.tune else (cfg.eta,), analysis=False)
    del f  # the features go before the output analysis, the run's memory peak
    print(
        f"variant={metrics.config.variant} eta={metrics.config.eta} "
        f"test_acc={metrics.test_acc:.4f} best_epoch={metrics.best_epoch}"
    )
    if args.out:
        gnn.attach_analysis(g, [metrics])
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
    g, y = _load_graph(args)
    write_graph_file(f"{args.out}.graph", g)
    write_labels_file(f"{args.out}.labels", y)
    print(f"wrote {args.out}.graph ({g.n} nodes, {g.m} edges) and {args.out}.labels")
    return EXIT_OK


# --- parser ---------------------------------------------------------------

def _add_dataset_args(p: argparse.ArgumentParser, with_features: bool = True):
    p.add_argument("--dataset", choices=tuple(_DATASET_OPTIONS), default="sbm",
                   help="cora: raw citation files; sbm: a block model sampled with --seed; "
                        "file: --graph and --labels (default sbm).  An option that only "
                        "another dataset reads exits 2")
    p.add_argument("--graph", type=_path, help="graph file (--dataset file)")
    if with_features:
        p.add_argument("--features", type=_path,
                       help="feature matrix, .npy or text (--dataset file; default one-hot "
                            "node ids)")
    p.add_argument("--labels", type=_path, help="labels file (--dataset file)")
    p.add_argument("--data-dir", type=_path,
                   help="directory of cora.content and cora.cites (--dataset cora; default "
                        "$DISTSIG_DATA_DIR)")
    _add_sbm_args(p)


def _add_sbm_args(p: argparse.ArgumentParser):
    """--blocks, --p-in and --p-out; an unset one takes its ``gnn.SBM_4BLOCK`` value."""
    blocks, p_in, p_out = gnn.SBM_4BLOCK
    p.add_argument("--blocks", type=_blocks,
                   help=f"comma-separated block sizes (default {','.join(map(str, blocks))})")
    p.add_argument("--p-in", type=float,
                   help=f"edge probability within a block (default {p_in})")
    p.add_argument("--p-out", type=float,
                   help=f"edge probability between blocks, at most --p-in (default {p_out})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distsig")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="label/random/prediction spectra as CSV",
                       description="One spectrum CSV per signal on the main connected "
                                   "component: the labels, a label-frequency-matched random "
                                   "signal, and each --probs column.")
    _add_dataset_args(p, with_features=False)
    p.add_argument("--probs", type=_path, help="optional .npy probability matrix")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_path, required=True, help="output path prefix")
    p.set_defaults(func=cmd_spectrum)

    max_n, max_m = BOUND_CORPUS
    p = sub.add_parser("bounds", help="fuzz the variation inequality chains",
                       description="Check the variation inequality chains on --trials seeded "
                                   "instances of the corpus protocol: connected graphs of at "
                                   f"most {max_n} nodes with marginals over at most {max_m} "
                                   "labels.")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--summary-only", action="store_true",
                   help="omit per-instance records from the report")
    p.add_argument("--out", type=_path, help="JSON report path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("train", help="train one model variant")
    _add_dataset_args(p)
    defaults = gnn.TrainConfig()
    p.add_argument("--variant", choices=gnn.VARIANTS, default=defaults.variant)
    p.add_argument("--eta", type=float, default=defaults.eta)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--seed", type=_seed, default=0)
    cora, sbm = gnn.CORA_SPLIT, gnn.SBM_SPLIT
    p.add_argument("--per-class", type=_positive, default=None,
                   help=f"training nodes per class, >= 1 (default: {cora[0]} cora, "
                        f"{sbm[0]} otherwise)")
    p.add_argument("--val-size", type=_positive, default=None,
                   help=f"validation nodes, >= 1 (default: {cora[1]} cora, {sbm[1]} otherwise)")
    p.add_argument("--test-size", type=_positive, default=None,
                   help=f"test nodes, >= 1 (default: {cora[2]} cora, {sbm[2]} otherwise)")
    p.add_argument("--tune", action="store_true",
                   help="grid-search eta over gnn.ETA_GRID on validation accuracy; the output "
                        "analysis runs on the chosen eta only, and only with --out, whose JSON "
                        "adds 'tune', one {eta, best_val_acc, best_epoch} per grid eta; "
                        "variant gcn trains the one model at --eta")
    p.add_argument("--out", type=_path, help="metrics JSON path (+ .probs.npy)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="non-uniformity count sweep of saved outputs")
    p.add_argument("--probs", type=_path, required=True, help=".npy probability matrix")
    p.add_argument("--tag", type=_tag, default="model", help="model tag column value")
    p.add_argument("--out", type=_path, required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-sbm", help="sample a block-model graph to files")
    _add_sbm_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_path, required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_sbm, dataset="sbm")
    return ap


# the names each subcommand writes from --out ("" is --out itself, not a prefix)
_OUTPUTS = {"spectrum": ("_label.csv", "_random.csv"), "bounds": ("",), "analyze": ("",),
            "train": ("", ".probs.npy"), "gen-sbm": (".graph", ".labels")}
# the options that name input files; no name derived from --out may be one of them
_INPUTS = ("graph", "labels", "features", "probs")
# the options each --dataset value reads; main refuses the other rows' options
_DATASET_OPTIONS = {"cora": ("data_dir",), "sbm": ("blocks", "p_in", "p_out"),
                    "file": ("graph", "labels", "features")}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    try:
        dataset = getattr(args, "dataset", None)  # bounds and analyze read no dataset
        for reader, options in _DATASET_OPTIONS.items():
            for dest in options:
                if dataset not in (None, reader) and getattr(args, dest, None) is not None:
                    raise CliError(f"--{dest.replace('_', '-')} is read only by --dataset "
                                   f"{reader}, not by --dataset {dataset}", EXIT_USAGE)
        # every subcommand's --out is a path or prefix: refuse it before any work
        if args.out is not None:
            for suffix in _OUTPUTS[args.command]:
                _refuse_output(args.out + suffix, args)
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
