"""In-memory span tracing of distsig, installed from outside the package.

A traced run replaces module attributes with timing wrappers at the name the
caller looks up (for example ``distsig.distributional._min_weight_cover``,
which ``tv_cover`` reads from its own module globals, or
``distsig.gnn._Adam.step``).  Nothing under ``src/`` is edited.  Each call
becomes a span (name, start, end, parent); counters record work at the same
boundaries.  ``Tracer.install`` restores every patched attribute on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    tag: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, tag))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name, on_call=None):
        """Timing wrapper; ``name`` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                out = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def install(self, targets):
        """Patch (owner, attribute, span name, hook) targets; restore on exit."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # --- derived quantities ----------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_time(self, i: int, kids) -> float:
        s = self.spans[i]
        return (s.end - s.start) - sum(
            self.spans[k].end - self.spans[k].start for k in kids.get(i, ()))

    def by_name(self):
        """name -> (calls, busy seconds, self seconds)."""
        kids = self.children()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            own[s.name] += self.self_time(i, kids)
            # busy time counts the outermost span of a name only
            p = s.parent
            while p >= 0 and self.spans[p].name != s.name:
                p = self.spans[p].parent
            if p < 0:
                busy[s.name] += s.end - s.start
        return calls, busy, own


def _forward_name(args, kwargs):
    dropout = kwargs.get("dropout", 0.0)
    return ("gnn.gcn_forward.train" if kwargs.get("rng") is not None and dropout > 0.0
            else "gnn.gcn_forward.eval")


def _count_trees(tr, args, kwargs, out):
    tr.counts["graph.trees_enumerated"] += len(out)


def _count_cells(tr, args, kwargs, out):
    masks, _, n_edges, size_cap = args[:4]
    tr.counts["graph.cover_lattice_cells"] += size_cap * len(masks) * (1 << n_edges)


def _count_lp(tr, args, kwargs, out):
    tr.counts["simplex.lp_columns"] += np.asarray(args[0]).size


def _eig_size(tr, args, kwargs, out):
    n = np.asarray(args[0]).shape[0]
    tr.maxima["spectral.eig_sym.n"] = max(tr.maxima["spectral.eig_sym.n"], n)


def _count_features(tr, args, kwargs, out):
    f = np.asarray(args[1], dtype=float)
    tr.maxima["gnn.feature_nnz"] = max(tr.maxima["gnn.feature_nnz"], np.count_nonzero(f))
    tr.maxima["gnn.feature_bytes_dense"] = max(tr.maxima["gnn.feature_bytes_dense"], f.nbytes)


def targets():
    """Every patched attribute: (owner, attribute, span name, counter hook)."""
    from distsig import cli, distributional, gnn, graph, spectral

    return [
        # graph
        (distributional, "enumerate_spanning_trees", "graph.enumerate_spanning_trees",
         _count_trees),
        (distributional, "clique_number_complement", "graph.clique_number_complement", None),
        (distributional, "_min_weight_cover", "graph._min_weight_cover", _count_cells),
        (graph, "sbm_generate", "graph.sbm_generate", None),
        (gnn, "sbm_generate", "graph.sbm_generate", None),
        # spectral
        (spectral, "eig_sym", "spectral.eig_sym", _eig_size),
        (gnn, "laplacian_spectrum", "spectral.laplacian_spectrum", None),
        (gnn, "gft", "spectral.gft", None),
        # simplex
        (distributional, "solve_lp", "simplex.solve_lp", _count_lp),
        # distributional
        (distributional, "check_tv_bounds", "distributional.check_tv_bounds", None),
        (distributional, "tv_l1_l2", "distributional.tv_l1_l2", None),
        (distributional, "tv_exact", "distributional.tv_exact", None),
        (distributional, "tv_tree_rooted", "distributional.tv_tree_rooted", None),
        (distributional, "tv_cover", "distributional.tv_cover", None),
        # regularizer (the sparse copy lives in gnn)
        (gnn, "_reg_value_and_grad", "regularizer.reg_value_and_grad", None),
        (gnn, "nonuniformity_sweep", "regularizer.nonuniformity_sweep", None),
        # gnn
        (gnn, "tune_eta", "gnn.tune_eta", None),
        (gnn, "train", "gnn.train", _count_features),
        (gnn, "make_split", "gnn.make_split", None),
        (gnn, "loss_and_grad", "gnn.loss_and_grad", None),
        (gnn, "gcn_forward", _forward_name, None),
        (gnn, "gcn_backward", "gnn.gcn_backward", None),
        (gnn._Adam, "step", "gnn.adam", None),
        (gnn, "accuracy", "gnn.accuracy", None),
        (gnn, "output_analysis", "gnn.output_analysis", None),
        # cli
        (cli, "_load_dataset", "cli.load_dataset", None),
        (cli, "cmd_train", "cli.cmd_train", None),
    ]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    calls, busy, own = tr.by_name()
    kids = tr.children()
    spans = tr.spans

    # an epoch runs from its training step to the regularizer value that
    # train() records on the clean post-update output
    epoch_ms = []
    for i, s in enumerate(spans):
        if s.name != "gnn.train":
            continue
        direct = [spans[k] for k in kids.get(i, ())]
        starts = [c.start for c in direct if c.name == "gnn.loss_and_grad"]
        ends = [c.end for c in direct if c.name == "regularizer.reg_value_and_grad"]
        epoch_ms += [1e3 * (e - b) for b, e in zip(starts, ends)]

    # cli output writing: the tail of cmd_train after its last child returns
    write_s = 0.0
    for i, s in enumerate(spans):
        if s.name == "cli.cmd_train" and kids.get(i):
            write_s += s.end - max(spans[k].end for k in kids[i])

    check_ms = [1e3 * (s.end - s.start) for s in spans
                if s.name == "distributional.check_tv_bounds"]
    out = {
        "graph.enumerate_spanning_trees.busy_s": busy["graph.enumerate_spanning_trees"],
        "graph.enumerate_spanning_trees.calls": calls["graph.enumerate_spanning_trees"],
        "graph.trees_enumerated": tr.counts["graph.trees_enumerated"],
        "graph.clique_number_complement.calls": calls["graph.clique_number_complement"],
        "graph._min_weight_cover.busy_s": busy["graph._min_weight_cover"],
        "graph._min_weight_cover.calls": calls["graph._min_weight_cover"],
        "graph.cover_lattice_cells": tr.counts["graph.cover_lattice_cells"],
        "graph.sbm_generate.busy_s": busy["graph.sbm_generate"],
        "spectral.eig_sym.busy_s": busy["spectral.eig_sym"],
        "spectral.eig_sym.calls": calls["spectral.eig_sym"],
        "spectral.eig_sym.n": tr.maxima["spectral.eig_sym.n"],
        "spectral.gft.busy_s": busy["spectral.gft"],
        "simplex.solve_lp.busy_s": busy["simplex.solve_lp"],
        "simplex.solve_lp.calls": calls["simplex.solve_lp"],
        "simplex.lp_columns": tr.counts["simplex.lp_columns"],
        "distributional.tv_tree_rooted.busy_s": busy["distributional.tv_tree_rooted"],
        "distributional.tv_tree_rooted.calls": calls["distributional.tv_tree_rooted"],
        "distributional.tv_exact.self_s": own["distributional.tv_exact"],
        "distributional.tv_cover.self_s": own["distributional.tv_cover"],
        "distributional.tv_l1_l2.busy_s": busy["distributional.tv_l1_l2"],
        "distributional.check_tv_bounds.ms.p50": _pct(check_ms, 50),
        "distributional.check_tv_bounds.ms.p90": _pct(check_ms, 90),
        "distributional.check_tv_bounds.ms.max": max(check_ms, default=0.0),
        "regularizer.reg_value_and_grad.busy_s": busy["regularizer.reg_value_and_grad"],
        "regularizer.nonuniformity_sweep.busy_s": busy["regularizer.nonuniformity_sweep"],
        "gnn.gcn_forward.train.busy_s": busy["gnn.gcn_forward.train"],
        "gnn.gcn_forward.eval.busy_s": busy["gnn.gcn_forward.eval"],
        "gnn.gcn_backward.busy_s": busy["gnn.gcn_backward"],
        "gnn.adam.busy_s": busy["gnn.adam"],
        "gnn.accuracy.busy_s": busy["gnn.accuracy"],
        "gnn.train.self_s": own["gnn.train"],
        "gnn.output_analysis.self_s": own["gnn.output_analysis"],
        "gnn.epoch_ms.p50": _pct(epoch_ms, 50),
        "gnn.epoch_ms.p95": _pct(epoch_ms, 95),
        "gnn.epochs": calls["gnn.loss_and_grad"],
        "gnn.feature_nnz": tr.maxima["gnn.feature_nnz"],
        "gnn.feature_bytes_dense": tr.maxima["gnn.feature_bytes_dense"],
        "cli.load_dataset.busy_s": busy["cli.load_dataset"],
        "cli.write_outputs.busy_s": write_s,
    }
    return {k: float(v) for k, v in out.items()}
