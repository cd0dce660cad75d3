import argparse
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from distsig import cli, gnn, spectral
from distsig.cli import main
from distsig.graph import main_component, read_graph_file, read_labels_file
from distsig.spectral import export_spectrum_csv, gft, high_freq_fraction, laplacian_spectrum


def _read_coeffs(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    return np.array([float(r[2]) for r in rows])


# --- argument handling -----------------------------------------------------

def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag(capsys):
    # --n and --m went: bounds always runs the BOUND_CORPUS protocol
    for argv in (["bounds", "--bogus", "1"], ["bounds", "--n", "4"]):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _subcommands():
    """Subcommand name -> its parser, from ``cli.build_parser()``."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_option_strings_per_subcommand():
    # the whole CLI surface: a new flag shows up here as a test edit
    got = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
           for name, p in _subcommands().items()}
    dataset = ["--dataset", "--graph", "--labels", "--data-dir", "--blocks", "--p-in", "--p-out"]
    assert got == {
        "spectrum": dataset + ["--probs", "--seed", "--out"],
        "bounds": ["--trials", "--seed", "--summary-only", "--out"],
        "train": dataset[:2] + ["--features"] + dataset[2:] + [
            "--variant", "--eta", "--epochs", "--seed", "--per-class", "--val-size",
            "--test-size", "--tune", "--out"],
        "analyze": ["--probs", "--tag", "--out"],
        "gen-sbm": ["--blocks", "--p-in", "--p-out", "--seed", "--out"],
    }
    assert sum(map(len, got.values())) == 39


def test_every_path_option_takes_the_path_type():
    # every option that takes a plain string is a path: a new path option without
    # cli._path would take an empty value and do something different per command
    paths = []
    for name, p in _subcommands().items():
        for a in p._actions:
            if a.type is cli._path:
                paths.append(f"{name} {a.option_strings[0]}")
            else:
                assert a.nargs == 0 or a.type not in (None, str) or a.choices is not None, \
                    f"{name} {a.option_strings[0]} takes no cli._path"
    assert sorted(paths) == [
        "analyze --out", "analyze --probs", "bounds --out", "gen-sbm --out",
        "spectrum --data-dir", "spectrum --graph", "spectrum --labels", "spectrum --out",
        "spectrum --probs", "train --data-dir", "train --features", "train --graph",
        "train --labels", "train --out"]


def _empty_path_cases():
    return [pytest.param(name, a.option_strings[0], id=f"{name} {a.option_strings[0]}")
            for name, p in _subcommands().items() for a in p._actions if a.type is cli._path]


@pytest.mark.parametrize("command, option", _empty_path_cases())
def test_empty_path_is_refused_before_any_work(monkeypatch, tmp_path, capsys, command, option):
    # refused while parsing: otherwise an empty --out means something different
    # to each command, and an empty --features or --probs means no file at all
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the empty path was refused")

    for name in ("_load_dataset", "_load_graph", "run_bound_corpus", "_read_probs",
                 "sbm_generate"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    required = {"spectrum": ["--out", "spec"], "analyze": ["--probs", "p.npy", "--out", "a.csv"],
                "gen-sbm": ["--out", "g"]}
    assert main([command, *required.get(command, []), option, ""]) == 2
    captured = capsys.readouterr()
    assert f"argument {option}: must not be empty" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _dataset_option_cases():
    """(subcommand, --dataset value, option, the dataset that reads it) for
    every dataset option of every subcommand that takes --dataset."""
    readers = {dest: name for name, dests in cli._DATASET_OPTIONS.items() for dest in dests}
    cases = []
    for command, p in _subcommands().items():
        actions = {a.dest: a for a in p._actions}
        if "dataset" not in actions:
            continue
        for dataset in actions["dataset"].choices:
            for dest, reader in readers.items():
                if dest in actions:
                    option = actions[dest].option_strings[0]
                    cases.append(pytest.param(command, dataset, option, reader,
                                              id=f"{command} {dataset} {option}"))
    return cases


_DATASET_VALUES = {"--data-dir": "data", "--graph": "g.graph", "--labels": "g.labels",
                   "--features": "f.npy", "--blocks": "5,5", "--p-in": "0.5", "--p-out": "0.1"}


@pytest.mark.parametrize("command, dataset, option, reader", _dataset_option_cases())
def test_dataset_takes_only_the_options_it_reads(monkeypatch, tmp_path, capsys, command,
                                                 dataset, option, reader):
    # an option that only another dataset reads would be dropped without a word,
    # so it is refused before any file is read or written
    loads = []

    def no_load(*args, **kwargs):
        loads.append(args)
        raise AssertionError("the dataset was loaded")

    # with --dataset cora, main's --out check names the Cora files first
    for module, name in ((gnn, "cora_files"), (gnn, "load_cora"), (cli, "read_graph_file"),
                         (gnn, "sbm_dataset"), (cli, "sbm_generate")):
        monkeypatch.setattr(module, name, no_load)
    monkeypatch.chdir(tmp_path)
    # the default dataset is left out of argv, as a user would leave it out
    argv = [command] + ([] if dataset == "sbm" else ["--dataset", dataset])
    if dataset == "file":
        argv += ["--graph", "g.graph", "--labels", "g.labels"]
    rc = main(argv + [option, _DATASET_VALUES[option], "--out", "o"])
    captured = capsys.readouterr()
    assert list(tmp_path.iterdir()) == []
    if reader == dataset:  # not refused: the run goes on to load its dataset
        assert len(loads) == 1 and rc == 70, captured.err
    else:
        assert rc == 2
        assert captured.err == (f"error: {option} is read only by --dataset {reader}, "
                                f"not by --dataset {dataset}\n")
        assert captured.out == "" and loads == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--out", "{out}"],
    ["bounds", "--out", "{out}"],
    # missing input files would exit 3 if the seed were checked after reading
    ["train", "--dataset", "file", "--graph", "{missing}", "--labels", "{missing}",
     "--out", "{out}"],
    ["gen-sbm", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_up_front(tmp_path, capsys, argv):
    argv = [a.format(out=tmp_path / "out", missing=tmp_path / "missing") for a in argv]
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "argument --seed: must be >= 0, got -1" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_train_defaults_build_the_default_config(monkeypatch, capsys, tmp_path):
    # the train flags take their defaults from TrainConfig, and the dataset
    # and split flags theirs from gnn.SBM_4BLOCK and gnn.SBM_SPLIT, not
    # copies of them
    seen = []
    real = gnn.train

    def spy(g, f, y, split, cfg, **kwargs):
        seen.append((g, f, y, split, cfg))
        return real(g, f, y, split, cfg, **kwargs)

    monkeypatch.setattr(gnn, "train", spy)
    assert main(["train", "--out", str(tmp_path / "run.json")]) == 0
    capsys.readouterr()
    [(g, f, y, split, cfg)] = seen
    assert cfg == gnn.TrainConfig()
    # a run chooses these four; the rest of the set-up is module constants,
    # which the JSON config still records
    assert [f.name for f in fields(gnn.TrainConfig)] == ["variant", "eta", "epochs", "seed"]
    config = json.loads((tmp_path / "run.json").read_text())["config"]
    assert config == {"variant": "gcn", "eta": 0.5, "epochs": 200, "seed": 0,
                      "dropout": 0.5, "weight_decay": 0.0005, "hidden": 16, "lr": 0.01}
    want_g, want_f, want_y = gnn.sbm_dataset(*gnn.SBM_4BLOCK, seed=0)
    assert g == want_g and np.array_equal(f, want_f) and np.array_equal(y, want_y)
    want_split = gnn.make_split(want_y, *gnn.SBM_SPLIT, 0)
    for part in ("train", "val", "test"):
        assert np.array_equal(getattr(split, part), getattr(want_split, part))
    # a bare gen-sbm writes the same graph
    assert main(["gen-sbm", "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    assert read_graph_file(tmp_path / "g.graph") == want_g
    assert np.array_equal(read_labels_file(tmp_path / "g.labels"), want_y)


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["bounds", "--trials", "200"],
    ["train"],
    ["analyze", "--probs", "{tmp}/p.npy"],
    ["gen-sbm"],
], ids=lambda argv: argv[0])
def test_out_in_a_missing_directory_is_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                                               argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("_load_dataset", "_load_graph", "run_bound_corpus", "_read_probs",
                 "sbm_generate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "x"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out}: its directory does not exist\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, suffix", [
    pytest.param(["bounds", "--trials", "200"], "", id="bounds"),
    pytest.param(["train"], "", id="train"),
    pytest.param(["train"], ".probs.npy", id="train-probs"),
    pytest.param(["analyze", "--probs", "{tmp}/p.npy"], "", id="analyze"),
    pytest.param(["spectrum"], "_label.csv", id="spectrum-label"),
    pytest.param(["spectrum"], "_random.csv", id="spectrum-random"),
    pytest.param(["gen-sbm"], ".graph", id="gen-sbm-graph"),
    pytest.param(["gen-sbm"], ".labels", id="gen-sbm-labels"),
])
def test_out_that_is_a_directory_is_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                                            argv, suffix):
    # spectrum and gen-sbm take --out as a prefix, so a directory name is fine
    # there, but not for a file they derive from it
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("_load_dataset", "_load_graph", "run_bound_corpus", "_read_probs",
                 "sbm_generate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "out"
    made = tmp_path / f"out{suffix}"
    made.mkdir()
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {made}: is a directory\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [made] and list(made.iterdir()) == []


def test_outputs_table_names_every_file_a_subcommand_writes(tmp_path, capsys):
    # every --out refusal reads cli._OUTPUTS, so a file written without an
    # entry there would escape all of them
    probs = tmp_path / "train" / "o.probs.npy"
    runs = {"bounds": ["--trials", "2"], "gen-sbm": [], "train": ["--epochs", "2"],
            "analyze": ["--probs", str(probs)], "spectrum": ["--probs", str(probs)]}
    for command, args in runs.items():  # train writes the probabilities the last two read
        d = tmp_path / command
        d.mkdir()
        assert main([command, *args, "--out", str(d / "o")]) == 0
        want = {"o" + suffix for suffix in cli._OUTPUTS[command]}
        if command == "spectrum":
            want |= {f"o_class{s}.csv" for s in range(np.load(probs).shape[1])}
        assert {f.name for f in d.iterdir()} == want, command
    capsys.readouterr()


def test_spectrum_class_file_that_is_a_directory_is_refused_before_the_decomposition(
        monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("decomposition started before the class files were checked")

    monkeypatch.setattr(gnn, "component_coefficients", no_work)
    probs = tmp_path / "p.npy"
    np.save(probs, np.full((10, 3), 1.0 / 3.0))
    made = tmp_path / "spec_class2.csv"
    made.mkdir()
    assert main(["spectrum", "--blocks", "5,5", "--probs", str(probs),
                 "--out", str(tmp_path / "spec")]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {made}: is a directory\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [probs, made] and list(made.iterdir()) == []


def _input_files(d):
    """A block-model graph and labels, a feature matrix and a probability matrix in ``d``."""
    assert main(["gen-sbm", "--blocks", "5,5", "--out", str(d / "g")]) == 0
    np.save(d / "run.probs.npy", np.eye(10))
    np.save(d / "p.npy", np.full((10, 2), 0.5))
    (d / "p_label.csv").write_bytes((d / "g.labels").read_bytes())
    return {f: f.read_bytes() for f in d.iterdir()}


@pytest.mark.parametrize("argv, written, option", [
    pytest.param(["train", "--dataset", "file", "--graph", "{tmp}/g.graph", "--labels",
                  "{tmp}/g.labels", "--out", "{tmp}/./g.graph"], "{tmp}/./g.graph", "graph",
                 id="train-out-is-graph"),
    pytest.param(["train", "--dataset", "file", "--graph", "{tmp}/g.graph", "--labels",
                  "{tmp}/g.labels", "--features", "{tmp}/run.probs.npy", "--out", "{tmp}/run"],
                 "{tmp}/run.probs.npy", "features", id="train-probs-is-features"),
    pytest.param(["spectrum", "--dataset", "file", "--graph", "{tmp}/g.graph", "--labels",
                  "{tmp}/p_label.csv", "--out", "{tmp}/p"], "{tmp}/p_label.csv", "labels",
                 id="spectrum-label-is-labels"),
    pytest.param(["analyze", "--probs", "{tmp}/p.npy", "--out", "{tmp}/p.npy"], "{tmp}/p.npy",
                 "probs", id="analyze-out-is-probs"),
])
def test_out_that_names_an_input_is_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                                            argv, written, option):
    before = _input_files(tmp_path)
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked against the inputs")

    for name in ("_load_dataset", "_load_graph", "_read_probs"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    out = argv[argv.index("--out") + 1]
    assert captured.err == (f"error: --out {out} would overwrite {written.format(tmp=tmp_path)}, "
                            f"the --{option} input\n")
    assert captured.out == ""
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_spectrum_class_file_that_names_an_input_is_refused_before_the_decomposition(
        monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("decomposition started before the class files were checked")

    monkeypatch.setattr(gnn, "component_coefficients", no_work)
    probs = tmp_path / "spec_class0.csv"
    np.savetxt(probs, np.full((10, 2), 0.5))
    before = probs.read_bytes()
    assert main(["spectrum", "--blocks", "5,5", "--probs", str(probs),
                 "--out", str(tmp_path / "spec")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --out {tmp_path / 'spec'} would overwrite {probs}, "
                            "the --probs input\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [probs] and probs.read_bytes() == before


@pytest.mark.parametrize("name, source", [
    ("cora.cites", "flag"), ("./cora.content", "flag"), ("cora.cites", "environment"),
], ids=["cites", "dot-content", "environment-cites"])
def test_out_that_names_a_cora_file_is_refused_before_any_work(monkeypatch, tmp_path, capsys,
                                                               name, source):
    # --data-dir, or DISTSIG_DATA_DIR in its place, is an input like --graph
    _write_citation_files(tmp_path, n=30)
    before = {f: f.read_bytes() for f in tmp_path.iterdir()}

    def no_load(*args, **kwargs):
        raise AssertionError("the Cora files were read before --out was checked")

    monkeypatch.setattr(gnn, "load_cora", no_load)
    monkeypatch.delenv("DISTSIG_DATA_DIR", raising=False)
    argv = ["train", "--dataset", "cora", "--epochs", "2", "--per-class", "2",
            "--val-size", "5", "--test-size", "5"]
    if source == "flag":
        argv += ["--data-dir", str(tmp_path)]
    else:
        monkeypatch.setenv("DISTSIG_DATA_DIR", str(tmp_path))
    out = f"{tmp_path}/{name}"
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out} would overwrite {out}, the --data-dir input\n"
    assert captured.out == ""
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_train_divergence_exits_70_before_any_output(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["train", "--variant", "r", "--eta", "1e300", "--epochs", "3",
                 "--out", str(out)]) == 70
    captured = capsys.readouterr()
    assert captured.err == ("internal error: RuntimeError: divergence (non-finite loss or "
                            "Adam moment) at epoch 1, eta 1e+300\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_readme_cli_commands_parse():
    # every command line of README's CLI block names only flags the parser has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("distsig ")]
    assert {argv[0] for argv in argvs} == {"spectrum", "bounds", "train", "analyze", "gen-sbm"}
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def test_missing_required_out(capsys):
    assert main(["gen-sbm", "--blocks", "5,5"]) == 2
    capsys.readouterr()


def test_bad_blocks_value(tmp_path, capsys):
    rc = main(["gen-sbm", "--blocks", "5,x", "--out", str(tmp_path / "g")])
    assert rc == 2
    assert "blocks" in capsys.readouterr().err


def test_gen_sbm_bad_probabilities_is_usage_error(tmp_path, capsys):
    rc = main(["gen-sbm", "--p-in", "0.1", "--p-out", "0.5", "--out", str(tmp_path / "g")])
    assert rc == 2
    assert "p_out" in capsys.readouterr().err


def test_spectrum_empty_block_is_usage_error(tmp_path, capsys):
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "0,5",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "block sizes" in capsys.readouterr().err


# --- gen-sbm ---------------------------------------------------------------

def test_gen_sbm_writes_files(tmp_path, capsys):
    out = tmp_path / "toy"
    assert main(["gen-sbm", "--blocks", "10,10", "--p-in", "0.5",
                 "--p-out", "0.05", "--seed", "3", "--out", str(out)]) == 0
    assert (tmp_path / "toy.graph").is_file()
    assert (tmp_path / "toy.labels").is_file()
    assert "20 nodes" in capsys.readouterr().out


# --- bounds ----------------------------------------------------------------

def test_bounds_clean_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["bounds", "--trials", "20", "--seed", "11", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "20 instances, 0 violation(s)" in msg
    report = json.loads(out.read_text())
    assert report["violations"] == []
    assert len(report["instances"]) == 20


def test_bounds_prints_worst_margin_table(capsys):
    assert main(["bounds", "--trials", "3", "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "3 instances, 0 violation(s); weak-constant pass rate 1.000",
        "inequality               worst margin",
        "2min_le_c1_tg1           +2.586e+00",
        "2tg_le_tghv_min          +0.000e+00",
        "tg1_le_2tcov             +0.000e+00",
        "tg1_le_2tg               -8.882e-16",
        "tg1_le_c3_sqrt_tg2       +8.207e-01",
        "tg2_le_tg1               +1.297e+00",
    ]


def test_bounds_summary_only(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bounds", "--trials", "5", "--summary-only", "--out", str(out)]) == 0
    capsys.readouterr()
    assert "instances" not in json.loads(out.read_text())


# the size limits are run_bound_corpus's own; tests/test_graph.py checks them
@pytest.mark.parametrize("flags, limit", [
    (["--trials", "0"], "trials must be >= 1"),
])
def test_bounds_rejects_sizes_beyond_limits(tmp_path, capsys, flags, limit):
    out = tmp_path / "report.json"
    assert main(["bounds", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert limit in captured.err
    assert captured.out == ""
    assert not out.exists()


# --- spectrum --------------------------------------------------------------

def test_spectrum_block_labels_low_frequency(tmp_path, capsys):
    prefix = tmp_path / "spec"
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "30,30",
               "--p-in", "0.4", "--p-out", "0.02", "--seed", "1",
               "--out", str(prefix)])
    assert rc == 0
    assert "2 spectrum file(s)" in capsys.readouterr().out
    lab = _read_coeffs(tmp_path / "spec_label.csv")
    rnd = _read_coeffs(tmp_path / "spec_random.csv")
    vals = np.array([float(line.split(",")[1]) for line in
                     (tmp_path / "spec_label.csv").read_text().splitlines()[1:]])
    assert high_freq_fraction(vals, lab) < high_freq_fraction(vals, rnd)


def test_spectrum_with_probs(tmp_path, capsys):
    n = 40
    probs = np.random.default_rng(0).dirichlet(np.ones(3), size=n)
    pp = tmp_path / "p.npy"
    np.save(pp, probs)
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "20,20",
               "--p-in", "0.4", "--seed", "1", "--probs", str(pp),
               "--out", str(tmp_path / "s")])
    assert rc == 0
    assert "5 spectrum file(s)" in capsys.readouterr().out
    for s in range(3):
        assert (tmp_path / f"s_class{s}.csv").is_file()


def test_spectrum_keeps_constant_class_raw(tmp_path, capsys):
    # one-hot-like predictions with a class that is never predicted: its
    # column is constant, so it is not normalized and its energy sits at
    # frequency zero
    g, _, y = gnn.sbm_dataset([20, 20], 0.4, 0.01, 1)
    probs = np.column_stack([0.8 * (y == 0), 0.8 * (y == 1), np.full(g.n, 0.2)])
    np.save(tmp_path / "p.npy", probs)
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "20,20", "--p-in", "0.4",
               "--seed", "1", "--probs", str(tmp_path / "p.npy"), "--out", str(tmp_path / "s")])
    assert rc == 0
    assert "5 spectrum file(s)" in capsys.readouterr().out
    for name in ("label", "random", "class0", "class1", "class2"):
        assert (tmp_path / f"s_{name}.csv").is_file()
    sub, nodes = main_component(g)
    vals, vecs = laplacian_spectrum(sub)
    rows = np.loadtxt(tmp_path / "s_class2.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.arange(1, sub.n + 1))
    # the eigenvalues are the eigenvector route's, bit for bit; each
    # coefficient is its transform's up to rounding and the eigenvector's sign
    assert np.array_equal(rows[:, 1], vals)
    coefs = rows[:, 2]
    assert np.max(np.abs(np.abs(coefs) - np.abs(gft(vecs, probs[nodes, 2])))) < 1e-14
    assert abs(abs(coefs[0]) - 0.2 * np.sqrt(sub.n)) < 1e-14
    assert np.max(np.abs(coefs[1:])) < 1e-12


def test_spectrum_probs_shape_mismatch(tmp_path, capsys):
    np.save(tmp_path / "bad.npy", np.full((7, 2), 0.5))
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "20,20",
               "--probs", str(tmp_path / "bad.npy"), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "do not match" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda: np.full(40, 0.5), "probability matrix must be a 2-D array, got 1-D"),
    (lambda: np.full((40, 2), np.nan), "probability matrix must be finite, got 80"),
    (lambda: np.full((40, 2), 0.75), "row 0 sums to 1.5, not 1"),
], ids=["1-D", "all-NaN", "rows-sum-1.5"])
def test_spectrum_rejects_bad_probability_file(tmp_path, capsys, make, message):
    np.save(tmp_path / "p.npy", make())
    rc = main(["spectrum", "--dataset", "sbm", "--blocks", "20,20",
               "--probs", str(tmp_path / "p.npy"), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("s_*.csv")) == []


def test_spectrum_rerun_byte_identical(tmp_path, capsys):
    args = ["spectrum", "--dataset", "sbm", "--blocks", "15,15", "--seed", "8",
            "--p-in", "0.4", "--p-out", "0.05"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert main(args + ["--out", str(tmp_path / "y")]) == 0
    capsys.readouterr()
    assert (tmp_path / "x_label.csv").read_bytes() == (tmp_path / "y_label.csv").read_bytes()
    assert (tmp_path / "x_random.csv").read_bytes() == (tmp_path / "y_random.csv").read_bytes()


# --- train -----------------------------------------------------------------

def test_train_sbm_writes_metrics(tmp_path, capsys):
    out = tmp_path / "run.json"
    rc = main(["train", "--dataset", "sbm", "--blocks", "30,30",
               "--p-in", "0.3", "--p-out", "0.02", "--variant", "r",
               "--eta", "0.1", "--epochs", "15", "--seed", "4",
               "--val-size", "15", "--test-size", "30", "--out", str(out)])
    assert rc == 0
    assert "variant=r" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["config"]["variant"] == "r"
    assert len(payload["per_epoch"]) == 15
    probs = np.load(tmp_path / "run.json.probs.npy")
    assert probs.shape == (60, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_train_rerun_byte_identical(tmp_path, capsys):
    args = ["train", "--dataset", "sbm", "--blocks", "20,20", "--epochs", "10",
            "--seed", "9", "--val-size", "10", "--test-size", "20"]
    assert main(args + ["--out", str(tmp_path / "m1.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "m2.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    assert (tmp_path / "m1.json.probs.npy").read_bytes() == \
        (tmp_path / "m2.json.probs.npy").read_bytes()


def test_train_tune_flag(tmp_path, capsys):
    args = ["train", "--dataset", "sbm", "--blocks", "20,20", "--variant", "gcn",
            "--epochs", "8", "--val-size", "10", "--test-size", "20"]
    out = tmp_path / "tuned.json"
    assert main(args + ["--tune", "--out", str(out)]) == 0
    assert main(args + ["--out", str(tmp_path / "plain.json")]) == 0
    capsys.readouterr()
    # the plain model has no eta to tune: it trains once, at the given eta
    tuned = json.loads(out.read_text())
    assert tuned["config"]["eta"] == gnn.TrainConfig().eta
    assert [t["eta"] for t in tuned["tune"]] == [gnn.TrainConfig().eta]
    assert (tmp_path / "tuned.json.probs.npy").read_bytes() == \
        (tmp_path / "plain.json.probs.npy").read_bytes()


def test_train_tune_records_every_eta(tmp_path, capsys):
    args = ["train", "--dataset", "sbm", "--blocks", "20,20", "--variant", "r",
            "--epochs", "8", "--val-size", "10", "--test-size", "20"]
    assert main(args + ["--tune", "--out", str(tmp_path / "tuned.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "plain.json")]) == 0
    capsys.readouterr()
    tuned = json.loads((tmp_path / "tuned.json").read_text())
    assert [t["eta"] for t in tuned["tune"]] == list(gnn.ETA_GRID)
    chosen = tuned["tune"][gnn.ETA_GRID.index(tuned["config"]["eta"])]
    assert chosen["best_val_acc"] == max(t["best_val_acc"] for t in tuned["tune"])
    assert chosen["best_val_acc"] == tuned["per_epoch"][chosen["best_epoch"] - 1]["acc_val"]
    assert chosen["best_epoch"] == tuned["best_epoch"]
    assert "tune" not in json.loads((tmp_path / "plain.json").read_text())


@pytest.mark.parametrize("extra", [[], ["--tune"]], ids=["plain", "tune"])
def test_train_frees_dense_features_before_the_output_analysis(monkeypatch, tmp_path, capsys,
                                                               extra):
    # training holds the features as CSR; the dense matrix would otherwise
    # stay through the output analysis, the run's memory peak
    g, f, y = gnn.sbm_dataset((20, 20), 0.3, 0.05, seed=1)
    features = weakref.ref(f)
    loaded = [(g, f, y)]
    del f
    monkeypatch.setattr(cli, "_load_dataset", lambda args: loaded.pop())
    alive = []
    real = gnn.output_analysis

    def spy(*args, **kwargs):
        alive.append(features() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(gnn, "output_analysis", spy)
    assert main(["train", "--variant", "r", "--epochs", "2", "--val-size", "10",
                 "--test-size", "10", *extra, "--out", str(tmp_path / "run.json")]) == 0
    capsys.readouterr()
    assert alive == [False]


def test_train_from_files(tmp_path, capsys):
    prefix = tmp_path / "data"
    assert main(["gen-sbm", "--blocks", "100,100", "--p-in", "0.15",
                 "--p-out", "0.01", "--seed", "2", "--out", str(prefix)]) == 0
    rc = main(["train", "--dataset", "file", "--graph", f"{prefix}.graph",
               "--labels", f"{prefix}.labels", "--epochs", "12",
               "--out", str(tmp_path / "file_run.json")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "file_run.json").is_file()


def test_train_file_needs_paths(capsys):
    assert main(["train", "--dataset", "file", "--epochs", "5"]) == 2
    assert "--graph" in capsys.readouterr().err


def test_train_label_size_mismatch(tmp_path, capsys):
    assert main(["gen-sbm", "--blocks", "10,10", "--out", str(tmp_path / "g")]) == 0
    (tmp_path / "short.labels").write_text("0\n1\n")
    rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
               "--labels", str(tmp_path / "short.labels"), "--epochs", "5"])
    assert rc == 3
    assert "does not match" in capsys.readouterr().err


def test_train_missing_graph_file(tmp_path, capsys):
    rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "no.graph"),
               "--labels", str(tmp_path / "no.labels"), "--epochs", "5"])
    assert rc == 3
    capsys.readouterr()


def test_train_malformed_graph_file(tmp_path, capsys):
    (tmp_path / "bad.graph").write_text("3 1\n0 0\n")
    (tmp_path / "ok.labels").write_text("0\n1\n0\n")
    rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "bad.graph"),
               "--labels", str(tmp_path / "ok.labels"), "--epochs", "5"])
    assert rc == 3
    assert "self-loop" in capsys.readouterr().err


def test_train_malformed_labels_file(tmp_path, capsys):
    (tmp_path / "ok.graph").write_text("3 2\n0 1\n1 2\n")
    # a negative label would index the last output column and train silently
    for text, message in (("0\nx\n0\n", "bad.labels:2: non-integer label 'x'"),
                          ("0\n1\n-1\n", "bad.labels:3: negative label -1")):
        (tmp_path / "bad.labels").write_text(text)
        rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "ok.graph"),
                   "--labels", str(tmp_path / "bad.labels"), "--epochs", "5",
                   "--out", str(tmp_path / "run.json")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("bad", ["graph", "labels"])
def test_train_non_utf8_graph_or_labels_file(tmp_path, capsys, bad):
    (tmp_path / "g.graph").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "g.labels").write_text("0\n1\n0\n")
    path = tmp_path / f"g.{bad}"
    path.write_bytes(path.read_bytes().replace(b"1\n", b"1\xff\n", 1))
    rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
               "--labels", str(tmp_path / "g.labels"), "--epochs", "5",
               "--out", str(tmp_path / "run.json")])
    assert rc == 3
    assert f"{path}: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


def test_spectrum_rejects_negative_label(tmp_path, capsys):
    (tmp_path / "ok.graph").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "bad.labels").write_text("0\n-1\n0\n")
    rc = main(["spectrum", "--dataset", "file", "--graph", str(tmp_path / "ok.graph"),
               "--labels", str(tmp_path / "bad.labels"), "--out", str(tmp_path / "s")])
    assert rc == 3
    assert "bad.labels:2: negative label -1" in capsys.readouterr().err
    assert list(tmp_path.glob("s_*.csv")) == []


def _nan_features(n):
    f = np.eye(n, 4)
    f[3, 2] = np.nan
    return f


@pytest.mark.parametrize("name, make, message", [
    ("nan.npy", _nan_features, "must be finite, got 1 non-finite value(s), first at row 3"),
    ("flat.npy", lambda n: np.ones(n), "must be a 2-D array, got 1-D"),
    ("words.npy", lambda n: np.full((n, 4), "a"), "must be real numbers, got dtype <U1"),
    ("words.txt", lambda n: "\n".join(["1 x 2"] * n), "unreadable feature matrix"),
])
def test_train_rejects_bad_feature_file(tmp_path, capsys, name, make, message):
    assert main(["gen-sbm", "--blocks", "20,20", "--out", str(tmp_path / "g")]) == 0
    path = tmp_path / name
    if name.endswith(".npy"):
        np.save(path, make(40))
    else:
        path.write_text(make(40))
    out = tmp_path / "run.json"
    rc = main(["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
               "--labels", str(tmp_path / "g.labels"), "--features", str(path),
               "--epochs", "3", "--val-size", "10", "--test-size", "10", "--out", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--per-class", "0", "per_class must be >= 1, got 0"),
    ("--val-size", "0", "val_size must be >= 1, got 0"),
    ("--val-size", "-5", "val_size must be >= 1, got -5"),
    ("--test-size", "0", "test_size must be >= 1, got 0"),
])
def test_train_rejects_split_size_below_one(tmp_path, capsys, monkeypatch, flag, value, message):
    # refused while parsing: a run with an empty split would report an
    # untrained model or a nan accuracy, and loading the dataset first is waste
    def no_work(*args, **kwargs):
        raise AssertionError("work started despite a bad split size")

    monkeypatch.setattr(gnn, "train", no_work)
    monkeypatch.setattr(cli, "_load_dataset", no_work)
    out = tmp_path / "run.json"
    rc = main(["train", "--blocks", "20,20", "--epochs", "3", "--val-size", "10",
               "--test-size", "10", flag, value, "--out", str(out)])
    parsed = f"argument {flag}: must be >= 1, got {value}"
    assert rc == 2
    assert parsed in capsys.readouterr().err
    assert not out.exists()
    # the files are never opened: a missing graph still exits 2, not 3
    assert main(["train", "--dataset", "file", "--graph", str(tmp_path / "missing.graph"),
                 "--labels", str(tmp_path / "missing.labels"), flag, value]) == 2
    assert parsed in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # make_split keeps its own check, in its parameter's name, for library callers
    sizes = [5, 10, 10]
    sizes[("--per-class", "--val-size", "--test-size").index(flag)] = int(value)
    with pytest.raises(ValueError, match=message):
        gnn.make_split(np.repeat([0, 1], 20), *sizes, 0)


@pytest.mark.parametrize("flags, message", [
    (["--variant", "r", "--eta", "-5"], "eta must be finite and >= 0, got -5.0"),
    (["--variant", "r", "--eta", "inf"], "eta must be finite and >= 0, got inf"),
], ids=["eta-negative", "eta-inf"])
def test_train_rejects_bad_optimiser_values(tmp_path, capsys, monkeypatch, flags, message):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite a bad optimiser value")

    monkeypatch.setattr(gnn, "train", no_training)
    out = tmp_path / "run.json"
    rc = main(["train", "--blocks", "20,20", "--epochs", "3", "--val-size", "10",
               "--test-size", "10", *flags, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_cora_without_data_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DISTSIG_DATA_DIR", raising=False)
    rc = main(["train", "--dataset", "cora", "--epochs", "5"])
    assert rc == 3
    assert "DISTSIG_DATA_DIR" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_train_cora_names_the_directory_without_the_files(tmp_path, capsys, monkeypatch,
                                                          source):
    # a directory was given, so the message names it, not the variable to set
    monkeypatch.delenv("DISTSIG_DATA_DIR", raising=False)
    argv = ["train", "--dataset", "cora", "--epochs", "5"]
    if source == "flag":
        argv += ["--data-dir", str(tmp_path)]
    else:
        monkeypatch.setenv("DISTSIG_DATA_DIR", str(tmp_path))
    (tmp_path / "cora.cites").write_text("")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: raw Cora files not found: no cora.content in {tmp_path}\n"
    (tmp_path / "cora.cites").unlink()
    assert main(argv) == 3
    assert capsys.readouterr().err == ("error: raw Cora files not found: no cora.content and "
                                       f"no cora.cites in {tmp_path}\n")


def test_train_cora_rejects_non_finite_features(tmp_path, capsys):
    # the file is rejected as it is read, before training could meet the
    # value; spectrum never reads a feature value, so it runs
    _write_citation_files(tmp_path, n=60)
    content = tmp_path / "cora.content"
    lines = content.read_text().splitlines(keepends=True)
    pid, _, rest = lines[1].split(" ", 2)
    lines[1] = f"{pid} nan {rest}"
    content.write_text("".join(lines))
    data = ["--dataset", "cora", "--data-dir", str(tmp_path)]
    assert main(["spectrum", *data, "--out", str(tmp_path / "spec")]) == 0
    capsys.readouterr()
    rc = main(["train", *data, "--epochs", "2", "--per-class", "2", "--val-size", "5",
               "--test-size", "5"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {content}:2: non-finite feature value\n"
    assert captured.out == ""


def test_spectrum_cora_reads_no_features(tmp_path, monkeypatch, capsys):
    # spectrum reads the graph and the labels; the feature columns are train's
    _write_citation_files(tmp_path, n=60)

    def no_features(*args, **kwargs):
        raise AssertionError("spectrum parsed the feature columns")

    monkeypatch.setattr(gnn, "cora_features", no_features)
    monkeypatch.setattr(gnn, "sbm_features", no_features)
    assert main(["spectrum", "--dataset", "cora", "--data-dir", str(tmp_path),
                 "--out", str(tmp_path / "spec")]) == 0
    assert capsys.readouterr().out == f"wrote 2 spectrum file(s) with prefix {tmp_path}/spec\n"


@pytest.mark.parametrize("dataset", ["cora", "file", "sbm"])
def test_train_receives_each_datasets_features(tmp_path, monkeypatch, capsys, dataset):
    # Cora's features reach training as cora_features' CSR, with no dense
    # copy on the way; the file and block-model datasets' arrive dense
    seen = []
    real = gnn.train

    def spy(g, features, *args, **kwargs):
        seen.append(features)
        return real(g, features, *args, **kwargs)

    monkeypatch.setattr(gnn, "train", spy)
    argv = ["train", "--epochs", "2", "--per-class", "2", "--val-size", "5", "--test-size", "5"]
    if dataset == "cora":
        _write_citation_files(tmp_path, n=60)
        argv += ["--dataset", "cora", "--data-dir", str(tmp_path)]
    elif dataset == "file":
        assert main(["gen-sbm", "--blocks", "10,10", "--out", str(tmp_path / "g")]) == 0
        np.save(tmp_path / "f.npy", np.eye(20))
        argv += ["--dataset", "file", "--graph", str(tmp_path / "g.graph"),
                 "--labels", str(tmp_path / "g.labels"), "--features", str(tmp_path / "f.npy")]
    else:
        argv += ["--blocks", "10,10"]
    assert main(argv) == 0
    capsys.readouterr()
    [features] = seen
    if dataset == "cora":
        want = gnn.cora_features(tmp_path / "cora.content")
        assert isinstance(features, sp.csr_array)
        assert (features != want).nnz == 0
    else:
        assert type(features) is np.ndarray


def test_train_bad_variant(capsys):
    assert main(["train", "--variant", "mystery"]) == 2
    assert main(["train", "--variant", "lap"]) == 2
    capsys.readouterr()


# --- analyze ---------------------------------------------------------------

def test_analyze_csv(tmp_path, capsys):
    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=12)
    pp = tmp_path / "probs.npy"
    np.save(pp, probs)
    out = tmp_path / "nu.csv"
    rc = main(["analyze", "--probs", str(pp), "--tag", "demo", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,kind,count,model_tag"
    assert len(lines) == 9  # four epsilons, two kinds each
    assert all(line.endswith(",demo") for line in lines[1:])


@pytest.mark.parametrize("tag", ["a,b", 'say "hi"', "a\rb", "a,b\nx"],
                         ids=["comma", "quote", "carriage-return", "newline"])
def test_analyze_refuses_a_tag_that_would_break_the_csv(tmp_path, capsys, tag):
    pp = tmp_path / "probs.npy"
    np.save(pp, np.full((4, 2), 0.5))
    assert main(["analyze", "--probs", str(pp), "--tag", tag,
                 "--out", str(tmp_path / "nu.csv")]) == 2
    captured = capsys.readouterr()
    assert ("argument --tag: must not hold a comma, a double quote or a line break, "
            f"got {tag!r}") in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["probs.npy"]


def _write_archive(path):
    with open(path, "wb") as fh:
        np.savez(fh, probs=np.full((12, 3), 1.0 / 3.0))


@pytest.mark.parametrize("write, message", [
    (lambda path: np.save(path, np.full((12, 3), 0.5)), "row 0 sums to 1.5, not 1"),
    (lambda path: path.write_text("0.5 0.5\n0.5 0.5\n"), "unreadable probability matrix"),
    (_write_archive, "unreadable probability matrix: an archive"),
], ids=["rows-sum-1.5", "text-named-npy", "archive-named-npy"])
def test_analyze_rejects_bad_probability_file(tmp_path, capsys, write, message):
    path = tmp_path / "p.npy"
    write(path)
    out = tmp_path / "nu.csv"
    assert main(["analyze", "--probs", str(path), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "spectrum", "train"])
def test_empty_npy_file_is_io_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.npy"
    empty.write_bytes(b"")
    out = tmp_path / "out"
    if command == "analyze":
        args = ["analyze", "--probs", str(empty), "--out", str(out)]
    elif command == "spectrum":
        args = ["spectrum", "--dataset", "sbm", "--blocks", "20,20", "--probs", str(empty),
                "--out", str(out)]
    else:
        assert main(["gen-sbm", "--blocks", "20,20", "--out", str(tmp_path / "g")]) == 0
        args = ["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
                "--labels", str(tmp_path / "g.labels"), "--features", str(empty),
                "--epochs", "3", "--val-size", "10", "--test-size", "10", "--out", str(out)]
    assert main(args) == 3
    assert f"{empty}: unreadable" in capsys.readouterr().err
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analyze", "spectrum", "train"])
def test_empty_text_matrix_is_io_error(tmp_path, capsys, recwarn, command):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    out = tmp_path / "out"
    if command == "analyze":
        args = ["analyze", "--probs", str(empty), "--out", str(out)]
    elif command == "spectrum":
        args = ["spectrum", "--dataset", "sbm", "--blocks", "20,20", "--probs", str(empty),
                "--out", str(out)]
    else:
        assert main(["gen-sbm", "--blocks", "20,20", "--out", str(tmp_path / "g")]) == 0
        args = ["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
                "--labels", str(tmp_path / "g.labels"), "--features", str(empty),
                "--epochs", "3", "--val-size", "10", "--test-size", "10", "--out", str(out)]
    capsys.readouterr()
    assert main(args) == 3
    kind = "feature" if command == "train" else "probability"
    assert capsys.readouterr().err == f"error: {empty}: empty {kind} matrix\n"
    assert not [w for w in recwarn if "loadtxt" in str(w.message)]
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


# --- mapped .npy inputs ----------------------------------------------------

def test_npy_matrix_is_a_plain_view_of_a_map(tmp_path):
    path = tmp_path / "p.npy"
    want = np.random.default_rng(2).dirichlet(np.ones(3), size=9)
    np.save(path, want)
    got = cli._read_matrix(str(path), "probability", 9)
    assert type(got) is np.ndarray
    assert not got.flags.owndata and not got.flags.writeable
    assert isinstance(got.base, np.memmap)
    assert got.tobytes() == want.tobytes()


def _truncate_data(path):
    np.save(path, np.full((12, 3), 1.0 / 3.0))
    path.write_bytes(path.read_bytes()[:-8])


def _save_objects(path):
    np.save(path, np.full((12, 3), 1.0 / 3.0).astype(object), allow_pickle=True)


# an archive under a .npy name and an empty .npy file: the tests above
@pytest.mark.parametrize("write", [_truncate_data, _save_objects],
                         ids=["truncated-data", "object-dtype"])
def test_unmappable_npy_file_is_io_error(tmp_path, capsys, write):
    path = tmp_path / "p.npy"
    write(path)
    out = tmp_path / "nu.csv"
    assert main(["analyze", "--probs", str(path), "--out", str(out)]) == 3
    assert f"error: {path}: unreadable probability matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a.astype(">f8")],
                         ids=["fortran-order", "big-endian"])
def test_npy_layouts_load_to_the_same_values(tmp_path, capsys, layout):
    assert main(["gen-sbm", "--blocks", "20,20", "--out", str(tmp_path / "g")]) == 0
    feats = np.random.default_rng(3).random((40, 5))
    np.save(tmp_path / "c.npy", feats)
    np.save(tmp_path / "l.npy", layout(feats))
    got = cli._read_matrix(str(tmp_path / "l.npy"), "feature", 40)
    assert np.array_equal(got, np.load(tmp_path / "l.npy"))
    assert got.dtype == np.load(tmp_path / "l.npy").dtype
    for name in ("c", "l"):
        assert main(["train", "--dataset", "file", "--graph", str(tmp_path / "g.graph"),
                     "--labels", str(tmp_path / "g.labels"),
                     "--features", str(tmp_path / f"{name}.npy"), "--epochs", "3",
                     "--val-size", "10", "--test-size", "10",
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "l.json").read_bytes() == (tmp_path / "c.json").read_bytes()
    assert (tmp_path / "l.json.probs.npy").read_bytes() == \
        (tmp_path / "c.json.probs.npy").read_bytes()


def test_analyze_missing_probs(tmp_path, capsys):
    rc = main(["analyze", "--probs", str(tmp_path / "none.npy"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    capsys.readouterr()


# --- scripts ---------------------------------------------------------------

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    # imports every name the script takes from the package
    src = str(script.parents[1] / "src")
    r = subprocess.run([sys.executable, str(script), "--help"], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert r.returncode == 0, r.stderr


def _run_script(name, *args):
    script = SCRIPTS[0].parent / name
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(script.parents[1] / "src")),
                          timeout=120)


def _write_citation_files(d, n=1560, classes=3, dim=24, seed=0):
    """A synthetic cora.content/cora.cites pair: class-biased features and links.

    The suite's split takes 20 per class, 500 validation and 1000 test nodes,
    so the graph needs more than 1,500 of them.
    """
    rng = np.random.default_rng(seed)
    y = np.arange(n) % classes
    bits = rng.random((n, dim)) < np.where(np.arange(dim) % classes == y[:, None], 0.4, 0.1)
    d.joinpath("cora.content").write_text("".join(
        f"p{i} {' '.join(map(str, row.astype(int)))} c{y[i]}\n" for i, row in enumerate(bits)))
    cites = []
    for i in range(n):
        for _ in range(2):
            pool = np.flatnonzero(y == y[i]) if rng.random() < 0.8 else np.arange(n)
            j = int(rng.choice(pool))
            if j != i:
                cites.append(f"p{i} p{j}\n")
    d.joinpath("cora.cites").write_text("".join(cites))


def test_cora_suite_smoke(tmp_path, capsys):
    # the code path behind criteria 7b-9, on a synthetic stand-in for the data
    _write_citation_files(tmp_path)
    out = tmp_path / "runs"
    r = _run_script("run_study.py", "--dataset", "cora", "--data-dir", str(tmp_path),
                    "--seeds", "1", "--variants", "gcn,r", "--out-dir", str(out))
    assert r.returncode == 0, r.stderr
    assert sorted(p.name for p in out.iterdir()) == ["gcn_seed0.json", "r_seed0.json",
                                                     "summary.csv"]
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "variant,seed,eta,test_acc,hf_col1,near_uniform,near_one"
    assert [row.split(",")[:2] for row in rows[1:]] == [["gcn", "0"], ["r", "0"]]
    for v, row in zip(("gcn", "r"), rows[1:]):
        run = json.loads((out / f"{v}_seed0.json").read_text())
        assert run["config"]["variant"] == v and len(run["per_epoch"]) == 200
        # the summary's counts are the run's own sweep at epsilon 0.01
        [swept] = [r for r in run["nonuniformity_sweep"] if r["epsilon"] == 0.01]
        assert row.split(",")[5:] == [str(swept["near_uniform"]), str(swept["near_one"])]
    # a run file is written as train --out writes the same run
    train = tmp_path / "train.json"
    assert main(["train", "--dataset", "cora", "--data-dir", str(tmp_path), "--variant", "gcn",
                 "--seed", "0", "--out", str(train)]) == 0
    capsys.readouterr()
    assert (out / "gcn_seed0.json").read_bytes() == train.read_bytes()


def test_cora_suite_decomposes_once(tmp_path, monkeypatch, capsys):
    # every reported run is analysed from one decomposition of its graph: the
    # one citation network's, or each seed's own block model's
    _write_citation_files(tmp_path)
    real = spectral.eig_sym
    for dataset, options, decompositions in (("cora", ["--data-dir", str(tmp_path)], 1),
                                             ("4block", [], 2)):
        sizes = []
        monkeypatch.setattr(spectral, "eig_sym",
                            lambda mat, *args: sizes.append(mat.shape[0]) or real(mat, *args))
        monkeypatch.setattr(sys, "argv", ["run_study.py", "--dataset", dataset, *options,
                                          "--seeds", "2", "--variants", "gcn",
                                          "--out-dir", str(tmp_path / dataset)])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SCRIPTS[0].parent / "run_study.py"), run_name="__main__")
        assert done.value.code == 0
        assert "2 runs in" in capsys.readouterr().out
        assert len(sizes) == decompositions
    assert all(n <= sum(gnn.SBM_4BLOCK[0]) for n in sizes)  # each block model's main component


def test_sbm_trend_script_runs_the_gate_protocol(tmp_path):
    # the script's 4-block seed 0 is criterion 7a's seed 0: one gnn.study call
    r = _run_script("run_study.py", "--dataset", "4block", "--seeds", "1", "--variants", "gcn,r",
                    "--out-dir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    runs = gnn.study({0: gnn.sbm_dataset(*gnn.SBM_4BLOCK, seed=0)}, gnn.SBM_SPLIT,
                     gnn.SBM_ETA_GRID, ("gcn", "r"))
    base, best = runs["gcn", 0], runs["r", 0]
    lines = r.stdout.splitlines()
    for line, m in ((lines[0], base), (lines[2], best)):
        assert line.startswith(f"{m.config.variant} seed 0: acc {m.test_acc:.4f} "
                               f"(eta {m.config.eta}), hf {m.hf_fraction_per_class[0]:.4f}, ")
    diff = best.test_acc - base.test_acc
    assert lines[3].startswith("== r: ")
    assert lines[3].endswith(f", vs gcn mean diff {diff:+.4f}, nonnegative {int(diff >= 0)}/1")


# A -p plugin for a pytest child: shortens TrainConfig's default training and
# prints each test's outcome, with the exception type of a failure.
_SHORT_TRAINING = """
import inspect

import pytest

from distsig.gnn import TrainConfig

_defaults = list(TrainConfig.__init__.__defaults__)
_defaults[list(inspect.signature(TrainConfig).parameters).index("epochs")] = {epochs}
TrainConfig.__init__.__defaults__ = tuple(_defaults)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    rep = (yield).get_result()
    if rep.when == "call" or rep.failed:
        kind = call.excinfo.typename if rep.failed else rep.outcome
        print(f"OUTCOME {{item.name}} {{rep.when}} {{kind}}", flush=True)
"""


def test_cora_criteria_run_on_synthetic_data(tmp_path):
    # criteria 7b, 7c, 8 and 9 skip without the raw data; here their bodies,
    # the cora fixtures and gnn.study run on a 7-class stand-in with short
    # training.  The data makes no accuracy claim, so each criterion may fail
    # its assertions, but nothing else
    _write_citation_files(tmp_path, n=1640, classes=7, dim=14)
    (tmp_path / "short_training.py").write_text(_SHORT_TRAINING.format(epochs=2))
    root = Path(__file__).resolve().parents[1]
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-k", "cora", "-q", "-s",
         "-p", "short_training", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=root, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(tmp_path)]),
                 DISTSIG_DATA_DIR=str(tmp_path)))
    assert r.returncode in (0, 1), r.stdout + r.stderr
    outcomes = [line.split()[1:] for line in r.stdout.splitlines() if line.startswith("OUTCOME ")]
    criteria = {"7b": "test_criterion_7b_cora_accuracy", "7c": "test_criterion_7c_cora_ablation",
                "8": "test_criterion_8_cora_spectral_shrinkage",
                "9": "test_criterion_9_cora_nonuniformity"}
    assert sorted(name for name, _, _ in outcomes) == sorted(criteria.values()), r.stdout
    for num, name in criteria.items():
        assert [name, "call", "passed"] in outcomes or [name, "call", "AssertionError"] in outcomes, \
            r.stdout
        assert re.search(f"ACCEPTANCE {num} (PASS|FAIL): ", r.stdout), num


@pytest.mark.parametrize("n, message, code", [
    (None, "error: raw Cora files not found", cli.EXIT_IO),
    (30, "error: class 0 has 10 nodes, fewer than per_class=20", cli.EXIT_USAGE),
    ("no-label", "error: {}:2: malformed content line", cli.EXIT_IO),
], ids=["no-data", "split-does-not-fit", "malformed-content"])
def test_cora_suite_rejects_unusable_data_before_any_work(tmp_path, n, message, code):
    # the 20/500/1000 split is checked for every seed before the spectrum;
    # the exit codes are those of distsig train for the same data
    if n == "no-label":  # the second content line lost its label
        _write_citation_files(tmp_path, n=30)
        content = tmp_path / "cora.content"
        lines = content.read_text().splitlines(keepends=True)
        lines[1] = "p1 1\n"
        content.write_text("".join(lines))
        message = message.format(content)
    elif n is not None:
        _write_citation_files(tmp_path, n=n)
    out = tmp_path / "runs"
    r = _run_script("run_study.py", "--dataset", "cora", "--data-dir", str(tmp_path),
                    "--seeds", "2", "--out-dir", str(out))
    assert r.returncode == code
    assert r.stdout == "" and r.stderr.startswith(message) and r.stderr.count("\n") == 1
    assert not out.exists()


CORA = ["--dataset", "cora", "--data-dir", "{tmp}"]


@pytest.mark.parametrize("args, message", [
    ([*CORA, "--variants", "gcn,bogus"], "got 'gcn,bogus'"),
    ([*CORA, "--variants", "lap"], "got 'lap'"),
    ([*CORA, "--variants", "gcn,r,gcn"], "each once, got 'gcn,r,gcn'"),
    ([*CORA, "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    ([*CORA, "--out-dir", ""], "argument --out-dir: must not be empty"),
    ([*CORA, "--data-dir", ""], "argument --data-dir: must not be empty"),
    ([*CORA, "--out-dir", "{tmp}/cora.cites"],
     "--out-dir {tmp}/cora.cites: exists and is not a directory"),
    ([*CORA, "--out-dir", "{tmp}/cora.cites/sub"],
     "--out-dir {tmp}/cora.cites/sub: {tmp}/cora.cites exists and is not a directory"),
    (["--dataset", "4block", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    (["--dataset", "4block", "--variants", "lap"], "got 'lap'"),
    (["--dataset", "4block", "--data-dir", "{tmp}"],
     "--data-dir is read only by --dataset cora, not by --dataset 4block"),
    (["--dataset", "sbm"], "argument --dataset: invalid choice: 'sbm'"),
    ([], "the following arguments are required: --dataset"),
], ids=["suite-unknown-variant", "suite-lap", "suite-repeated-variant", "suite-seeds-0",
        "suite-empty-out-dir", "suite-empty-data-dir", "suite-out-dir-is-a-file",
        "suite-out-dir-below-a-file", "trend-seeds-0", "trend-lap", "trend-data-dir",
        "unknown-dataset", "no-dataset"])
def test_script_rejects_bad_arguments_before_any_work(tmp_path, args, message):
    # the citation files are valid, so the study would train if it got that far
    _write_citation_files(tmp_path, n=30)
    before = {f: f.read_bytes() for f in tmp_path.iterdir()}
    out = tmp_path / "runs"
    # the case's own --out-dir comes last, so it wins
    r = _run_script("run_study.py", "--out-dir", str(out), *[a.format(tmp=tmp_path) for a in args])
    assert r.returncode == 2, r.stderr
    assert r.stdout == "" and message.format(tmp=tmp_path) in r.stderr.splitlines()[-1]
    assert not out.exists()
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == before
