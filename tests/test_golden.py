"""Golden outputs: the SHA-256 of each file and stdout that the CLI writes.

Each case runs its commands twice, into two directories of one process. The
two runs must agree byte for byte, and then with ``GOLDEN``. The table was
taken with the numpy and scipy of ``GOLDEN_VERSIONS``; on other versions
only the table comparison skips. There is no switch that rewrites it: a
change that alters an output edits its hash here by hand and says so.
"""

import hashlib

import numpy as np
import pytest
import scipy

from distsig.cli import main
from test_cli import _write_citation_files

GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

# case -> its commands, each with the name under which its stdout is hashed,
# or None where the stdout names a path.  "{d}" is the run's directory and
# "{data}" holds the citation pair of the cora case, shared by both runs.
CASES = {
    "bounds": [
        (["bounds", "--trials", "500", "--seed", "0", "--out", "{d}/bounds.json"],
         "bounds.stdout"),
    ],
    "sbm-tune": [
        (["train", "--variant", "r", "--tune", "--out", "{d}/tune.json"], "tune.stdout"),
        (["spectrum", "--probs", "{d}/tune.json.probs.npy", "--out", "{d}/spec"], None),
        (["analyze", "--probs", "{d}/tune.json.probs.npy", "--out", "{d}/sweep.csv"], None),
    ],
    "file": [
        (["gen-sbm", "--blocks", "100,100", "--p-in", "0.2", "--p-out", "0.01", "--seed", "1",
          "--out", "{d}/toy"], None),
        (["train", "--dataset", "file", "--graph", "{d}/toy.graph", "--labels", "{d}/toy.labels",
          "--epochs", "50", "--out", "{d}/file.json"], "file.stdout"),
    ],
    "cora": [
        (["train", "--dataset", "cora", "--data-dir", "{data}", "--variant", "r3", "--epochs", "50",
          "--per-class", "10", "--val-size", "50", "--test-size", "100",
          "--out", "{d}/cora.json"], "cora.stdout"),
    ],
}
CORA_NODES = 300

GOLDEN = {
    "bounds": {
        "bounds.json": "98f2b6e7c0d9eab571a7225d3ca94868292c07c97d7858745352e8de498242e2",
        "bounds.stdout": "74481263d2d154dbb737c0b7c23b6904cdf45e4c1506fd59fb1460cdd031821c",
    },
    "sbm-tune": {
        "spec_class0.csv": "6506857e1be0f5794ca888f18844aab39bfc5c7a42d3d6cb76ab4468f3962533",
        "spec_class1.csv": "d481dfc58371700b881ceab236dbc785740ef1a29d30025800076e82042d90c4",
        "spec_class2.csv": "3347bc54da5132d148d3b5de0ee2fc9bec4c658a575d62718aaa00048c02e4ca",
        "spec_class3.csv": "2be6cc5f15fd7c9a48515fb96f1ad42ff8c51277a32f9ffa4157e0c1cf57e3a2",
        "spec_label.csv": "4d5baeb693deee2210c43d10430c09261a62f97c9a87860caedf1d68c2dbc961",
        "spec_random.csv": "f8cc36e4e0ee61a1c2adef66232a968f547b9547765f1b2244d4db74fc5d190e",
        "sweep.csv": "9ed63bf0b717046b34ea9bc5b924a81961d66ae2d4dee685d378287704bd7a45",
        "tune.json": "5923f560055a52b259dc4215ed873b1bf9f3c59ed01079e1d57e6c2b15dd9508",
        "tune.json.probs.npy": "b6979a37ea99d66527e5e6f311ae411d79aab04b1a7ca6e9269e8c7caed02b25",
        "tune.stdout": "f9eaae994e9afe5c0dcf901ba8b332a4434b8aa540f22b8081a06b9b26d924bb",
    },
    "file": {
        "file.json": "8cac89d7385b559e32b3e45349f8cd78b61e132b95e6cd49d9b15fb2ff0352e6",
        "file.json.probs.npy": "2b071578c593afcdaff3c9acb60fd38ad30cd468e46ed2e21c22cceccc4c64ca",
        "file.stdout": "5b0d34ffef994d563a8ecc1914c9011c33515eba5fd52a281be69679f2adb9ab",
        "toy.graph": "f5a14537a6815dff110627eeaadfffea8825de83585a654063045a92dd64f518",
        "toy.labels": "9ffc04a6c3369121b4cd4524151cc0e24ce1d371c199939ca20dbf8e99d6ea31",
    },
    "cora": {
        "cora.json": "704646aaedd3158cbf3aa6dff2e68bf70b9f5790258ce7e6ebccd88d66a3a60e",
        "cora.json.probs.npy": "f1b57b6ef510f59cd444399a4425c1839032914556a4d31ddfe390b95b15809c",
        "cora.stdout": "40ccb1d94c0d59f674c5ea2b8015f74631ffe5101a97eab12acb2fb021c3808b",
    },
}


def _run(commands, d, data, capsys) -> dict[str, bytes]:
    """Run ``commands`` into the new directory ``d``; every file it holds, and the stdouts."""
    d.mkdir()
    stdouts = {}
    for argv, stdout in commands:
        assert main([a.format(d=d, data=data) for a in argv]) == 0, argv
        out = capsys.readouterr().out
        if stdout is not None:
            stdouts[stdout] = out.encode()
    return {**{f.name: f.read_bytes() for f in d.iterdir()}, **stdouts}


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_the_golden_table(tmp_path, capsys, case):
    if case == "cora":
        _write_citation_files(tmp_path, n=CORA_NODES)
    first, second = (_run(CASES[case], tmp_path / run, tmp_path, capsys) for run in "ab")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name}: two runs differ"

    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != GOLDEN_VERSIONS:
        pytest.skip(f"the table was taken with numpy {GOLDEN_VERSIONS['numpy']} and scipy "
                    f"{GOLDEN_VERSIONS['scipy']}; this is numpy {versions['numpy']} and scipy "
                    f"{versions['scipy']}")
    got = {name: hashlib.sha256(b).hexdigest() for name, b in first.items()}
    want = GOLDEN[case]
    wrong = [f"{name}: table {want.get(name)}, got {got.get(name)}"
             for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    assert not wrong, "\n".join(wrong)
