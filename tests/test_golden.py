"""Golden outputs: the SHA-256 of each file and stdout that the CLI writes.

Each case runs its commands twice, into two directories of one process. The
two runs must agree byte for byte, and then with ``GOLDEN``. The table was
taken with the numpy and scipy of ``GOLDEN_VERSIONS``; on other versions
only the table comparison skips. There is no switch that rewrites it: a
change that alters an output edits its hash here by hand and says so.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
        (["spectrum", "--dataset", "cora", "--data-dir", "{data}",
          "--probs", "{d}/cora.json.probs.npy", "--out", "{d}/cspec"], None),
    ],
}
CORA_NODES = 300

GOLDEN = {
    "bounds": {
        "bounds.json": "98f2b6e7c0d9eab571a7225d3ca94868292c07c97d7858745352e8de498242e2",
        "bounds.stdout": "74481263d2d154dbb737c0b7c23b6904cdf45e4c1506fd59fb1460cdd031821c",
    },
    "sbm-tune": {
        "spec_class0.csv": "055ca65b347c8795071c35dec02dab94666a648e0d737f3b187695dd43e374b4",
        "spec_class1.csv": "8fc9ed29d91b2c160b8641dc0584e51e3f0c2e395f97f6bb44de474c55815e53",
        "spec_class2.csv": "7192bd78473623edbd8ea60d9c60ad69cdee2584b8dfee6a8e8b6c4ef3c72585",
        "spec_class3.csv": "faa9d2695f03ad1500dac6122a5d982f95800ea1b1e2f25a629d1ad8b78915a0",
        "spec_label.csv": "1204a4c40cd1903ea57da3239d48407cb84030dfc986bbd9366b186d15e8ad9c",
        "spec_random.csv": "eecfc631f9c17b325a65bad53246ac41b4ac8ba42c1518dbc38d3b58e00e34ae",
        "sweep.csv": "9ed63bf0b717046b34ea9bc5b924a81961d66ae2d4dee685d378287704bd7a45",
        "tune.json": "6b30a2c66003c04c507011f3937220ceb2ee493c827d9ac5e5c4ffc1b8c9dd54",
        "tune.json.probs.npy": "b6979a37ea99d66527e5e6f311ae411d79aab04b1a7ca6e9269e8c7caed02b25",
        "tune.stdout": "f9eaae994e9afe5c0dcf901ba8b332a4434b8aa540f22b8081a06b9b26d924bb",
    },
    "file": {
        "file.json": "c6046df8d479af0d7a3d773f74c422a47914b96207c69cba64cca974fd6575ed",
        "file.json.probs.npy": "2b071578c593afcdaff3c9acb60fd38ad30cd468e46ed2e21c22cceccc4c64ca",
        "file.stdout": "5b0d34ffef994d563a8ecc1914c9011c33515eba5fd52a281be69679f2adb9ab",
        "toy.graph": "f5a14537a6815dff110627eeaadfffea8825de83585a654063045a92dd64f518",
        "toy.labels": "9ffc04a6c3369121b4cd4524151cc0e24ce1d371c199939ca20dbf8e99d6ea31",
    },
    "cora": {
        "cora.json": "ab5042305ea05b886ac2e84c73acd1e8003900bc5ea25c49a31b370ad2eb479d",
        "cora.json.probs.npy": "f1b57b6ef510f59cd444399a4425c1839032914556a4d31ddfe390b95b15809c",
        "cora.stdout": "40ccb1d94c0d59f674c5ea2b8015f74631ffe5101a97eab12acb2fb021c3808b",
        "cspec_class0.csv": "e597626a73e86a9b3d647dff27d75f1ddb16c62c0b8e6ecf5eb0cd3a737af6cb",
        "cspec_class1.csv": "4ecfe4186717ab7d92b6019c932a2f5793ecd4bdb20614e75fa071238f98e71d",
        "cspec_class2.csv": "6ba4920526780b9c08d5129e5cf194e6e3817d57e4320b0763e29257f5aae8a3",
        "cspec_label.csv": "0f7798eb836ae5d527b30a448c07fdfb405a45661e56ab413ba6cbeb65ec2856",
        "cspec_random.csv": "75cac08a87a411dc9a86f1fe5d21f880f8899bb3df777446edf4eef368fdde29",
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


# Run in a child per BLAS thread count: OpenBLAS reads OPENBLAS_NUM_THREADS
# once, when it loads.  "{d}" is the child's directory.
_THREADED_RUN = """
import sys
from distsig.cli import main
d = sys.argv[1]
assert main(["train", "--blocks", "150,150", "--variant", "r", "--tune", "--epochs", "50",
             "--out", f"{d}/run.json"]) == 0
assert main(["spectrum", "--blocks", "150,150", "--probs", f"{d}/run.json.probs.npy",
             "--out", f"{d}/spec"]) == 0
"""


def test_outputs_under_one_and_two_blas_threads(tmp_path):
    # Training's outputs are byte-identical under 1 and 2 BLAS threads.  The
    # spectral ones are not at this size: from about 256 nodes on, dsytrd's
    # threaded BLAS sums in another order, so its tridiagonal form, and from
    # it the eigenvalues and coefficients, move by about 1e-14 (dsyevd's
    # eigenvector route moves alike).  The main component has 300 nodes,
    # enough for dsytrd's threaded calls and for dstedc's dgemm merges.
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in (1, 2):
        d = tmp_path / f"threads{threads}"
        d.mkdir()
        r = subprocess.run([sys.executable, "-c", _THREADED_RUN, str(d)], capture_output=True,
                           text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads)))
        assert r.returncode == 0, r.stderr
        runs[threads] = (d, r.stdout.replace(str(d), "{d}"))
    (one, out1), (two, out2) = runs[1], runs[2]
    assert out1 == out2
    assert (one / "run.json.probs.npy").read_bytes() == (two / "run.json.probs.npy").read_bytes()
    report1, report2 = (json.loads((d / "run.json").read_text()) for d in (one, two))
    hf1, hf2 = report1.pop("hf_fraction_per_class"), report2.pop("hf_fraction_per_class")
    assert report1 == report2
    assert np.max(np.abs(np.subtract(hf1, hf2))) < 1e-12
    names = sorted(f.name for f in one.iterdir() if f.suffix == ".csv")
    assert names == sorted(f.name for f in two.iterdir() if f.suffix == ".csv")
    assert len(names) == 4  # label, random and the two classes
    for name in names:
        rows1, rows2 = (np.loadtxt(d / name, delimiter=",", skiprows=1) for d in (one, two))
        assert rows1.shape == rows2.shape == (300, 3), name
        assert np.array_equal(rows1[:, 0], rows2[:, 0])
        assert np.max(np.abs(rows1[:, 1:] - rows2[:, 1:])) < 1e-12, name
