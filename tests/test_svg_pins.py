"""sha256 pins of the SVG files that `plot` and `replicate` write.

The digests were taken from the chart writer that drew from a figure spec
(title, axis labels, named series), before `figures.save_figure` became the
one function that draws the edge chart, so they pin every byte of its
output.
"""

import hashlib
from importlib import resources

import pytest

from boostcycles.cli import main

DATA = resources.files("boostcycles") / "data"
POOL3 = str(DATA / "three_dichotomies.pool")
IRIS = str(DATA / "iris.csv")

FLAGS = {
    "plain": [],
    "golden": ["--ref", "golden"],
    "full": ["--ref", "golden", "--ref", "1/2", "--last", "50", "--title", "t"],
}

PLOT = {
    # (mode of the 300-step three_dichotomies.pool trace, flags): sha256
    ("float", "plain"): "9a94f348252cdfa19a6f5495378418f4aac6d1f0942bb6af6d6fd84e9fe43306",
    ("float", "golden"): "8eb1cd146f096f1386f99f98ff913416d36370838c0b27be53e36298d08cb44a",
    ("float", "full"): "719f92f36802812e05d8fbd8eae9c8d8bfb870c7dcca9813e27ad7829d63d9d4",
    ("exact", "plain"): "f7e1c6b1a83be367479c7e41b731851f612544ddd4d4e326ab408d8af53072be",
    ("exact", "golden"): "c17e8422efb7659dcfa07a6f24766ee96aaf57c221c4b83316b1ef9ea0429d0b",
    ("exact", "full"): "696974c1f6b4d86ee10f647dc92cc889e041faeb7b998669d17ad82fb75448cb",
}

# replicate on Iris versicolor, tree (3, 4), 1000 iterations
REPLICATE = "e5d4c0bf0d8611a4236497761954d2fa4c0a1b02a598791b44e730f27c7c805c"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """The 300-step optimal traces of the 3-point pool, by mode."""
    root = tmp_path_factory.mktemp("traces")
    paths = {}
    for mode in ("float", "exact"):
        paths[mode] = root / f"{mode}.json"
        assert main(["run", "--pool", POOL3, "--iters", "300", "--mode", mode, "--out", str(paths[mode])]) == 0
    return paths


@pytest.mark.parametrize("mode, flags", sorted(PLOT))
def test_plot_svg_pinned(traces, tmp_path, capsys, mode, flags):
    out = tmp_path / "e.svg"
    assert main(["plot", str(traces[mode]), "--out", str(out), *FLAGS[flags]]) == 0
    assert sha256(out) == PLOT[mode, flags]


def test_replicate_svg_pinned(tmp_path, capsys):
    argv = ["replicate", "--dataset", IRIS, "--label", "species", "--positive", "versicolor",
            "--depth", "3", "--leaves", "4", "--iters", "1000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert sha256(tmp_path / "edges.svg") == REPLICATE
