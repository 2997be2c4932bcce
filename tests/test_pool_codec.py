"""The pool codec: pool text is read and written as one int8 sign matrix, in
pool files and in trace headers. A malformed pool fails with the exit code
and message that the per-row reader gave; the expected texts below were
taken from it. Well-formed variants (CRLF, surrounding spaces, duplicate
rows) load to the same pool, and the writer's pool rows keep their bytes."""

import hashlib
import json

import numpy as np
import pytest

from boostcycles import HypothesisPool, MistakeDichotomy, Optimal, run
from boostcycles.cli import main
from boostcycles.simplex import SignTextError, _parse_signs, _sign_texts
from boostcycles.traceio import dumps_trace, load_pool

from test_engine import wide_pool

CLEAN = "+-+\n-++\n++-\n"
# stdout of `run --iters 50 --mode float` on CLEAN, from the per-row reader
CLEAN_RUN_SHA256 = "4d29290bd6f4d61e914b26f8a6f70ff3cd80dc98fa3d360cd696a9f98a8f035e"

BAD_FILES = {
    # name: (file text, the line and message after "error: <path>")
    "non-ASCII sign": ("+-+\n+−+\n", ":2: bad dichotomy character '−'"),
    "stray character": ("+-+\n+x-\n", ":2: bad dichotomy character 'x'"),
    "inner space": ("+ -+\n", ":1: bad dichotomy character ' '"),
    "inner no-break space": ("+-\u00a0+\n", ":1: bad dichotomy character '\\xa0'"),
    "NUL": ("+-+\n+\x00+\n", ":2: bad dichotomy character '\\x00'"),
    "unequal rows": ("+-+\n+-\n-++\n", ":2: row has 2 points, the first row 3"),
    "all-minus row": ("+-+\n---\n", ":2: dichotomy must classify at least one point correctly"),
    "all-minus first row": ("---\n+-+\n", ":1: dichotomy must classify at least one point correctly"),
    "empty file": ("", ": no dichotomies found"),
    "comment-only file": ("# a pool\n\n   \n#+-+\n", ": no dichotomies found"),
    # the first failing line wins, whichever way it fails
    "unequal before a bad character": ("+-+\n+-\n+x+\n", ":2: row has 2 points, the first row 3"),
    "bad character before unequal": ("+-+\n+x+\n+-\n", ":2: bad dichotomy character 'x'"),
}

GOOD_FILES = {
    "CRLF line endings": "+-+\r\n-++\r\n++-\r\n",
    "lone CR line endings": "+-+\r-++\r++-\n",
    "trailing spaces": "+-+  \n-++\t\n  ++- \n",
    "trailing no-break space": "+-+\u00a0\n-++\n++-\n",
    "duplicate rows": "+-+\n-++\n+-+\n++-\n-++\n",
    "comments and blank lines": "# three points\n\n+-+\n  # golden\n-++\n\n++-\n",
}

BAD_HEADERS = {
    # name: (pool rows, message after "error: ")
    "non-ASCII sign": (["-++", "+−+", "++-"], "malformed trace: bad dichotomy character '−'"),
    "stray character": (["-++", "+x+", "++-"], "malformed trace: bad dichotomy character 'x'"),
    "unequal rows": (["-++", "+-", "++-"], "malformed trace: pool rows have unequal lengths"),
    "all-minus row": (["-++", "+-+", "---"], "malformed trace: dichotomy must classify at least one point correctly"),
    "no rows": ([], "malformed trace: empty hypothesis pool"),
    "empty row": (["-++", "", "++-"], "malformed trace: empty dichotomy"),
    # a row that fails on its own comes before unequal lengths
    "unequal before a bad character": (["-++", "+-", "+x-"], "malformed trace: bad dichotomy character 'x'"),
    "non-string row": (["-++", 7, "++-"], "pool row 7 is not a string"),
}

GOOD_HEADERS = {
    "surrounding spaces and CRLF": [" -++", "+-+ ", "\t++-\r\n"],
    "duplicate rows": ["-++", "+-+", "++-", "-++"],
}


def write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def run_pool(text, capsys):
    """Exit code, stdout sha256 and stderr of a run on a pool file `p.pool`
    in the working directory (the trace's provenance names the path)."""
    write("p.pool", text)
    code = main(["run", "--pool", "p.pool", "--iters", "50", "--mode", "float"])
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest(), err


class TestPoolFiles:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_malformed(self, name, capsys):
        text, message = BAD_FILES[name]
        assert run_pool(text, capsys) == (4, hashlib.sha256(b"").hexdigest(), f"error: p.pool{message}\n")

    @pytest.mark.parametrize("name", sorted(GOOD_FILES))
    def test_well_formed_variants(self, name, capsys):
        write("clean.pool", CLEAN)
        assert run_pool(GOOD_FILES[name], capsys) == (0, CLEAN_RUN_SHA256, "")
        assert load_pool("p.pool") == load_pool("clean.pool")

    def test_clean_run_bytes(self, capsys):
        assert run_pool(CLEAN, capsys) == (0, CLEAN_RUN_SHA256, "")


class TestTraceHeaders:
    @pytest.fixture(scope="class")
    def doc(self):
        pool = HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
        return json.loads(dumps_trace(run(pool, Optimal(), 60, "float")))

    def analyze(self, doc, rows, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({**doc, "pool": {"origin": "synthetic", "rows": rows}}))
        code = main(["analyze", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("name", sorted(BAD_HEADERS))
    def test_malformed(self, name, doc, tmp_path, capsys):
        rows, message = BAD_HEADERS[name]
        assert self.analyze(doc, rows, tmp_path, capsys) == (4, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", sorted(GOOD_HEADERS))
    def test_well_formed_variants(self, name, doc, tmp_path, capsys):
        expected = self.analyze(doc, doc["pool"]["rows"], tmp_path, capsys)
        assert expected[0] == 0
        assert self.analyze(doc, GOOD_HEADERS[name], tmp_path, capsys) == expected


class TestCodec:
    def reference_texts(self, signs):
        return ["".join("+" if e > 0 else "-" for e in row) for row in signs.tolist()]

    def test_writer_rows_keep_their_bytes(self):
        for pool in (wide_pool(0), wide_pool(3), HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])):
            texts = _sign_texts(pool.signs)
            assert texts == self.reference_texts(pool.signs)
            assert json.loads(dumps_trace(run(pool, Optimal(), 20, "float")))["pool"]["rows"] == texts
            assert [row.to_string() for row in pool.rows] == texts
            assert np.array_equal(_parse_signs(texts), pool.signs)

    def test_one_row_reader(self):
        assert MistakeDichotomy.from_string(" +--+\n").entries == (1, -1, -1, 1)
        for text, message in (("", "empty dichotomy"), ("+x-", "bad dichotomy character 'x'"),
                              ("--", "dichotomy must classify at least one point correctly")):
            with pytest.raises(ValueError, match=message):
                MistakeDichotomy.from_string(text)

    def test_error_names_the_first_row_of_each_kind(self):
        with pytest.raises(SignTextError) as caught:
            _parse_signs(["+-", "+--", "+x", "--"])
        assert (caught.value.row, caught.value.uneven) == ((2, "bad dichotomy character 'x'"), 1)
        with pytest.raises(SignTextError, match="pool rows have unequal lengths") as caught:
            _parse_signs(["+-", "+--"])
        assert (caught.value.row, caught.value.uneven) == (None, 1)

    def test_pool_from_matrix_keeps_first_occurrences(self):
        texts = ["+-+", "-++", "+-+", "++-", "-++"]
        pool = HypothesisPool.from_matrix(_parse_signs(texts))
        assert pool == HypothesisPool(tuple(map(MistakeDichotomy.from_string, texts)))
        assert self.reference_texts(pool.signs) == ["+-+", "-++", "++-"]
        assert not pool.signs.flags.writeable
        assert hash(pool) == hash(HypothesisPool.from_signs([(1, -1, 1), (-1, 1, 1), (1, 1, -1)]))
