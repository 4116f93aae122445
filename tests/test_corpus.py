"""The same-results corpus (tests/corpus.py) against its record, CORPUS.json:
every case keeps its exit code and the first word of its stderr.  The
recorded SHA-256 digests depend on LAPACK's last bits, so they are compared
by running tests/corpus.py, not here."""

import json
from pathlib import Path

import corpus

RECORD = json.loads(
    (Path(__file__).resolve().parents[1] / "CORPUS.json").read_text())


def test_corpus_exit_codes_and_stderr_words():
    want = [(c["id"], c["exit"], c["stderr_word"])
            for c in RECORD["case_list"]]
    got = [(case["id"], result["exit"], corpus.first_word(result["stderr"]))
           for case, result in corpus.run_corpus()]
    assert len(got) >= 500
    assert [g for g, w in zip(got, want) if g != w] == []
    assert len(got) == len(want)
