"""The same-results corpus (tests/corpus.py) against its record, CORPUS.json:
every case keeps its exit code and the first word of its stderr.  Most
recorded SHA-256 digests depend on LAPACK's last bits, so they are compared
by running tests/corpus.py, not here; the refusals in PINNED do not, and
their digests are compared here too."""

import json
from pathlib import Path

import corpus

RECORD = json.loads(
    (Path(__file__).resolve().parents[1] / "CORPUS.json").read_text())

# Refusals whose stdout is empty and whose stderr is fixed library text:
# never numpy's, json's, argparse's or the operating system's, which change
# with their versions, and never a digit that LAPACK's last bits move.  Most
# come before any LAPACK call or inexact arithmetic; the overflow refusals
# (0609, 0610, 0636, 0638 and 0639) name what overflowed, not a value.
# The one exception is 0143-0144: the --input/--json either-or is stated
# once, as an argparse group, so its refusal is argparse's text.  0661 left
# the list: Lambda at its point is no longer refused but printed, as 0.
# 0637 left it too: the distributions read y at its exact scale and print.
PINNED = (
    "0128-classify-refused-nan",
    "0129-classify-refused-inf",
    "0130-classify-refused-shape",
    "0132-classify-refused-scalar-re",
    "0133-classify-refused-dim-str",
    "0134-classify-refused-dim-frac",
    "0135-classify-refused-dim-bool",
    "0136-classify-refused-dim-one",
    "0140-classify-refused-list",
    "0143-classify-refused-no-source",
    "0144-classify-refused-two-sources",
    "0147-classify-refused-tol-nan",
    "0148-classify-refused-tol--1",
    "0149-classify-refused-tol-inf",
    "0307-decompose-bloch-refused-d0,0,0",
    "0308-decompose-bloch-refused-dnan,0,0",
    "0309-decompose-bloch-refused-dinf,0,1",
    "0310-decompose-bloch-refused-d0,0",
    "0311-decompose-bloch-refused-d1,0,0,0",
    "0314-decompose-bloch-refused-no-direction",
    "0338-tensors-lambda-above-cap",
    "0357-tensors-R-above-cap",
    "0376-tensors-distributions-above-cap",
    "0378-tensors-refused-nan",
    "0379-tensors-refused-length",
    "0380-tensors-refused-scalar",
    "0381-tensors-refused-dim-one",
    "0382-tensors-refused-dim-str",
    "0392-constants-refused-1",
    "0393-constants-refused-0",
    "0394-constants-refused--2",
    "0395-constants-refused-13",
    "0396-constants-refused-1000000",
    *[f"{i:04d}-flow-{mode}-refused-{name}"
      for first, mode in ((574, "hamiltonian"), (590, "gradient-eigensolve"))
      for i, name in enumerate(("zero", "other-dim", "length", "nan"), first)],
    "0581-flow-hamiltonian-refused--step0",
    "0582-flow-hamiltonian-refused--stepnan",
    "0583-flow-hamiltonian-refused--step-1e-3",
    "0584-flow-hamiltonian-refused--stepinf",
    *[f"{i:04d}-flow-{mode}-refused{flag}"
      for first, mode in ((585, "hamiltonian"), (601, "gradient-eigensolve"))
      for i, flag in enumerate(("--t-final-1", "--t-finalinf",
                                "--max-iter-1"), first)],
    "0606-flow-refused-grid-cap",
    "0607-flow-refused-grid-inf-ratio",
    "0609-flow-overflow-norm",
    "0610-flow-overflow-phase",
    "0620-ballgrid-refused-1",
    "0621-ballgrid-refused-0",
    "0622-ballgrid-refused-102",
    "0623-ballgrid-refused--5",
    "0627-wire-refused-classify-re-str-bool",
    "0628-wire-refused-classify-im-bool",
    "0629-wire-refused-tensors-y-bool",
    "0630-wire-refused-tensors-y-str",
    "0631-wire-refused-flow-q-bool",
    "0632-wire-refused-flow-p-str",
    "0633-wire-refused-flow-A-str",
    "0636-flow-overflow-phase-late-slice",
    "0638-tensors-lambda-refused-operator-overflow",
    "0639-tensors-R-refused-operator-overflow",
    "0645-option-refused-classify-tol-global",
    "0646-option-refused-flow-seed-global",
    "0650-option-refused-decompose-tol-nan",
)


def test_corpus_exit_codes_and_stderr_words():
    want = [(c["id"], c["exit"], c["stderr_word"])
            for c in RECORD["case_list"]]
    results = corpus.run_corpus()
    got = [(case["id"], result["exit"], corpus.first_word(result["stderr"]))
           for case, result in results]
    # an overflow is refused in the library's words, never numpy's
    # ("overflow encountered in ...") or Python's ("math range error")
    assert [case["id"] for case, result in results
            if "encountered" in result["stderr"]
            or "math range" in result["stderr"]] == []
    assert len(got) >= 500
    assert [g for g, w in zip(got, want) if g != w] == []
    assert len(got) == len(want)


def test_corpus_pins_the_bytes_of_library_refusals():
    want = {c["id"]: c["sha256"] for c in RECORD["case_list"]}
    cases = [case for case in corpus.build_cases() if case["id"] in PINNED]
    assert sorted(case["id"] for case in cases) == sorted(PINNED)
    got = {case["id"]: corpus.case_digest(result)
           for case, result in corpus.run_corpus(cases)}
    assert [i for i in PINNED if got[i] != want[i]] == []


def test_changed_names_each_differing_case():
    new = json.loads(json.dumps(RECORD))
    cases = new["case_list"]
    cases[3]["sha256"] = "0" * 64
    cases[7].update(exit=3, stderr_word="numeric")
    removed = cases.pop(9)
    cases.append({"id": "9999-appended", "exit": 2, "stderr_word": "error",
                  "sha256": "0" * 64})
    assert corpus.changed(RECORD, RECORD) == []
    assert corpus.changed(RECORD, new) == [
        f"{cases[3]['id']} 0 -> 0", f"{cases[7]['id']} 0 -> 3 numeric",
        f"{removed['id']} 0 -> absent", "9999-appended absent -> 2 error"]
    assert corpus.changed(new, RECORD)[1] == f"{cases[7]['id']} 3 numeric -> 0"
