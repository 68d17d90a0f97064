"""The seeded differential corpus: every case's exit code and output digests
match ``tests/corpus.json`` (see ``corpus.py``, which also regenerates it)."""

import json

import corpus


def test_every_corpus_case_keeps_its_outcome(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", corpus.COLUMNS)
    with open(corpus.TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    cases = corpus.cases()
    assert list(cases) == list(table)
    differ = [name for name, case in cases.items() if corpus.outcome(*case) != table[name]]
    assert not differ, f"{len(differ)} corpus cases differ: {', '.join(differ)}"
    assert {code for code, *_ in table.values()} == {0, 1, 2, 3}  # every exit code is reached
