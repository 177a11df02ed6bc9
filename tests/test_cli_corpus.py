"""The byte-identity corpus of ``tests/cli_corpus.py`` holds under each digit limit."""

import cli_corpus


def test_every_entry_gives_its_recorded_outcome():
    assert cli_corpus.check(cli_corpus.load()) == []
