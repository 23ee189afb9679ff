"""Byte-identical CLI output on the committed corpus: every command in
``benchmarks/corpus/commands.json`` runs in-process through
``bmalg.cli.main`` from the repository root, and its stdout and exit
code must equal the recorded ones in ``benchmarks/corpus/expected/``.
The corpus is only read."""

import json
from pathlib import Path

import pytest

from bmalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "benchmarks" / "corpus"
COMMANDS = json.loads((CORPUS / "commands.json").read_text())["commands"]
EXIT_CODES = json.loads((CORPUS / "expected" / "exit_codes.json").read_text())[
    "exit_codes"
]


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_corpus_command_bytes_and_exit_code(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(command["argv"]))
    out = capsys.readouterr().out
    assert code == EXIT_CODES[command["name"]]
    expected = (CORPUS / "expected" / f"{command['name']}.stdout").read_bytes()
    assert out.encode() == expected
