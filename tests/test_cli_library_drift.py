"""The CLI reads its defaults, its rank strategy names and its domain
guards from the library, so none of them can drift from what the
library does: every subcommand parses to the library's defaults, the
rank choices are the dispatch table's keys, every ``--help`` works, and
a rank strategy given the wrong domain reports the library's refusal."""

import argparse
import inspect
import json
import random

import pytest

from bmalg import cli, rank, scalars, verify
from bmalg.cli import build_parser, main
from bmalg.core import Hypermatrix
from bmalg.nullity import nullity

# the positional arguments each subcommand needs to parse
REQUIRED = {
    "prod": ["a0.json", "a1.json", "a2.json"],
    "rank": ["h.json"],
    "dependence": ["--hyper", "h.json"],
    "inverse-pair": ["pair.json"],
    "nullity": ["h.json"],
    "verify": ["all"],
}


def default(fn, name):
    return inspect.signature(fn).parameters[name].default


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse(command):
    return build_parser().parse_args([command, *REQUIRED[command]])


def test_every_subcommand_is_covered():
    assert set(subparsers()) == set(REQUIRED)


def test_subcommands_parse_to_the_library_defaults():
    args = parse("rank")
    assert args.budget == default(rank.bm_rank_exhaustive, "budget")
    for name in ("tau", "restarts", "iters", "seed"):
        assert getattr(args, name) == default(rank.generic_rank_pipeline, name), name
    # the witness is read off a shared entry, so no search knob exists
    assert set(vars(parse("dependence"))) == {
        "command", "func", "domain", "tol", "out", "family", "hyper", "subset_size"
    }
    args = parse("nullity")
    for name in ("strategy", "budget", "seed"):
        assert getattr(args, name) == default(nullity, name), name
    assert parse("verify").seed == default(verify.run_suite, "seed")


def test_rank_strategy_choices_are_the_dispatch_table():
    action = next(a for a in subparsers()["rank"]._actions if a.dest == "strategy")
    assert list(action.choices) == list(cli.RANK_STRATEGIES)
    assert action.default in cli.RANK_STRATEGIES


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: bmalg {command}")


LIBRARY_CALLS = {
    "exhaustive-gf": rank.bm_rank_exhaustive,
    "generic-pipeline": rank.generic_rank_pipeline,
}
WRONG_DOMAINS = [
    ("exhaustive-gf", scalars.rational()),
    ("exhaustive-gf", scalars.complex_doubles()),
    ("generic-pipeline", scalars.rational()),
    ("generic-pipeline", scalars.gf(7)),
]


@pytest.mark.parametrize("strategy, dom", WRONG_DOMAINS,
                         ids=[f"{s}-{d.kind}" for s, d in WRONG_DOMAINS])
def test_wrong_domain_rank_strategy_reports_the_library_refusal(tmp_path, capsys,
                                                                strategy, dom):
    h = Hypermatrix.random((2, 2, 2), dom, random.Random(0), nonzero=True)
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    assert main(["rank", str(path), "--strategy", strategy]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    with pytest.raises(ValueError) as refusal:
        LIBRARY_CALLS[strategy](h)
    assert json.loads(lines[0]) == {"error": "ValueError", "message": str(refusal.value)}
