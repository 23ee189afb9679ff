"""Fuzz the CLI through ``main`` with small structured inputs: valid
domains and shapes whose files carry a corrupted entry, a wrong data
length or an extreme value.  Whatever the input, the command exits with
a documented code; on success stdout holds one strict JSON document (no
``NaN`` or ``Infinity``), otherwise stderr holds exactly one JSON line.
An entry that no domain can decode is a parse error.  ``verify`` reads
no input file and is not fuzzed here."""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix, Matrix

DOMAINS = {
    "rational": scalars.rational(),
    "gf:2": scalars.gf(2),
    "gf:3": scalars.gf(3),
    "complex": scalars.complex_doubles(),
}
# entries no domain decodes, then entries some domain decodes
MALFORMED = [None, "x", [], {}, [1.0, 2.0, 3.0], ["1", "2"]]
BAD_ENTRIES = MALFORMED + [
    "1/0", True, -5, 10**30, 10**400, 1e200, 1e-300,
    [1e200, 0.0], [1.7e308, 1.7e308], [1e-300, 0.0], [10**400, 0],
]
# small budgets and solver settings keep every run well under a second
COMMANDS = {
    "prod": lambda f: ["prod", f["hyper"], f["hyper"], f["hyper"]],
    "rank-min-bound": lambda f: ["rank", f["hyper"]],
    "rank-exhaustive": lambda f: ["rank", f["hyper"], "--strategy", "exhaustive-gf",
                                  "--budget", "4096"],
    "rank-pipeline": lambda f: ["rank", f["hyper"], "--strategy", "generic-pipeline",
                                "--restarts", "2", "--iters", "20"],
    "dependence-hyper": lambda f: ["dependence", "--hyper", f["hyper"]],
    "dependence-family": lambda f: ["dependence", "--family", f["family"]],
    "inverse-pair": lambda f: ["inverse-pair", f["pair"]],
    "nullity": lambda f: ["nullity", f["hyper"], "--budget", "4096"],
    "nullity-direct": lambda f: ["nullity", f["hyper"], "--strategy", "direct-search",
                                 "--budget", "4096"],
}


def corrupt(obj, how, entry, at):
    data = obj["data"]
    if how == "entry":
        data[at % len(data)] = entry
    elif how == "short":
        del data[at % len(data)]
    elif how == "long":
        data.append(data[at % len(data)])
    return obj


@st.composite
def cli_runs(draw):
    dom = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    m, n, p = (draw(st.integers(1, 3)) for _ in range(3))
    rng = random.Random(draw(st.integers(0, 2**16)))
    how = draw(st.sampled_from(["none", "entry", "short", "long"]))
    entry = draw(st.sampled_from(BAD_ENTRIES))
    at = draw(st.integers(0, 63))
    hyper = corrupt(Hypermatrix.random((m, n, p), dom, rng).to_json(), how, entry, at)
    mats = [Matrix.random(m, n, dom, rng).to_json() for _ in range(p)]
    family = {"matrices": [corrupt(mats[0], how, entry, at), *mats[1:]]}
    legs = (Hypermatrix.random((m, p, p), dom, rng, nonzero=True).to_json(),
            Hypermatrix.random((p, n, p), dom, rng, nonzero=True).to_json())
    pair = {"A": corrupt(legs[0], how, entry, at), "B": legs[1]}
    command = draw(st.sampled_from(sorted(COMMANDS)))
    malformed = how == "entry" and entry in MALFORMED
    return command, {"hyper": hyper, "family": family, "pair": pair}, malformed


def reject_non_finite(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_every_command_exits_with_a_documented_code(run):
    command, files, malformed = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(COMMANDS[command](paths))
    assert code in {0, 2, 3, 4, 5, 6}
    assert code == 2 or not malformed
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_non_finite)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        json.loads(lines[0])


def complex_file(tmp_path, bad_entry):
    b = Hypermatrix.random((3, 3, 3), scalars.complex_doubles(), random.Random(6),
                           nonzero=True).to_json()
    b["data"][4] = bad_entry
    path = tmp_path / "c.json"
    path.write_text(json.dumps(b))
    return str(path)


@pytest.mark.parametrize("entry", [[1e200, 0.0], [1.7e308, 1.7e308], [1.0, 2.0, 3.0]])
@pytest.mark.parametrize("argv", [
    ["rank"], ["rank", "--strategy", "generic-pipeline"], ["nullity"],
    ["dependence", "--hyper"],
])
def test_entries_the_fuzz_found_exit_2(tmp_path, capsys, entry, argv):
    """An entry whose magnitude overflows (its square, or its absolute
    value) and a complex entry with three components are parse errors,
    not tracebacks or silently truncated values."""
    assert main([*argv, complex_file(tmp_path, entry)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    json.loads(captured.err)
