"""A CLI process loads only what its command runs.

numpy is imported by the functions that build arrays, and the verify
suites by ``cmd_verify``, so importing ``bmalg.cli`` loads neither and
nine corpus commands never touch numpy: the exact products they
re-verify are small enough for the pure-Python product kernel.  Each
check runs a fresh interpreter with ``src`` on ``PYTHONPATH``; a shadow
``numpy`` package that refuses to import stands first on the path where
numpy must stay unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "benchmarks" / "corpus"
COMMANDS = {
    c["name"]: c["argv"]
    for c in json.loads((CORPUS / "commands.json").read_text())["commands"]
}
EXIT_CODES = json.loads((CORPUS / "expected" / "exit_codes.json").read_text())[
    "exit_codes"
]
NUMPY_FREE = [
    "rank-budget",
    "dependence-family",
    "dependence-hyper",
    "verify-core",
    "prod-rational",
    "prod-gf7",
    "prod-background",
    "rank-min-bound",
    "inverse-pair",
]


def run_python(args, *path):
    """Run a fresh interpreter from the repository root with ``path``,
    then ``src``, on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [*path, ROOT / "src"])))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


@pytest.fixture(scope="module")
def shadow(tmp_path_factory):
    """A directory whose ``numpy`` package raises ImportError on import."""
    root = tmp_path_factory.mktemp("shadow")
    (root / "numpy").mkdir()
    (root / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is shadowed")\n'
    )
    return root


def test_importing_the_cli_loads_neither_numpy_nor_the_verify_suites():
    code = (
        "import sys, bmalg, bmalg.cli; "
        "print(sorted(m for m in ('numpy', 'bmalg.verify') if m in sys.modules))"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_corpus_commands_run_without_numpy(name, shadow):
    proc = run_python(["-m", "bmalg.cli", *COMMANDS[name]], shadow)
    assert proc.returncode == EXIT_CODES[name], proc.stderr
    assert proc.stdout == (CORPUS / "expected" / f"{name}.stdout").read_bytes()


def test_the_shadow_numpy_stops_a_command_that_builds_arrays(shadow):
    proc = run_python(["-m", "bmalg.cli", *COMMANDS["prod-complex"]], shadow)
    assert proc.returncode != EXIT_CODES["prod-complex"]
    assert b"numpy is shadowed" in proc.stderr


def test_a_direct_search_budget_refusal_loads_no_numpy():
    """The budget is checked before the action cache, so a refusal loads
    no numpy, before the cache fills and after."""
    code = """import sys
from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.errors import BudgetExceededError
from bmalg.nullity import nullity_direct_search

a = Hypermatrix((2, 2, 1), [0, 1, 1, 0], scalars.gf(2))


def refused():
    try:
        nullity_direct_search(a, budget=10)
    except BudgetExceededError:
        return True
    return False


print(refused(), "numpy" in sys.modules)
print(nullity_direct_search(a).nullity, refused())
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["True", "False", "0", "True"]
