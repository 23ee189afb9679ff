"""A CLI process loads only what its command runs.

``import bmalg`` loads the product layer (``core``, ``errors``,
``products``, ``scalars``) and no procedure module: ``dependence``,
``inverse``, ``nullity`` and ``rank`` load at the first use of one of
their names, and each CLI command imports the modules it calls, so
every corpus command is pinned to the ``bmalg`` modules it may load.
The package still binds every name a star-import gave before it loaded
lazily, and ``bmalg.nullity`` stays the function in every import order.

numpy is imported by the functions that build arrays, and the verify
suites by ``cmd_verify``, so importing ``bmalg.cli`` loads neither and
13 of the 14 corpus commands never touch numpy: the products they
compute or re-verify, complex ones included, are small enough for the
pure-Python product kernel, and the GF(q) rank and nullity searches run
on plain lists and int bitsets.  ``rank-generic-pipeline`` alone builds
arrays, for its least-squares solves.  Each check runs a fresh
interpreter with ``src`` on ``PYTHONPATH``; a shadow ``numpy`` package
that refuses to import stands first on the path where numpy must stay
unloaded.
"""

import importlib
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bmalg
from bmalg.inverse import (
    HyperPair,
    random_pair,
    recover_outer_inverse,
    sandwich_check,
    unit_probe_basis,
)
from bmalg.scalars import complex_doubles, gf, rational

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
    "prod-complex",
    "prod-background",
    "rank-min-bound",
    "inverse-pair",
    "rank-exhaustive-gf",
    "nullity-via-rank",
    "nullity-direct-search",
]


# the modules ``import bmalg`` loads, and those each corpus command may
# load beyond them
PACKAGE = ["bmalg.core", "bmalg.errors", "bmalg.products", "bmalg.scalars"]
FOOTPRINT = {
    "prod-rational": [],
    "prod-gf7": [],
    "prod-complex": [],
    "prod-background": [],
    "rank-min-bound": ["bmalg.rank"],
    "rank-exhaustive-gf": ["bmalg.rank"],
    "rank-generic-pipeline": ["bmalg.rank"],
    "rank-budget": ["bmalg.rank"],
    "dependence-family": ["bmalg.dependence"],
    "dependence-hyper": ["bmalg.dependence"],
    "inverse-pair": ["bmalg.inverse"],
    "nullity-via-rank": ["bmalg.inverse", "bmalg.nullity", "bmalg.rank"],
    "nullity-direct-search": ["bmalg.inverse", "bmalg.nullity", "bmalg.rank"],
    "verify-core": ["bmalg.dependence", "bmalg.inverse", "bmalg.nullity", "bmalg.rank",
                    "bmalg.verify"],
}
# runs ``bmalg.cli`` as ``python -m`` does and prints the bmalg modules
# loaded as the last stderr line, whatever the exit code
FOOTPRINT_PROBE = """import json, runpy, sys
try:
    runpy.run_module("bmalg.cli", run_name="__main__")
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("bmalg."))),
          file=sys.stderr)
"""
# what ``from bmalg import *`` bound before the procedure modules loaded
# lazily, the submodule names among them
PUBLIC = [
    "DecompositionTriple", "DiagonalSystem", "DiagonalWitness", "HyperPair",
    "Hypermatrix", "Matrix", "NullityCertificate", "OuterInversePair",
    "RankCertificate", "ScalarDomain", "SliceSpec", "bm_product",
    "bm_rank_exhaustive", "bm_rank_one", "combination_residual", "complex_doubles",
    "core", "cp_embed", "cp_rank_exhaustive", "delta_sum", "delta_sum_certificate",
    "delta_t", "dependence", "dependent_depth_subset", "dependent_slice_family",
    "depth_slice_witness", "determinantal_residual", "diag", "eliminate_round",
    "errors", "flatten", "general_bm_product", "general_linear_residual",
    "generic_rank_bound", "generic_rank_pipeline", "gf", "hyper_nullity_necessity",
    "hyper_nullity_sufficiency", "hyper_slice_reduce", "hyperdet_2x2x2",
    "identity_pair", "inverse", "is_dependent_exact", "is_dependent_numeric",
    "kronecker_delta", "matrix_nullity_necessity", "matrix_nullity_sufficiency",
    "matrix_slice_reduce", "nullity", "outer_product", "pair_invertible",
    "products", "rank", "rank_feasibility", "rank_upper_min", "rational",
    "reassemble_depth", "recover_outer_inverse", "sandwich_check", "scalars",
    "scaling_inverse", "scaling_pair", "two_slice_witness",
]
SUBMODULES = ["core", "dependence", "errors", "inverse", "products", "rank", "scalars"]


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


def test_importing_the_package_loads_no_procedure_module():
    listing = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bmalg.'))))"
    proc = run_python(["-c", f"import json, sys, bmalg; {listing}"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PACKAGE


def test_every_corpus_command_has_a_pinned_footprint():
    assert set(FOOTPRINT) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(FOOTPRINT))
def test_corpus_commands_load_only_their_pinned_modules(name):
    proc = run_python(["-c", FOOTPRINT_PROBE, *COMMANDS[name]])
    assert proc.returncode == EXIT_CODES[name], proc.stderr
    assert proc.stdout == (CORPUS / "expected" / f"{name}.stdout").read_bytes()
    loaded = json.loads(proc.stderr.decode().splitlines()[-1])
    assert set(loaded) <= {*PACKAGE, *FOOTPRINT[name]}


def test_star_import_binds_the_pinned_names():
    names = {}
    exec("from bmalg import *", names)
    del names["__builtins__"]
    assert sorted(names) == PUBLIC
    assert sorted(bmalg.__all__) == PUBLIC
    modules = sorted(k for k, v in names.items() if isinstance(v, types.ModuleType))
    assert modules == SUBMODULES
    assert names["nullity"] is importlib.import_module("bmalg.nullity").nullity


def test_pinned_names_are_listed_and_resolve_on_first_use():
    """In a fresh interpreter ``dir`` lists every pinned name before any
    procedure module loads, and each name then resolves to what its
    defining module holds."""
    code = f"""import json, sys
import bmalg
listed = [n for n in {PUBLIC!r} if n in dir(bmalg)]
before = sorted(m for m in sys.modules if m.startswith("bmalg."))
wrong = []
for name in {PUBLIC!r}:
    value = getattr(bmalg, name)
    if name in {SUBMODULES!r}:
        ok = value is sys.modules["bmalg." + name]
    else:
        ok = any(getattr(m, name, None) is value for k, m in list(sys.modules.items())
                 if k.startswith("bmalg."))
    if not ok:
        wrong.append(name)
print(json.dumps([len(listed), before, wrong]))
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [len(PUBLIC), PACKAGE, []]


# names the package never bound: a dependence function it does not
# re-export, a products constant, an import of its modules and a typo
@pytest.mark.parametrize("name", ["find_dependence", "SMALL_CONTRACTION", "numpy",
                                  "nulity"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(bmalg, name)
    assert not hasattr(bmalg, name)


# each statement reaches bmalg.nullity first, then the four forms are read
FIRST_USES = [
    "import bmalg; bmalg.nullity",
    "from bmalg import nullity",
    "import bmalg.nullity as N",
    "import bmalg.nullity",
    "from bmalg.nullity import nullity",
    "importlib.import_module('bmalg.nullity')",
    "import bmalg.verify",
    "from bmalg import *",
]


@pytest.mark.parametrize("first", FIRST_USES)
def test_nullity_is_the_function_in_every_import_order(first):
    """The attribute ``bmalg.nullity``, ``from bmalg import nullity`` and
    ``import bmalg.nullity as N`` give the function, and
    ``importlib.import_module("bmalg.nullity")`` the module, whether the
    submodule loads before the package attribute is read or after."""
    code = f"""import importlib, types
{first}
import bmalg
import bmalg.nullity as N
from bmalg import nullity
module = importlib.import_module("bmalg.nullity")
print(isinstance(module, types.ModuleType), module.__name__,
      bmalg.nullity is module.nullity, N is module.nullity, nullity is module.nullity,
      type(module.nullity).__name__)
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == [
        "True", "bmalg.nullity", "True", "True", "True", "function"
    ]


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


@pytest.mark.parametrize("dom, n", [(rational(), 3), (gf(7), 3), (complex_doubles(), 3),
                                    (complex_doubles(), 5)],
                         ids=["rational", "gf7", "complex-3", "complex-5"])
def test_inverse_pair_rechecks_run_without_numpy(dom, n, shadow, tmp_path):
    """The CLI re-checks a recovered n x n x n inverse on all n^3 unit
    probes.  Over Q and GF(q) the check composes the fibre action and
    runs no product; over C each probe's two products, of n^4 <= 625
    multiply-adds here, stay in the pure-Python kernel.  So neither
    builds an array, and the residual is the one the check gives in
    process."""
    pair = random_pair(n, n, n, dom, random.Random(0))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_json()))
    proc = run_python(["-m", "bmalg.cli", "inverse-pair", str(path)], shadow)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["invertible"] is True
    pair = HyperPair.from_json(json.loads(path.read_text()))
    residual = sandwich_check(pair, recover_outer_inverse(pair),
                              unit_probe_basis(n, n, n, pair.domain))
    assert report["diagnostics"]["sandwich_residual"] == residual
    if dom.is_exact:
        assert residual == 0.0


def test_the_shadow_numpy_stops_a_command_that_builds_arrays(shadow):
    proc = run_python(["-m", "bmalg.cli", *COMMANDS["rank-generic-pipeline"]], shadow)
    assert proc.returncode != EXIT_CODES["rank-generic-pipeline"]
    assert b"numpy is shadowed" in proc.stderr


def test_the_cp_rank_search_runs_without_numpy(shadow):
    """The CP search walks plain lists: delta_sum(3, 3) over GF(2), whose
    CP rank is 3, is certified with numpy unimportable."""
    code = """from bmalg import scalars
from bmalg.rank import cp_rank_exhaustive, delta_sum

print(cp_rank_exhaustive(delta_sum(3, 3, scalars.gf(2))).r)
"""
    proc = run_python(["-c", code], shadow)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["3"]


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
