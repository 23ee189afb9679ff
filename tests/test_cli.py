import contextlib
import io
import json
import os
import random
import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import hyperdet_zero_instance, printed_witness

from bmalg import inverse, products, scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix, Matrix
from bmalg.dependence import combination_residual, witness_is_nontrivial
from bmalg.inverse import random_pair
from bmalg.products import delta_t, kronecker_delta
from bmalg.rank import DecompositionTriple, RankCertificate, delta_sum

RAT = scalars.rational()
GF2 = scalars.gf(2)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_prod_delta(tmp_path):
    d = kronecker_delta(3, RAT)
    f = write_json(tmp_path, "d.json", d.to_json())
    out = str(tmp_path / "out.json")
    assert main(["prod", f, f, f, "--out", out]) == 0
    assert Hypermatrix.from_json(read_json(out)).equals(d)


def test_prod_background_gives_outer_product(tmp_path):
    rng = random.Random(0)
    a0 = Hypermatrix.random((2, 2, 2), RAT, rng)
    a1 = Hypermatrix.random((2, 2, 2), RAT, rng)
    a2 = Hypermatrix.random((2, 2, 2), RAT, rng)
    bg = delta_t(2, 1, RAT)
    files = [
        write_json(tmp_path, f"{n}.json", h.to_json())
        for n, h in [("a0", a0), ("a1", a1), ("a2", a2), ("bg", bg)]
    ]
    out = str(tmp_path / "out.json")
    code = main(["prod", files[0], files[1], files[2], "--background", files[3],
                 "--out", out])
    assert code == 0
    from bmalg.products import outer_product_at

    assert Hypermatrix.from_json(read_json(out)).equals(
        outer_product_at(a0, a1, a2, 1)
    )


def test_prod_conformability_exit_code(tmp_path):
    rng = random.Random(1)
    a0 = Hypermatrix.random((2, 3, 2), RAT, rng)
    a1 = Hypermatrix.random((2, 2, 2), RAT, rng)  # wrong contracted dim
    a2 = Hypermatrix.random((3, 2, 2), RAT, rng)
    files = [
        write_json(tmp_path, f"x{i}.json", h.to_json())
        for i, h in enumerate([a0, a1, a2])
    ]
    assert main(["prod", *files]) == 3


def test_prod_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    d = write_json(tmp_path, "d.json", kronecker_delta(2, RAT).to_json())
    assert main(["prod", str(bad), d, d]) == 2


def test_rank_min_bound_and_exhaustive(tmp_path):
    target = delta_sum(2, 2, GF2)
    f = write_json(tmp_path, "t.json", target.to_json())
    out = str(tmp_path / "min.json")
    assert main(["rank", f, "--strategy", "min-bound", "--out", out]) == 0
    assert read_json(out)["r"] == 2
    out2 = str(tmp_path / "ex.json")
    assert main(["rank", f, "--strategy", "exhaustive-gf", "--out", out2]) == 0
    assert read_json(out2)["r"] == 1


def test_rank_pipeline_and_domain_guard(tmp_path):
    rng = random.Random(2)
    b = Hypermatrix.random((3, 3, 3), scalars.complex_doubles(), rng, nonzero=True)
    f = write_json(tmp_path, "b.json", b.to_json())
    out = str(tmp_path / "cert.json")
    assert main(["rank", f, "--strategy", "generic-pipeline", "--out", out]) == 0
    cert = read_json(out)
    assert cert["r"] == 2
    assert cert["residual"] < 1e-8

    rational_file = write_json(
        tmp_path, "r.json", Hypermatrix.random((2, 2, 2), RAT, rng).to_json()
    )
    assert main(["rank", rational_file, "--strategy", "generic-pipeline"]) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(1, 4)] * 3),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 63), min_size=1, max_size=6),
    st.sets(st.integers(0, 3)),
)
def test_rank_pipeline_with_zero_entries_certifies_the_min_bound(
    shape, seed, zeros, zero_slices
):
    """A complex input with a zero entry, which the rank-one test and the
    depth-slice witness would divide by, gets the identity-pair
    certificate: the CLI exits 0 with r = min(shape), and the printed
    triple reconstructs the input with residual 0.0."""
    b = Hypermatrix.random(shape, scalars.complex_doubles(), random.Random(seed),
                           nonzero=True)
    planted, p = {at % len(b.data) for at in zeros}, shape[2]
    data = [
        0j if at in planted or at % p in zero_slices else v
        for at, v in enumerate(b.data)
    ]
    b = Hypermatrix(shape, data, b.domain)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.json")
        with open(path, "w") as fh:
            json.dump(b.to_json(), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["rank", path, "--strategy", "generic-pipeline"]) == 0
    cert = json.loads(out.getvalue())
    assert cert["r"] == min(shape)
    assert cert["residual"] == 0.0
    triple = DecompositionTriple.from_json(cert["triple"])
    assert RankCertificate("upper-bound", cert["r"], triple).verify(b) == 0.0


def test_rank_pipeline_rejects_a_pinned_tau_beyond_the_depth(tmp_path, capsys):
    b = Hypermatrix.random((3, 3, 2), scalars.complex_doubles(), random.Random(8),
                           nonzero=True)
    f = write_json(tmp_path, "b.json", b.to_json())
    assert main(["rank", f, "--strategy", "generic-pipeline", "--tau", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ShapeError"


def test_rank_budget_exit(tmp_path):
    a = Hypermatrix.random((3, 3, 3), scalars.gf(5), random.Random(3))
    f = write_json(tmp_path, "a.json", a.to_json())
    assert main(["rank", f, "--strategy", "exhaustive-gf", "--budget", "10"]) == 4


def test_dependence_two_slice_exact(tmp_path):
    """All-nonzero exact two-slice inputs take the path ``--family``
    takes: whether or not the hyperdeterminant vanishes, the slices share
    every entry, so the verdict is dependent with a witness that cancels
    exactly."""
    from bmalg.rank import hyperdet_2x2x2

    rng = random.Random(4)
    b = hyperdet_zero_instance(rng)
    generic = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    assert hyperdet_2x2x2(generic) != 0
    for name, h in (("b", b), ("generic", generic)):
        f = write_json(tmp_path, f"{name}.json", h.to_json())
        out = str(tmp_path / f"{name}-dep.json")
        assert main(["dependence", "--hyper", f, "--out", out]) == 0
        report = read_json(out)
        assert report["dependent"] is True
        assert report["method"] == "exhaustive"
        assert report["subset"] == [0, 1]
        assert report["witness"]["residual"] == 0.0
        fam = h.depth_matrices()
        witness = printed_witness(report, RAT)
        assert combination_residual(fam, witness).is_zero()
        assert witness_is_nontrivial(fam, witness)


def test_dependence_subset_size_outside_the_depth_is_rejected(tmp_path, capsys):
    """A subset size above p (or below 1) names no subset of depth
    slices; reporting "not dependent" for it would be a false proof."""
    b = Hypermatrix.from_function((3, 3, 3), GF2, lambda i, j, k: int(k < 2 and i == j))
    f = write_json(tmp_path, "b.json", b.to_json())
    out = tmp_path / "dep.json"

    def run(size):
        argv = ["dependence", "--hyper", f, "--subset-size", size, "--out", str(out)]
        return main(argv)

    assert run("2") == 0
    assert read_json(out)["subset"] == [0, 1]
    out.unlink()
    for size in ("0", "4", "5"):
        assert run(size) == 2
        assert not out.exists()
        assert "ShapeError" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["1", "2", "99"])
def test_dependence_subset_size_with_a_family_is_rejected(tmp_path, capsys, size):
    """``--subset-size`` picks depth slices of ``--hyper``; a family
    names its members itself, so the flag would be silently ignored."""
    m = Matrix.from_function(2, 2, GF2, lambda *_: 1)
    f = write_json(tmp_path, "fam.json", {"matrices": [m.to_json(), m.to_json()]})
    out = tmp_path / "dep.json"
    argv = ["dependence", "--family", f, "--subset-size", size, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "cli", "message": "--subset-size applies to --hyper only"
    }


def test_dependence_family_gf(tmp_path):
    m = Matrix.from_function(2, 2, GF2, lambda *_: 1)
    fam = {"matrices": [m.to_json(), m.to_json()]}
    f = write_json(tmp_path, "fam.json", fam)
    out = str(tmp_path / "out.json")
    assert main(["dependence", "--family", f, "--out", out]) == 0
    report = read_json(out)
    assert report["dependent"] is True
    assert report["method"] == "exhaustive"


def test_dependence_family_honours_domain_and_tol(tmp_path):
    gf7 = scalars.gf(7)
    fam = [Matrix.from_rows([[1, 2], [3, 4]], gf7),
           Matrix.from_rows([[5, 6], [0, 1]], gf7)]
    f = write_json(tmp_path, "fam.json", {"matrices": [m.to_json() for m in fam]})
    out = str(tmp_path / "out.json")
    assert main(["dependence", "--family", f, "--domain", "complex", "--out", out]) == 0
    report = read_json(out)
    assert report["method"] == "numeric"
    assert report["dependent"] is True

    # the members share only entries of modulus 1e-3, which --tol 1e-2 zeroes
    small = Matrix.from_rows([[1e-3, 0], [0, 1e-3]], scalars.complex_doubles())
    f2 = write_json(tmp_path, "small.json", {"matrices": [small.to_json()] * 2})
    assert main(["dependence", "--family", f2, "--out", out]) == 0
    assert read_json(out)["dependent"] is True
    assert main(["dependence", "--family", f2, "--tol", "1e-2", "--out", out]) == 0
    assert read_json(out)["dependent"] is None


def test_dependence_family_rational_is_exact(tmp_path):
    """Rational families are answered exactly: a shared nonzero entry
    gives a witness with rational coefficients, none proves independence."""
    shared = [Matrix.from_rows([[1, 0], [Fraction(2, 3), 0]], RAT),
              Matrix.from_rows([[0, 0], [5, 7]], RAT)]
    f = write_json(tmp_path, "fam.json", {"matrices": [m.to_json() for m in shared]})
    out = str(tmp_path / "out.json")
    assert main(["dependence", "--family", f, "--out", out]) == 0
    report = read_json(out)
    assert report["dependent"] is True
    assert report["method"] == "exhaustive"
    assert report["witness"]["x"] == [["0/1", "1/1"], ["0/1", "1/1"]]
    assert report["witness"]["y"] == [["1/1", "0/1"], ["-2/15", "0/1"]]
    assert report["witness"]["residual"] == 0.0

    disjoint = [Matrix.from_rows([[1, 0], [0, 0]], RAT),
                Matrix.from_rows([[0, Fraction(1, 2)], [3, 0]], RAT)]
    f2 = write_json(tmp_path, "fam2.json", {"matrices": [m.to_json() for m in disjoint]})
    assert main(["dependence", "--family", f2, "--out", out]) == 0
    assert read_json(out) == {"dependent": False, "method": "exhaustive", "witness": None}


def test_inverse_pair_roundtrip(tmp_path):
    rng = random.Random(5)
    pair = random_pair(2, 2, 2, RAT, rng)
    f = write_json(tmp_path, "pair.json", pair.to_json())
    out = str(tmp_path / "inv.json")
    assert main(["inverse-pair", f, "--out", out]) == 0
    report = read_json(out)
    assert report["invertible"] is True
    assert report["diagnostics"]["sandwich_residual"] == 0.0

    zeroed = Hypermatrix.from_function(
        (2, 2, 2), RAT, lambda i, t, k: 0 if t == 0 else pair.a[i, t, k]
    )
    broken = {"A": zeroed.to_json(), "B": pair.b.to_json()}
    f2 = write_json(tmp_path, "broken.json", broken)
    out2 = str(tmp_path / "inv2.json")
    assert main(["inverse-pair", f2, "--out", out2]) == 0
    report2 = read_json(out2)
    assert report2["invertible"] is False
    assert report2["diagnostics"]["singular_block"] == [0, 0]


def test_inverse_pair_flattens_an_invertible_pair_once(tmp_path, monkeypatch, capsys):
    """One run of the block loop decides a pair, invertible or not; a
    pair that is not invertible prints the report of ``pair_invertible``
    as its diagnostics: here a singular block, then a slice that does
    not factor."""
    gf7 = scalars.gf(7)
    pair = random_pair(2, 2, 2, gf7, random.Random(3))
    singular = random_pair(2, 2, 2, RAT, random.Random(5))
    zeroed = Hypermatrix.from_function(
        (2, 2, 2), RAT, lambda i, t, k: 0 if t == 0 else singular.a[i, t, k]
    )
    rng = random.Random(0)
    dense = [Hypermatrix.random((2, 2, 2), gf7, rng, nonzero=True) for _ in range(2)]
    calls = []
    blocks = inverse._invertible_blocks

    def counted(*args):
        calls.append(args)
        return blocks(*args)

    monkeypatch.setattr(inverse, "_invertible_blocks", counted)
    f = write_json(tmp_path, "pair.json", pair.to_json())
    assert main(["inverse-pair", f]) == 0
    assert json.loads(capsys.readouterr().out)["invertible"] is True
    assert len(calls) == 1
    for broken in (inverse.HyperPair(zeroed, singular.b), inverse.HyperPair(*dense)):
        report = inverse.pair_invertible(broken).to_json()
        f = write_json(tmp_path, "broken.json", broken.to_json())
        calls.clear()
        assert main(["inverse-pair", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert out == {"invertible": False, "C": None, "D": None, "diagnostics": report}
    assert report["bad_minor"] is not None


def test_nullity_command(tmp_path):
    target = delta_sum(2, 1, GF2)
    f = write_json(tmp_path, "t.json", target.to_json())
    out = str(tmp_path / "nul.json")
    assert main(["nullity", f, "--strategy", "direct-search", "--out", out]) == 0
    assert read_json(out)["nullity"] == 1
    out2 = str(tmp_path / "nul2.json")
    assert main(["nullity", f, "--strategy", "via-rank", "--out", out2]) == 0
    assert read_json(out2)["nullity"] == 1


def test_nullity_via_rank_budget_exit(tmp_path):
    f = write_json(tmp_path, "t.json", delta_sum(2, 1, GF2).to_json())
    assert main(["nullity", f, "--strategy", "via-rank", "--budget", "10"]) == 4


def test_nullity_rechecks_a_zero_input_claim_exactly(tmp_path, capsys):
    """The library reads complex entries at or below the tolerance as
    zero, so it certifies a tiny nonzero input as the zero input; the
    CLI re-checks that claim entry by entry and exits 5.  A zero input
    still exits 0."""
    cplx = scalars.complex_doubles()
    b = Hypermatrix.random((3, 3, 3), cplx, random.Random(1), nonzero=True)
    tiny = Hypermatrix(b.shape, [v * 1e-12 for v in b.data], cplx)
    f = write_json(tmp_path, "tiny.json", tiny.to_json())
    assert main(["nullity", f]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero-input certificate failed re-verification" in captured.err
    zero = write_json(tmp_path, "zero.json", Hypermatrix.zeros((3, 3, 3), cplx).to_json())
    assert main(["nullity", zero]) == 0
    assert json.loads(capsys.readouterr().out)["strategy"] == "zero-input"


def test_verify_command(capsys):
    assert main(["verify", "core", "--seed", "1"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert all(res["passed"] for res in lines)
    assert main(["verify", "nosuchsuite"]) == 2


def test_determinism_same_seed_same_bytes(tmp_path):
    rng = random.Random(6)
    b = Hypermatrix.random((3, 3, 3), scalars.complex_doubles(), rng, nonzero=True)
    f = write_json(tmp_path, "b.json", b.to_json())
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["rank", f, "--strategy", "generic-pipeline", "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["rank", f, "--strategy", "generic-pipeline", "--seed", "7",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_domain_cast_flag(tmp_path):
    # an integer-entried rational file analyzed over GF(2) and over complex
    target = delta_sum(2, 2, RAT)
    f = write_json(tmp_path, "t.json", target.to_json())
    out = str(tmp_path / "gf.json")
    assert main(["rank", f, "--strategy", "exhaustive-gf", "--domain", "gf:2",
                 "--out", out]) == 0
    assert read_json(out)["r"] == 1

    rng = random.Random(7)
    b = Hypermatrix.random((3, 3, 3), RAT, rng, nonzero=True)
    f2 = write_json(tmp_path, "b.json", b.to_json())
    out2 = str(tmp_path / "pipe.json")
    assert main(["rank", f2, "--strategy", "generic-pipeline", "--domain",
                 "complex", "--tol", "1e-9", "--out", out2]) == 0
    assert read_json(out2)["r"] == 2

    # complex entries cannot be cast back to an exact domain
    c = Hypermatrix.random((2, 2, 2), scalars.complex_doubles(), rng)
    f3 = write_json(tmp_path, "c.json", c.to_json())
    assert main(["rank", f3, "--strategy", "min-bound", "--domain", "rational"]) == 2

    # bad domain strings are parse errors
    assert main(["rank", f, "--strategy", "min-bound", "--domain", "gf:6"]) == 2


def test_domain_cast_of_rationals_into_gf_is_p_times_the_inverse_of_d(tmp_path, capsys):
    half, one, seventh = (
        write_json(tmp_path, f"{name}.json", Hypermatrix((1, 1, 1), [v], RAT).to_json())
        for name, v in [("half", Fraction(1, 2)), ("one", 1), ("seventh", Fraction(1, 7))]
    )
    out = str(tmp_path / "out.json")
    assert main(["prod", half, one, one, "--domain", "gf:7", "--out", out]) == 0
    assert read_json(out)["data"] == [4]
    capsys.readouterr()
    assert main(["prod", seventh, one, one, "--domain", "gf:7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "not invertible mod 7" in json.loads(lines[0])["message"]


GOOD_HYPER = {"domain": {"kind": "rational"}, "shape": [1, 1, 1], "data": ["1/1"]}
MALFORMED_HYPERS = {
    "int-data": {**GOOD_HYPER, "data": 5},
    "string-modulus": {"domain": {"kind": "gf", "q": "7"}, "shape": [1, 1, 1],
                       "data": [1]},
    "null-shape": {**GOOD_HYPER, "shape": None},
    "top-level-list": [1, 2],
    "short-complex-entry": {"domain": {"kind": "complex"}, "shape": [1, 1, 1],
                            "data": [[1]]},
    "null-rational-entry": {**GOOD_HYPER, "data": [None]},
    "unknown-domain-kind": {"domain": {"kind": "quaternion"}, "shape": [1, 1, 1],
                            "data": [[1, 0]]},
    "float-modulus": {"domain": {"kind": "gf", "q": 7.0}, "shape": [1, 1, 1],
                      "data": [1]},
    "non-integral-gf-entry": {"domain": {"kind": "gf", "q": 7}, "shape": [1, 1, 1],
                              "data": [1.5]},
}
MALFORMED_RUNS = [
    *(pytest.param(cmd, payload, id=f"{cmd}-{name}")
      for cmd in ("rank", "prod", "nullity")
      for name, payload in MALFORMED_HYPERS.items()),
    pytest.param("dependence", {"matrices": 5}, id="dependence-int-family"),
    pytest.param("inverse-pair", {"A": 5, "B": 6}, id="inverse-pair-int-legs"),
]


@pytest.mark.parametrize("command, payload", MALFORMED_RUNS)
def test_malformed_input_exits_2_with_one_json_line(tmp_path, capsys, command, payload):
    """A malformed file is a parse error: exit 2, nothing on stdout and
    one JSON diagnostic line on stderr, not a traceback."""
    f = write_json(tmp_path, "bad.json", payload)
    args = {"prod": [f, f, f], "dependence": ["--family", f]}.get(command, [f])
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "cli"


def complex_file(tmp_path, bad_entry):
    b = Hypermatrix.random((3, 3, 3), scalars.complex_doubles(), random.Random(6),
                           nonzero=True).to_json()
    b["data"][4] = bad_entry
    return write_json(tmp_path, "c.json", b)


NAN = float("nan")
NON_FINITE_RUNS = [
    pytest.param([NAN, 0.0], ["rank", "--strategy", "generic-pipeline"],
                 id="rank-pipeline-nan-entry"),
    pytest.param([NAN, 0.0], ["rank", "--strategy", "min-bound"],
                 id="rank-min-bound-nan-entry"),
    pytest.param([1.0, float("-inf")], ["rank", "--strategy", "min-bound"],
                 id="rank-min-bound-inf-entry"),
    pytest.param([NAN, 0.0], ["nullity"], id="nullity-nan-entry"),
    pytest.param([1.0, 0.0], ["rank", "--strategy", "generic-pipeline", "--tol", "nan"],
                 id="rank-pipeline-nan-tol"),
]


@pytest.mark.parametrize("entry, argv", NON_FINITE_RUNS)
def test_non_finite_input_exits_2_with_one_json_line(tmp_path, capsys, entry, argv):
    f = complex_file(tmp_path, entry)
    assert main([argv[0], f, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "non-finite" in json.loads(lines[0])["message"]


@pytest.mark.parametrize("background", [False, True])
def test_prod_overflow_exits_2_naming_the_first_non_finite_entry(
    tmp_path, capsys, background
):
    """Products that overflow complex doubles are not printed as
    ``Infinity``/``NaN``, which is not strict JSON and which bmalg
    itself refuses on input."""
    big = Hypermatrix.random((3, 3, 3), scalars.complex_doubles(), random.Random(6),
                             nonzero=True).to_json()
    big["data"][0] = [1e200, 0.0]
    f = write_json(tmp_path, "big.json", big)
    argv = ["prod", f, f, f] + (["--background", f] if background else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["message"]
    assert message.startswith("product entry (0, 0, 0) is not finite")


@pytest.mark.parametrize("background", [False, True])
def test_prod_overflow_on_the_array_kernel_exits_2(tmp_path, capsys, background):
    """11x11x11 legs sum 11^4 multiply-adds, above SMALL_CONTRACTION, so
    the complex sums run on numpy arrays; they overflow without a
    RuntimeWarning and report the first non-finite entry."""
    assert 11**4 > products.SMALL_CONTRACTION
    big = Hypermatrix.random((11, 11, 11), scalars.complex_doubles(), random.Random(6),
                             nonzero=True).to_json()
    big["data"][0] = [1e200, 0.0]
    f = write_json(tmp_path, "big.json", big)
    argv = ["prod", f, f, f] + (["--background", f] if background else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["message"]
    assert message.startswith("product entry (0, 0, 0) is not finite")


def scaled_json(h, factor):
    return Hypermatrix(h.shape, [v * factor for v in h.data], h.domain).to_json()


OVERFLOW_RUNS = [
    pytest.param(["rank", "--strategy", "generic-pipeline"], "Hypermatrix",
                 id="rank-pipeline"),
    pytest.param(["nullity"], "Hypermatrix", id="nullity"),
    pytest.param(["inverse-pair"], "Matrix", id="inverse-pair"),
]


@pytest.mark.parametrize("argv, cls", OVERFLOW_RUNS)
def test_norm_overflow_exits_2_naming_the_entry(tmp_path, capsys, argv, cls):
    """Finite entries whose squares overflow: the one JSON line names the
    class, the shape, the entry and its magnitude instead of
    ``(34, 'Numerical result out of range')``."""
    dom = scalars.complex_doubles()
    rng = random.Random(3)
    if argv[0] == "inverse-pair":
        pair = random_pair(2, 2, 2, dom, rng)
        obj = {"A": scaled_json(pair.a, 1e150), "B": scaled_json(pair.b, 1e150)}
    else:
        obj = scaled_json(Hypermatrix.random((3, 3, 3), dom, rng, nonzero=True), 1e160)
    f = write_json(tmp_path, "huge.json", obj)
    assert main([argv[0], f, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == "OverflowError"
    assert report["message"].startswith(f"{cls} of shape (")
    assert "entry 0 (magnitude " in report["message"]
    assert "overflows the Frobenius norm" in report["message"]
