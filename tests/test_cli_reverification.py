"""``bmalg nullity`` re-verifies a certificate on the input oriented as
the certificate says, so a misreported transpose count is caught, and
its outer inverse by the sandwich check, and ``bmalg dependence``
re-verifies that an exact witness cancels."""

import dataclasses
import json

import pytest

from bmalg import cli, scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.dependence import SliceDependence
from bmalg.inverse import OuterInversePair

GF2 = scalars.gf(2)


def test_nullity_rejects_a_misreported_orientation(tmp_path, monkeypatch, capsys):
    # one 1 at (1, 1, 0): the honest certificate has nullity 1 and no
    # transposes; on the transposed input its zero slice is not zero
    a = Hypermatrix((2, 2, 2), [0, 0, 0, 0, 0, 0, 1, 0], GF2)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a.to_json()))
    assert cli.main(["nullity", str(path)]) == cli.EXIT_OK
    honest = json.loads(capsys.readouterr().out)
    assert (honest["nullity"], honest["transposes_applied"]) == (1, 0)

    nullity = cli.nullity

    def misreported(*args, **kwargs):
        cert = nullity(*args, **kwargs)
        return dataclasses.replace(cert, transposes_applied=cert.transposes_applied + 1)

    monkeypatch.setattr(cli, "nullity", misreported)
    assert cli.main(["nullity", str(path)]) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "failed re-verification" in captured.err


@pytest.mark.parametrize("dom", [GF2, scalars.complex_doubles()], ids=["gf2", "complex"])
def test_nullity_rejects_a_wrong_outer_inverse(tmp_path, monkeypatch, capsys, dom):
    a = Hypermatrix((2, 2, 2), [1, 2, 1, 1, 2, 1, 1, 2], dom)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a.to_json()))
    assert cli.main(["nullity", str(path)]) == cli.EXIT_OK
    capsys.readouterr()

    nullity = cli.nullity

    def wrong_inverse(*args, **kwargs):
        cert = nullity(*args, **kwargs)
        c, d = cert.outer_inverse.c, cert.outer_inverse.d
        zero_c = Hypermatrix.zeros(c.shape, c.domain)
        return dataclasses.replace(cert, outer_inverse=OuterInversePair(zero_c, d))

    monkeypatch.setattr(cli, "nullity", wrong_inverse)
    assert cli.main(["nullity", str(path)]) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outer inverse failed the sandwich check" in captured.err


def broken(witness):
    """The witness with its first member's y vector doubled, which leaves
    a nonzero residual at every shared entry over GF(7)."""
    dom = scalars.gf(7)
    ys = [[dom.add(v, v) for v in witness.ys[0]], *witness.ys[1:]]
    return dataclasses.replace(witness, ys=ys)


@pytest.mark.parametrize("flag", ["--family", "--hyper"])
def test_dependence_rejects_a_witness_that_does_not_cancel(tmp_path, monkeypatch,
                                                          capsys, flag):
    gf7 = scalars.gf(7)
    slices = [Matrix.from_rows(rows, gf7) for rows in ([[1, 2], [3, 4]], [[5, 6], [0, 1]])]
    h = Hypermatrix.from_function((2, 2, 2), gf7, lambda i, j, k: slices[k][i, j])
    family = {"matrices": [m.to_json() for m in slices]}
    obj = family if flag == "--family" else h.to_json()
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["dependence", flag, str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["dependent"] is True

    find, subset = cli.find_dependence, cli.dependent_depth_subset
    monkeypatch.setattr(cli, "find_dependence", lambda fam: broken(find(fam)))
    monkeypatch.setattr(
        cli, "dependent_depth_subset",
        lambda a, k: SliceDependence((0, 1), broken(subset(a, k).witness)),
    )
    assert cli.main(["dependence", flag, str(path)]) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "failed re-verification" in captured.err
