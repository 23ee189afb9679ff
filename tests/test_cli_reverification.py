"""``bmalg nullity`` re-verifies a certificate on the input oriented as
the certificate says, so a misreported transpose count is caught."""

import dataclasses
import json

from bmalg import cli, scalars
from bmalg.core import Hypermatrix

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
