import json
from fractions import Fraction

import pytest

from gordian.cli import main
from gordian.knots import UNKNOT, generator_knot
from gordian.laurent import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_poly_torus(capsys):
    code, doc = run(capsys, "poly", "torus", "--p", "3")
    assert code == 0 and doc["status"] == "ok"
    assert doc["payload"]["poly"] == "t^-1-1+t"
    assert doc["provenance"]["version"]


def test_poly_torus_rejects_even_p(capsys):
    code, doc = run(capsys, "poly", "torus", "--p", "4")
    assert code == 1
    assert doc["status"] == "error" and "odd" in doc["error"]


def test_usage_error_exit_code(capsys):
    assert main(["poly", "torus"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_poly_normalize_basis_frombasis_chebyshev(capsys):
    fig3 = "-t^-2+3t^-1-3+3t-t^2"
    code, doc = run(capsys, "poly", "normalize", "--poly", fig3)
    assert code == 0 and doc["payload"]["normalized"] is True
    code, doc = run(capsys, "poly", "basis", "--poly", fig3)
    assert doc["payload"]["coeffs"] == [-1, 1]
    code, doc = run(capsys, "poly", "frombasis", "--coeffs", "-1,1")
    assert doc["payload"]["poly"] == fig3
    code, doc = run(capsys, "poly", "chebyshev", "--poly", fig3)
    assert doc["payload"]["coeffs"] == [-1, 3, -1]
    assert doc["payload"]["poly_in_x"] == "-x^2+3x-1"


def test_payload_round_trips(capsys):
    _, doc = run(capsys, "poly", "torus", "--p", "9")
    text = doc["payload"]["poly"]
    assert str(parse_poly(text)) == text
    _, doc = run(capsys, "witness", "--ps", "3,15", "--signs", "-1,1")
    theta = Fraction(doc["payload"]["theta"])
    assert str(theta) == doc["payload"]["theta"]


def test_arcs(capsys):
    code, doc = run(capsys, "arcs", "--p", "3")
    assert doc["payload"]["arcs"] == [["1/6", "5/6"]]
    assert doc["payload"]["measure"] == "2/3"


def test_sign_at(capsys):
    _, doc = run(capsys, "sign-at", "--p", "3", "--theta", "2/5")
    assert doc["payload"]["sign"] == -1


def test_witness_validates(capsys):
    _, doc = run(capsys, "witness", "--ps", "3,15,105", "--signs", "-1,1,-1")
    assert doc["payload"]["validated"] is True
    code, doc = run(capsys, "witness", "--ps", "3,5", "--signs", "1,-1")
    assert code == 1 and doc["status"] == "error"


def test_signature_and_rootiso_and_gap(capsys):
    _, doc = run(capsys, "signature", "--poly", "t^-1-1+t")
    assert doc["payload"]["signature"] == {"breakpoints": ["1/6", "5/6"], "values": [2, 0]}
    _, doc = run(capsys, "rootiso", "--poly", "-t^-2+3t^-1-3+3t-t^2")
    assert doc["payload"]["circle_roots"] == 2
    assert len(doc["payload"]["intervals"]) == 1
    _, doc = run(capsys, "gap", "--poly", "t^-1-1+t")
    assert doc["payload"] == {"poly": "t^-1-1+t", "gap": "1/3", "exact": True}


def test_embed(capsys):
    from gordian.graph import phi
    from gordian.knots import FormalKnot

    _, doc = run(capsys, "embed", "--vertex", "0")
    assert doc["payload"]["knot"] == [
        {"p": "15", "mirrored": False, "multiplicity": 1},
        {"p": "105", "mirrored": True, "multiplicity": 1},
    ]
    assert FormalKnot.from_records(doc["payload"]["knot"]) == phi((0,))
    _, doc = run(capsys, "embed", "--vertex", "root")
    assert doc["payload"]["knot"] == []


def test_certify(capsys):
    _, doc = run(capsys, "certify", "--x", "0", "--y", "1")
    cert = doc["payload"]["certificate"]
    assert cert["lower"] == 2 and cert["upper"] == 4
    assert cert["discrepancy"] is True
    assert doc["payload"]["valid"] is True


def test_certify_all_depth_two(capsys):
    code, doc = run(capsys, "certify-all", "--depth", "2")
    assert code == 0
    assert doc["payload"]["pairs"] == 21
    assert doc["payload"]["all_valid"] is True
    for cert in doc["payload"]["certificates"]:
        assert cert["valid"] is True


def test_detour_files(capsys, tmp_path):
    path_file = tmp_path / "path.jsonl"
    forb_file = tmp_path / "forbidden.jsonl"
    path_file.write_text(UNKNOT.to_json() + "\n" + generator_knot(3).to_json() + "\n")
    forb_file.write_text((generator_knot(3) + generator_knot(5)).to_json() + "\n")
    code, doc = run(capsys, "detour", "--path", str(path_file), "--forbidden", str(forb_file))
    assert code == 0
    assert doc["payload"]["verified"] is True
    assert doc["payload"]["plan"]["detour_p"] == "17"
    code, doc = run(capsys, "detour", "--path", str(path_file), "--forbidden", str(path_file))
    assert code == 1  # endpoints are forbidden


def test_missing_file_is_domain_error(capsys):
    code, doc = run(capsys, "detour", "--path", "/nonexistent", "--forbidden", "/nonexistent")
    assert code == 1 and doc["status"] == "error"


@pytest.mark.parametrize(
    "bad_line, cause",
    [
        ("not json", "JSONDecodeError"),
        ('{"p": 3}', "AttributeError"),
        ('[{"mirrored": false, "multiplicity": 1}]', "KeyError"),
        ("3", "TypeError"),
        ('[{"p": "x", "mirrored": false}]', "ValueError"),
    ],
)
def test_bad_knot_line_is_domain_error_naming_file_and_line(capsys, tmp_path, bad_line, cause):
    good = tmp_path / "good.jsonl"
    bad = tmp_path / "bad.jsonl"
    good.write_text(UNKNOT.to_json() + "\n" + generator_knot(3).to_json() + "\n")
    bad.write_text(UNKNOT.to_json() + "\n\n" + bad_line + "\n")
    for flags in (("--path", str(bad), "--forbidden", str(good)), ("--path", str(good), "--forbidden", str(bad))):
        code, doc = run(capsys, "detour", *flags)
        assert code == 1 and doc["status"] == "error"
        assert f"{bad}, line 3:" in doc["error"] and cause in doc["error"]


def test_certify_all_negative_depth_is_usage_error(capsys):
    assert main(["certify-all", "--depth", "-1"]) == 2
    assert main(["certify-all", "--depth", "two"]) == 2
    assert "non-negative" in capsys.readouterr().err
