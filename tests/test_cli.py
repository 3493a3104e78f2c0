import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gordian
from gordian.cli import main
from gordian.graph import phi
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


def test_arcs_past_the_materialization_guard_names_the_override(capsys, monkeypatch):
    monkeypatch.delenv("GORDIAN_MAX_P", raising=False)
    code, doc = run(capsys, "arcs", "--p", "1000001")
    assert code == 1 and doc["status"] == "error"
    assert doc["error"].endswith("; raise GORDIAN_MAX_P to override")


def test_poly_basis_of_a_span_past_the_guard_is_an_error_document(capsys, monkeypatch):
    monkeypatch.delenv("GORDIAN_MAX_P", raising=False)
    code, doc = run(capsys, "poly", "basis", "--poly", "t^-10000000+t^10000000-1")
    assert code == 1 and doc["status"] == "error"
    assert doc["error"] == (
        "polynomial span 20000000 exceeds the materialization guard (1000000); raise GORDIAN_MAX_P to override"
    )


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


def test_rootiso_with_roots_at_both_ends_and_interior_roots(capsys):
    """q = (x + 2)(x + 1)(x - 1)(x - 2): degenerate intervals first and last,
    each interior interval holding its root, and no gap next to +-2."""
    _, doc = run(capsys, "rootiso", "--poly", "t^-4-t^-2-t^2+t^4")
    assert doc["payload"] == {
        "poly": "t^-4-t^-2-t^2+t^4",
        "intervals": [["-2", "-2"], ["-10/9", "-2/3"], ["8/9", "4/3"], ["2", "2"]],
        "sign_pattern": [0, -1, 1, -1, 0],
        "circle_roots": 6,
    }


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


@pytest.mark.parametrize("argv", [("certify", "--x", "0"), ("arcs", "--p", "x"), ("certify-all", "--depth", "-1")])
def test_usage_error_is_an_error_document(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["status"] == "error" and doc["provenance"]["command"] == list(argv)
    assert f"error: {doc['error']}" in captured.err
    # --help still prints the help text and exits 0.
    assert main([argv[0], "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: gordian {argv[0]}")


@pytest.mark.parametrize("value, message", [("abc", "must be an integer, got 'abc'"), ("1", "must be at least 3, got 1")])
def test_bad_materialization_limit_is_domain_error(capsys, monkeypatch, value, message):
    monkeypatch.setenv("GORDIAN_MAX_P", value)
    code, doc = run(capsys, "arcs", "--p", "3")
    assert code == 1 and doc["status"] == "error"
    assert doc["error"] == f"GORDIAN_MAX_P {message}"


# ---------------------------------------------------------------------------
# golden payloads: the signature, gap and detour documents were recorded
# before the torus-product layer moved to integer breakpoints, the rootiso
# documents before circle-root isolation was cached and memoized per point,
# the poly chebyshev documents before format_xpoly was folded into
# format_poly, detour_tree when root gaps moved to a closed form,
# certify_all_depth3 before the sign of D_p moved to an integer kernel; all
# must stay byte-identical

GOLDEN = Path(__file__).parent / "golden"

D3_D5_D7 = "t^-6-3t^-5+6t^-4-9t^-3+12t^-2-14t^-1+15-14t+12t^2-9t^3+6t^4-3t^5+t^6"
D3_D3_D5 = "t^-4-3t^-3+6t^-2-8t^-1+9-8t+6t^2-3t^3+t^4"
FIG3_D5 = "-t^-4+4t^-3-7t^-2+10t^-1-11+10t-7t^2+4t^3-t^4"
# from_basis([-4, 4, 5, 3, -2, -1, -1, -1, -4, 5, 2, -1, 2, 5]): degree 14,
# seven roots of its Chebyshev form in (-2, 2).
GENERAL_14 = (
    "-5t^-14+8t^-13-6t^-11+12t^-9-12t^-8+3t^-7+t^-5-6t^-4+3t^-3+3t^-2+7t^-1-15"
    "+7t+3t^2+3t^3-6t^4+t^5+3t^7-12t^8+12t^9-6t^11+8t^13-5t^14"
)

# Knot files of the detour cases, one serialized knot per line.
DETOUR_FILES = {
    "torus": (
        [generator_knot(3), generator_knot(3) + generator_knot(5), generator_knot(5) + generator_knot(7)],
        [generator_knot(3) + generator_knot(7), generator_knot(9)],
    ),
    "mixed": (
        [
            generator_knot(3, True),
            UNKNOT,
            generator_knot(5, True) + generator_knot(5) + generator_knot(9),
            generator_knot(7, True),
        ],
        [generator_knot(3) + generator_knot(15, True), generator_knot(5) + generator_knot(5) + generator_knot(21)],
    ),
    # Tree knots: the detour generator has the size of the lcm of their parameters.
    "tree": ([phi((0,)), phi((0, 0))], [phi((1,)), phi((0, 1))]),
}

GOLDEN_CASES = {
    "signature_torus": ("signature", "--poly", D3_D5_D7),
    "gap_torus": ("gap", "--poly", D3_D5_D7),
    "signature_repeated": ("signature", "--poly", D3_D3_D5),
    "gap_repeated": ("gap", "--poly", D3_D3_D5),
    "signature_mixed": ("signature", "--poly", FIG3_D5),
    "gap_mixed": ("gap", "--poly", FIG3_D5),
    "rootiso_mixed": ("rootiso", "--poly", FIG3_D5),
    "rootiso_repeated": ("rootiso", "--poly", D3_D3_D5),
    "rootiso_general": ("rootiso", "--poly", GENERAL_14),
    "chebyshev_mixed": ("poly", "chebyshev", "--poly", FIG3_D5),
    "chebyshev_general": ("poly", "chebyshev", "--poly", GENERAL_14),
    "detour_torus": ("detour", "torus"),
    "detour_mixed": ("detour", "mixed"),
    "detour_tree": ("detour", "tree"),
    "certify_all_depth3": ("certify-all", "--depth", "3"),
}


def golden_document(capsys, tmp_path, name):
    """The CLI document of a golden case without its provenance, as the text
    stored in tests/golden/<name>.json."""
    argv = GOLDEN_CASES[name]
    if argv[0] == "detour":
        path, forbidden = DETOUR_FILES[argv[1]]
        files = []
        for label, knots in (("path", path), ("forbidden", forbidden)):
            f = tmp_path / f"{name}_{label}.jsonl"
            f.write_text("".join(k.to_json() + "\n" for k in knots))
            files += [f"--{label}", str(f)]
        argv = ("detour", *files)
    code, doc = run(capsys, *argv)
    doc.pop("provenance")
    return code, json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_payload_matches_golden(capsys, tmp_path, name):
    code, text = golden_document(capsys, tmp_path, name)
    assert code == (1 if name == "signature_repeated" else 0)
    assert text == (GOLDEN / f"{name}.json").read_text()


# ---------------------------------------------------------------------------
# whole processes

SRC = Path(gordian.__file__).resolve().parents[1]


def run_process(code, *args, **env):
    """Run python with gordian's sources on the path; env adds or, with None, removes variables."""
    environ = {**os.environ, "PYTHONPATH": str(SRC)}
    environ.pop("PYTHONINTMAXSTRDIGITS", None)
    environ.update({k: v for k, v in env.items() if v is not None})
    return subprocess.run(
        [sys.executable, *code, *args], capture_output=True, text=True, env=environ, timeout=120
    )


DEPTH_9 = ("certify", "--x", "1,1,1,1,1,1,1,1,1", "--y", "0")


def test_certify_past_the_digit_limit_is_an_error_document():
    """The witness turn of this pair has 13004 characters, more than Python
    converts by default."""
    proc = run_process(("-m", "gordian.cli"), *DEPTH_9)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert "PYTHONINTMAXSTRDIGITS" in doc["error"]


def test_certify_past_the_digit_limit_with_the_override():
    proc = run_process(("-m", "gordian.cli"), *DEPTH_9, PYTHONINTMAXSTRDIGITS="0")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert payload["valid"] is True
    assert len(payload["certificate"]["theta"]) == 13004


def test_embed_past_the_digit_limit_is_an_error_document():
    proc = run_process(("-m", "gordian.cli"), "embed", "--vertex", "1,1,1,1,1,1,1,1,1,1")
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "PYTHONINTMAXSTRDIGITS" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("poly", ["t^" + "1" * 5000, "1" * 5000 + "t"], ids=["exponent", "coefficient"])
def test_poly_past_the_digit_limit_is_an_error_document(poly):
    proc = run_process(("-m", "gordian.cli"), "poly", "normalize", "--poly", poly)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert "PYTHONINTMAXSTRDIGITS" in doc["error"]


REIMPORT = """
import gc, importlib, json, sys, types
for _ in range(3):
    for name in [n for n in sys.modules if n == "gordian" or n.startswith("gordian.")]:
        del sys.modules[name]
    importlib.import_module("gordian").graph.certify_pair((0, 1), (1,))
gc.collect()
live = [m.__name__ for m in gc.get_objects() if isinstance(m, types.ModuleType)]
print(json.dumps(sorted(n for n in live if n == "gordian" or n.startswith("gordian."))))
"""


def test_reimported_copies_of_gordian_are_freed():
    """Nothing global, such as typing's cache of Union aliases, may keep an
    earlier import of the package alive."""
    proc = run_process(("-c", REIMPORT))
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert "gordian.circle" in names
    assert len(names) == len(set(names)), names


def capped_address_space():
    """Run in the child before exec: 1 GiB of address space, 20 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("certify", "--x", ",".join(["0"] * 20), "--y", "1"), "generator index 2097150"),
        (("embed", "--vertex", ",".join(["0"] * 24)), "generator index 33554430"),
        (("certify-all", "--depth", "40"), "certify-all pair count 2417851639225959814529025"),
    ],
    ids=["certify-depth-20", "embed-depth-24", "certify-all-depth-40"],
)
def test_deep_vertex_is_refused_before_the_generator_memo_grows(argv, refused):
    """phi of the two deep vertices asks for p_sequence(index); memoizing
    every smaller p_m ran out of a 1 GiB address space with a MemoryError.
    certify-all at depth 40 built all 2^41 - 1 vertices until it did too."""
    proc = subprocess.run(
        [sys.executable, "-m", "gordian.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
        preexec_fn=capped_address_space,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert f"{refused} exceeds the materialization guard" in doc["error"]
    assert "GORDIAN_MAX_P" in doc["error"]
