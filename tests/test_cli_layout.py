"""The printed layout of every subcommand: text lines, JSON key order, verify's
report depth and the flags each action kind rejects."""

import json

import pytest
from test_cli import A4_DOC, PM_DOC, SL2_DOC, TORUS_DOC, TRIVIAL_DOC, run, write

DOCS = {"torus": TORUS_DOC, "a4": A4_DOC, "pm": PM_DOC,
        "trivial": TRIVIAL_DOC, "sl2": SL2_DOC}


def text_lines(tmp_path, capsys, argv):
    """stdout lines without the closing elapsed line; the exit code must be 0."""
    code, out, err = run(capsys, argv[:1] + [write(tmp_path, DOCS[argv[1]])] + argv[2:])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1].startswith("elapsed: ")
    return lines[:-1]


def json_payload(tmp_path, capsys, argv):
    code, out, err = run(capsys, argv[:1] + [write(tmp_path, DOCS[argv[1]])]
                         + argv[2:] + ["--output", "json"])
    assert err == ""
    return code, json.loads(out)


@pytest.mark.parametrize("argv, expected", [
    (["invariants", "torus"],
     ["generators (1), method diagonal:", "  x_1*x_2*x_3^2", "degrees: 4"]),
    (["invariants", "pm"],
     ["generators (3), method king:", "  x^2", "  x*y", "  y^2", "degrees: 2 2 2"]),
    (["invariants", "a4", "--algorithm", "linear", "--max-degree", "3"],
     ["generators (3), method linear_algebra:", "  x1+x2+x3+x4",
      "  x1^2+x2^2+x3^2+x4^2", "  x1^3+x2^3+x3^3+x4^3", "degrees: 1 2 3"]),
    (["invariants", "sl2"],
     ["generators (1), method reductive:", "  b^2-4*a*c", "degrees: 2"]),
    (["molien", "a4"], ["(T^4-T^2+1)/(1-T)(1-T^2)^2(1-T^3)"]),
    (["molien", "pm"], ["(T^2+1)/(1-T^2)^2"]),
    (["hilbert-ideal", "trivial"],
     ["generators (2), method king:", "  x", "  y", "degrees: 1 1"]),
    (["hilbert-ideal", "sl2"], ["hilbert ideal (1 generators):", "  b^2-4*a*c"]),
    (["defining-ideal", "pm"], ["relations (1):", "  u2^2-u1*u3"]),
    (["defining-ideal", "trivial"], ["relations (0):", "  (none)"]),
    (["defining-ideal", "sl2"], ["relations (0):", "  (none)"]),
    (["hilbert-series", "a4", "--degrees", "1,2,3,4"], ["T^6+1"]),
    (["hilbert-series", "trivial", "--degrees", "1,2,3,4"],
     ["T^8+T^7-T^5-2*T^4-T^3+T+1"]),
    (["verify", "pm"],
     [f"degree {d}: expected {e} actual {e} pass"
      for d, e in enumerate([0, 3, 0, 5, 0, 7], 1)] + ["all passed"]),
    (["verify", "sl2", "--max-degree", "3"],
     ["degree 1: expected 0 actual 0 pass", "degree 2: expected 1 actual 1 pass",
      "degree 3: expected 0 actual 0 pass", "all passed"]),
])
def test_text_output(tmp_path, capsys, argv, expected):
    assert text_lines(tmp_path, capsys, argv) == expected


@pytest.mark.parametrize("argv, keys", [
    (["invariants", "torus"], ["method", "count", "degrees", "generators"]),
    (["invariants", "a4"], ["method", "count", "degrees", "generators"]),
    (["molien", "trivial"], ["numerator", "denominator", "series"]),
    (["hilbert-ideal", "pm"], ["method", "count", "degrees", "generators"]),
    (["hilbert-ideal", "sl2"], ["count", "degrees", "generators"]),
    (["defining-ideal", "pm"], ["generators", "relation_variables", "count", "relations"]),
    (["hilbert-series", "a4", "--degrees", "1,2,3,4"], ["degrees", "numerator"]),
    (["verify", "torus"], ["max_degree", "report", "all_passed"]),
])
def test_json_key_order(tmp_path, capsys, argv, keys):
    code, payload = json_payload(tmp_path, capsys, argv)
    assert code == 0
    kind = {"torus": "diagonal", "sl2": "reductive"}.get(argv[1], "finite")
    assert list(payload) == ["command", "kind"] + keys + ["elapsed_seconds"]
    assert (payload["command"], payload["kind"]) == (argv[0], kind)
    if "report" in payload:
        assert list(payload["report"][0]) == ["degree", "expected", "actual", "pass"]


@pytest.mark.parametrize("doc, expected", [
    ("torus", [0, 0, 0, 1]),
    ("sl2", [0, 1, 0, 1]),
])
def test_verify_max_degree_is_the_report_depth_for_every_kind(tmp_path, capsys, doc, expected):
    # on diagonal and reductive actions --max-degree is not a sweep cap, so it
    # is accepted and only sets how many degrees are checked
    code, payload = json_payload(tmp_path, capsys, ["verify", doc, "--max-degree", "4"])
    assert code == 0
    assert payload["max_degree"] == 4
    assert [r["degree"] for r in payload["report"]] == [1, 2, 3, 4]
    assert [r["expected"] for r in payload["report"]] == expected
    assert payload["all_passed"] is True
    _, payload = json_payload(tmp_path, capsys, ["verify", doc])
    assert payload["max_degree"] == 6 and len(payload["report"]) == 6


@pytest.mark.parametrize("argv, message", [
    (["invariants", "a4", "--literal"], "--literal applies only to diagonal actions"),
    (["verify", "a4", "--literal"], "--literal applies only to diagonal actions"),
    (["invariants", "torus", "--algorithm", "king"], "--algorithm applies only to finite actions"),
    (["defining-ideal", "torus", "--max-degree", "3"], "--max-degree applies only to finite actions"),
    (["invariants", "sl2", "--literal"], "--literal applies only to diagonal actions"),
    (["verify", "sl2", "--algorithm", "linear"], "--algorithm applies only to finite actions"),
    (["hilbert-ideal", "sl2", "--max-degree", "3"], "--max-degree applies only to finite actions"),
    (["molien", "torus"], "molien requires a finite action"),
    (["hilbert-series", "sl2", "--degrees", "1"], "hilbert-series requires a finite action"),
])
def test_rejected_flags_per_kind(tmp_path, capsys, argv, message):
    for output in ("text", "json"):
        code, out, err = run(capsys, argv[:1] + [write(tmp_path, DOCS[argv[1]])]
                             + argv[2:] + ["--output", output])
        assert (code, out, err) == (1, "", f"error: {message}\n")
