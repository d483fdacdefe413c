"""Tests for the batch command line interface."""

import json

import pytest

from invtheory import QQ, parse_polynomial, polynomial_ring
from invtheory.cli import run_command

TORUS_DOC = {
    "field": {"type": "Q"},
    "variables": ["x_1", "x_2", "x_3", "x_4"],
    "action": {
        "kind": "diagonal",
        "torusRank": 3,
        "cyclicOrders": [],
        "weights": [[5, -3, -1, 4], [-3, 1, 1, 5], [0, -4, 2, 6]],
        "literalQ": 9,
    },
}

A4_DOC = {
    "field": {"type": "Q"},
    "variables": ["x1", "x2", "x3", "x4"],
    "action": {"kind": "finite", "generators": ["2314", "2143"]},
}

PM_DOC = {
    "field": {"type": "Q"},
    "variables": ["x", "y"],
    "action": {"kind": "finite", "generators": [[["-1", "0"], ["0", "-1"]]]},
}

TRIVIAL_DOC = {
    "field": {"type": "Q"},
    "variables": ["x", "y"],
    "action": {"kind": "finite", "generators": ["12"]},
}

SL2_DOC = {
    "field": {"type": "Q"},
    "variables": ["a", "b", "c"],
    "action": {
        "kind": "reductive",
        "groupVariables": ["z11", "z12", "z21", "z22"],
        "groupIdeal": ["z11*z22-z12*z21-1"],
        "actionMatrix": [
            ["z11^2", "z11*z21", "z21^2"],
            ["2*z11*z12", "z11*z22+z12*z21", "2*z21*z22"],
            ["z12^2", "z12*z22", "z22^2"],
        ],
    },
}


def write(tmp_path, doc, name="action.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_torus_text(tmp_path, capsys):
    code, out, err = run(capsys, ["invariants", write(tmp_path, TORUS_DOC)])
    assert code == 0
    assert "x_1*x_2*x_3^2" in out
    assert err == ""


def test_invariants_json_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, ["invariants", write(tmp_path, A4_DOC), "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "invariants"
    assert payload["method"] == "king"
    assert payload["degrees"] == [1, 2, 3, 4, 6]
    ring = polynomial_ring(QQ, ("x1", "x2", "x3", "x4"))
    from invtheory import FiniteGroupAction, invariants_king, permutation_matrix
    expect = invariants_king(FiniteGroupAction(ring, [permutation_matrix("2314"), permutation_matrix("2143")]))
    assert [parse_polynomial(s, ring) for s in payload["generators"]] == expect


def test_literal_flag(tmp_path, capsys):
    code, out, _ = run(capsys, ["invariants", write(tmp_path, TORUS_DOC), "--literal", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "diagonal_literal"
    assert payload["count"] == 10
    assert "x_1^8" in payload["generators"]


def test_output_is_deterministic_except_timing(tmp_path, capsys):
    path = write(tmp_path, TORUS_DOC)
    _, first, _ = run(capsys, ["invariants", path, "--output", "json"])
    _, second, _ = run(capsys, ["invariants", path, "--output", "json"])
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b
    _, t1, _ = run(capsys, ["invariants", path])
    _, t2, _ = run(capsys, ["invariants", path])
    assert t1.splitlines()[:-1] == t2.splitlines()[:-1]
    assert t1.splitlines()[-1].startswith("elapsed:")


def test_molien_text_and_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["molien", write(tmp_path, TRIVIAL_DOC)])
    assert code == 0
    assert out.splitlines()[0] == "1/(1-T)^2"
    code, out, _ = run(capsys, ["molien", write(tmp_path, A4_DOC), "--output", "json"])
    payload = json.loads(out)
    assert payload["series"] == "(T^4-T^2+1)/(1-T)(1-T^2)^2(1-T^3)"


def test_hilbert_series_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["hilbert-series", write(tmp_path, A4_DOC), "--degrees", "1,2,3,4", "--output", "json"])
    assert code == 0
    assert json.loads(out)["numerator"] == "T^6+1"


def test_hilbert_ideal_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["hilbert-ideal", write(tmp_path, SL2_DOC)])
    assert code == 0
    assert "b^2-4*a*c" in out


def test_hilbert_ideal_rejects_finite_only_flags_on_reductive_action(tmp_path, capsys):
    path = write(tmp_path, SL2_DOC)
    for flags in (["--max-degree", "3"], ["--algorithm", "linear"], ["--literal"]):
        code, out, err = run(capsys, ["hilbert-ideal", path] + flags)
        assert code == 1
        assert flags[0] in err
        assert out == ""


def test_defining_ideal_command(tmp_path, capsys):
    code, out, _ = run(capsys, [
        "defining-ideal", write(tmp_path, PM_DOC), "--algorithm", "linear", "--max-degree", "2"])
    assert code == 0
    assert "u2^2-u1*u3" in out


def test_defining_ideal_json_names_one_variable_per_generator(tmp_path, capsys):
    s3 = dict(PM_DOC, variables=["a", "b", "c"],
              action={"kind": "finite", "generators": ["213", "231"]})
    code, out, _ = run(capsys, ["defining-ideal", write(tmp_path, s3), "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["generators"]) == 3
    assert payload["relation_variables"] == ["u1", "u2", "u3"]
    assert (payload["count"], payload["relations"]) == (0, [])

    code, out, _ = run(capsys, ["defining-ideal", write(tmp_path, PM_DOC), "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["x^2", "x*y", "y^2"]
    assert payload["relation_variables"] == ["u1", "u2", "u3"]
    assert (payload["count"], payload["relations"]) == (1, ["u2^2-u1*u3"])


def test_verify_command_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", write(tmp_path, A4_DOC), "--max-degree", "4", "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [entry["degree"] for entry in payload["report"]] == [1, 2, 3, 4]
    assert [entry["expected"] for entry in payload["report"]] == [1, 2, 3, 5]


def test_usage_errors_exit_one(tmp_path, capsys):
    bad_dims = {
        "field": {"type": "Q"},
        "variables": ["x", "y"],
        "action": {"kind": "finite", "generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
    }
    code, _, err = run(capsys, ["invariants", write(tmp_path, bad_dims)])
    assert code == 1
    assert "action.generators[0]" in err

    code, _, err = run(capsys, ["invariants", write(tmp_path, TORUS_DOC), "--algorithm", "linear"])
    assert code == 1
    assert "--algorithm" in err

    no_literal_q = dict(TORUS_DOC, action={k: v for k, v in TORUS_DOC["action"].items() if k != "literalQ"})
    code, _, err = run(capsys, ["invariants", write(tmp_path, no_literal_q), "--literal"])
    assert code == 1
    assert "literalQ" in err

    code, _, err = run(capsys, ["invariants", str(tmp_path / "missing.json")])
    assert code == 1

    code, _, err = run(capsys, ["hilbert-series", write(tmp_path, A4_DOC), "--degrees", "1,banana"])
    assert code == 1

    code, _, err = run(capsys, ["frobnicate", write(tmp_path, A4_DOC)])
    assert code == 1


def test_diagonal_orders_and_literal_q_are_checked_on_input(tmp_path, capsys):
    trivial_order = dict(TORUS_DOC, action=dict(
        TORUS_DOC["action"], torusRank=2, cyclicOrders=[1],
        weights=[[5, -3, -1, 4], [-3, 1, 1, 5], [1, 1, 1, 1]]))
    code, _, err = run(capsys, ["invariants", write(tmp_path, trivial_order)])
    assert code == 1
    assert err.startswith("error: action.cyclicOrders: ")

    not_prime_power = dict(TORUS_DOC, action=dict(TORUS_DOC["action"], literalQ=12))
    code, _, err = run(capsys, ["invariants", write(tmp_path, not_prime_power), "--literal"])
    assert code == 1
    assert err.startswith("error: action.literalQ: ")


def test_non_positive_max_degree_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, A4_DOC)
    for command in ("invariants", "defining-ideal", "hilbert-ideal", "verify"):
        for value in ("0", "-2"):
            code, _, err = run(capsys, [command, path, "--max-degree", value])
            assert code == 1, (command, value)
            assert err == "error: --max-degree: expected a positive integer\n"


def test_json_booleans_are_not_diagonal_integers(tmp_path, capsys):
    action = dict(TORUS_DOC["action"], torusRank=1, weights=[[5, True, -1, 4]])
    cases = [
        ("action.weights", dict(TORUS_DOC, action=action)),
        ("action.torusRank", dict(TORUS_DOC, action=dict(action, weights=[[5, -3, -1, 4]],
                                                        torusRank=True))),
    ]
    for field, doc in cases:
        code, _, err = run(capsys, ["invariants", write(tmp_path, doc)])
        assert code == 1, field
        assert err.startswith(f"error: {field}: "), err


def test_malformed_names_and_polynomial_entries_exit_one(tmp_path, capsys):
    sl2 = SL2_DOC["action"]
    cases = [
        ("variables", dict(A4_DOC, variables=["x", "x", "y", "z"])),
        ("variables", dict(A4_DOC, variables=["x", "1y", "z", "w"])),
        ("action.groupVariables", dict(SL2_DOC, action=dict(sl2, groupVariables=["1z"]))),
        ("action.groupIdeal", dict(SL2_DOC, action=dict(sl2, groupIdeal=[5]))),
        ("action.actionMatrix", dict(SL2_DOC, action=dict(
            sl2, actionMatrix=[[5] + row[1:] for row in sl2["actionMatrix"]]))),
    ]
    for field, doc in cases:
        code, _, err = run(capsys, ["invariants", write(tmp_path, doc)])
        assert code == 1, field
        assert err.startswith(f"error: {field}: "), err
        assert "Traceback" not in err


def test_domain_errors_exit_two(tmp_path, capsys):
    modular = {
        "field": {"type": "Fp", "p": 2},
        "variables": ["x", "y"],
        "action": {"kind": "finite", "generators": ["21"]},
    }
    code, _, err = run(capsys, ["molien", write(tmp_path, modular)])
    assert code == 2
    assert "NonZeroCharacteristic" in err

    code, _, err = run(capsys, ["invariants", write(tmp_path, modular)])
    assert code == 2
    assert "ModularCaseUnsupported" in err

    bad_root = {
        "field": {"type": "Q"},
        "variables": ["x", "y"],
        "action": {"kind": "diagonal", "torusRank": 0, "cyclicOrders": [5],
                   "weights": [[1, 2]], "literalQ": 9},
    }
    code, _, err = run(capsys, ["invariants", write(tmp_path, bad_root), "--literal"])
    assert code == 2
    assert "RootOfUnityUnavailable" in err


def test_verify_failure_exits_two(tmp_path, capsys, monkeypatch):
    # correct algorithms never fail their own verification, so force a failing
    # report to pin the exit-code contract
    import invtheory.cli as cli_module
    from invtheory import DegreeCheck

    def doctored(inv, max_degree):
        return [DegreeCheck(degree=1, expected=2, actual=1, passed=False)]

    monkeypatch.setattr(cli_module, "verify_generators", doctored)
    code, out, _ = run(capsys, ["verify", write(tmp_path, PM_DOC), "--output", "json"])
    assert code == 2
    assert json.loads(out)["all_passed"] is False


def test_text_output_ends_with_elapsed(tmp_path, capsys):
    for argv in (["invariants", write(tmp_path, TORUS_DOC)],
                 ["molien", write(tmp_path, TRIVIAL_DOC)]):
        _, out, _ = run(capsys, argv)
        assert out.splitlines()[-1].startswith("elapsed: ")
