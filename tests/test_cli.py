"""Command-line interface: verbs, exit codes, deterministic records."""

import json
import time

import pytest

from davenport.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyVerb:
    def test_theorem1_verified(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "-p", "3", "-f", "x*(x+1)")
        assert code == 0
        assert "status: verified" in out
        assert "D = 3" in out

    def test_theorem1_hypothesis_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1", "-p", "3", "-f", "(x+1)^2")
        assert code == 2
        assert "squarefree" in err
        assert "probe" in err

    def test_lemma(self, capsys):
        code, out, _ = run(
            capsys, "verify", "lemma", "-n", "2,2", "--stress", "20"
        )
        assert code == 0
        assert "status: verified" in out

    def test_proposition(self, capsys):
        code, out, _ = run(capsys, "verify", "proposition", "-p", "3", "--stress", "20")
        assert code == 0
        assert "status: verified" in out

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "theorem1")
        assert code == 2
        assert "needs" in err


class TestDavenportVerbs:
    def test_group_formula_and_search(self, capsys):
        code, out, _ = run(capsys, "davenport-group", "2,6")
        assert code == 0
        assert "= 7" in out

    def test_group_record(self, capsys):
        code, out, _ = run(capsys, "davenport-group", "2,6", "--format", "record")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == 7
        assert rec["formula"] == 7
        assert rec["search"]["value"] == 7

    def test_quotient_davenport(self, capsys):
        code, out, _ = run(
            capsys, "davenport", "-p", "3", "-f", "(x+1)^2", "--format", "record"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == 6 and rec["complete"]

    def test_adjoined_zero_davenport(self, capsys):
        code, out, _ = run(capsys, "davenport", "-n", "2,4", "--format", "record")
        assert code == 0
        assert json.loads(out)["value"] == 5

    def test_incomplete_exits_3(self, capsys):
        code, out, _ = run(
            capsys, "davenport", "-n", "20", "--budget-ms", "0", "--format", "record"
        )
        assert code == 3
        assert json.loads(out)["complete"] is False


class TestFactorUnitsDump:
    def test_factor_record(self, capsys):
        code, out, _ = run(capsys, "factor", "-p", "3", "-f", "x^3+2*x", "--format", "record")
        assert code == 0
        rec = json.loads(out)
        assert rec["factors"] == [["x", 1], ["x+1", 1], ["x+2", 1]]
        assert rec["squarefree"] is True

    def test_units_text(self, capsys):
        code, out, _ = run(capsys, "units", "-p", "3", "-f", "(x+1)^2")
        assert code == 0
        assert "|U| = 6" in out
        assert "C_6" in out

    def test_units_trivial_group(self, capsys):
        code, out, _ = run(capsys, "units", "-p", "2", "-f", "x", "--format", "record")
        assert code == 0
        rec = json.loads(out)
        assert rec["order"] == 1 and rec["invariant_factors"] == []
        code, out, _ = run(capsys, "units", "-p", "2", "-f", "x")
        assert code == 0
        assert "structure: trivial" in out

    def test_dump_record(self, capsys):
        code, out, _ = run(
            capsys, "davenport", "-p", "3", "-f", "x", "--dump", "--format", "record"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        dump = json.loads(lines[0])
        assert dump["semigroup"]["kind"] == "quotient"
        assert dump["semigroup"]["size"] == 3


class TestProbeVerb:
    def test_probe_evidence(self, capsys):
        code, out, _ = run(capsys, "probe", "-p", "3", "-f", "x^2", "--format", "record")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "verified"
        assert rec["lhs"]["value"] == rec["rhs"]["value"] == 6

    def test_probe_p2_outside(self, capsys):
        code, out, _ = run(capsys, "probe", "-p", "2", "-f", "(x+1)^2")
        assert code == 3
        assert "outside-hypothesis" in out


class TestReduceVerb:
    def test_quadratic(self, capsys):
        code, out, _ = run(capsys, "reduce", "-p", "3", "--seq", "2*6")
        assert code == 0
        assert "T' = 2*4" in out

    def test_product(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "-n", "2,2", "--seq", "(g, inf);(g, g)*2"
        )
        assert code == 0
        assert "T' =" in out

    def test_short_sequence_exits_2(self, capsys):
        code, _, err = run(capsys, "reduce", "-p", "3", "--seq", "2")
        assert code == 2
        assert "hypothesis" in err

    def test_wrong_modulus_exits_2(self, capsys):
        code, _, err = run(capsys, "reduce", "-p", "3", "-f", "x^2", "--seq", "2*6")
        assert code == 2


class TestUsageErrors:
    def test_bad_poly_syntax(self, capsys):
        code, _, err = run(capsys, "factor", "-p", "3", "-f", "x++1")
        assert code == 2
        assert "offset" in err

    def test_composite_modulus(self, capsys):
        code, _, err = run(capsys, "factor", "-p", "9", "-f", "x")
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("units", "-p", "3", "-f", "x^6"),
            ("units", "-p", "3", "-f", "x^20"),
            ("davenport", "-n", "20,20"),
            ("verify", "lemma", "-n", "16,16"),
            ("reduce", "-n", "17,17", "--seq", "(g, g)"),
        ],
    )
    def test_universe_above_cap_exits_2_fast(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the cap of 256" in err

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "theorem1", "-p", "3", "-f", "x*(x+1)", "--format", "record"),
            ("verify", "lemma", "-n", "2,2", "--stress", "10", "--seed", "5",
             "--format", "record"),
            ("davenport", "-p", "3", "-f", "(x+1)^2", "--format", "record"),
            ("davenport-group", "3,6", "--format", "record"),
            ("probe", "-p", "3", "-f", "x^2", "--format", "record"),
        ],
    )
    def test_identical_invocations_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
