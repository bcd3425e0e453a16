"""Command-line interface: verbs, exit codes, deterministic records."""

import json
import random
import shlex
import time
from math import prod
from pathlib import Path

import pytest

from davenport import davenport_group_formula
from davenport.semigroup import build_adjoined_zero_product, invariant_factors_from_cyclic_orders
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

    def test_proposition_p11_exact(self, capsys):
        # D(S) = D(U) = 110 by two complete searches, then 1000 reductions
        code, out, _ = run(capsys, "verify", "proposition", "-p", "11")
        assert code == 0
        assert "status: verified" in out
        assert "D(S):    D = 110 [exact]" in out
        assert "stress_passed: 1000" in out

    def test_theorem1_refuted_exits_1(self, capsys, monkeypatch):
        # the search of S comes back with another D(U), its unit-group side
        import davenport.verify

        search = davenport.verify.davenport_exact

        def units_off_by_one(S, budget_ms=None):
            result = search(S, budget_ms)
            if S.kind == "quotient":
                result.units.value += 1
            return result

        monkeypatch.setattr(davenport.verify, "davenport_exact", units_off_by_one)
        code, out, _ = run(capsys, "verify", "theorem1", "-p", "3", "-f", "x*(x+1)")
        assert code == 1
        assert "status: refuted" in out

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

    def test_text_millis_counts_setup(self, capsys, monkeypatch):
        def slow_build(orders):
            time.sleep(0.05)
            return build_adjoined_zero_product(orders)

        monkeypatch.setattr("davenport.cli.build_adjoined_zero_product", slow_build)
        code, out, _ = run(capsys, "davenport", "-n", "2,4")
        assert code == 0
        assert int(out.split("millis=")[1].split()[0]) >= 50
        code, out, _ = run(capsys, "davenport", "-n", "2,4", "--format", "record")
        assert json.loads(out)["millis"] is None


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

    def test_dump_text(self, capsys):
        code, out, _ = run(capsys, "units", "-p", "3", "-f", "x^2", "--dump")
        assert code == 0
        assert out.splitlines()[0].startswith("semigroup: {")

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["theorem1", "-p", "3", "-f", "x^2+x"], ["x^2+x", "x", "x+1"]),
            (["proposition", "-p", "3", "--stress", "10"], ["x^2+2*x+1"]),
        ],
        ids=["theorem1", "proposition"],
    )
    def test_verify_dump_builds_once(self, capsys, monkeypatch, argv, built):
        import davenport.cli
        import davenport.semigroup
        import davenport.verify

        moduli = []
        for module in (davenport.cli, davenport.semigroup, davenport.verify):
            def counting(p, g, build=module.build_quotient_semigroup):
                moduli.append(str(g))
                return build(p, g)

            monkeypatch.setattr(module, "build_quotient_semigroup", counting)
        code, out, _ = run(capsys, "verify", *argv, "--dump", "--format", "record")
        assert code == 0
        assert moduli == built
        dump, report = map(json.loads, out.strip().splitlines())
        assert dump["semigroup"]["params"] == {"p": 3, "f": built[0]}
        assert report["status"] == "verified"


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

    def test_product_units_search_keeps_the_budget(self, capsys):
        # D(U) of (C2 x C4 x C8 with zeros) is searched under --budget-ms;
        # an unbudgeted search would run for seconds
        start = time.monotonic()
        code, out, err = run(
            capsys, "reduce", "-n", "2,4,8", "--seq", "(g, g, g)*20", "--budget-ms", "100"
        )
        assert time.monotonic() - start < 5
        assert (code, out) == (3, "")
        assert err.startswith("error: D(U(S)) not exact within the budget")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "-p", "3", "-f", "x)"),
            ("factor", "-p", "3", "-f", "coeffs:1,a"),
            ("reduce", "-n", "3", "--seq", "g^x"),
            ("reduce", "-n", "3", "--seq", "h"),
            ("reduce", "-n", "2,2", "--seq", "(g, g));(g, g)"),
            ("reduce", "-n", "2,2", "--seq", "((g, g)"),
            ("reduce", "-n", "2,2", "--seq", "g"),
            ("reduce", "-n", "2,2", "--seq", "(g, g, g)"),
            ("reduce", "-p", "3", "--seq", "x;;x"),
            ("reduce", "--seq", "x"),
            ("davenport", "-n", "2,a"),
            ("davenport", "-n", ","),
            ("davenport",),
            ("davenport-group", "0,2"),
            ("davenport-group", "6,6,12"),
            ("verify", "lemma"),
            ("verify", "proposition"),
            ("verify", "theorem1", "-p", "3", "-f", "2"),
        ],
    )
    def test_malformed_input_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seq", ["(x+2)*300000000", "x*99999999999"])
    def test_sequence_over_the_length_cap_exits_2(self, capsys, seq):
        # uncapped, the first ran out of memory in the reduction and the
        # second ran for more than 20 s
        start = time.monotonic()
        code, out, err = run(capsys, "reduce", "-p", "3", "--seq", seq)
        assert time.monotonic() - start < 5
        assert (code, out) == (2, "")
        assert err.startswith("error: sequence length ") and err.count("\n") == 1
        assert "exceeds the cap of 65536" in err

    @pytest.mark.parametrize(
        "seq, offset", [("x;x;y", 4), ("x;2*0", 4), ("x;;x", 2), ("x; x+)", 5)]
    )
    def test_sequence_error_offset_into_the_text(self, capsys, seq, offset):
        code, _, err = run(capsys, "reduce", "-p", "3", "--seq", seq)
        assert code == 2
        assert err.endswith(f"(at offset {offset})\n")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("verify", "lemma", "-n", "2,4", "--stress", "-3"), "--stress"),
            (("verify", "proposition", "-p", "5", "--budget-ms", "-1"), "--budget-ms"),
            (("davenport", "-n", "2,4", "--budget-ms", "-5"), "--budget-ms"),
            (("verify", "lemma", "-n", "2,4", "--stress", "ten"), "--stress"),
        ],
    )
    def test_negative_or_malformed_count_exits_2(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: expected a non-negative integer" in err

    def test_zero_counts_accepted(self, capsys):
        code, out, _ = run(
            capsys, "verify", "proposition", "-p", "5", "--budget-ms", "0",
            "--stress", "0", "--format", "record",
        )
        # a zero budget leaves the search incomplete, so the run exits 3
        assert code == 3
        assert json.loads(out)["artifacts"]["stress_sequences"] == 0

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

    def test_deeply_nested_poly_exits_2(self, capsys):
        nested = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "factor", "-p", "3", "-f", nested)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "-p", "3", "-f", "x^99999999"),
            ("units", "-p", "3", "-f", "(x+1)^99999999"),
            ("factor", "-p", "2", "-f", "x^1000*x^1000"),
        ],
    )
    def test_degree_above_cap_exits_2_fast(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the cap of 1024" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "-p", "1000000000000000003", "-f", "x"),
            ("davenport", "-p", "1000000000000000003", "-f", "x"),
            ("davenport-group", "1000000000000000003"),
            ("factor", "-p", "3", "-f", "x^200+1"),
        ],
    )
    def test_trial_division_above_cap_exits_2_fast(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the cap of 2000000 steps" in err

    def test_prime_near_cap_checked_once(self, capsys):
        # trial division runs once for the prime; every later Poly built over
        # it, each trial divisor and quotient, checks it through the cache
        start = time.monotonic()
        code, out, err = run(capsys, "factor", "-p", "999999999989", "-f", "x^2+1")
        assert time.monotonic() - start < 20.0
        assert code == 2
        assert out == ""
        assert "exceeds the cap of 2000000 steps" in err

    def test_trial_division_below_cap_factors(self, capsys):
        code, out, _ = run(capsys, "factor", "-p", "3", "-f", "x^200")
        assert code == 0
        assert "(x)^200" in out

    def test_degree_at_cap_parses(self, capsys):
        code, out, _ = run(capsys, "factor", "-p", "2", "-f", "x^1024")
        assert code == 0
        assert "(x)^1024" in out

    def test_internal_check_failure_exits_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("search produced a reducible witness")

        monkeypatch.setattr("davenport.cli.davenport_exact", broken)
        code, out, err = run(capsys, "davenport", "-n", "2,4")
        assert code == 4
        assert out == ""
        assert err == "error: internal: search produced a reducible witness\n"

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Exact records of complete runs; they pin the layered DP's tie-breaking
# among equal-product selections, which self-consistency checks do not.
GOLDEN_RECORDS = [
    (
        ("davenport", "-p", "3", "-f", "(x+1)^2"),
        '{"complete": true, "method": "exact_dfs", "millis": null, '
        '"nodes": 14, "value": 6, "witness": "x*5"}'
    ),
    (
        ("davenport", "-n", "2,4"),
        '{"complete": true, "method": "exact_dfs", "millis": null, '
        '"nodes": 25, "value": 5, "witness": "(g^0, g)*3;(g, g^0)"}'
    ),
    (
        ("verify", "lemma", "-n", "2,2", "--stress", "10", "--seed", "5"),
        '{"artifacts": {"stress_passed": 10, "stress_sequences": 10, '
        '"unit_invariants": [2, 2], "unit_order": 4, '
        '"units_bound_k_plus_1": true}, "claim": "lemma_product", "lhs": '
        '{"complete": true, "method": "exact_dfs", "millis": null, '
        '"nodes": 8, "value": 3, "witness": "(g^0, g);(g, g^0)"}, '
        '"params": {"n_list": [2, 2]}, "rhs": {"complete": true, '
        '"method": "exact_dfs", "millis": null, "nodes": 3, "value": 3, '
        '"witness": "(g^0, g);(g, g^0)"}, "status": "verified"}'
    ),
    (
        ("verify", "proposition", "-p", "3", "--stress", "50", "--seed", "9"),
        '{"artifacts": {"exhibit_V": "2;x", "exhibit_V_bound": 3, '
        '"lower_bound": 6, "lower_bound_witness": "x*5", "stress_passed": '
        '50, "stress_sequences": 50, "unit_invariants": [6], '
        '"unit_order": 6}, "claim": "proposition", "lhs": {"complete": '
        'true, "method": "exact_dfs", "millis": null, "nodes": 14, '
        '"value": 6, "witness": "x*5"}, "params": {"f": "x^2+2*x+1", "p": '
        '3}, "rhs": {"complete": true, "method": "exact_dfs", "millis": '
        'null, "nodes": 11, "value": 6, "witness": "x*5"}, "status": '
        '"verified"}'
    ),
    (
        ("verify", "theorem1", "-p", "3", "-f", "x*(x+1)"),
        '{"artifacts": {"crt_route_model": "adjoined-zero cyclic orders '
        '[2, 2]", "crt_route_value": 3, "factorization": "(x)*(x+1)", '
        '"unit_invariants": [2, 2], "unit_order": 4, '
        '"units_le_semigroup": true}, "claim": "theorem1", "lhs": '
        '{"complete": true, "method": "exact_dfs", "millis": null, '
        '"nodes": 9, "value": 3, "witness": "2;x"}, "params": {"f": '
        '"x^2+x", "p": 3}, "rhs": {"complete": true, "method": '
        '"exact_dfs", "millis": null, "nodes": 3, "value": 3, "witness": '
        '"2;x+2"}, "status": "verified"}'
    ),
    (
        ("probe", "-p", "3", "-f", "x^2"),
        '{"artifacts": {"factorization": "(x)^2", "interpretation": '
        '"conjecture evidence only, nothing is asserted", "sides_equal": '
        'true, "unit_invariants": [6], "unit_order": 6}, "claim": '
        '"conjecture_probe", "lhs": {"complete": true, "method": '
        '"exact_dfs", "millis": null, "nodes": 17, "value": 6, "witness": '
        '"(x+2)*5"}, "params": {"f": "x^2", "p": 3}, "rhs": {"complete": '
        'true, "method": "exact_dfs", "millis": null, "nodes": 14, '
        '"value": 6, "witness": "(x+2)*5"}, "status": "verified"}'
    ),
    (
        ("reduce", "-p", "3", "--seq", "x*5;2*x+2"),
        '{"input": "x*5;2*x+2", "input_length": 6, "output": "x*3;2*x+2", '
        '"output_length": 4}'
    ),
    (
        ("reduce", "-p", "3", "--seq", "x+1;2*x+2;2*4"),
        '{"input": "2*4;x+1;2*x+2", "input_length": 6, "output": '
        '"x+1;2*x+2", "output_length": 2}'
    ),
    (
        ("reduce", "-n", "5", "--seq", "inf;g*4"),
        '{"input": "g*4;inf", "input_length": 5, "output": "g*3;inf", '
        '"output_length": 4}'
    ),
    (
        ("reduce", "-n", "2,4", "--seq", "(g, g);(g, g^2);(inf, g);(g, g^3)*2"),
        '{"input": "(g, g);(g, g^2);(g, g^3)*2;(inf, g)", "input_length": '
        '5, "output": "(g, g^2);(g, g^3);(inf, g)", "output_length": 3}'
    ),
]


class TestGoldenRecords:
    # ids from argv alone, so re-pinning a record's nodes keeps the test's name
    @pytest.mark.parametrize(
        "argv, record", GOLDEN_RECORDS, ids=[" ".join(argv) for argv, _ in GOLDEN_RECORDS]
    )
    def test_record_unchanged(self, capsys, argv, record):
        code, out, _ = run(capsys, *argv, "--format", "record")
        assert code == 0
        assert out == record + "\n"


def readme_examples() -> list[list[str]]:
    """The argv of each ``davenport ...`` line of the README's "Command
    line" block, its comment dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    block = block.split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("davenport ")
    ]


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_block_found(self):
        assert len(README_EXAMPLES) >= 10

    # a README line that keeps a removed flag or verb fails here
    @pytest.mark.parametrize(
        "argv", README_EXAMPLES, ids=[" ".join(argv) for argv in README_EXAMPLES]
    )
    def test_example_exits_0(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0, err


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
            # budget-capped: the clock is first read on node 1, where it stops
            ("davenport", "-n", "20", "--budget-ms", "0", "--format", "record"),
        ],
    )
    def test_identical_invocations_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


def random_modulus(rng: random.Random, p: int) -> str:
    """A random f over F_p with p^deg <= 256, as CLI text: leading
    coefficients other than 1, and every other draw a repeated factor."""
    top = 1
    while p ** (top + 1) <= 256:
        top += 1

    def poly_text(deg):
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        return "+".join(f"{c}*x^{k}" for k, c in enumerate(coeffs) if c) or "0"

    if top >= 2 and rng.random() < 0.5:
        return f"(x+{rng.randrange(p)})^2*({poly_text(rng.randrange(top - 1))})"
    return poly_text(rng.randint(1, top))


def random_reduce_argv(rng: random.Random, fault) -> list[str]:
    """``reduce`` arguments: -n orders of at most 256 elements, or -p with
    its square modulus, and a --seq of random literals with ``*m``
    multiplicities, at least D(U(S)) terms long. ``fault`` is None, or one
    of "paren", "*0", "non-element" and "short", which spoils the text."""
    if rng.random() < 0.5:
        k = rng.randint(1, 3)
        orders: list[int] = []
        while len(orders) < k and 256 // prod(n + 1 for n in orders) > 2:
            room = 256 // prod(n + 1 for n in orders) - 1
            orders.append(rng.randint(2, min(room, 255 if k == 1 else 15)))
        units = invariant_factors_from_cyclic_orders(orders)
        threshold = davenport_group_formula(units) or prod(orders)

        def literal():
            parts = [rng.choice(["inf", "g", f"g^{rng.randrange(2 * n)}"]) for n in orders]
            return parts[0] if len(parts) == 1 else f"({', '.join(parts)})"

        modulus = ["-n", ",".join(map(str, orders))]
    else:
        p = rng.choice([3, 5, 7, 11, 13])
        threshold = p * (p - 1)

        def literal():
            a, b = rng.randrange(p), rng.randrange(p)
            return rng.choice([str(b), "x", f"({a}*x+{b})", f"(x+{b})"])

        modulus = ["-p", str(p)]
    length = threshold - 1 - rng.randrange(3) if fault == "short" else threshold + rng.randrange(3)
    items = []
    while length > 0:
        m = rng.randint(1, length)
        items.append(f"{literal()}*{m}" if m > 1 or rng.random() < 0.3 else literal())
        length -= m
    k = rng.randrange(len(items))
    if fault == "paren":
        items[k] = "(" + items[k]
    elif fault == "*0":
        items[k] += "*0"
    elif fault == "non-element":
        items[k] = "h"
    return ["reduce", *modulus, "--seq", ";".join(items)]


class TestAdversarialDraws:
    """Seeded random inputs through ``main``: every one ends with a defined
    exit code (never 4, an internal check) and within its budget."""

    BUDGET_MS = 100

    @pytest.mark.parametrize("seed", range(40))
    def test_random_input_exits_cleanly(self, capsys, seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        verb = rng.choice([["units"], ["davenport"], ["probe"], ["verify", "theorem1"]])
        argv = [*verb, "-p", str(p), "-f", random_modulus(rng, p),
                "--format", rng.choice(["text", "record"])]
        if verb != ["units"]:  # units takes no budget
            argv += ["--budget-ms", str(self.BUDGET_MS)]
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err, argv
        assert elapsed <= self.BUDGET_MS / 1000 + 1.5, (argv, elapsed)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_sequence_exits_cleanly(self, capsys, seed):
        # every fourth draw carries one malformed literal
        rng = random.Random(seed)
        fault = rng.choice(["paren", "*0", "non-element", "short"]) if seed % 4 == 3 else None
        argv = random_reduce_argv(rng, fault) + [
            "--format", rng.choice(["text", "record"]), "--budget-ms", str(self.BUDGET_MS)]
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err, argv
        assert elapsed <= self.BUDGET_MS / 1000 + 1.5, (argv, elapsed)
        if fault is not None:  # -n reads D(U) before its length check: 3 if cut
            assert code == 2 or (fault == "short" and code == 3), (argv, err)
