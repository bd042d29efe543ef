"""Command-line interface: dispatch, formats, exit codes, determinism."""
import argparse
import json
import time

import pytest

from pencils import BinaryForm, cli, theta
from pencils.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransvect:
    def test_inline_expressions(self, capsys):
        code, out, _ = run(
            capsys, "transvect", "--expr", "x1^2", "--expr", "x2^2", "--q", "1"
        )
        assert code == 0
        assert out.strip() == "x1*x2"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "transvect", "--expr", "x1^2", "--expr", "x2^2", "--q", "1", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"order": 2, "coeffs": ["0", "1", "0"]}

    def test_file_input(self, capsys, tmp_path):
        a = tmp_path / "a.form"
        a.write_text("x1^2\n")
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"order": 2, "coeffs": ["0", "0", "1"]}))
        code, out, _ = run(capsys, "transvect", str(a), str(b), "--q", "1")
        assert code == 0
        assert out.strip() == "x1*x2"

    def test_out_of_range_q_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "transvect", "--expr", "x1^2", "--expr", "x2^2", "--q", "5"
        )
        assert code == 2
        assert "error" in err

    def test_wrong_arity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "transvect", "--expr", "x1^2", "--q", "1")
        assert info.value.code == 2

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run(
            capsys, "transvect", "--expr", "x1^2 + x2", "--expr", "x2^2", "--q", "1"
        )
        assert code == 2
        assert "inhomogeneous" in err

    def test_huge_exponent_is_refused_before_allocating(self, capsys):
        code, out, err = run(
            capsys, "transvect", "--expr", "x1^1000000000", "--expr", "x2", "--q", "0"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "exceeds" in err

    def test_exponent_notation_in_json_is_refused_quickly(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"order": 1, "coeffs": ["1e10000000", "1"]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "transvect", str(path), "--expr", "x2", "--q", "0")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "numeral", ["1" * 4301, '"' + "1" * 4301 + '"'], ids=["integer", "string"]
    )
    def test_overlong_json_numeral_has_one_message(self, capsys, tmp_path, numeral):
        # A bare JSON integer and the same numeral as a string are refused alike.
        path = tmp_path / "f.json"
        path.write_text('{"order": 0, "coeffs": [%s]}' % numeral)
        code, out, err = run(capsys, "transvect", str(path), "--expr", "x2", "--q", "0")
        assert code == 2
        assert out == ""
        assert err == "error: numeral of 4301 characters is too long\n"


class TestCombinants:
    def test_json_array(self, capsys):
        code, out, _ = run(
            capsys, "combinants", "--expr", "x1^3", "--expr", "x2^3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {"order": 4, "coeffs": ["0", "0", "1", "0", "0"]},
            {"order": 0, "coeffs": ["1"]},
        ]

    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "combinants", "--expr", "x1^3", "--expr", "x2^3")
        assert code == 0
        assert out.splitlines() == ["C1 = x1^2*x2^2", "C3 = 1"]

    def test_degenerate_pencil_exits_2(self, capsys):
        code, _, err = run(
            capsys, "combinants", "--expr", "x1^3", "--expr", "2*x1^3"
        )
        assert code == 2
        assert "dependent" in err


class TestSyzygyTable:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "syzygy-table", "--d", "7", "--r", "3", "--json")
        assert code == 0
        assert json.loads(out) == {
            "d": 7,
            "r": 3,
            "alphas": {"1,1": "10", "1,2": "-80/11", "2,2": "-175/121", "1,3": "20/21"},
        }

    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "syzygy-table", "--d", "7", "--r", "3")
        assert code == 0
        assert out.splitlines()[0] == "alpha[1,1] = 10"

    def test_out_of_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "syzygy-table", "--d", "7", "--r", "5")
        assert code == 2


class TestVerify:
    def test_reports_all_vanishing(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "7", "--r", "3", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        assert out.strip() == "5/5 syzygies vanish"

    def test_all_weights_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "9", "--trials", "2", "--seed", "3")
        assert code == 0
        assert out.splitlines() == [
            "r=3: 2/2 syzygies vanish",
            "r=4: 2/2 syzygies vanish",
            "r=5: 2/2 syzygies vanish",
        ]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_refused(self, capsys, trials):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--d", "7", "--r", "3", "--trials", trials])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--trials" in captured.err


    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--d", "5", "--trials", "4", "--seed", "11"], "4/4 syzygies vanish\n"),
            (
                ["--d", "9", "--trials", "3", "--seed", "5"],
                "r=3: 3/3 syzygies vanish\nr=4: 3/3 syzygies vanish\nr=5: 3/3 syzygies vanish\n",
            ),
        ],
    )
    def test_stdout_is_unchanged(self, capsys, argv, expected):
        # Recorded from the version that rebuilt the pencils for every weight.
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert out == expected

    def test_builds_each_pencil_once(self, capsys, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return random_pencil(*args)

        random_pencil = cli.random_pencil
        monkeypatch.setattr(cli, "random_pencil", counting)
        code, _, _ = run(capsys, "verify", "--d", "9", "--trials", "3", "--seed", "5")
        assert code == 0
        assert built == [(9, 5, 10), (9, 6, 10), (9, 7, 10)]

    def test_failures_are_counted_per_weight(self, capsys, monkeypatch):
        calls = []

        def failing_once_at_r4(pencil, r):
            calls.append(r)
            if calls.count(4) == 1 and r == 4:
                return BinaryForm(0, [1])
            return BinaryForm.zero(0)

        monkeypatch.setattr(cli, "evaluate_syzygy", failing_once_at_r4)
        code, out, _ = run(capsys, "verify", "--d", "9", "--trials", "2")
        assert code == 1
        assert out.splitlines() == [
            "r=3: 2/2 syzygies vanish",
            "r=4: 1/2 syzygies vanish",
            "r=5: 2/2 syzygies vanish",
        ]


class TestRecover:
    def test_verified_output(self, capsys):
        code, out, _ = run(capsys, "recover", "--d", "7", "--r", "4", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "recovered C7 matches direct transvectant"
        assert lines[1] == "VERIFIED"


class TestOracleTheta:
    def test_match(self, capsys):
        code, out, _ = run(
            capsys, "oracle-theta", "--d", "5", "--r", "3", "--i", "2", "--j", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "oracle ratio:  -75/49"
        assert lines[1] == "formula theta: -75/49"
        assert lines[2] == "MATCH"

    def test_custom_symbol(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle-theta", "--d", "5", "--r", "3", "--i", "1", "--j", "3",
            "--f", "1/2,-3",
        )
        assert code == 0
        assert "MATCH" in out


    def test_largest_accepted_order(self, capsys):
        # Both caps together: (r, i, j) = (3, 1, 3) is among the slowest
        # cases at the order cap, and a symbol at the bit cap makes the
        # longest coefficients.
        cap = str(cli.ORACLE_THETA_MAX_D)
        b = cli.ORACLE_THETA_MAX_BITS
        symbol = f"{2**b - 1}/{2**b - 3},{2**b - 5}/{2**b - 7}"
        code, out, _ = run(
            capsys, "oracle-theta", "--d", cap, "--r", "3", "--i", "1", "--j", "3", "--f", symbol
        )
        assert code == 0
        th = theta(cli.ORACLE_THETA_MAX_D, 3, 1, 3)
        assert out.splitlines() == [f"oracle ratio:  {th}", f"formula theta: {th}", "MATCH"]

    def test_order_above_cap_is_refused(self, capsys):
        above = str(cli.ORACLE_THETA_MAX_D + 1)
        with pytest.raises(SystemExit) as info:
            main(["oracle-theta", "--d", above, "--r", "3", "--i", "1", "--j", "3"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--d" in captured.err

    BITS = cli.ORACLE_THETA_MAX_BITS

    def test_symbol_at_bit_cap(self, capsys):
        b = self.BITS
        symbol = f"{2**b - 1}/{2**b - 3},-{2**b - 5}/{2**b - 7}"
        code, out, _ = run(
            capsys, "oracle-theta", "--d", "5", "--r", "3", "--i", "1", "--j", "3", "--f", symbol
        )
        assert code == 0
        assert out.splitlines()[-1] == "MATCH"

    @pytest.mark.parametrize("symbol", [f"{2**BITS},1", f"1,-1/{2**BITS}"])
    def test_symbol_above_bit_cap_is_refused(self, capsys, symbol):
        with pytest.raises(SystemExit) as info:
            main(["oracle-theta", "--d", "5", "--r", "3", "--i", "1", "--j", "3", "--f", symbol])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and f"got {self.BITS + 1}" in captured.err

    def test_decimal_symbol_is_refused(self, capsys):
        code, out, err = run(
            capsys, "oracle-theta", "--d", "5", "--r", "3", "--i", "1", "--j", "3", "--f", "1.5,1"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


@pytest.mark.parametrize("source", ["--f", "json", "expr"])
def test_zero_denominator_is_refused_by_name(capsys, tmp_path, source):
    if source == "--f":
        argv = ["oracle-theta", "--d", "5", "--r", "3", "--i", "1", "--j", "3", "--f", "1/0,1"]
    else:
        path = tmp_path / "f.json"
        path.write_text('{"order": 1, "coeffs": ["1/0", "1"]}')
        first = [str(path)] if source == "json" else ["--expr", "1/0*x1 + x2"]
        argv = ["transvect", *first, "--expr", "x2", "--q", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: zero denominator in '1/0'")


class TestInputCaps:
    """Each cap accepts its own value and refuses one more with exit 2."""

    CASES = [
        ("syzygy-table", ["--r", "3"], "--d", cli.SYZYGY_TABLE_MAX_D),
        ("gamma", ["--r", "3"], "--d", cli.GAMMA_MAX_D),
        ("verify", ["--r", "3", "--trials", "1"], "--d", cli.PENCIL_MAX_D),
        ("verify", ["--d", "5"], "--trials", cli.VERIFY_MAX_TRIALS),
        ("verify", ["--d", "5", "--trials", "1"], "--bound", cli.PENCIL_MAX_BOUND),
        ("recover", ["--r", "3"], "--d", cli.PENCIL_MAX_D),
        ("recover", ["--d", "5", "--r", "3"], "--bound", cli.PENCIL_MAX_BOUND),
        ("ninej-combinant", ["--r", "3", "--i", "1", "--j", "1"], "--d",
         cli.NINEJ_COMBINANT_MAX_D),
    ]

    @pytest.mark.parametrize("command,rest,option,cap", CASES)
    def test_cap_is_accepted(self, capsys, command, rest, option, cap):
        code, out, _ = run(capsys, command, *rest, option, str(cap))
        assert code == 0
        assert out

    @pytest.mark.parametrize("command,rest,option,cap", CASES)
    def test_above_cap_is_refused(self, capsys, command, rest, option, cap):
        with pytest.raises(SystemExit) as info:
            main([command, *rest, option, str(cap + 1)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and option in captured.err


class TestFormOrderCaps:
    """transvect and combinants accept forms of the capped order, refuse one more."""

    CASES = [
        ("transvect", ["--q", "1"], cli.TRANSVECT_MAX_ORDER),
        ("combinants", [], cli.COMBINANTS_MAX_D),
    ]

    @pytest.mark.parametrize("command,rest,cap", CASES)
    def test_cap_is_accepted(self, capsys, command, rest, cap):
        code, out, _ = run(capsys, command, "--expr", f"x1^{cap}", "--expr", f"x2^{cap}", *rest)
        assert code == 0
        assert out

    @pytest.mark.parametrize("command,rest,cap", CASES)
    def test_above_cap_is_refused(self, capsys, command, rest, cap):
        with pytest.raises(SystemExit) as info:
            main([command, "--expr", f"x1^{cap + 1}", "--expr", f"x2^{cap + 1}", *rest])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "order" in captured.err

    def test_one_oversized_transvect_input_is_refused(self, capsys):
        cap = cli.TRANSVECT_MAX_ORDER
        with pytest.raises(SystemExit) as info:
            main(["transvect", "--expr", "x1", "--expr", f"x2^{cap + 1}", "--q", "1"])
        assert info.value.code == 2
        assert f"got {cap + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "expr"])
    def test_long_distinct_denominators_are_refused_quickly(self, capsys, tmp_path, source):
        # Distinct 40-digit denominators: the common denominator of this form
        # would have about 1.3 million bits, so it must be refused unbuilt.
        order = 10_000
        text = " + ".join(f"1/{10**39 + k}*x1^{order - k}*x2^{k}" for k in range(order + 1))
        if source == "file":
            path = tmp_path / "form.txt"
            path.write_text(text)
            inputs = [str(path)]
        else:
            inputs = ["--expr", text]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["transvect", *inputs, "--expr", "x2^2", "--q", "1"])
        assert time.perf_counter() - start < 1.0
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and f"got {order}" in captured.err


class TestFormCoefficientCaps:
    """transvect and combinants accept numerators and a common denominator of
    the capped bit length, and refuse one more bit."""

    BITS = cli.COEFF_MAX_BITS
    HALF = BITS // 2
    # (second input form at the cap, the same form one bit over it)
    INPUTS = {
        "numerator": (f"{2**BITS - 1}*x1^2", f"{2**BITS}*x1^2"),
        "denominator": (f"1/{2**BITS - 1}*x1^2", f"1/{2**BITS}*x1^2"),
        # Short denominators whose lcm is long: 2^(h-1) (2^h + 1) has 2h bits.
        "lcm": (
            f"1/{2**(HALF - 1)}*x1^2 + 1/{2**HALF + 1}*x1*x2",
            f"1/{2**HALF}*x1^2 + 1/{2**HALF + 1}*x1*x2",
        ),
    }
    COMMANDS = {"transvect": ["--q", "1"], "combinants": []}

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_cap_is_accepted(self, capsys, command, kind):
        form = self.INPUTS[kind][0]
        code, out, _ = run(capsys, command, "--expr", "x2^2", "--expr", form, *self.COMMANDS[command])
        assert code == 0
        assert out

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_above_cap_is_refused(self, capsys, command, kind):
        form = self.INPUTS[kind][1]
        with pytest.raises(SystemExit) as info:
            main([command, "--expr", "x2^2", "--expr", form, *self.COMMANDS[command]])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and f"got {self.BITS + 1}" in captured.err


class TestGamma:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "gamma", "--r", "3", "--d", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma(3,7) = 11/21"
        assert lines[1] == "gamma(3,5) = 2/3"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gamma", "--r", "3", "--d", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == "11/21"
        assert payload["dn_difference"] == payload["dn_factored"]


class TestDimSyzygy:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "dim-syzygy", "--d", "7", "--r", "3")
        assert code == 0
        assert out.strip() == "1"

    def test_huge_order_is_constant_time(self, capsys):
        code, out, _ = run(capsys, "dim-syzygy", "--d", "1000000000", "--r", "500000000")
        assert code == 0
        assert out.strip() == "20833333333333333"


class TestNinej:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "ninej", "--twice-j", "0,0,0,0,0,0,0,0,0")
        assert code == 0
        assert out.strip() == "1"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "ninej", "--twice-j", "2,2,2,2,2,2,2,2,2", "--json"
        )
        assert code == 0
        json.loads(out)

    def test_bad_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "ninej", "--twice-j", "1,2,3")
        assert info.value.code == 2

    def test_largest_accepted_entry(self, capsys):
        cap = cli.NINEJ_MAX_TWICE_J
        code, out, _ = run(capsys, "ninej", "--twice-j", ",".join([str(cap)] * 9))
        assert code == 0
        value = out.strip()
        assert value != "0" and " " not in value  # one nonzero surd

    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_entry_above_cap_is_refused(self, capsys, position):
        twice = ["2"] * 9
        twice[position] = str(cli.NINEJ_MAX_TWICE_J + 1)
        with pytest.raises(SystemExit) as info:
            main(["ninej", "--twice-j", ",".join(twice)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--twice-j" in captured.err

    @pytest.mark.parametrize(
        "twice_j",
        [
            "\u0663,\u0663,\u0662,\u0663,\u0663,\u0662,\u0662,\u0662,\u0662",
            "1_0,10,0,0,0,0,10,10,0",
            " 2, 2 ,2,2,2,2,2,2,2",
            "+2,2,2,2,2,2,2,2,2",
        ],
    )
    def test_entries_in_other_spellings_are_refused(self, capsys, twice_j):
        with pytest.raises(SystemExit) as info:
            main(["ninej", "--twice-j", twice_j])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --twice-j entries must be integers" in captured.err


class TestIntegerOptions:
    """Every integer option reads ASCII digits with an optional '-', and nothing else."""

    # A valid call of each command with an integer option, naming all of them.
    VALID = {
        "transvect": ["--expr", "x1^2", "--expr", "x2^2", "--q", "1"],
        "syzygy-table": ["--d", "7", "--r", "3"],
        "verify": ["--d", "5", "--r", "3", "--trials", "1", "--seed", "1", "--bound", "10"],
        "recover": ["--d", "5", "--r", "3", "--seed", "1", "--bound", "10"],
        "oracle-theta": ["--d", "5", "--r", "3", "--i", "1", "--j", "1"],
        "gamma": ["--r", "3", "--d", "7"],
        "dim-syzygy": ["--d", "7", "--r", "3"],
        "ninej-combinant": ["--d", "7", "--r", "3", "--i", "1", "--j", "2"],
    }
    OPTIONS = [
        (command, option) for command, argv in VALID.items() for option in argv[::2]
        if option != "--expr"
    ]

    def test_every_typed_option_uses_the_reader(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        typed = {
            (command, option): action.type
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is not None
            for option in action.option_strings
        }
        assert set(typed.values()) == {cli._int}
        assert set(typed) == set(self.OPTIONS)

    @pytest.mark.parametrize("command,option", OPTIONS)
    @pytest.mark.parametrize(
        "spell",
        [
            lambda v: "".join(chr(0x0660 + int(c)) for c in v),
            lambda v: "".join(chr(0xFF10 + int(c)) for c in v),
            lambda v: f"{v}_0",
            lambda v: f"+{v}",
            lambda v: f" {v}",
            lambda v: f"{v} ",
        ],
        ids=["arabic-indic", "fullwidth", "underscore", "plus", "leading-space", "trailing-space"],
    )
    def test_other_spellings_are_refused_by_name(self, capsys, command, option, spell):
        argv = list(self.VALID[command])
        k = argv.index(option) + 1
        bad = argv[k] = spell(argv[k])
        with pytest.raises(SystemExit) as info:
            main([command, *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {option}: invalid int value: {bad!r}" in captured.err


class TestNinejCombinant:
    def test_equivalence_report(self, capsys):
        code, out, _ = run(
            capsys, "ninej-combinant", "--d", "7", "--r", "3", "--i", "1", "--j", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "B  = [7/2 7/2 6; 7/2 7/2 4; 6 2 8]"
        assert lines[1] == "B' = [6 8 2; 7/2 6 7/2; 7/2 4 7/2]"
        assert "equivalent: yes" in out
        assert "theta = -40/11" in out
        assert "theta/ninej = " in out

    def test_slowest_case_at_the_cap(self, capsys):
        # The top weight with i near r/2 and j = 1 gives the permuted array
        # its widest x-sum.
        d = cli.NINEJ_COMBINANT_MAX_D
        code, out, _ = run(
            capsys, "ninej-combinant", "--d", str(d), "--r", str(d // 2),
            "--i", str(d // 4), "--j", "1",
        )
        assert code == 0
        assert "equivalent: yes" in out


class TestDispatchContract:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_format_option_is_gone(self, capsys):
        # `--json` is the one switch for structured output.
        with pytest.raises(SystemExit) as info:
            main(["syzygy-table", "--d", "7", "--r", "3", "--format", "json"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma", "--r", "2", "--d", "7"],
             "weight index r=2 outside 3..floor((d+1)/2) for d=7"),
            (["syzygy-table", "--d", "7", "--r", "5"],
             "weight index r=5 outside 3..floor((d+1)/2) for d=7"),
            (["ninej-combinant", "--d", "7", "--r", "3", "--i", "3", "--j", "3"],
             "projection indices (i,j)=(3,3) out of range for r=3"),
        ],
    )
    def test_range_errors_exit_2_with_one_message(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_missing_required_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["syzygy-table", "--d", "7"])
        assert info.value.code == 2

    def test_deterministic_output(self, capsys):
        args = ["verify", "--d", "7", "--r", "3", "--trials", "3", "--seed", "2"]
        code1 = main(args)
        first = capsys.readouterr().out
        code2 = main(args)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second
