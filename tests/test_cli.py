"""Command-line interface: dispatch, formats, exit codes, determinism."""
import argparse
import errno
import importlib
import json
import os
import random
import re
import sys
import time
from pathlib import Path

import pytest

from pencils import (
    BinaryForm,
    Pencil,
    cli,
    combinant_9j_array,
    combinant_sequence,
    index_pairs,
    theta,
    transvectant,
    wigner9j,
)
from pencils.cli import main
from pencils.forms import _shown
from pencils.serialize import form_from_dict, form_to_dict

from helpers import sixj_keys


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

    def test_deeply_nested_json_is_refused(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"order": ' + "[" * 200_000 + "]" * 200_000 + "}")
        with pytest.raises(SystemExit) as info:
            main(["transvect", str(path), "--expr", "x2", "--q", "0"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read {_shown(str(path))}: " in captured.err

    def test_unreadable_path_is_named_once_with_its_reason(self, capsys, tmp_path, monkeypatch):
        # The OSError's own text repeats the path, so only its reason is shown.
        monkeypatch.chdir(tmp_path)
        for path, shown, reason in (
            ("missing.form", "'missing.form'", errno.ENOENT),
            ("a" * 3000, "a str of 3000 characters", errno.ENAMETOOLONG),
        ):
            with pytest.raises(SystemExit) as info:
                main(["transvect", path, "--expr", "x2", "--q", "0"])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            line = captured.err.splitlines()[-1]
            assert line == f"pencils: error: cannot read {shown}: {os.strerror(reason)}"
            assert len(line) < 200

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"order": %s, "coeffs": [1]}' % ("9" * 3000),
             "'coeffs' must be a list of a number of 3001 digits entries"),
            (json.dumps({"order": 0, "coeffs": [list(range(1500))]}),
             "coefficients must be integers or 'p/q' strings, got a value of type list"),
            (json.dumps({"order": 0, "coeffs": ["x" * 3000]}),
             "expected an integer or 'p/q' rational, got a str of 3000 characters"),
        ],
        ids=["long-order", "list-coefficient", "long-string-coefficient"],
    )
    def test_long_json_value_is_named_in_one_short_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out, err = run(capsys, "transvect", str(path), "--expr", "x2", "--q", "0")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert len(err) < 120


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

    @pytest.mark.parametrize("d", [5, 8, 13])
    def test_lines_match_theta(self, capsys, d):
        for r in range(3, (d + 1) // 2 + 1):
            alphas = [((i, j), (1 if i == j else 2) * theta(d, r, i, j)) for i, j in index_pairs(r)]
            code, out, _ = run(capsys, "syzygy-table", "--d", str(d), "--r", str(r))
            assert code == 0
            assert out.splitlines() == [f"alpha[{i},{j}] = {a}" for (i, j), a in alphas]
            code, out, _ = run(capsys, "syzygy-table", "--d", str(d), "--r", str(r), "--json")
            assert code == 0
            payload = json.loads(out)
            assert (payload["d"], payload["r"]) == (d, r)
            assert list(payload["alphas"].items()) == [(f"{i},{j}", str(a)) for (i, j), a in alphas]


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

    def test_wrong_direct_value_prints_failed(self, capsys, monkeypatch):
        real = cli.transvectant
        monkeypatch.setattr(cli, "transvectant", lambda f, g, q: real(f, g, q) * 2)
        code, out, _ = run(capsys, "recover", "--d", "7", "--r", "4", "--seed", "5")
        assert code == 1
        assert out.splitlines() == ["recovered C7 differs from direct transvectant", "FAILED"]


class TestOracleTheta:
    def test_wrong_formula_prints_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "theta", lambda d, r, i, j: theta(d, r, i, j) + 1)
        code, out, _ = run(
            capsys, "oracle-theta", "--d", "5", "--r", "3", "--i", "2", "--j", "2"
        )
        assert code == 1
        assert out.splitlines() == ["oracle ratio:  -75/49", "formula theta: -26/49", "MISMATCH"]

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
        ("dim-syzygy", ["--r", "3"], "--d", cli.DIM_SYZYGY_MAX_D),
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

    # Each cap also holds at the slow corner of the other arguments, with
    # full output: the top weight of the widest table, and the widest
    # pencils with the largest coefficients in the most trials.
    def test_syzygy_table_cap_at_top_weight(self, capsys):
        d = cli.SYZYGY_TABLE_MAX_D
        r = (d + 1) // 2
        code, out, _ = run(capsys, "syzygy-table", "--d", str(d), "--r", str(r))
        assert code == 0
        table = dict(line.split(" = ") for line in out.splitlines())
        assert list(table) == [f"alpha[{i},{j}]" for i, j in index_pairs(r)]
        for i, j in ((1, 1), (1, r), (2, r - 1), (r // 2, r // 2), (r // 2, r // 2 + 1)):
            assert table[f"alpha[{i},{j}]"] == str((1 if i == j else 2) * theta(d, r, i, j))

    # The top weight with i near r/2 and j = 1 gives the permuted array of
    # `ninej-combinant` its widest x-sum.
    def test_ninej_combinant_cap_at_slow_corner(self, capsys):
        d = cli.NINEJ_COMBINANT_MAX_D
        r, i = d // 2, d // 4
        code, out, _ = run(
            capsys, "ninej-combinant", "--d", str(d), "--r", str(r), "--i", str(i), "--j", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [
            "B  = [250 250 251; 250 250 499; 499 1 500]",
            "B' = [499 500 1; 250 251 250; 250 499 250]",
        ]
        assert lines[2].startswith("ninej(B)  = ") and lines[3].startswith("ninej(B') = ")
        assert lines[2].split(" = ")[1] == lines[3].split(" = ")[1] != "0"
        assert lines[4:6] == ["equivalent: yes", f"theta = {theta(d, r, i, 1)}"]
        assert lines[6].startswith("theta/ninej = ") and "unavailable" not in lines[6]
        assert len(lines) == 7

    # The widest forms with every numerator at the bit cap: the output must
    # read back equal to the library's value.
    @staticmethod
    def capped_forms(tmp_path, order):
        """Two seeded forms of the order, each numerator of exactly the capped
        bit length, and the paths of their JSON files."""
        rng = random.Random(order)
        bits = cli.COEFF_MAX_BITS
        forms, paths = [], []
        for name in ("f.json", "g.json"):
            coeffs = [
                rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << bits - 1)
                for _ in range(order + 1)
            ]
            forms.append(BinaryForm(order, coeffs))
            path = tmp_path / name
            path.write_text(json.dumps(form_to_dict(forms[-1])))
            paths.append(str(path))
        return forms, paths

    def test_combinants_cap_at_widest_coefficients(self, capsys, tmp_path):
        (a, b), paths = self.capped_forms(tmp_path, cli.COMBINANTS_MAX_D)
        code, out, _ = run(capsys, "combinants", *paths, "--json")
        assert code == 0
        seq = [form_from_dict(obj) for obj in json.loads(out)]
        assert len(seq) == (cli.COMBINANTS_MAX_D + 1) // 2
        assert seq == list(combinant_sequence(Pencil(a, b)))

    def test_transvect_cap_at_widest_coefficients(self, capsys, tmp_path):
        (f, g), paths = self.capped_forms(tmp_path, cli.TRANSVECT_MAX_ORDER)
        q = cli.TRANSVECT_MAX_ORDER // 3
        code, out, _ = run(capsys, "transvect", *paths, "--q", str(q), "--json")
        assert code == 0
        assert form_from_dict(json.loads(out)) == transvectant(f, g, q)

    def test_verify_caps_together(self, capsys):
        d, trials = cli.PENCIL_MAX_D, cli.VERIFY_MAX_TRIALS
        code, out, _ = run(
            capsys, "verify", "--d", str(d), "--bound", str(cli.PENCIL_MAX_BOUND),
            "--trials", str(trials),
        )
        assert code == 0
        expected = [f"r={r}: {trials}/{trials} syzygies vanish" for r in range(3, (d + 1) // 2 + 1)]
        assert out.splitlines() == expected

    # A refused int of more than 20 digits is named by its digit count, and
    # a refused text of more than 40 characters by its length, not echoed in
    # full; a shorter value is echoed whatever the cap.
    LONG = "9" * 3000
    EXPONENT = "1" * 4000

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle-theta", "--r", "3", "--i", "1", "--j", "1", "--d", LONG],
             "--d must be at most 36 for oracle-theta, got a number of 3000 digits"),
            (["verify", "--d", "5", "--trials", LONG],
             "--trials must be at most 20 for verify, got a number of 3000 digits"),
            (["ninej", "--twice-j", f"1,2,3,4,5,6,7,8,{LONG}"],
             "--twice-j entries must be at most 500 for ninej, got a number of 3000 digits"),
            (["ninej", f"--twice-j=1,2,3,4,-{LONG},6,7,8,9"],
             "--twice-j entries must be nonnegative, got a negative number of 3000 digits"),
            (["transvect", "--expr", "x1", "--expr", "x2", "--q", LONG],
             "q must be in 0..1, got a number of 3000 digits"),
            (["syzygy-table", "--d", "7", "--r", LONG],
             "r must be in 3..4, got a number of 3000 digits"),
            (["oracle-theta", "--d", "7", "--r", "3", "--i", LONG, "--j", "1"],
             "i must be in 1..3, got a number of 3000 digits"),
            (["oracle-theta", "--r", "3", "--i", "1", "--j", "1", "--d", "1000"],
             "--d must be at most 36 for oracle-theta, got 1000"),
            (["oracle-theta", "--d", "7", "--r", "3", "--i", "1", "--j", "1", "--f",
              "1," + "x" * 3000],
             "expected an integer or 'p/q' rational, got a str of 3000 characters"),
            (["oracle-theta", "--d", "7", "--r", "3", "--i", "1", "--j", "1", "--f",
              ",".join(["1"] * 1500)],
             "expected two comma-separated rationals, got a str of 2999 characters"),
            (["transvect", "--expr", f"x1^{EXPONENT}", "--expr", "x2", "--q", "0"],
             "degree a number of 4000 digits exceeds the largest order 10000 (at position 0)"),
            (["transvect", "--expr", f"x1^2 + x1^{EXPONENT}", "--expr", "x2", "--q", "0"],
             "inhomogeneous term a str of 4003 characters: degree a number of 4000 digits "
             "differs from 2 (at position 5)"),
        ],
        ids=["d", "trials", "twice-j", "twice-j-negative", "q", "r", "i", "d-mid-length",
             "f-long-part", "f-many-parts", "expr-degree", "expr-inhomogeneous"],
    )
    def test_long_refused_value_is_named_by_digit_count(self, capsys, argv, message):
        # A capped option is refused by the parser, a range by the library.
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}\n" in captured.err
        assert len(captured.err.splitlines()[-1]) < 120


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

    def test_negative_entry_is_refused(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ninej", "--twice-j=2,2,2,2,-2,2,2,2,2"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --twice-j entries must be nonnegative, got -2" in captured.err
        # With a space, argparse reads a leading '-' as the next option.
        with pytest.raises(SystemExit) as info:
            main(["ninej", "--twice-j", "-2,2,2,2,2,2,2,2,2"])
        assert info.value.code == 2
        assert "argument --twice-j: expected one argument" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,option", OPTIONS)
    @pytest.mark.parametrize("bad", ["9" * 5000, "x" * 3000], ids=["5000-digits", "3000-letters"])
    def test_long_spellings_are_refused_in_one_short_line(self, capsys, command, option, bad):
        # Past Python's 4,300-digit limit int() refuses the digits, so both
        # spellings reach the reader's refusal, which names them by length.
        argv = list(self.VALID[command])
        argv[argv.index(option) + 1] = bad
        with pytest.raises(SystemExit) as info:
            main([command, *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.endswith(f"error: argument {option}: invalid int value: a str of {len(bad)} characters")
        assert len(last) < 120


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

    def test_unequal_symbols_print_no(self, capsys, monkeypatch):
        real = cli._ninej_as_given
        monkeypatch.setattr(cli, "_ninej_as_given", lambda rows: real(rows) * 2)
        code, out, _ = run(
            capsys, "ninej-combinant", "--d", "7", "--r", "3", "--i", "1", "--j", "2"
        )
        assert code == 1
        assert "equivalent: NO" in out.splitlines()

    def test_b_prime_is_summed_along_its_own_x(self, capsys, monkeypatch):
        # At (6, 3, 2, 2) B and B' have one shortest x-sum, so B' oriented
        # as B is would take only the 6j symbols of B.
        base, _ = combinant_9j_array(6, 3, 2, 2)
        keys = sixj_keys(monkeypatch, lambda: wigner9j(base))
        argv = ("ninej-combinant", "--d", "6", "--r", "3", "--i", "2", "--j", "2")
        assert keys < sixj_keys(monkeypatch, lambda: run(capsys, *argv))


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
             "r must be in 3..4, got 2"),
            (["syzygy-table", "--d", "7", "--r", "5"],
             "r must be in 3..4, got 5"),
            (["syzygy-table", "--d", "4", "--r", "3"],
             "d must be at least 5, got 4"),
            (["ninej-combinant", "--d", "7", "--r", "3", "--i", "3", "--j", "3"],
             "j must be in 1..1, got 3"),
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


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_runs_dim_syzygy(monkeypatch, capsys):
    # The `pencils` entry point that an install writes as a script, read
    # with a regex because Python 3.10 has no tomllib, then called as that
    # script calls it.
    text = PYPROJECT.read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    module, name = re.search(r'^pencils\s*=\s*"([\w.]+):(\w+)"\s*$', section, re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.run
    monkeypatch.setattr(sys, "argv", ["pencils", "dim-syzygy", "--d", "7", "--r", "3"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert capsys.readouterr().out == "1\n"
