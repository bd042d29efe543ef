"""Command-line front end.

Exit codes: 0 on success or a passed verification, 1 on a failed
verification, 2 on usage or input errors.  All results go to stdout,
diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .angular import NineJArray, SurdSum, _ninej_as_given, combinant_9j_array, wigner9j
from .combinant import Pencil, combinant_sequence, random_pencil
from .errors import AlgebraError, FormulaViolationError
from .forms import DIGITS, BinaryForm, LinearSymbol, _shown, to_fraction
from .omega import omega_chain
from .parsing import format_form, parse_coeffs
from .serialize import coeffs_from_dict, form_to_dict, table_to_dict
from .syzygy import (
    evaluate_syzygy,
    gamma,
    positivity_certificate,
    recover_combinant,
    syzygy_space_dim,
    syzygy_table,
    theta,
)
from .transvectant import transvectant

# Input caps: each command refuses larger input with exit 2, so every run it
# accepts ends within a few seconds.  Each cap was set by timing the slowest
# accepted input; CHANGES.md records the figures.
#
# `transvect`: the cost grows as the product of the two orders, most at q
# near a third to a half of the order.
TRANSVECT_MAX_ORDER = 300
# `combinants`: (d+1)/2 transvectants from one pack of A and one of B.
COMBINANTS_MAX_D = 120
# Bit length of the integer numerators of a `transvect` or `combinants`
# input form over their common denominator, and of that denominator: the
# cost of both commands grows with it, and with distinct denominators every
# numerator is as long as their lcm.
COEFF_MAX_BITS = 128
# `oracle-theta`: stages one and two contract O(r) term pairs of the factors
# over (d+1)x(d+1) weight tables and sum as many outer products of about 2d
# numerators each.  At this cap with a 4-bit symbol, 70 cases (every (i, j)
# at r = 3..5 and three corners at each r = 6..18) took 0.11-0.27 s as a
# process (best of 2, shared 2-core host, Python 3.11).
ORACLE_THETA_MAX_D = 36
# Bits of the numerators and denominators of `oracle-theta --f`: the
# chain's coefficients grow as the symbol's 4d-th power.
ORACLE_THETA_MAX_BITS = 4
# `syzygy-table`: about r^2/4 entries, each two binomials and three falling
# factorials reduced once.  At (300, 150) the table takes 0.13-0.20 s in-process
# and the command 0.24-0.37 s (4 processes; shared 2-core host, Python 3.11).
SYZYGY_TABLE_MAX_D = 300
# `gamma`: gamma(r, d) has about d/4 digits, and Python refuses to print an
# int of more than 4300.
GAMMA_MAX_D = 10000
# `dim-syzygy`: the dimension has about 2*log10(d) digits, and Python refuses
# to print an int of more than 4300.
DIM_SYZYGY_MAX_D = 10**18
# Order and coefficient bound of the random pencils of `verify` and
# `recover`, and the most `verify` trials: the cost grows with the order,
# the bound's bit length and the number of trials.
PENCIL_MAX_D = 22
PENCIL_MAX_BOUND = 10**9
VERIFY_MAX_TRIALS = 20
# `ninej`: the 9j cost grows about as the cube of the entries.  With all
# nine 2j = 500, a cold `wigner9j` takes 0.24-0.27 s (median 0.26 s) and
# the command 0.30-0.44 s (median 0.33 s), over 10 fresh processes on a
# shared 2-core host with Python 3.11.
NINEJ_MAX_TWICE_J = 500
# `ninej-combinant`: the permuted array at the top weight, with i near r/2
# and j = 1, is the slowest, as the check sums B' along x as given, over
# about d values.  At (500, 250, 125, 1) a cold `wigner9j(B)` takes 1.3-1.6
# ms, the cold sum of B' 0.24-0.33 s (median 0.26 s) and the command
# 0.30-0.39 s (median 0.32 s), measured in the same way.
NINEJ_COMBINANT_MAX_D = 500


_INTEGER = re.compile(f"-?{DIGITS}")


def _int(text: str) -> int:
    """The one reader of a command-line integer: ASCII digits with an optional
    '-', and no '+', underscore, space or other script's digits."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")


def _check_cap(parser, args, option, cap):
    value = getattr(args, option[2:])
    if value > cap:
        parser.error(f"{option} must be at most {cap} for {args.command}, got {_shown(value)}")


def _bits(values) -> int:
    """Largest bit length of the numerators and denominators of `values`."""
    return max(max(abs(c.numerator), c.denominator).bit_length() for c in values)


def _add_format_flags(parser):
    parser.add_argument("--json", action="store_true", help="structured JSON output")


def _add_form_inputs(parser):
    parser.add_argument("paths", nargs="*", metavar="FILE", help="form files (JSON or expression text)")
    parser.add_argument(
        "--expr", action="append", default=[], help="inline form expression (repeatable)"
    )


def _load_forms(args, parser, count, cap):
    """The input forms, each refused before it is built if it breaks a cap.

    The checks run in order: the order cap, each coefficient on its own,
    then the common denominator.  The second bounds the cost of the third,
    which building the form computes: with distinct denominators, every
    numerator is as long as their lcm.
    """
    lists = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:  # its text repeats the path, so only its reason is shown
            parser.error(f"cannot read {_shown(path)}: {exc.strerror}")
        text = text.strip()
        if text.startswith("{"):
            # A bare JSON integer is read as a string coefficient's numeral is.
            try:
                obj = json.loads(text, parse_int=lambda numeral: to_fraction(numeral).numerator)
            except RecursionError as exc:
                parser.error(f"cannot read {_shown(path)}: {exc}")
            lists.append(coeffs_from_dict(obj))
        else:
            lists.append(parse_coeffs(text))
    lists.extend(parse_coeffs(expr) for expr in args.expr)
    if len(lists) != count:
        parser.error(f"expected {count} input forms, got {len(lists)}")
    order = max(len(coeffs) for coeffs in lists) - 1
    if order > cap:
        parser.error(f"input order must be at most {cap} for {args.command}, got {order}")
    forms = []
    for coeffs in lists:
        bits = _bits(coeffs)
        if bits <= COEFF_MAX_BITS:
            form = BinaryForm(len(coeffs) - 1, coeffs)
            bits = max(form._den, *map(abs, form._nums)).bit_length()
            forms.append(form)
        if bits > COEFF_MAX_BITS:
            parser.error(
                f"input numerators and their common denominator must have at most "
                f"{COEFF_MAX_BITS} bits for {args.command}, got {bits}"
            )
    return forms


def _print_form(form, args):
    if args.json:
        print(json.dumps(form_to_dict(form)))
    else:
        print(format_form(form))


def _cmd_transvect(args, parser):
    f, g = _load_forms(args, parser, 2, TRANSVECT_MAX_ORDER)
    _print_form(transvectant(f, g, args.q), args)
    return 0


def _cmd_combinants(args, parser):
    a, b = _load_forms(args, parser, 2, COMBINANTS_MAX_D)
    seq = combinant_sequence(Pencil(a, b))
    if args.json:
        print(json.dumps([form_to_dict(c) for c in seq]))
    else:
        for r, c in enumerate(seq, start=1):
            print(f"C{2 * r - 1} = {format_form(c)}")
    return 0


def _cmd_syzygy_table(args, parser):
    _check_cap(parser, args, "--d", SYZYGY_TABLE_MAX_D)
    table = syzygy_table(args.d, args.r)
    if args.json:
        print(json.dumps(table_to_dict(table)))
    else:
        for (i, j), value in table.items():
            print(f"alpha[{i},{j}] = {value}")
    return 0


def _check_pencil_caps(args, parser):
    _check_cap(parser, args, "--d", PENCIL_MAX_D)
    _check_cap(parser, args, "--bound", PENCIL_MAX_BOUND)


def _cmd_verify(args, parser):
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {_shown(args.trials)}")
    _check_pencil_caps(args, parser)
    _check_cap(parser, args, "--trials", VERIFY_MAX_TRIALS)
    d = args.d
    if args.r is not None:
        r_values = [args.r]
    else:
        r_values = list(range(3, (d + 1) // 2 + 1))
        if not r_values:
            parser.error(f"no valid weight indices for d={_shown(d)}")
    # The pencils depend only on the trial; each one, with the combinants it
    # keeps, serves every weight.
    good = dict.fromkeys(r_values, 0)
    for trial in range(args.trials):
        pencil = random_pencil(d, args.seed + trial, args.bound)
        for r in r_values:
            if evaluate_syzygy(pencil, r).is_zero():
                good[r] += 1
    for r in r_values:
        line = f"{good[r]}/{args.trials} syzygies vanish"
        if len(r_values) > 1:
            line = f"r={r}: " + line
        print(line)
    return 0 if sum(good.values()) == args.trials * len(r_values) else 1


def _cmd_recover(args, parser):
    _check_pencil_caps(args, parser)
    pencil = random_pencil(args.d, args.seed, args.bound)
    recovered = recover_combinant(pencil, args.r)
    direct = transvectant(pencil.a, pencil.b, 2 * args.r - 1)
    label = f"C{2 * args.r - 1}"
    if recovered == direct:
        print(f"recovered {label} matches direct transvectant")
        print("VERIFIED")
        return 0
    print(f"recovered {label} differs from direct transvectant")
    print("FAILED")
    return 1


def _cmd_oracle_theta(args, parser):
    _check_cap(parser, args, "--d", ORACLE_THETA_MAX_D)
    f = LinearSymbol.parse(args.f)
    bits = _bits((f.f1, f.f2))
    if bits > ORACLE_THETA_MAX_BITS:
        parser.error(
            f"--f numerators and denominators must have at most {ORACLE_THETA_MAX_BITS} "
            f"bits for oracle-theta, got {bits}"
        )
    ratio = omega_chain(args.d, args.r, args.i, args.j, f)
    formula = theta(args.d, args.r, args.i, args.j)
    print(f"oracle ratio:  {ratio}")
    print(f"formula theta: {formula}")
    if ratio == formula:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def _cmd_gamma(args, parser):
    _check_cap(parser, args, "--d", GAMMA_MAX_D)
    cert = positivity_certificate(args.r, args.d)
    if args.json:
        print(
            json.dumps(
                {
                    "r": cert.r,
                    "d": cert.d,
                    "gamma": str(cert.gamma),
                    "boundary_gamma": str(cert.boundary_value),
                    "dn_difference": str(cert.dn_difference),
                    "dn_factored": str(cert.dn_factored),
                }
            )
        )
    else:
        print(f"gamma({cert.r},{cert.d}) = {cert.gamma}")
        print(f"gamma({cert.r},{2 * cert.r - 1}) = {cert.boundary_value}")
        print(f"D - N = {cert.dn_difference} = (r-1)(r-2)(2r-1)(d-2r+3)")
    return 0


def _cmd_dim_syzygy(args, parser):
    _check_cap(parser, args, "--d", DIM_SYZYGY_MAX_D)
    print(syzygy_space_dim(args.d, args.r))
    return 0


def _parse_twice_j(text, parser):
    parts = text.split(",")
    if len(parts) != 9:
        parser.error("--twice-j needs nine comma-separated integers")
    try:
        values = [_int(p) for p in parts]
    except argparse.ArgumentTypeError:
        parser.error("--twice-j entries must be integers")
    low, high = min(values), max(values)
    if low < 0:
        parser.error(f"--twice-j entries must be nonnegative, got {_shown(low)}")
    if high > NINEJ_MAX_TWICE_J:
        parser.error(
            f"--twice-j entries must be at most {NINEJ_MAX_TWICE_J} for ninej, got {_shown(high)}"
        )
    return NineJArray.from_twice([values[0:3], values[3:6], values[6:9]])


def _cmd_ninej(args, parser):
    array = _parse_twice_j(args.twice_j, parser)
    value = wigner9j(array)
    if args.json:
        print(json.dumps({str(rad): str(c) for rad, c in sorted(value.terms.items())}))
    else:
        print(value)
    return 0


def _cmd_ninej_combinant(args, parser):
    _check_cap(parser, args, "--d", NINEJ_COMBINANT_MAX_D)
    base, permuted = combinant_9j_array(args.d, args.r, args.i, args.j)
    value = wigner9j(base)
    # B' summed along x as given: `wigner9j(B')` takes the shortest x-sum,
    # that of B or one as short, so it could repeat B's contraction.
    value_p = _ninej_as_given(permuted.twice_rows())
    print(f"B  = [{base}]")
    print(f"B' = [{permuted}]")
    print(f"ninej(B)  = {value}")
    print(f"ninej(B') = {value_p}")
    equivalent = value == value_p
    print(f"equivalent: {'yes' if equivalent else 'NO'}")
    th = theta(args.d, args.r, args.i, args.j)
    print(f"theta = {th}")
    if not value.is_zero():
        print(f"theta/ninej = {SurdSum.from_rational(th) / value}")
    else:
        print("theta/ninej = (unavailable: value is zero or not a single surd)")
    return 0 if equivalent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencils",
        description="Exact algebra of binary-form pencils: transvectants, "
        "combinants, quadratic syzygies, and recoupling cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "transvect", help=f"transvectant of two forms, each of order at most {TRANSVECT_MAX_ORDER}"
    )
    _add_form_inputs(p)
    p.add_argument("--q", type=_int, required=True, help="transvectant index")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_transvect)

    p = sub.add_parser(
        "combinants", help=f"combinant sequence of a pencil of order at most {COMBINANTS_MAX_D}"
    )
    _add_form_inputs(p)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_combinants)

    p = sub.add_parser("syzygy-table", help="syzygy coefficient table")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {SYZYGY_TABLE_MAX_D}")
    p.add_argument("--r", type=_int, required=True)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_syzygy_table)

    p = sub.add_parser("verify", help="check syzygy vanishing on random pencils")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {PENCIL_MAX_D}")
    p.add_argument("--r", type=_int, default=None)
    p.add_argument("--trials", type=_int, default=10, help=f"at most {VERIFY_MAX_TRIALS}")
    p.add_argument("--seed", type=_int, default=1)
    p.add_argument(
        "--bound", type=_int, default=10, help=f"coefficient bound, at most {PENCIL_MAX_BOUND}"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("recover", help="recover a combinant and compare to the direct value")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {PENCIL_MAX_D}")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--seed", type=_int, default=1)
    p.add_argument(
        "--bound", type=_int, default=10, help=f"coefficient bound, at most {PENCIL_MAX_BOUND}"
    )
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("oracle-theta", help="differential-operator check of a coefficient")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {ORACLE_THETA_MAX_D}")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--i", type=_int, required=True)
    p.add_argument("--j", type=_int, required=True)
    p.add_argument("--f", default="1,2", help="linear symbol components 'a,b'")
    p.set_defaults(handler=_cmd_oracle_theta)

    p = sub.add_parser("gamma", help="positivity ratio and its certificate")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {GAMMA_MAX_D}")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("dim-syzygy", help="dimension of the weight-2r syzygy space")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {DIM_SYZYGY_MAX_D}")
    p.add_argument("--r", type=_int, required=True)
    p.set_defaults(handler=_cmd_dim_syzygy)

    p = sub.add_parser("ninej", help="exact 9j symbol from doubled momenta")
    p.add_argument(
        "--twice-j",
        required=True,
        dest="twice_j",
        metavar="a,b,c,d,e,f,g,h,i",
        help="the nine doubled momenta row by row, each nonnegative and at most "
        f"{NINEJ_MAX_TWICE_J}",
    )
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_ninej)

    p = sub.add_parser("ninej-combinant", help="recoupling arrays for a coefficient")
    p.add_argument("--d", type=_int, required=True, help=f"order, at most {NINEJ_COMBINANT_MAX_D}")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--i", type=_int, required=True)
    p.add_argument("--j", type=_int, required=True)
    p.set_defaults(handler=_cmd_ninej_combinant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except FormulaViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AlgebraError, ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
