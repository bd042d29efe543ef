"""The four workloads: seeded inputs, the timed call of each op, its exact check.

A workload builds one *round* of ops from the seed.  Every round of a run
holds the same ops and runs in a fresh interpreter, so rounds cost the same
and no cache survives from one round to the next.  `call` is the part that
is timed; `check` compares its output with an exact expectation and runs
outside the timer.  A check returns an error message, or None when the
output is right.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pencils as P

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

Op = namedtuple("Op", "kind args")


def chain_pairs(r):
    """All (i, j), order mattering, with 1 <= i, j and i + j <= r + 1."""
    return [(i, j) for i in range(1, r + 1) for j in range(1, r + 1) if i + j <= r + 1]


def weights(d):
    return range(3, (d + 1) // 2 + 1)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# --- syzygy-large -----------------------------------------------------------

SYZYGY_ORDERS = (12, 13, 14, 15, 16)
PENCILS_PER_ORDER = 3
RECOVER_WEIGHT = 3


def make_syzygy(seed, workdir):
    """Several pencils per order, so that no single pencil sets a percentile."""
    rng = _rng("syzygy-large", seed)
    ops = []
    for d in SYZYGY_ORDERS:
        for _ in range(PENCILS_PER_ORDER):
            pencil = P.random_pencil(d, rng.getrandbits(31), 10)
            ops.append(Op("syzygy", (pencil.a, pencil.b)))
    return ops


def call_syzygy(op):
    a, b = op.args
    pencil = P.Pencil(a, b)
    top = (pencil.order + 1) // 2
    return P.evaluate_syzygy(pencil, top), P.recover_combinant(pencil, RECOVER_WEIGHT)


def check_syzygy(op, result):
    a, b = op.args
    d = a.order
    zero, recovered = result
    if zero.order != 4 * (d - (d + 1) // 2) or not zero.is_zero():
        return f"d={d}: top-weight syzygy is not the zero form"
    if recovered != P.transvectant(a, b, 2 * RECOVER_WEIGHT - 1):
        return f"d={d}: recovered C{2 * RECOVER_WEIGHT - 1} differs from the transvectant"
    return None


# --- oracle-chain -----------------------------------------------------------

# Ops per round for each weight (d, r).  The chain applies omega 2r times
# whatever (i, j) is, so an op's cost is set by (d, r) and the symbol; the
# counts put the median inside the (6,3)/(7,4) block and p80 inside the
# (7,3)/(8,4) block, whichever points the seed picks.
ORACLE_MIX = {(5, 3): 3, (6, 3): 3, (7, 4): 3, (7, 3): 3, (8, 4): 3, (8, 3): 1}
ORACLE_SYMBOLS = (P.LinearSymbol(1, 2), P.LinearSymbol(2, -3))


def make_oracle(seed, workdir):
    """Chain-grid points (i, j) per weight, half with each symbol.

    The points of a weight are evenly spaced through its grid from a seeded
    start, so every seed draws a like mix of small and large i.
    """
    rng = _rng("oracle-chain", seed)
    points = []
    for (d, r), count in ORACLE_MIX.items():
        grid = chain_pairs(r)
        start = rng.randrange(len(grid))
        points += [(d, r, *grid[(start + k * len(grid) // count) % len(grid)])
                   for k in range(count)]
    rng.shuffle(points)
    return [Op("theta", point + (ORACLE_SYMBOLS[k % 2],)) for k, point in enumerate(points)]


def call_oracle(op):
    return P.verify_theta(*op.args)


def check_oracle(op, result):
    d, r, i, j, _ = op.args
    expected = P.theta(d, r, i, j)
    if result != expected:
        return f"chain ratio {result} != theta {expected} at {op.args[:4]}"
    return None


# --- recoupling -------------------------------------------------------------

RECOUPLING_MAX_ORDER = 21
SMALL_TWICE_J = 3
NINEJ_VALUES = Path(__file__).resolve().parent / "ninej_values.json"


def pair_args():
    """Every (d, r, i, j) of a combinant 9j pair with d <= RECOUPLING_MAX_ORDER."""
    return [
        (d, r, i, j)
        for d in range(5, RECOUPLING_MAX_ORDER + 1)
        for r in weights(d)
        for i, j in chain_pairs(r)
    ]


def surd_to_dict(value):
    """An exact SurdSum as {radicand: "p/q"}, independent of its printed form."""
    return {str(rad): str(coeff) for rad, coeff in sorted(value.terms.items())}


@functools.cache
def recorded_ninej():
    """The 9j value of every pair, as recorded from the commit that added the benchmark."""
    table = json.loads(NINEJ_VALUES.read_text(encoding="utf-8"))
    return {
        tuple(map(int, key.split(","))):
        P.SurdSum({int(rad): Fraction(coeff) for rad, coeff in terms.items()})
        for key, terms in table.items()
    }


def make_recoupling(seed, workdir):
    """All combinant 9j pairs for d <= 21, plus half as many small arrays."""
    rng = _rng("recoupling", seed)
    ops = [Op("pair", args) for args in pair_args()]
    for _ in range(len(ops) // 2):
        twice = [rng.randint(0, SMALL_TWICE_J) for _ in range(9)]
        ops.append(Op("small", (tuple(twice[0:3]), tuple(twice[3:6]), tuple(twice[6:9]))))
    rng.shuffle(ops)
    return ops


def call_recoupling(op):
    if op.kind == "pair":
        base, permuted = P.combinant_9j_array(*op.args)
        return base, permuted, P.wigner9j(base), P.wigner9j(permuted)
    array = P.NineJArray.from_twice(op.args)
    return array, P.wigner9j(array), P.ninej_magnetic_sum(array)


def _permuted_rows(rows):
    """Rows 1,2 swapped, then rows 1,3, then columns 2,3."""
    a, b, c = rows
    rows = (c, a, b)
    return tuple((row[0], row[2], row[1]) for row in rows)


def check_recoupling(op, result):
    if op.kind == "pair":
        d, r, i, j = op.args
        base, permuted, value, value_p = result
        rows = (
            (d, d, 2 * (d - 2 * i + 1)),
            (d, d, 2 * (d - 2 * j + 1)),
            (2 * (d - 1), 2 * (d - 2 * r + 1), 2 * (2 * d - 2 * r)),
        )
        if base.twice_rows() != rows or permuted.twice_rows() != _permuted_rows(rows):
            return f"wrong recoupling arrays at {op.args}"
        if value != value_p:
            return f"9j(B) {value} != 9j(B') {value_p} at {op.args}"
        if value != recorded_ninej()[op.args]:
            return f"9j(B) {value} != recorded {recorded_ninej()[op.args]} at {op.args}"
        return None
    array, value, oracle = result
    if array.twice_rows() != op.args:
        return f"array {array} built from {op.args}"
    if value != oracle:
        return f"9j {value} != magnetic sum {oracle} at {op.args}"
    return None


# --- cli-small --------------------------------------------------------------

CLI_CODE = "from pencils.cli import run; run()"
CLI_REPEATS = 2
_VERIFY_LINE = re.compile(r"^(?:r=(\d+): )?(\d+)/(\d+) syzygies vanish$")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _write(path, text):
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def _pick_pair(rng, r):
    return rng.choice(chain_pairs(r))


def make_cli(seed, workdir):
    """One op per command line; sizes are fixed, values come from the seed."""
    from pencils import cli  # noqa: F401  (imported here so no op pays for it)

    rng = _rng("cli-small", seed)
    bits = lambda: rng.getrandbits(20)
    wd = Path(workdir)
    ops = []

    def add(check, argv, **params):
        ops.append(Op(check, (tuple(str(a) for a in argv), params)))

    for d, r, trials in ((5, None, 3), (9, 4, 2)):
        argv = ["verify", "--d", d, "--trials", trials, "--seed", bits()]
        add("verify", argv + ([] if r is None else ["--r", r]), d=d, r=r, trials=trials)
    for d, r in ((6, 3), (9, 5)):
        add("recover", ["recover", "--d", d, "--r", r, "--seed", bits()], r=r)

    for k, (m, n) in enumerate(((5, 4), (7, 6))):
        f = P.random_form(m, bits())
        g = P.random_form(n, bits())
        q = rng.randint(1, min(m, n))
        ff = _write(wd / f"t{k}f.form", P.format_form(f))
        gj = _write(wd / f"t{k}g.json", json.dumps(P.form_to_dict(g)))
        fmt = ["--json"] if k else []
        add("transvect", ["transvect", ff, gj, "--q", q] + fmt, f=f, g=g, q=q, json=bool(k))

    for k, d in enumerate((5, 7)):
        pencil = P.random_pencil(d, bits(), 10)
        paths = [
            _write(wd / f"c{k}{name}.json", json.dumps(P.form_to_dict(x))) if k
            else _write(wd / f"c{k}{name}.form", P.format_form(x))
            for name, x in (("a", pencil.a), ("b", pencil.b))
        ]
        fmt = ["--json"] if k else []
        add("combinants", ["combinants", *paths] + fmt, a=pencil.a, b=pencil.b, json=bool(k))

    d = 12
    r = rng.choice(list(weights(d)))
    add("syzygy-table", ["syzygy-table", "--d", d, "--r", r, "--json"], d=d, r=r, json=True)
    i, j = _pick_pair(rng, 3)
    add("oracle-theta", ["oracle-theta", "--d", 5, "--r", 3, "--i", i, "--j", j, "--f", "2,-3"],
        d=5, r=3, i=i, j=j)
    d = 40
    r = rng.choice(list(weights(d)))
    add("gamma", ["gamma", "--r", r, "--d", d, "--json"], r=r, d=d, json=True)
    d = 60
    r = rng.randint(1, (d + 1) // 2)
    add("dim-syzygy", ["dim-syzygy", "--d", d, "--r", r], d=d, r=r)

    small = [rng.randint(0, 4) for _ in range(9)]
    add("ninej", ["ninej", "--twice-j", ",".join(map(str, small))], twice=small, json=False)
    d = rng.choice((7, 8, 9))
    r = rng.choice(list(weights(d)))
    base, _ = P.combinant_9j_array(d, r, *_pick_pair(rng, r))
    twice = [v for row in base.twice_rows() for v in row]
    add("ninej", ["ninej", "--twice-j", ",".join(map(str, twice)), "--json"], twice=twice, json=True)
    d = rng.choice((7, 8, 9))
    r = rng.choice(list(weights(d)))
    i, j = _pick_pair(rng, r)
    add("ninej-combinant", ["ninej-combinant", "--d", d, "--r", r, "--i", i, "--j", j],
        d=d, r=r, i=i, j=j)

    # Inputs the CLI refuses: each must exit 2 with a message on stderr.
    add("refused", ["syzygy-table", "--d", 7, "--r", 5])
    add("refused", ["transvect", "--expr", "x1^2 + x2", "--expr", "x2^2", "--q", 1])
    add("refused", ["ninej", "--twice-j", "1,2,3"])
    ops *= CLI_REPEATS
    rng.shuffle(ops)
    return ops


def call_cli(op):
    """Run one `pencils` command in a child process, as the installed script would."""
    argv, _ = op.args
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CODE, *argv],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def call_cli_in_process(op):
    """Run the same command through `pencils.cli.main` in this process."""
    from pencils import cli

    argv, _ = op.args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expected_stdout(kind, p):
    """The exact stdout a correct `pencils` run prints, from in-process values."""
    if kind == "verify":
        rs = [p["r"]] if p["r"] is not None else list(weights(p["d"]))
        n = p["trials"]
        lines = [f"{n}/{n} syzygies vanish" for _ in rs]
        if len(rs) > 1:
            lines = [f"r={r}: {line}" for r, line in zip(rs, lines)]
        return lines
    if kind == "recover":
        return [f"recovered C{2 * p['r'] - 1} matches direct transvectant", "VERIFIED"]
    if kind == "transvect":
        form = P.transvectant(p["f"], p["g"], p["q"])
        return [json.dumps(P.form_to_dict(form)) if p["json"] else P.format_form(form)]
    if kind == "combinants":
        seq = P.combinant_sequence(P.Pencil(p["a"], p["b"]))
        if p["json"]:
            return [json.dumps([P.form_to_dict(c) for c in seq])]
        return [f"C{2 * r - 1} = {P.format_form(c)}" for r, c in enumerate(seq, start=1)]
    if kind == "syzygy-table":
        table = P.syzygy_table(p["d"], p["r"])
        if p["json"]:
            return [json.dumps(P.table_to_dict(table))]
        return [f"alpha[{i},{j}] = {v}" for (i, j), v in table.items()]
    if kind == "oracle-theta":
        th = P.theta(p["d"], p["r"], p["i"], p["j"])
        return [f"oracle ratio:  {th}", f"formula theta: {th}", "MATCH"]
    if kind == "gamma":
        c = P.positivity_certificate(p["r"], p["d"])
        if p["json"]:
            return [json.dumps({
                "r": c.r, "d": c.d, "gamma": str(c.gamma),
                "boundary_gamma": str(c.boundary_value),
                "dn_difference": str(c.dn_difference), "dn_factored": str(c.dn_factored),
            })]
        return [
            f"gamma({c.r},{c.d}) = {c.gamma}",
            f"gamma({c.r},{2 * c.r - 1}) = {c.boundary_value}",
            f"D - N = {c.dn_difference} = (r-1)(r-2)(2r-1)(d-2r+3)",
        ]
    if kind == "dim-syzygy":
        return [str(P.syzygy_space_dim(p["d"], p["r"]))]
    if kind == "ninej":
        t = p["twice"]
        value = P.wigner9j(P.NineJArray.from_twice([t[0:3], t[3:6], t[6:9]]))
        if p["json"]:
            return [json.dumps({str(rad): str(c) for rad, c in sorted(value.terms.items())})]
        return [str(value)]
    if kind == "ninej-combinant":
        d, r, i, j = p["d"], p["r"], p["i"], p["j"]
        base, permuted = P.combinant_9j_array(d, r, i, j)
        value, value_p = P.wigner9j(base), P.wigner9j(permuted)
        th = P.theta(d, r, i, j)
        ratio = (
            f"theta/ninej = {P.SurdSum.from_rational(th) / value}"
            if not value.is_zero() and value.single_term() is not None
            else "theta/ninej = (unavailable: value is zero or not a single surd)"
        )
        return [f"B  = [{base}]", f"B' = [{permuted}]", f"ninej(B)  = {value}",
                f"ninej(B') = {value_p}", "equivalent: yes", f"theta = {th}", ratio]
    raise ValueError(f"unknown cli check {kind!r}")


def check_cli(op, result):
    code, out, err = result
    argv, p = op.args
    name = " ".join(argv[:1])
    if op.kind == "refused":
        if code != 2 or out or "error" not in err:
            return f"{name}: expected a refusal with exit 2, got {code}"
        return None
    if code != 0:
        return f"{name}: exit {code}: {err.strip()[-200:]}"
    lines = out.splitlines()
    if op.kind == "verify":
        for line in lines:
            m = _VERIFY_LINE.match(line)
            if not m or m.group(2) != m.group(3):
                return f"{name}: not every syzygy vanished: {line!r}"
    if op.kind == "transvect":
        read = P.form_from_dict(json.loads(out)) if p["json"] else P.parse_form(out)
        if read != P.transvectant(p["f"], p["g"], p["q"]):
            return f"{name}: output does not read back as the transvectant"
    if op.kind == "combinants":
        if p["json"]:
            forms = [P.form_from_dict(obj) for obj in json.loads(out)]
        else:
            forms = [P.parse_form(line.split(" = ", 1)[1]) for line in lines]
        if forms != list(P.combinant_sequence(P.Pencil(p["a"], p["b"]))):
            return f"{name}: output does not read back as the combinants"
    if op.kind == "syzygy-table" and p["json"]:
        if P.table_from_dict(json.loads(out)) != P.syzygy_table(p["d"], p["r"]):
            return f"{name}: JSON output does not round-trip to the table"
    expected = _expected_stdout(op.kind, p)
    if lines != expected:
        return f"{name}: stdout {lines[:3]!r} != expected {expected[:3]!r}"
    return None


# --- registry ---------------------------------------------------------------

Workload = namedtuple("Workload", "mix tail_percentile make call check")

WORKLOADS = {
    "syzygy-large": Workload(
        mix=f"per round {PENCILS_PER_ORDER} random pencils (coefficient bound 10) at each d "
        f"in {list(SYZYGY_ORDERS)}; op = Pencil(A,B), evaluate_syzygy at the top weight, "
        f"recover_combinant at r={RECOVER_WEIGHT}",
        tail_percentile=75,
        make=make_syzygy, call=call_syzygy, check=check_syzygy,
    ),
    "oracle-chain": Workload(
        mix="per round seeded chain-grid points (i,j), i+j<=r+1, per weight (d,r): "
        + ", ".join(f"{n} at {dr}" for dr, n in ORACLE_MIX.items())
        + "; half with symbol (1,2), half with (2,-3); op = verify_theta, compared with theta",
        tail_percentile=80,
        make=make_oracle, call=call_oracle, check=check_oracle,
    ),
    "recoupling": Workload(
        mix=f"per round, in a fresh process, every combinant_9j_array pair for "
        f"d<={RECOUPLING_MAX_ORDER} (op = 9j of B and B') interleaved with half as many "
        f"random arrays with every 2j<={SMALL_TWICE_J} (op = 9j and magnetic sum)",
        tail_percentile=99,
        make=make_recoupling, call=call_recoupling, check=check_recoupling,
    ),
    "cli-small": Workload(
        mix=f"per round 18 `pencils` commands, each run {CLI_REPEATS} times in a shuffled "
        "order, one child process at a time, over all ten "
        "commands: verify/recover at d=5-9, transvect/combinants reading expression and "
        "JSON files, dim-syzygy at d=60, and three inputs refused with exit 2",
        tail_percentile=75,
        make=make_cli, call=call_cli, check=check_cli,
    ),
}
