"""Mutation runner: each verdict of `pencils` must fail some test when broken.

    python tests/mutants.py

Run from anywhere; it needs only the standard library and pytest, as the
suite does.  A mutant is one exact text replacement in one module of
`src/pencils`, with the test ids that must kill it.  For each mutant the
runner copies `src/` into a temporary directory, applies the replacement
there, and runs its tests against the copy, so the checkout is never
changed.  Before any mutant, the listed tests must pass on an unmutated
copy, so a broken test cannot pass for a kill.

A mutant that no test can kill yet stays in the table with no tests and the
reason why; its text is still looked up, so it cannot go stale unnoticed.
The exit code is 1 if a mutant survives its tests, if a mutant's text is
not found exactly once in its module, or if pytest fails in any way other
than failing tests (an unknown test id, for example); otherwise 0.

pytest does not collect this file: its name does not start with `test_`.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # a file name under src/pencils
    old: str
    new: str
    tests: tuple = ()
    reason: str = ""  # why no test can kill it yet; only when `tests` is empty


MUTANTS = (
    # Verdicts: each test corrupts the one value the verdict compares.
    Mutant(
        "verify_theta accepts any ratio", "omega.py",
        "    if ratio != expected:\n", "    if False:\n",
        ("tests/test_omega.py::TestVerifyTheta::test_wrong_closed_form_is_refused",),
    ),
    Mutant(
        "recover command always verified", "cli.py",
        "    if recovered == direct:\n", "    if True:\n",
        ("tests/test_cli.py::TestRecover::test_wrong_direct_value_prints_failed",),
    ),
    Mutant(
        "oracle-theta command always matches", "cli.py",
        "    if ratio == formula:\n", "    if True:\n",
        ("tests/test_cli.py::TestOracleTheta::test_wrong_formula_prints_mismatch",),
    ),
    Mutant(
        "ninej-combinant command always equivalent", "cli.py",
        "    equivalent = value == value_p\n", "    equivalent = True\n",
        ("tests/test_cli.py::TestNinejCombinant::test_unequal_symbols_print_no",),
    ),
    Mutant(
        "positivity certificate skips gamma < 1", "syzygy.py",
        "    if not g < 1:\n", "    if False:\n",
        ("tests/test_syzygy.py::TestPositivityCertificate::test_gamma_not_below_one_is_refused",),
    ),
    Mutant(
        "positivity certificate skips the boundary value 2/r", "syzygy.py",
        "    if boundary != Fraction(2, r):\n", "    if False:\n",
        ("tests/test_syzygy.py::TestPositivityCertificate::test_wrong_boundary_value_is_refused",),
    ),
    Mutant(
        "syzygy_table keeps a nonpositive alpha(1, r)", "syzygy.py",
        "    if entries[(1, r)] <= 0:\n", "    if False:\n",
        ("tests/test_syzygy.py::TestSyzygyTable::test_nonpositive_pivot_is_refused_and_not_kept",),
    ),
    Mutant(
        "positivity certificate skips the D - N factorization", "syzygy.py",
        "    if difference != factored:\n", "    if False:\n",
        reason="both sides are computed inline from (r, d) by one polynomial "
        "identity, so no input and no patched name reaches the refusal",
    ),
    # The 9j route: each piece of its integer arithmetic, against the oracles.
    Mutant(
        "9j x-sum adds numerators over unlike denominators", "angular.py",
        "        total = total * (den // g) + num * (common // g)\n",
        "        total = total + num\n",
        ("tests/test_angular.py::TestKernelMatchesSurdOracle::test_9j_xsum_merges_unlike_denominators",),
    ),
    Mutant(
        "Racah sum divided by twice its Horner denominator", "angular.py",
        "* term // den\n", "* term // (2 * den)\n",
        ("tests/test_angular.py::TestRacahSumIsAnInteger::test_every_tuple_up_to_8",),
    ),
    Mutant(
        "Racah sum starts below its fourth triad's half-sum", "angular.py",
        "    lo = lo if lo > a4 else a4\n", "",
        ("tests/test_angular.py::TestRacahSumIsAnInteger::test_every_tuple_up_to_8",),
    ),
    Mutant(
        "Racah sum runs past its third quad's half-sum", "angular.py",
        "    hi = hi if hi < b3 else b3\n", "",
        reason="the Horner step at t = b3 multiplies by b3 - t = 0, so the "
        "terms above b3 drop out and the sum is unchanged",
    ),
    Mutant(
        "Racah sum drops the sign of an odd lo", "angular.py",
        "(-num if lo & 1 else num)", "num",
        ("tests/test_angular.py::TestRacahSumIsAnInteger::test_every_tuple_up_to_8",),
    ),
    Mutant(
        "6j symbol drops its Racah sum", "angular.py",
        "Fraction(outer * racah, den)", "Fraction(outer, den)",
        ("tests/test_angular.py::TestKernelMatchesSurdOracle::test_6j_every_small_tuple",),
    ),
    Mutant(
        "9j x-term drops its third Racah sum", "angular.py",
        " * r1 * r2 * r3\n", " * r1 * r2\n",
        ("tests/test_angular.py::TestKernelMatchesSurdOracle::test_9j_random_half_integer_arrays",),
    ),
    Mutant(
        "B' built without its column swap", "angular.py",
        "(x, z, y) for x, y, z in (c, a, b)", "(x, y, z) for x, y, z in (c, a, b)",
        ("tests/test_angular.py::TestCombinantArrays::test_arrays_match_their_rows_written_out",),
    ),
    Mutant(
        "combinant_9j_array returns B as B'", "angular.py",
        "    return base, permuted\n", "    return base, base\n",
        ("tests/test_angular.py::TestCombinantArrays::test_arrays_match_their_rows_written_out",),
    ),
    # theta's one integer expression, against the paper's factorial quotient.
    Mutant(
        "theta's second binomial taken over d - 1", "syzygy.py",
        "comb(d, 2 * j - 1)", "comb(d - 1, 2 * j - 1)",
        ("tests/test_syzygy.py::TestSyzygyTable::test_every_entry_is_symmetrized_theta[d=7]",),
    ),
    Mutant(
        "theta's denominator drops its factor d", "syzygy.py",
        "n2 = d * perm(", "n2 = perm(",
        ("tests/test_syzygy.py::TestSyzygyTable::test_every_entry_is_symmetrized_theta[d=7]",),
    ),
    Mutant(
        "theta's falling factorial of 2r - 1 one factor short", "syzygy.py",
        "2 * i + 2 * j - 3)", "2 * i + 2 * j - 4)",
        ("tests/test_syzygy.py::TestSyzygyTable::test_every_entry_is_symmetrized_theta[d=7]",),
    ),
    # The first list of mutants run against the whole suite, each with the
    # test that kills it.
    Mutant(
        "theta's head constant -2 made -1", "syzygy.py",
        " + 3 * j - 2\n", " + 3 * j - 1\n",
        ("tests/test_acceptance.py::test_criterion_03_coefficient_table_and_bridge",),
    ),
    Mutant(
        "the chain's proportionality check always passes", "omega.py",
        "        if all(x * b == y * a for x, y in zip(out, ref)):\n", "        if True:\n",
        ("tests/test_omega.py::TestVerifyTheta::test_mismatch_raises",),
    ),
    Mutant(
        "verify command counts every trial as vanishing", "cli.py",
        "            if evaluate_syzygy(pencil, r).is_zero():\n", "            if True:\n",
        ("tests/test_cli.py::TestVerify::test_failures_are_counted_per_weight",),
    ),
    Mutant(
        "exact_divide ignores an inexact quotient step", "forms.py",
        "        if r:\n", "        if False:\n",
        ("tests/test_forms.py::TestExactDivide::test_remainder_in_a_quotient_step",),
    ),
    Mutant(
        "exact_divide ignores its final remainder", "forms.py",
        "    if any(rem[:e0]):\n", "    if False:\n",
        ("tests/test_forms.py::TestExactDivide::test_not_divisible",),
    ),
    Mutant(
        "membership_defect without its C3 term", "combinant.py",
        "    return transvectant(c1, form, 2) - Fraction(d - 2, 4 * d - 6) * (form * c3)\n",
        "    return transvectant(c1, form, 2)\n",
        ("tests/test_combinant.py::TestMembershipDefect::test_members_vanish",),
    ),
)


def pytest_status(src: Path, tests) -> int:
    """pytest's exit code for `tests`, importing `pencils` from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(mutant: Mutant, scratch: Path) -> str | None:
    """None when the mutant is killed (or has its reason), else what went wrong."""
    src = copy_src(Path(tempfile.mkdtemp(dir=scratch)))
    path = src / "pencils" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"its text occurs {text.count(mutant.old)} times in {mutant.module}, not once"
    if not mutant.tests:
        return None if mutant.reason else "it lists no test and no reason"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    status = pytest_status(src, mutant.tests)
    if status == 1:
        return None
    return "it survived its tests" if status == 0 else f"pytest exited {status}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        status = pytest_status(copy_src(scratch), tests)
        if status != 0:
            print(f"FAIL  the listed tests do not pass unmutated (pytest exited {status})")
            return 1
        for mutant in MUTANTS:
            problem = run(mutant, scratch)
            if problem:
                failed += 1
                print(f"FAIL  {mutant.name}: {problem}")
            elif mutant.tests:
                print(f"ok    {mutant.name}: killed")
            else:
                print(f"kept  {mutant.name}: no test can kill it yet; {mutant.reason}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
