"""Self-test of the benchmark's own checks.

    python3 benchmark/selftest.py

Shows, on every workload, that a corrupted or raising result counts as a
failed op, and that a run whose rounds hold a failed op, or no op at all,
is reported as incorrect and exits non-zero, never as a pass.  Exits 0
when every case behaves so.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pencils as P  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _bump_last_digit(text):
    for k in range(len(text) - 1, -1, -1):
        if text[k].isdigit():
            return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    return text + "x"


def corrupt_syzygy(result):
    zero, recovered = result
    return zero, recovered + P.BinaryForm.monomial(recovered.order, 0, 1)


def corrupt_recoupling(result):
    *head, last = result
    return (*head, last + 1)


def corrupt_cli(result):
    code, out, err = result
    if code == 2:
        return 0, out, err
    return code, _bump_last_digit(out), err


# Each case: workload, how many of its first ops to use, corruption of a result.
CASES = (
    ("syzygy-large", 1, corrupt_syzygy),
    ("oracle-chain", 2, lambda ratio: ratio + Fraction(1, 10**30)),
    ("recoupling", 40, corrupt_recoupling),
    ("cli-small", None, corrupt_cli),
)


def check_workload(name, count, corrupt, workdir):
    spec = workloads.WORKLOADS[name]
    ops = spec.make(SEED, workdir)
    if name == "oracle-chain":
        ops = sorted(ops, key=lambda op: op.args[0])
    ops = ops[:count]
    call = workloads.call_cli_in_process if name == "cli-small" else spec.call

    _, failures = worker.run_ops(ops, call, spec.check)
    expect(not failures, f"{name}: clean ops failed: {failures}")
    _, failures = worker.run_ops(ops, lambda op: corrupt(call(op)), spec.check)
    expect(len(failures) == len(ops), f"{name}: {len(ops) - len(failures)} corrupted ops passed")

    def raising(op):
        raise P.FormulaViolationError("injected")

    _, failures = worker.run_ops(ops, raising, spec.check)
    expect(len(failures) == len(ops), f"{name}: a raising op was not counted")
    if name == "cli-small":
        sample = ops[:3]
        _, failures = worker.run_ops(sample, lambda op: corrupt(spec.call(op)), spec.check)
        expect(len(failures) == len(sample), "cli-small: corrupted child output passed")
    return len(ops)


def check_recorded_ninej(workdir):
    """A 9j kernel wrong in the same way for B and B' must still fail.

    Zeroes, or doubles, both values of every pair with d >= 18 whose
    recorded value is non-zero: the pair identity still holds, so only the
    recorded values can catch it.
    """
    spec = workloads.WORKLOADS["recoupling"]
    recorded = workloads.recorded_ninej()
    ops = [op for op in spec.make(SEED, workdir)
           if op.kind == "pair" and op.args[0] >= 18 and not recorded[op.args].is_zero()][:20]
    for wrong in (lambda v: P.SurdSum.zero(), lambda v: v * 2):
        def call(op):
            base, permuted, value, _ = spec.call(op)
            return base, permuted, wrong(value), wrong(value)

        _, failures = worker.run_ops(ops, call, spec.check)
        expect(len(failures) == len(ops),
               f"recoupling: {len(ops) - len(failures)} symmetric 9j errors passed")
    return len(ops)


def report(records):
    """Run `run.main` on canned round records; return its exit code and result."""
    saved = run.run_rounds
    run.run_rounds = lambda *args: ([("e2e", rec) for rec in records], 0.5)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "syzygy-large", "--seed", "1", "--seconds", "1"])
    finally:
        run.run_rounds = saved
    return code, json.loads(out.getvalue().splitlines()[-1])


def check_reporting():
    clean = {"setup_s": 0.1, "scaled_ms": [4.0, 6.0], "attempted": 2, "failed": 0,
             "failures": [], "peak_rss_mb": 20.0}
    code, result = report([clean])
    expect(code == 0 and result["correct"], result)
    expect(result["metrics"]["verified_ratio"]["value"] == 1.0, result)

    corrupted = dict(clean, failed=1, failures=["injected"])
    code, result = report([clean, corrupted])
    expect(code != 0 and not result["correct"] and result["failed"] == 1, result)
    expect(result["metrics"]["verified_ratio"]["value"] == 0.75, result)

    empty = dict(clean, scaled_ms=[], attempted=0)
    code, result = report([empty])
    expect(code != 0 and not result["correct"] and result["attempted"] == 0, result)


def main():
    scratch = workloads.ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        for name, count, corrupt in CASES:
            n = check_workload(name, count, corrupt, workdir)
            print(f"ok  {name}: {n} corrupted and {n} raising ops all counted as failed")
        n = check_recorded_ninej(workdir)
        print(f"ok  recoupling: {n} pairs with both 9j values wrong alike counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_reporting()
    print("ok  a failed op or a run with zero ops is reported incorrect, exit non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
