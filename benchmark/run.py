"""Exact-output benchmark of the `pencils` package.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It runs rounds of the workload, each in a
fresh interpreter, until the next round would end after S seconds (at
least one round runs), and checks every op's exact output.  With --trace 0
the last line of stdout carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics; the line before it records the seed,
the workload's input mix, the Python version, the core count and the fixed
tail percentile.  The exit code is 0 only when at least one op ran and
every op was verified.  NOTES.md says how rounds, host-speed scaling and
tracing work, and why.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
# Set-up-only rounds before the timed window, so that `setup_s` is a median
# of enough samples even when few full rounds fit in the window.
SETUP_ROUNDS = 6


class RoundError(Exception):
    """A worker that crashed, hung or printed no record."""


def percentile(values, p):
    """The p-th percentile of `values`, interpolating between ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_round(tree, workload, seed, mode, timeout):
    """One worker in a session of its own, so a hung round's children die with it."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    with subprocess.Popen(
        [sys.executable, str(tree / HERE.name / "worker.py"), workload, str(seed), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tree,
        env=env, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RoundError(f"round did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.strip():
        raise RoundError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


@contextlib.contextmanager
def compiled_tree():
    """A private copy of `src/pencils` and the benchmark, compiled once.

    Every round of the run, and every `pencils` child it starts, imports from
    this copy, so each reads bytecode compiled afresh from the current
    sources, as an installed package would, and none reads a `__pycache__`
    of the checkout, current or stale.  The copy is removed after the run.
    """
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    try:
        shutil.copytree(ROOT / "src" / "pencils", tree / "src" / "pencils", ignore=skip)
        shutil.copytree(HERE, tree / HERE.name, ignore=skip)
        try:
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True,
                           env=env, stdout=subprocess.DEVNULL, timeout=120)
        except subprocess.SubprocessError as exc:
            raise RoundError(f"compiling the sources failed: {exc}") from exc
        yield tree
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def run_rounds(workload, seed, seconds, traced):
    """Rounds, as (mode, record), and the seconds they took, once the window is spent."""
    modes = ("base", "traced") if traced else ("e2e",)
    with compiled_tree() as tree:
        rounds = [] if traced else [
            ("setup", run_round(tree, workload, seed, "setup", DEADLINE_S))
            for _ in range(SETUP_ROUNDS)
        ]
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            for mode in modes:
                left = DEADLINE_S - (time.perf_counter() - start)
                rounds.append((mode, run_round(tree, workload, seed, mode, max(left, 1))))
            unit_s = time.perf_counter() - unit_start
            elapsed = time.perf_counter() - start
            if elapsed + unit_s > seconds:
                return rounds, elapsed


def verdict(records):
    """(correct, attempted, failed): correct needs at least one op and no failure."""
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    return attempted > 0 and failed == 0, attempted, failed


def end_to_end(records, tail_percentile, setups):
    latencies = [ms for rec in records for ms in rec["scaled_ms"]]
    _, attempted, failed = verdict(records)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, tail_percentile),
        "verified_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(rec["peak_rss_mb"] for rec in records),
    }


def per_layer(rounds):
    traced = [rec for mode, rec in rounds if mode == "traced"]
    base = [rec for mode, rec in rounds if mode == "base"]
    out = {
        name: statistics.median(rec["layers"][name] for rec in traced)
        for name in traced[0]["layers"]
    }
    op_time = lambda recs: statistics.median(sum(rec["scaled_ms"]) for rec in recs)
    out["trace.slowdown"] = op_time(traced) / op_time(base)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pencils" / "__init__.py").is_file():
        print(f"error: no pencils sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "mix": workload.mix,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "tail_percentile": workload.tail_percentile,
        "trace": args.trace,
    }
    try:
        rounds, window_s = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(context))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    records = [rec for mode, rec in rounds if mode != "setup"]
    correct, attempted, failed = verdict(records)
    for rec in records:
        for problem in rec["failures"]:
            print(f"failed: {problem}", file=sys.stderr)
    metrics = {}
    if attempted:
        if args.trace:
            values, wanted = per_layer(rounds), spec["per_layer"]
        else:
            setups = [rec["setup_s"] for _, rec in rounds]
            values = end_to_end(records, workload.tail_percentile, setups)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    context.update(rounds=len(records), setup_rounds=len(rounds) - len(records),
                   ops=attempted, window_s=round(window_s, 3))
    print(json.dumps(context))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
