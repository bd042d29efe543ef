"""Run one round of a workload in this fresh interpreter and print its record.

    python3 benchmark/worker.py WORKLOAD SEED MODE

MODE is `e2e` for an end-to-end round, `traced` for a traced round,
`base` for the untraced round a traced one is compared with, and `setup`
for a round that only sets up and prints its set-up time.  On cli-small
the last two call `pencils.cli.main` in-process instead of starting a
child per command.  The record is one JSON line: set-up seconds, every
op's latency in milliseconds, scaled to the reference host speed,
the ops attempted and failed, the peak resident memory and, when traced,
the per-layer metrics of the round.  Set-up is scaled by calibration
loops timed right after it.
"""
import time

SETUP_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

PROBES = 3
# Set-up is scaled by the median of this many calibration loops, as one
# 5 ms loop is easily caught by a hiccup of the host.
SETUP_CALIBRATIONS = 5
# The calibration loop's and a bare child's times at the reference host
# speed (a fast phase of the shared 2-vCPU virtual machine the benchmark was
# tuned on), and how much op time may pass between two calibrations.  A
# calibration that starts a child costs more than a cli-small op, so it
# runs less often.
CALIBRATION_REF_MS = 5.0
SPAWN_REF_MS = 60.0
CALIBRATE_EVERY_MS = 100.0
SPAWN_CALIBRATE_EVERY_MS = 300.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pencils.cli; "
    "print(time.perf_counter() - t)"
)


def cli_probes():
    """Median interpreter start and `import pencils.cli` time of fresh processes."""
    env = workloads.cli_env()
    starts, imports = [], []
    for _ in range(PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, timeout=60)
        starts.append(time.perf_counter() - t)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            check=True, capture_output=True, text=True, env=env, timeout=60,
        )
        imports.append(float(proc.stdout))
    return statistics.median(starts), statistics.median(imports)


def calibration_ms():
    """Time a fixed stdlib-only loop of Fraction and dict arithmetic."""
    t = time.perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, 300):
        acc += Fraction(k * 7919, k * k + 1) * Fraction(2 * k + 1, 3)
    for k in range(20000):
        table[k & 255] = table.get(k & 255, 0) + k * k
    return (time.perf_counter() - t) * 1e3


def spawn_calibration_ms():
    """Geometric mean of the loop's time and a bare `python3 -c pass` child's.

    A `pencils` command is part interpreter start and part Python work, and
    the two slow down with the host by different factors.  Scaled to
    CALIBRATION_REF_MS.
    """
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    spawn_ms = (time.perf_counter() - t) * 1e3
    return math.sqrt(calibration_ms() * spawn_ms * CALIBRATION_REF_MS / SPAWN_REF_MS)


def attempt(op, call, check, tracer):
    """Time one op, then check its output with the tracer paused.

    Returns the latency in milliseconds and a message if the op failed; an
    op that raises is a failed op, not a crash.
    """
    t = time.perf_counter()
    try:
        result = call(op)
    except Exception as exc:
        return (time.perf_counter() - t) * 1e3, f"{op.kind}: {type(exc).__name__}: {exc}"
    latency = (time.perf_counter() - t) * 1e3
    if tracer:
        tracer.active = False
    try:
        problem = check(op, result)
    except Exception as exc:
        problem = f"{op.kind}: unreadable output: {type(exc).__name__}: {exc}"
    if tracer:
        tracer.active = True
    return latency, problem


def run_ops(ops, call, check, tracer=None, calibrate=calibration_ms,
            every_ms=CALIBRATE_EVERY_MS):
    """Run every op; return its host-speed-scaled latencies and the failures.

    `calibrate` runs before the first op and again whenever `every_ms` of
    op time has passed.  Each op's scaled latency is
    its latency times CALIBRATION_REF_MS over the mean of the calibration
    times on either side of it.
    """
    latencies, scaled, failures = [], [], []
    last_cal, pending_ms = calibrate(), 0.0
    for k, op in enumerate(ops):
        latency, problem = attempt(op, call, check, tracer)
        latencies.append(latency)
        if problem:
            failures.append(problem)
        pending_ms += latency
        if pending_ms >= every_ms or k == len(ops) - 1:
            cal = calibrate()
            factor = CALIBRATION_REF_MS / ((last_cal + cal) / 2)
            scaled.extend(ms * factor for ms in latencies[len(scaled):])
            last_cal, pending_ms = cal, 0.0
    return scaled, failures


def main(argv):
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    spec = workloads.WORKLOADS[name]
    scratch = workloads.ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        ops = spec.make(seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        setup_s *= CALIBRATION_REF_MS / statistics.median(
            calibration_ms() for _ in range(SETUP_CALIBRATIONS))
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        call = spec.call
        if name == "cli-small" and mode != "e2e":
            call = workloads.call_cli_in_process
            # In-process repeats would only meet warm caches: trace each command once.
            ops = list({op.args[0]: op for op in ops}.values())
        tracer = None
        if mode != "e2e":
            import spans  # in base rounds too, so both pay for the same imports

        if mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
            tracer.active = True
        if call is workloads.call_cli:
            calibrate, every_ms = spawn_calibration_ms, SPAWN_CALIBRATE_EVERY_MS
        else:
            calibrate, every_ms = calibration_ms, CALIBRATE_EVERY_MS
        scaled, failures = run_ops(ops, call, spec.check, tracer, calibrate, every_ms)
        record = {
            "setup_s": setup_s,
            "scaled_ms": scaled,
            "attempted": len(ops),
            "failed": len(failures),
            "failures": failures[:5],
        }
        who = resource.RUSAGE_CHILDREN if call is workloads.call_cli else resource.RUSAGE_SELF
        record["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        if tracer:
            tracer.active = False
            layers = tracer.layer_metrics(len(ops))
            layers["cli.interpreter_start_s"], layers["cli.import_s"] = (
                cli_probes() if name == "cli-small" else (0.0, 0.0)
            )
            record["layers"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv)
