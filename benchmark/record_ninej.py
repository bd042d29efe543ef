"""Record the exact 9j value of every recoupling pair in ninej_values.json.

    python3 benchmark/record_ninej.py

The recoupling workload checks each pair's value against this file, so
that a wrong 6j/9j kernel fails even when it is wrong in the same way for
both arrays of a pair.  Before writing, every value is checked against the
permuted array's, and those with d <= 10 against `ninej_magnetic_sum`,
the independent brute-force oracle (about 12 s).  The file was written at
the commit that added the benchmark.  Rewrite it only when the set of
pairs changes, never to make a failing check pass.
"""
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pencils as P  # noqa: E402
import workloads  # noqa: E402

ORACLE_MAX_ORDER = 10


def main():
    lines = []
    for args in workloads.pair_args():
        base, permuted = P.combinant_9j_array(*args)
        value = P.wigner9j(base)
        if value != P.wigner9j(permuted):
            raise SystemExit(f"9j(B) != 9j(B') at {args}")
        if args[0] <= ORACLE_MAX_ORDER and value != P.ninej_magnetic_sum(base):
            raise SystemExit(f"9j(B) != magnetic sum at {args}")
        key = ",".join(map(str, args))
        lines.append(f"{json.dumps(key)}: {json.dumps(workloads.surd_to_dict(value))}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    workloads.NINEJ_VALUES.write_text(text, encoding="utf-8")
    print(f"wrote {len(lines)} values to {workloads.NINEJ_VALUES}")


if __name__ == "__main__":
    main()
