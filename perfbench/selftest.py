"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a few stocks x 120 days for one epoch, untraced
and traced, in this one process, and asserts that

- the same seed generates byte-identical inputs, and another seed
  different ones;
- every command and output check of each run passes;
- every metric that BENCHMARK.json names is printed with its unit.

Exits 0 when all of that holds; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys
from time import perf_counter

import run
import workloads


def main() -> int:
    pkg = run.import_package(run.ROOT)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    scratch = run.ROOT / run.WORK_DIR / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for name, w in workloads.WORKLOADS.items():
        digests = []
        for i, seed in enumerate((5, 5, 6)):
            data, _ = workloads.write_inputs(pkg.synthetic, w, scratch / f"{name}-{i}", seed, True)
            digests.append(workloads.tree_sha256(data))
        if digests[0] != digests[1]:
            problems.append(f"{name}: the same seed gave different inputs")
        if digests[0] == digests[2]:
            problems.append(f"{name}: different seeds gave the same inputs")
    shutil.rmtree(scratch, ignore_errors=True)

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            start = perf_counter()
            result, lines = run.run_workload(pkg, name, seed=5, seconds=0, trace=trace,
                                             tiny=True, import_s=0.0)
            label = f"{name} trace {int(trace)}"
            print(f"{label}: {result['attempted']} attempted, {result['failed']} failed, "
                  f"{perf_counter() - start:.1f} s")
            problems += [f"{label}: {line}" for line in lines if line.startswith("FAILED")]
            for entry in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{label}: metric {entry['name']} missing or not in "
                                    f"{entry['unit']}: {got}")
                elif not any(line.startswith(f"metric {entry['name']} = ") for line in lines):
                    problems.append(f"{label}: metric {entry['name']} not printed")
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
