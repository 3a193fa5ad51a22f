#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 15 s).

    python3 perfbench/selftest.py

Runs `kirwan report --xi 1 1 1` against its golden and one small batch of
localization checks, untraced and traced, through the same code paths as
run.py.  It checks that every metric named in BENCHMARK.json is emitted
with its unit, that two traced runs give identical counts, and that the
benchmark refuses to run from a directory holding only BENCHMARK.json and
perfbench/.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SMALL = (
    run.Workload("report-n3", "cli", ("report", "--xi", "1", "1", "1"),
                 golden="tests/goldens/report_1-1-1.json"),
    run.Workload("localize-small", "localize", batch=4),
)


def expect(cond: bool, what: str, problems: list) -> None:
    if not cond:
        problems.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list = []
    for w in SMALL:
        counts = []
        for trace in (0, 1, 1):
            result, info = run.run_workload(w, seed=7, seconds=0.0, trace=bool(trace))
            tag = f"{w.name} trace={trace}"
            expect(result["correct"] and result["failed"] == 0, f"{tag}: not correct {info}", problems)
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted", problems)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                   "differ from BENCHMARK.json or have the wrong unit", problems)
            for k, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{tag}: {k} is not a number", problems)
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] in ("count", "ratio")})
            print(f"ok {tag}: {result['attempted']} items, {len(got)} metrics")
        expect(counts[0] == counts[1], f"{w.name}: traced counts differ between runs", problems)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report-n5",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "benchmark ran without the program's sources", problems)
        print(f"ok bare directory: exit {proc.returncode}")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
