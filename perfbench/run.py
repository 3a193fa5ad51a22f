#!/usr/bin/env python3
"""The kirwan benchmark: four workloads across the Groebner, polynomial and
Q(x) layers, one client in a closed loop.

    python3 perfbench/run.py --workload report-n5 --seed 1 --seconds 20 --trace 0

Every workload process runs from this checkout's src with the program's
defaults (KIRWAN_KERNEL, KIRWAN_MAX_BASIS, KIRWAN_MAX_DEGREE and the PYTHON*
variables other than PYTHONPATH removed from its environment).  Every
output is checked; a failed check counts its items as failed.  The last
line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
The line before it records the kernel, Python version, core count and
sample counts.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every run exits well inside 180 s
PROGRAM_KNOBS = ("KIRWAN_KERNEL", "KIRWAN_MAX_BASIS", "KIRWAN_MAX_DEGREE")
STAGES = ("prop_hp", "second_iso", "bridge", "certificates", "formality",
          "localized", "betti")
PROBE = ("import kirwan, kirwan.cli\n"
         "from kirwan import _kernel\n"
         "print(kirwan.__file__)\n"
         "print(_kernel.KERNEL_NAME)\n")


@dataclass
class Workload:
    name: str
    kind: str                    # "cli" or "localize"
    argv: tuple = ()             # kirwan CLI arguments
    golden: str | None = None    # repo file the timing-stripped output equals
    sha256: str | None = None    # digest of the timing-stripped output
    items: int = 1               # items one CLI invocation completes
    batch: int = 20              # localize checks per timed batch


# Digests of the canonical, timing-stripped outputs at commit 4e5ae19.
WORKLOADS = {w.name: w for w in (
    Workload("report-n5", "cli", ("report", "--xi", "1", "2", "4", "8", "16"),
             golden="tests/goldens/report_1-2-4-8-16.json"),
    Workload("report-n5-equal", "cli", ("report", "--xi", "1", "1", "1", "1", "1"),
             sha256="8b9af0b1ae2567482e180d961d273e9bf83b1f3f701a13318c036d9f437dfcbf"),
    Workload("certify-n6", "cli", ("certify", "--xi", "1", "2", "4", "8", "16", "32"),
             sha256="87bf339e9b765fb2de6db948019b26cbd48b5cecbc50819e0fb96e2db343fd51",
             items=31),
    Workload("localize", "localize"),
)}


class Clock:
    """Deadline for the whole run; children get what is left of it."""

    def __init__(self, budget: float):
        self.start = time.perf_counter()
        self.budget = budget

    def left(self) -> float:
        return self.budget - (time.perf_counter() - self.start)


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    rss_mb: float


def child_env() -> dict:
    # the interpreter's defaults too: bytecode is cached, stdout is buffered
    env = {k: v for k, v in os.environ.items()
           if k not in PROGRAM_KNOBS and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list, clock: Clock, tmp: Path) -> Child:
    """Run one process; wall time runs from start until its stdout is read,
    peak RSS comes from that process's own rusage."""
    timeout = clock.left()
    if timeout <= 0:
        raise TimeoutError("run deadline passed")
    with tempfile.TemporaryFile(dir=tmp) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        err.seek(0)
        errtext = err.read()
    return Child(proc.returncode, out, errtext, wall, usage.ru_maxrss / 1024.0)


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, items: int, ok: bool, note: str = "") -> None:
        self.attempted += items
        if not ok:
            self.failed += items
            self.notes.append(note)


def check_cli_output(w: Workload, child: Child) -> tuple:
    """(ok, payload or None, why not) for one CLI invocation."""
    if child.code != 0:
        return False, None, f"exit {child.code}: {child.stderr.decode(errors='replace')[-500:]}"
    try:
        payload = json.loads(child.stdout)
    except ValueError as exc:
        return False, None, f"unreadable JSON: {exc}"
    stripped = {k: v for k, v in payload.items() if k != "timings"}
    canon = json.dumps(stripped, sort_keys=True, indent=2) + "\n"
    if w.golden is not None:
        if canon != (ROOT / w.golden).read_text():
            return False, payload, f"output differs from {w.golden}"
    elif hashlib.sha256(canon.encode()).hexdigest() != w.sha256:
        return False, payload, "output digest differs from the reference"
    certs = payload.get("certificates", [])
    if not all(c.get("verified") is True for c in certs):
        return False, payload, "a certificate is not verified"
    return True, payload, ""


def probe_program(clock: Clock, tmp: Path) -> dict:
    """Import the package once: compiles bytecode and proves where it lives."""
    child = run_child([sys.executable, "-c", PROBE], clock, tmp)
    if child.code != 0:
        raise RuntimeError(f"cannot import kirwan from {SRC}: "
                           f"{child.stderr.decode(errors='replace')[-500:]}")
    path, kernel = child.stdout.decode().split()
    located = Path(path).resolve()
    if not located.is_relative_to(ROOT):
        raise RuntimeError(f"kirwan imported from {path}, outside {ROOT}")
    return {"kernel": kernel, "kirwan_file": str(located.relative_to(ROOT))}


def setup_seconds(w: Workload, clock: Clock, tmp: Path) -> float:
    if w.kind == "cli":
        cmd = [sys.executable, "-c", PROBE]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), "localize", "--setup-only"]
    walls = []
    for _ in range(SETUP_PROBES):
        child = run_child(cmd, clock, tmp)
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode(errors='replace')[-500:]}")
        walls.append(child.wall)
    return statistics.median(walls)


def cli_loop(w: Workload, seconds: float, clock: Clock, tmp: Path, tally: Tally) -> dict:
    """Invocations until the next one would overrun the measured time."""
    walls, rss, payloads = [], [], []
    start = time.perf_counter()
    while True:
        child = run_child([sys.executable, "-m", "kirwan.cli", *w.argv], clock, tmp)
        ok, payload, why = check_cli_output(w, child)
        tally.add(w.items, ok, why)
        walls.append(child.wall)
        rss.append(child.rss_mb)
        if payload is not None:
            payloads.append(payload)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    return {"walls": walls, "latencies": [t / w.items for t in walls],
            "busy": sum(walls), "rss": rss, "payloads": payloads,
            "items": w.items * len(walls)}


def localize_loop(w: Workload, seed: int, seconds: float, clock: Clock, tmp: Path,
                  tally: Tally, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "localize", "--seed", str(seed),
           "--seconds", str(seconds), "--batch", str(w.batch)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    child = run_child(cmd, clock, tmp)
    if child.code != 0:
        raise RuntimeError(f"localize child failed: {child.stderr.decode(errors='replace')[-500:]}")
    res = json.loads(child.stdout.decode().splitlines()[-1])
    tally.attempted += res["attempted"]
    if res["failed"]:
        tally.failed += res["failed"]
        tally.notes.append(f"{res['failed']} localization checks failed")
    return {"walls": res["batches"], "latencies": res["latencies"],
            "busy": sum(res["batches"]), "rss": [child.rss_mb],
            "items": res["attempted"]}


def end_to_end(setup: float, run: dict) -> dict:
    lat = run["latencies"]
    return {
        "setup_s": (setup, "s"),
        "run_s": (statistics.median(run["walls"]), "s"),
        "items_per_s": (run["items"] / run["busy"], "1/s"),
        "item_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "item_p95_ms": (1000.0 * nearest_rank(lat, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(run["rss"]), "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def per_layer(w: Workload, seed: int, run: dict, clock: Clock, tmp: Path,
              tally: Tally) -> dict:
    """One traced item in a fresh process, next to the untraced run."""
    trace_out = tmp / "spans.json"
    if w.kind == "cli":
        child = run_child([sys.executable, str(HERE / "child.py"), "cli",
                           str(trace_out), *w.argv], clock, tmp)
        ok, _, why = check_cli_output(w, child)
        tally.add(w.items, ok, "traced run: " + why)
        traced_wall, untraced_wall = child.wall, statistics.median(run["walls"])
    else:
        # one batch untraced, then the same batch traced, in one process
        untraced_wall, traced_wall = localize_loop(
            w, seed, 0.0, clock, tmp, tally, trace_out)["walls"]
    layers = json.loads(trace_out.read_text())
    for stage in STAGES:
        values = [p.get("timings", {}).get(stage, 0.0) for p in run.get("payloads", [])]
        layers[f"hyperpolygon.stage.{stage}_s"] = statistics.median(values) if values else 0.0
    layers["trace.traced_run_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    """(result line, info line) for one run of one workload."""
    clock = Clock(DEADLINE_S)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpname:
        tmp = Path(tmpname)
        info = probe_program(clock, tmp)
        setup = None if trace else setup_seconds(w, clock, tmp)
        if w.kind == "cli":
            run = cli_loop(w, seconds, clock, tmp, tally)
        else:
            run = localize_loop(w, seed, seconds, clock, tmp, tally)
        metrics = (per_layer(w, seed, run, clock, tmp, tally) if trace
                   else end_to_end(setup, run))
    info.update({
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "run_samples": len(run["walls"]), "item_samples": len(run["latencies"]),
        "fail_ratio": tally.failed / tally.attempted, "failures": tally.notes[:5],
    })
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kirwan" / "__init__.py").is_file():
        print(f"no kirwan package under {SRC}", file=sys.stderr)
        return 2
    try:
        result, info = run_workload(WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
