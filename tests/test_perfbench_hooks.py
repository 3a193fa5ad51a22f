"""The benchmark's tracer still finds every name it wraps.

`perfbench/spans.py` replaces kirwan entry points by name from outside the
package.  A change that deletes or renames one of them would break the
benchmark rather than a test; this runs the tracer over a small report so
the break shows here first.  It also checks that every stage the benchmark
reads is a key of the `timings` of `report` and of `verify`.  It runs in a
subprocess because `install()` patches the process's kirwan modules for
good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, os, sys, tempfile
import spans
from kirwan import cli
from run import STAGES

tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(["report", "--xi", "1", "1", "1", "--out", os.devnull])
timings = {}
with tempfile.TemporaryDirectory() as tmp:
    for command in ("report", "verify"):
        path = os.path.join(tmp, command + ".json")
        if cli.main([command, "--xi", "1", "1", "1", "--out", path]) == 0:
            with open(path) as fh:
                timings[command] = sorted(json.load(fh)["timings"])
sys.stdout.write(json.dumps({"code": code, "summary": tracer.summary(),
                             "stages": list(STAGES), "timings": timings}))
"""


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_reports_benchmark_layers(traced):
    assert traced["code"] == 0
    layers = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(traced["summary"]) <= layers
    assert traced["summary"]["cofactors.express_calls"] == 0


def test_benchmark_stages_are_report_and_verify_timings(traced):
    # a stage that left the timings would read 0 s in hyperpolygon.stage.*_s
    assert set(traced["timings"]) == {"report", "verify"}
    for command, names in traced["timings"].items():
        assert set(traced["stages"]) <= set(names), command
