"""The benchmark's tracer still finds every name it wraps.

`perfbench/spans.py` replaces kirwan entry points by name from outside the
package.  A change that deletes or renames one of them would break the
benchmark rather than a test; this runs the tracer over a small report so
the break shows here first.  It runs in a subprocess because `install()`
patches the process's kirwan modules for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, os, sys
import spans
from kirwan import cli

tracer = spans.Tracer()
spans.install(tracer)
code = cli.main(["report", "--xi", "1", "1", "1", "--out", os.devnull])
sys.stdout.write(json.dumps({"code": code, "summary": tracer.summary()}))
"""


def test_tracer_installs_and_reports_benchmark_layers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    layers = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(out["summary"]) <= layers
    assert out["summary"]["cofactors.express_calls"] == 0
