"""The benchmark's hooks into the package still resolve.

bench/child.py wraps package functions under the names the engine looks
them up by, and replays paths through package functions to measure the share
of monitored points a path needs.  A renamed or deleted name would otherwise
break only bench/test_bench.py.  The hooks patch the package, so they run in
a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import pathlib, tempfile
import child, workloads
from levypassage import cli
tracer = child.Tracer()
child.install_tracer(tracer)
for name, w in workloads.WORKLOADS.items():
    text = workloads.config_text(w.config(1, True, 1))
    share = child.needed_point_share(text, 5)
    assert 0.0 < share <= 1.0, (name, share)
# the draw_jumps span sees the perturbed paths of a product-bound run
with tempfile.TemporaryDirectory() as tmp:
    cfg = pathlib.Path(tmp) / "run.cfg"
    cfg.write_text(workloads.config_text(
        workloads.WORKLOADS["perturbed-product-bound"].config(1, True, 1)))
    tracer.calls.clear()
    tracer.counts.clear()
    assert cli.main(["--config", str(cfg), "--out", tmp, "--quiet"]) == 0
assert tracer.calls["simulate.draw_jumps"] > 0, dict(tracer.calls)
assert tracer.counts["simulate.jumps_drawn"] > 0, dict(tracer.counts)
"""


def test_bench_hooks_resolve():
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
