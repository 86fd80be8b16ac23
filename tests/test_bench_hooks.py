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
import child, workloads
child.install_tracer(child.Tracer())
for name, w in workloads.WORKLOADS.items():
    text = workloads.config_text(w.config(1, True, 1))
    share = child.needed_point_share(text, 5)
    assert 0.0 < share <= 1.0, (name, share)
"""


def test_bench_hooks_resolve():
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
