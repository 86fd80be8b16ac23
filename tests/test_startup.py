"""No CLI run loads scipy.

scipy's quadrature costs about half a second of a process's start-up.  The
package integrates with its own fixed rules (`rvcalc.tail_knots`,
`second_moment_below`, `gl_panels`), so no experiment kind, exact or
perturbed, imports scipy; only the library function
`levymodel.characteristic_exponent` does, on its first call.  numpy loads
`numpy.random` lazily; importing the CLI loads it.  An import happens once
per process, so each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs the config text in argv[1] through cli.main and prints what was loaded.
SCRIPT = """
import json, sys, tempfile
from pathlib import Path
from levypassage import cli
seen = {"numpy.random at import": "numpy.random" in sys.modules}
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "run.cfg"
    cfg.write_text(sys.argv[1])
    seen["rc"] = cli.main(["--config", str(cfg), "--out", tmp, "--quiet"])
seen["loaded"] = [m for m in ("scipy", "scipy.integrate", "scipy.special")
                  if m in sys.modules]
print(json.dumps(seen))
"""


def run_fresh(keys: dict[str, str]) -> dict:
    text = "".join(f"{k} = {v}\n" for k, v in
                   {"model.alpha": "0.7", "run.n_paths": "20", "run.seed": "3",
                    **keys}.items())
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, text], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["rc"] == 0 and seen["numpy.random at import"], seen
    return seen


@pytest.mark.parametrize("keys", [
    {"experiment.kind": "exponent", "boundary.kind": "constant,decreasing,increasing",
     "run.t_min": "4", "run.t_max": "64", "run.t_points": "4"},
    {"experiment.kind": "spitzer", "model.beta": "0.5", "spitzer.t_values": "1,2,4"},
    {"experiment.kind": "lemma-n0N", "boundary.gamma": "1"},
    {"experiment.kind": "kappa"},
    {"experiment.kind": "integral-test"},
], ids=["exponent", "spitzer", "lemma-n0N", "kappa", "integral-test"])
def test_exact_runs_never_load_scipy(keys):
    seen = run_fresh(keys)
    assert seen["loaded"] == [], seen


@pytest.mark.parametrize("keys", [
    {"experiment.kind": "product-bound", "boundary.gamma": "1", "run.t_max": "64"},
    {"experiment.kind": "discrete-survival", "run.t_min": "16", "run.t_max": "40",
     "run.t_points": "4"},
    {"experiment.kind": "survival", "model.mode": "perturbed", "run.t_min": "4",
     "run.t_max": "16", "run.t_points": "2"},
], ids=["product-bound", "discrete-survival", "perturbed-survival"])
def test_jump_plan_runs_never_load_scipy(keys):
    seen = run_fresh(keys)
    assert seen["loaded"] == [], seen


def test_public_names_resolve():
    """Every name in levypassage.__all__ imports, so a deleted function left
    in the list fails here and not at a user's `from levypassage import *`."""
    import levypassage
    missing = [name for name in levypassage.__all__ if not hasattr(levypassage, name)]
    assert missing == []
