"""Tests of the benchmark itself: its closed forms, its checks and a smoke run.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import closed_forms as cf
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_sparre_andersen_symmetric_is_central_binomial():
    for n in range(0, 40):
        want = math.comb(2 * n, n) / 4 ** n
        assert cf.sparre_andersen(n, 0.5) == pytest.approx(want, rel=1e-12)


def test_positivity_and_tail_constant():
    assert cf.positivity(0.7, 0.0) == 0.5
    for a in (0.3, 0.7, 1.5):
        for b in (-0.6, 0.2, 1.0):
            assert cf.positivity(a, b) + cf.positivity(a, -b) == pytest.approx(1.0)
        if a < 1.0:
            assert cf.tail_constant(a, cf.unit_density_scale(a)) == pytest.approx(1.0)


def test_wilson_roots_match_centre_and_half_width():
    z = cf.WILSON_Z
    for k, n in ((0, 10), (3, 10), (10, 10), (7, 4000), (3999, 4000)):
        p = k / n
        den = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / den
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
        lo, hi = cf.wilson_log_bounds(k, n)
        assert (lo == -math.inf) == (k == 0)
        if k:
            assert lo == pytest.approx(math.log(centre - half), rel=1e-12)
        assert hi == pytest.approx(math.log(min(centre + half, 1.0)), abs=1e-12)


def _positivity_rows(n, ps):
    rows = []
    for t, p in zip((0.5, 1.0, 2.0, 4.0, 8.0), ps):
        k = round(p * n)
        lo, hi = cf.wilson_log_bounds(k, n)
        rows.append({"T": t, "n_paths": n, "survivors": k, "p_hat": k / n,
                     "ci_low": lo, "ci_high": hi})
    return rows


def test_checks_reject_wrong_outputs():
    cfg = wl.positivity_profile(1, False, 1)
    n = int(cfg["run.n_paths"])
    rho = cf.positivity(wl.ALPHA, wl.POSITIVITY_BETA)
    assert wl.check_positivity(cfg, _positivity_rows(n, [rho] * 5), {}) == []
    assert wl.check_positivity(cfg, _positivity_rows(n, [rho - 0.01] * 5), {})
    rows = _positivity_rows(n, [rho] * 5)
    rows[2]["ci_high"] += 1e-6
    assert wl.check_positivity(cfg, rows, {})


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_every_workload_and_check(trace, section):
    out = _run(["--workload", "all", "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    results = [json.loads(ln) for ln in out.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    names = {m["name"]: m["unit"] for m in SPEC[section]}
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: m["unit"] for k, m in res["metrics"].items()} == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "exact-exponent", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
