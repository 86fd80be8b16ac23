"""Benchmark of the levypassage CLI on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0 [--smoke]

Each repetition is a fresh `levypassage` CLI process at one thread, started
through bench/child.py.  With --trace 0 a run repeats the workload until S
seconds have passed and reports the median of each end-to-end metric over
its repetitions; with --trace 1 it alternates untraced and traced
repetitions and reports per-layer metrics plus the tracing overhead.  Every
repetition's outputs are checked (see workloads.py).  The last line printed
is one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120.0
INT_COLUMNS = ("n_paths", "survivors", "seed")
FLOAT_COLUMNS = ("alpha", "beta", "gamma", "T", "p_hat", "ln_p", "ci_low", "ci_high")


@dataclass
class Rep:
    """One CLI process: its outputs, stamps and the parent's start time."""

    t_spawn: float
    record: dict | None = None
    rows: list[dict] | None = None
    csv_bytes: bytes | None = None
    error: str = ""

    def end_to_end(self, paths: int) -> dict[str, float]:
        s = self.record["stamps"]
        return {
            "wall_s": s["output_end"] - self.t_spawn,
            "paths_per_s": paths / (s["driver_end"] - s["engine_start"]),
            "setup_s": s["engine_start"] - self.t_spawn,
            "peak_rss_mb": self.record["maxrss_kb"] / 1024.0,
        }


UNITS = {"wall_s": "s", "paths_per_s": "paths/s", "setup_s": "s", "peak_rss_mb": "MB"}


def read_rows(path: Path) -> list[dict]:
    rows = []
    with path.open(newline="") as fh:
        for raw in csv.DictReader(fh):
            row = dict(raw)
            for col in INT_COLUMNS:
                row[col] = int(raw[col]) if raw[col] else None
            for col in FLOAT_COLUMNS:
                row[col] = float(raw[col]) if raw[col] else None
            rows.append(row)
    return rows


def run_cli(config: Path, out: Path, trace: bool, replay: int) -> Rep:
    """Start one CLI process and wait for it; never raises on its failure."""
    record_path = out.with_suffix(".json")
    log_path = out.with_suffix(".log")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0",
           str(replay), "--", "--config", str(config), "--out", str(out), "--quiet"]
    with log_path.open("wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return Rep(t_spawn, error="timed out")
    if rc != 0 or not record_path.is_file():
        log_text = log_path.read_text(errors="replace").strip()
        return Rep(t_spawn, error=f"exit {rc}: {log_text[-2000:]}")
    csv_path = out / "results.csv"
    return Rep(t_spawn, json.loads(record_path.read_text()), read_rows(csv_path),
               csv_path.read_bytes())


def warm_up() -> None:
    """Load the package once so every timed process finds a warm file cache."""
    subprocess.run([sys.executable, "-c", "import levypassage.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, threads: int, workdir: Path) -> tuple[dict, list[str]]:
    wl = WORKLOADS[name]
    cfg = wl.config(seed, smoke, threads)
    config = workdir / f"{name}.cfg"
    config.write_text(config_text(cfg))
    paths = int(cfg["run.n_paths"]) * wl.path_sets(cfg)
    problems: list[str] = []  # outputs that fail a check
    errors: list[str] = []  # CLI runs that failed; counted in `failed`
    attempted = 0

    def attempt(config_path, cfg_dict, check, trace_rep, replay) -> Rep | None:
        nonlocal attempted
        attempted += 1
        rep = run_cli(config_path, workdir / f"rep{attempted}", trace_rep, replay)
        if rep.error:
            errors.append(f"{name}: CLI run failed ({rep.error})")
            return None
        problems.extend(check(cfg_dict, rep.rows, rep.record))
        return rep

    warm_up()
    if wl.oracle is not None:  # untimed
        make, check = wl.oracle
        ocfg = make(seed, smoke, threads)
        opath = workdir / f"{name}-oracle.cfg"
        opath.write_text(config_text(ocfg))
        attempt(opath, ocfg, check, False, 0)

    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.monotonic()
    timed = 0
    while True:
        timed += 1
        use_trace = trace and len(traced) < len(plain)
        replay = wl.replay if use_trace and not traced else 0
        rep = attempt(config, cfg, wl.check, use_trace, replay)
        if rep is not None:
            (traced if use_trace else plain).append(rep)
            print(f"{name}: repetition {attempted}{' traced' if use_trace else ''}: "
                  + ", ".join(f"{k} = {v:.6g}" for k, v in rep.end_to_end(paths).items()))
        # start another repetition only if at least half of it would likely
        # fall within `seconds`: a run lasts about `seconds`, whatever a
        # repetition takes
        elapsed = time.monotonic() - start
        have_all = plain and (traced or not trace)
        if elapsed + 0.5 * elapsed / timed >= seconds and (have_all or errors):
            break
    if len({r.csv_bytes for r in plain + traced}) > 1:
        problems.append(f"{name}: results.csv differs between runs of one seed")

    metrics: dict[str, dict] = {}
    if trace and traced and plain:
        layers = [r.record["trace"] for r in traced]
        for key in layers[0]:
            values = [lay[key] for lay in layers if key in lay]
            metrics[key] = {"value": statistics.median(values), "unit": layer_unit(key)}
        overhead = (statistics.median(r.end_to_end(paths)["wall_s"] for r in traced)
                    - statistics.median(r.end_to_end(paths)["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif not trace and plain:
        per_rep = [r.end_to_end(paths) for r in plain]
        for key, unit in UNITS.items():
            metrics[key] = {"value": statistics.median(p[key] for p in per_rep),
                            "unit": unit}
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    return result, errors + problems


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if ".ns_per_" in key:
        return "ns"
    if key.endswith("_share"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload and check in seconds")
    ap.add_argument("--threads", type=int, default=1,
                    help="run.threads of the timed runs (reference figures only)")
    args = ap.parse_args(argv)

    if not (SRC / "levypassage" / "cli.py").is_file():
        print(f"error: no levypassage sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name in names:
            result, problems = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), args.smoke,
                                            args.threads, workdir)
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for key, m in result["metrics"].items():
                print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
            print(json.dumps(result), flush=True)
            ok &= result["correct"] and bool(result["metrics"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
