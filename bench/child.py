"""Run the levypassage CLI once in this process and record where the time went.

    python3 child.py RECORD TRACE REPLAY -- <levypassage CLI arguments>

Writes one JSON object to RECORD:

* `stamps`: `time.monotonic()` readings, the clock the parent reads just
  before it starts this process: `engine_start` (first call into the
  experiment engine, the end of set-up), `driver_end` (the experiment driver
  returned) and `output_end` (the last output file is written);
* `rc`, `import_s` and `maxrss_kb` (peak resident set size of this process);
* `plans` and `decompositions`: scalars of the jump plans and subordinator
  splits the run built, which the parent checks against closed forms;
* with TRACE = 1, `trace`: span totals per layer, and with REPLAY > 0 the
  share of monitored points a path needs before its last first crossing,
  found by replaying the first REPLAY paths.

Spans are recorded by wrapping the package's functions under the names the
engine looks them up by (for example `levypassage.estimate.sample_stable`),
so nothing in the package changes.  All runs are single-threaded, so one
span stack suffices.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

ENGINE_ENTRIES = ("survival_counts", "product_bound_check",
                  "discrete_survival_experiment", "spitzer_profile")


def patch(owner, attr: str, make):
    """Replace owner.attr by make(original); classmethods stay classmethods."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


class Tracer:
    """Inclusive time per span name, time covered by direct children, counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.stack: list[str] = []

    def span(self, name: str, count=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self.stack[-1] if self.stack else None
                self.stack.append(name)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.stack.pop()
                    self.total[name] += dt
                    self.calls[name] += 1
                    if parent is not None:
                        self.child[parent] += dt
                if count is not None:
                    count(self, args, kwargs, out)
                return out
            return wrapper
        return make

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_variates(tr, args, kwargs, out):
    tr.counts["stable.variates"] += int(_arg(args, kwargs, 1, "n"))


def _count_table(tr, args, kwargs, out):
    tr.counts["decompose.table_samples"] += int(_arg(args, kwargs, 2, "n"))


def _count_jumps(tr, args, kwargs, out):
    tr.counts["simulate.jumps_drawn"] += int(out[0].size)


def _count_boundary(tr, args, kwargs, out):
    tr.counts["passage.boundary_evals"] += int(math.prod(getattr(out, "shape", ())))


def _path_bytes(tr, nbytes: int):
    tr.maxima["simulate.path_bytes"] = max(tr.maxima["simulate.path_bytes"], nbytes)


def _count_path(tr, args, kwargs, out):
    tr.counts["simulate.monitored_points"] += int(out.grid.points.size)
    _path_bytes(tr, out.values.nbytes + out.grid.points.nbytes + out.jump_times.nbytes)


def _count_subordinator(tr, args, kwargs, out):
    _path_bytes(tr, out.values.nbytes + out.grid.points.nbytes + out.jump_times.nbytes)


def _count_increments(tr, args, kwargs, out):
    _path_bytes(tr, sum(a.nbytes for a in out if a is not None))


def install_tracer(tr: Tracer) -> None:
    from levypassage import cli, estimate, fluctuation, passage, simulate
    from levypassage.decompose import JumpTable
    from levypassage.simulate import PerturbedPlan

    spans = [
        (estimate, "stream", "rng.stream", None),
        (fluctuation, "stream", "rng.stream", None),
        (estimate, "sample_stable", "stable.sample", _count_variates),
        (simulate, "sample_stable", "stable.sample", _count_variates),
        (PerturbedPlan, "from_model", "simulate.plan_build", None),
        (PerturbedPlan, "draw_jumps", "simulate.draw_jumps", _count_jumps),
        (estimate, "sample_path", "simulate.sample_path", _count_path),
        (fluctuation, "sample_path", "simulate.sample_path", _count_path),
        (estimate, "sample_subordinator_path", "simulate.subordinator_path",
         _count_subordinator),
        (estimate, "discrete_increments", "simulate.discrete_increments",
         _count_increments),
        (estimate, "build_decomposition", "decompose.build", None),
        (JumpTable, "sample", "decompose.table_sample", _count_table),
        (estimate, "boundary_value", "passage.boundary_value", _count_boundary),
        (passage, "boundary_value", "passage.boundary_value", _count_boundary),
        (estimate, "subordinator_stays_above", "passage.stays_above", None),
        (estimate, "survival_counts", "estimate.engine", None),
        (cli, "survival_counts", "estimate.engine", None),
        (cli, "product_bound_check", "estimate.experiment", None),
        (cli, "discrete_survival_experiment", "estimate.experiment", None),
        (cli, "fit_exponent", "estimate.fit", None),
        (cli, "spitzer_profile", "fluctuation.profile", None),
    ]
    for owner, attr, name, count in spans:
        patch(owner, attr, tr.span(name, count))

    def count_chunks(fn):
        def wrapper(worker, n_paths, threads):
            tr.counts["estimate.chunks"] += -(-n_paths // estimate.CHUNK)
            return fn(worker, n_paths, threads)
        return wrapper
    patch(estimate, "_run_chunks", count_chunks)


def trace_metrics(tr: Tracer, import_s: float, stamps: dict) -> dict:
    variates = tr.counts["stable.variates"]
    jumps = tr.counts["decompose.table_samples"]
    return {
        "cli.import_s": import_s,
        "cli.output_s": stamps["output_end"] - stamps["driver_end"],
        "rng.streams": tr.calls["rng.stream"],
        "rng.stream_s": tr.total["rng.stream"],
        "stable.variates": variates,
        "stable.sample_s": tr.total["stable.sample"],
        "stable.ns_per_variate":
            1e9 * tr.total["stable.sample"] / variates if variates else 0.0,
        "simulate.plan_build_s": tr.total["simulate.plan_build"],
        "simulate.draw_jumps_s": tr.total["simulate.draw_jumps"],
        "simulate.jumps_drawn": tr.counts["simulate.jumps_drawn"],
        "simulate.sample_path_s": tr.total["simulate.sample_path"],
        "simulate.monitored_points": tr.counts["simulate.monitored_points"],
        "simulate.subordinator_path_s": tr.total["simulate.subordinator_path"],
        "simulate.discrete_increments_s": tr.total["simulate.discrete_increments"],
        "simulate.path_bytes": tr.maxima["simulate.path_bytes"],
        "decompose.build_s": tr.total["decompose.build"],
        "decompose.table_samples": jumps,
        "decompose.table_sample_s": tr.total["decompose.table_sample"],
        "decompose.ns_per_jump":
            1e9 * tr.total["decompose.table_sample"] / jumps if jumps else 0.0,
        "passage.boundary_evals": tr.counts["passage.boundary_evals"],
        "passage.boundary_value_s": tr.total["passage.boundary_value"],
        "passage.stays_above_s": tr.total["passage.stays_above"],
        "estimate.engine_self_s": tr.self_s("estimate.engine"),
        "estimate.chunks": tr.counts["estimate.chunks"],
        "estimate.experiment_self_s": tr.self_s("estimate.experiment"),
        "estimate.fit_s": tr.total["estimate.fit"],
        "fluctuation.profile_self_s": tr.self_s("fluctuation.profile"),
    }


def needed_point_share(config_text: str, n_replay: int) -> float:
    """Share of simulated monitored points at or before the last first crossing.

    Replays the run's first paths from their own streams.  A path that never
    crosses needs every point.  A spitzer profile has no boundary, so every
    point is needed and the share is 1.
    """
    import numpy as np

    from levypassage import cli
    from levypassage.decompose import POSITIVE, build_decomposition
    from levypassage.levymodel import Boundary
    from levypassage.passage import survives
    from levypassage.rng import stream
    from levypassage.simulate import (PerturbedPlan, TimeGrid,
                                      discrete_increments, sample_path)

    cfg = cli.build_config(cli.parse_config_text(config_text))
    model = cli.build_model(cfg)
    n_replay = min(n_replay, cfg.n_paths)
    needed = total = 0
    if cfg.kind == "exponent":
        grid = cli.monitoring_grid(cfg, cfg.t_max)
        bounds = [Boundary(k, cfg.gamma, cfg.level) for k in cfg.boundary_kinds]
        for i in range(n_replay):
            path = sample_path(model, grid, stream(cfg.seed, i))
            n = path.grid.points.size
            last = 0
            for b in bounds:
                v = survives(path, b)
                last = max(last, n - 1 if v.survived else v.first_crossing_index)
            needed += last + 1
            total += n
    elif cfg.kind == "product-bound":
        # the left-hand factor: X in perturbed mode on the survival grid,
        # below 1 - t^gamma, as product_bound_check scores it
        x_model = replace(model, stable=None)
        plan = PerturbedPlan.from_model(x_model)
        grid = TimeGrid.survival(cfg.t_max)
        b = Boundary("decreasing", cfg.gamma, 1.0)
        for i in range(n_replay):
            path = sample_path(x_model, grid, stream(cfg.seed, i), plan=plan)
            n = path.grid.points.size
            v = survives(path, b)
            needed += (n - 1 if v.survived else v.first_crossing_index) + 1
            total += n
    elif cfg.kind == "discrete-survival":
        # the largest horizon; Y_T <= X pathwise, so Y crosses last
        T = float(cfg.t_max)
        plan = PerturbedPlan.from_model(model)
        decomp = build_decomposition(model, T, POSITIVE)
        n_steps = int(math.floor(T))
        for i in range(n_replay):
            inc, s_inc = discrete_increments(plan, n_steps, stream(cfg.seed, i),
                                             decomp=decomp)
            yv = np.cumsum(inc) - np.cumsum(s_inc)
            crossed = yv > cfg.level
            needed += int(np.argmax(crossed)) + 1 if crossed.any() else n_steps
            total += n_steps
    else:
        return 1.0
    return needed / total


def main() -> int:
    record_path, trace, n_replay = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    t0 = time.monotonic()
    from levypassage import cli, estimate
    import_s = time.monotonic() - t0

    tracer = Tracer()
    if trace:
        install_tracer(tracer)

    stamps: dict[str, float] = {}
    plans: list[dict] = []
    decomps: list[dict] = []

    def first_call(fn):
        def wrapper(*args, **kwargs):
            stamps.setdefault("engine_start", time.monotonic())
            return fn(*args, **kwargs)
        return wrapper

    def stamp_after(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                stamps[key] = time.monotonic()
                return out
            return wrapper
        return make

    def record_plan(fn):
        def wrapper(cls, model, remove=None):
            plan = fn(cls, model, remove)
            plans.append({"rate": plan.rate, "thinned": remove is not None})
            return plan
        return wrapper

    def record_decomposition(fn):
        def wrapper(model, T, side):
            d = fn(model, T, side)
            decomps.append({"T": d.T, "side": d.side, "delta": d.delta,
                            "total_mass": d.total_mass})
            return d
        return wrapper

    from levypassage.simulate import PerturbedPlan
    for name in ENGINE_ENTRIES:
        patch(cli, name, first_call)
    for kind in cli.DRIVERS:
        cli.DRIVERS[kind] = stamp_after("driver_end")(cli.DRIVERS[kind])
    patch(cli, "run_experiment", stamp_after("output_end"))
    patch(PerturbedPlan, "from_model", record_plan)
    patch(estimate, "build_decomposition", record_decomposition)

    rc = cli.main(cli_args)
    record = {"rc": rc, "import_s": import_s, "stamps": stamps,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "plans": plans, "decompositions": decomps}
    if trace and rc == 0:
        record["trace"] = trace_metrics(tracer, import_s, stamps)
        if n_replay > 0:
            config_path = cli_args[cli_args.index("--config") + 1]
            record["trace"]["passage.needed_point_share"] = needed_point_share(
                Path(config_path).read_text(), n_replay)
    Path(record_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
