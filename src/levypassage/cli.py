"""Batch experiment orchestration: config files in, CSV + manifest out.

Config format: flat "section.key = value" lines, full- or end-of-line
comments with '#', no nesting beyond two levels.  All numbers are emitted
with 17 significant digits so reruns are byte-comparable.  The experiment id
and every output row are independent of run.threads; only wall time (a
manifest comment) may differ between reruns.

Exit codes: 0 success, 2 config violations, 3 runtime model errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import make_dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .decompose import MIN_EXPERIMENT_T
from .estimate import (WILSON_Z, FitUnavailable, SurvivalEstimate,
                       discrete_survival_experiment, fit_exponent,
                       lemma_n0N_experiment,
                       product_bound_check, survival_counts, wilson_log_ci)
from .fluctuation import PositivityProfile, kappa, spitzer_profile
from .levymodel import (BOUNDARY_KINDS, Boundary, LevyModel, stable_model,
                        tail_only_model)
from .passage import brownian_integral_test
from .rvcalc import CONSTANT, LOG_POWER, SlowlyVaryingSpec
from .simulate import TimeGrid

# run.grid_policy -> the monitoring grid it builds up to horizon T
GRID_POLICIES = {
    "survival": lambda cfg, T: TimeGrid.survival(
        T, t_min=cfg.grid_t_min, per_octave=cfg.grid_per_octave),
    "uniform": lambda cfg, T: TimeGrid.uniform(T, cfg.grid_dt),
    "geometric": lambda cfg, T: TimeGrid.geometric(
        T, t_min=cfg.grid_t_min, per_octave=cfg.grid_per_octave),
    "integers": lambda cfg, T: TimeGrid.integers(T),
}
# kinds whose horizons are geomspace(run.t_min, run.t_max, run.t_points)
HORIZON_KINDS = ("survival", "exponent", "discrete-survival")

CSV_COLUMNS = ("experiment_id", "kind", "alpha", "beta", "gamma",
               "boundary_kind", "T", "n_paths", "survivors", "p_hat",
               "ln_p", "ci_low", "ci_high", "seed")


class ConfigError(Exception):
    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations
        super().__init__("; ".join(f"{f}: {m}" for f, m in violations))


def fmt(x) -> str:
    """17-significant-digit serialization; '' for absent values."""
    if x is None or x == "":
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    violations = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append((f"line {ln}", "expected 'section.key = value'"))
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        if key.count(".") != 1:
            violations.append((key or f"line {ln}", "keys have exactly two levels"))
            continue
        if key in out:
            violations.append((key, "duplicate key"))
            continue
        out[key] = val
    if violations:
        raise ConfigError(violations)
    return out


class Parser(NamedTuple):
    """How one config value is read from its text and written back."""
    parse: Callable[[str], Any]
    show: Callable[[Any], str]
    error: str  # violation message prefix when parse raises ValueError


def within(convert, holds, error, show=fmt) -> Parser:
    """The Parser of the values convert(text) for which holds(value) is true."""
    def parse(text):
        value = convert(text)
        if not holds(value):
            raise ValueError(error)
        return value
    return Parser(parse, show, error)


def one_of(*names: str) -> Parser:
    return within(str, names.__contains__, f"not one of {', '.join(names)}", str)


def numbers(holds, error: str) -> Parser:
    """Comma-separated numbers whose tuple satisfies holds."""
    return within(lambda s: tuple(float(v) for v in s.split(",")), holds, error,
                  lambda vs: ",".join(fmt(v) for v in vs))


POSITIVE = within(float, lambda x: 0.0 < x < math.inf, "not a finite number > 0")
FINITE = within(float, math.isfinite, "not a finite number")
COUNT = within(int, lambda n: n >= 1, "not an integer >= 1")

# Every configuration key as (key, attribute, parser, default), in manifest
# order.  run.threads comes last because the experiment id leaves it out.
# Each parser accepts exactly its key's domain, whatever the experiment kind.
SCHEMA = (
    ("experiment.kind", "kind", Parser(str, str, ""), ""),
    ("model.alpha", "alpha", within(float, lambda a: 0.0 < a < 2.0,
                                    "not a number in (0, 2)"), None),
    ("model.beta", "beta", within(float, lambda b: -1.0 <= b <= 1.0,
                                  "not a number in [-1, 1]"), 0.0),
    ("model.scale", "scale", POSITIVE, 1.0),
    ("model.sigma2", "sigma2", within(float, lambda v: 0.0 <= v < math.inf,
                                      "not a finite number >= 0"), 0.0),
    ("model.drift", "drift", FINITE, 0.0),
    ("model.ell_family", "ell_family", one_of(CONSTANT, LOG_POWER), CONSTANT),
    ("model.ell_c", "ell_c", POSITIVE, 1.0),
    ("model.ell_p", "ell_p", FINITE, 0.0),
    ("model.mode", "mode", one_of("exact", "perturbed"), "exact"),
    ("boundary.kind", "boundary_kinds",
     within(lambda s: tuple(v.strip() for v in s.split(",")),
            lambda names: all(n in BOUNDARY_KINDS for n in names),
            f"not a list of {', '.join(BOUNDARY_KINDS)}", ",".join), ("constant",)),
    ("boundary.gamma", "gamma", POSITIVE, 1.0),
    ("boundary.level", "level", FINITE, 1.0),
    ("run.t_min", "t_min", POSITIVE, 16.0),
    ("run.t_max", "t_max", POSITIVE, 1024.0),
    ("run.t_points", "t_points", COUNT, 6),
    ("run.n_paths", "n_paths", COUNT, 1000),
    # the path streams are keyed by 64-bit words
    ("run.seed", "seed", within(int, lambda n: 0 <= n < 1 << 64,
                                "not an integer in [0, 2**64)"), None),
    ("run.grid_policy", "grid_policy", one_of(*GRID_POLICIES), "survival"),
    ("run.grid_dt", "grid_dt", POSITIVE, 1e-3),
    ("run.grid_t_min", "grid_t_min", POSITIVE, 2.0 ** -10),
    ("run.grid_per_octave", "grid_per_octave", COUNT, 8),
    ("kappa.rho_values", "rho_values", numbers(lambda vs: all(0.0 <= r <= 1.0 for r in vs),
                                               "not a list of numbers in [0, 1]"),
     (0.3, 0.5, 0.7)),
    ("kappa.a_values", "a_values", numbers(lambda vs: all(0.0 < a < math.inf for a in vs),
                                           "not a list of finite numbers > 0"),
     (0.25, 0.5, 2.0, 4.0)),
    # 0 < t_1 < ... < t_n < inf
    ("spitzer.t_values", "t_values",
     numbers(lambda vs: all(a < b for a, b in zip((0.0,) + vs, vs + (math.inf,))),
             "not a finite, positive, increasing list of numbers"), ()),
    ("lemma.n", "lemma_n", within(int, lambda n: n >= 3, "not an integer >= 3"), 10_000),
    ("run.threads", "threads", COUNT, 1),
)


class _ConfigMethods:
    def canonical_lines(self, include_threads: bool = True) -> list[str]:
        rows = SCHEMA if include_threads else SCHEMA[:-1]
        pairs = ((key, p.show(getattr(self, attr))) for key, attr, p, _ in rows)
        return [f"{k} = {v}" for k, v in pairs if v != ""]

    @property
    def experiment_id(self) -> str:
        text = "\n".join(self.canonical_lines(include_threads=False))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# One field per SCHEMA row.
ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(attr, Any, default) for _, attr, _, default in SCHEMA],
    bases=(_ConfigMethods,))


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    violations: list[tuple[str, str]] = []
    if raw.get("experiment.kind", "") not in DRIVERS:
        violations.append(("experiment.kind", f"must be one of {', '.join(DRIVERS)}"))
    cfg = ExperimentConfig()
    for key, attr, p, _ in SCHEMA:
        if key in raw:
            try:
                setattr(cfg, attr, p.parse(raw[key]))
            except ValueError:
                violations.append((key, f"{p.error}: {raw[key]!r}"))
    known_keys = {key for key, *_ in SCHEMA}
    for key in raw:
        if key not in known_keys:
            violations.append((key, "unknown configuration key"))
    if violations:
        raise ConfigError(violations)

    # The rules between keys, or between a key and the experiment kind, as
    # (key, holds, message) in report order: what build_model,
    # monitoring_grid and the experiment engines rely on beyond each domain.
    custom_ell = _has_custom_ell(cfg)
    matched = cfg.alpha is not None and not (custom_ell and cfg.mode == "perturbed")
    horizons = cfg.kind in HORIZON_KINDS or (cfg.kind == "spitzer" and not cfg.t_values)
    lemma = cfg.kind == "lemma-n0N"
    ds, pb = cfg.kind == "discrete-survival", cfg.kind == "product-bound"
    rules = [
        ("run.seed", cfg.seed is not None, "an explicit seed is required"),
        ("run.t_points", cfg.kind not in ("exponent", "discrete-survival")
         or cfg.t_points >= 4, "exponent fits need at least 4 T points"),
        ("run.t_min", not horizons or cfg.t_min < cfg.t_max
         or (cfg.t_min == cfg.t_max and cfg.t_points == 1),
         "t_min must lie below run.t_max"),
        ("model.mode", lemma or not custom_ell or cfg.mode != "exact",
         "exact mode fixes the matched constant tails; custom ell requires mode = perturbed"),
        ("model.beta", lemma or not custom_ell or cfg.mode != "perturbed" or cfg.beta == 0.0,
         "custom ell models must be symmetric"),
        ("model.mode", cfg.mode != "exact" or cfg.alpha is None or not (cfg.sigma2 or cfg.drift),
         "exact stable increments admit no extra drift or Gaussian part; use mode = perturbed"),
        ("model.alpha", cfg.kind not in HORIZON_KINDS + ("spitzer", "product-bound")
         or cfg.alpha is not None or cfg.sigma2 != 0.0 or cfg.drift != 0.0,
         "this experiment needs a model"),
        ("model.alpha", not matched or cfg.alpha < 1.0
         or (cfg.alpha > 1.0 and cfg.beta == 0.0),
         "matched stable tails need alpha < 1, or alpha > 1 with beta = 0"),
        ("run.grid_t_min", cfg.grid_policy != "geometric" or cfg.grid_t_min < cfg.t_max,
         "on a geometric grid, grid_t_min must lie below run.t_max"),
        ("model.alpha", not (ds or pb or lemma) or (cfg.alpha is not None and cfg.alpha < 1.0),
         "this experiment needs jumps with alpha < 1"),
        ("model.beta", (not ds or cfg.beta > -1.0) and (not pb or cfg.beta < 1.0),
         "the thinned tail must exist: beta > -1 for discrete-survival, < 1 for product-bound"),
        ("run.t_min", not ds or cfg.t_min >= MIN_EXPERIMENT_T,
         f"discrete-survival horizons must be >= {MIN_EXPERIMENT_T:g}"),
        ("run.t_max", not pb or cfg.t_max >= MIN_EXPERIMENT_T,
         f"product-bound horizons must be >= {MIN_EXPERIMENT_T:g}"),
        ("boundary.gamma", not lemma or cfg.alpha is None or cfg.gamma * cfg.alpha < 1.0,
         "lemma-n0N needs gamma * alpha < 1"),
        ("model.ell_family", not lemma or cfg.ell_family == CONSTANT,
         "lemma-n0N supports constant ell only"),
    ]
    failed: dict[str, str] = {}  # each key once, with the first rule it fails
    for key, ok, message in rules:
        if not ok:
            failed.setdefault(key, message)
    if failed:
        raise ConfigError(list(failed.items()))
    return cfg


def _regime_warning(cfg: ExperimentConfig) -> str | None:
    """Why the run lies outside the theorem's regime, or None.

    The theorem needs alpha < 1 and, for a moving boundary 1 -/+ t^gamma,
    gamma < 1/alpha.  Product bounds and the lemma always use a moving
    boundary; kappa and the integral test read no alpha.
    """
    if cfg.alpha is None or cfg.kind in ("kappa", "integral-test"):
        return None
    reasons = []
    if cfg.alpha >= 1.0:
        reasons.append(f"alpha = {cfg.alpha:g} >= 1")
    moving = cfg.kind in ("product-bound", "lemma-n0N") or (
        cfg.kind in ("survival", "exponent")
        and any(bk != "constant" for bk in cfg.boundary_kinds))
    if moving and cfg.alpha * cfg.gamma >= 1.0:
        reasons.append(f"gamma = {cfg.gamma:g} >= 1/alpha = {1.0 / cfg.alpha:.4g} "
                       "for a moving boundary")
    if not reasons:
        return None
    return ("outside the theorem's regime (alpha < 1, and gamma < 1/alpha "
            "for a moving boundary): " + "; ".join(reasons))


def _has_custom_ell(cfg: ExperimentConfig) -> bool:
    """True when the ell keys deviate from the matched constant-tail default."""
    return (cfg.ell_family != CONSTANT or cfg.ell_c != 1.0 or cfg.ell_p != 0.0)


def build_model(cfg: ExperimentConfig) -> LevyModel:
    if cfg.alpha is None:
        return LevyModel(b=cfg.drift, sigma2=cfg.sigma2)
    if _has_custom_ell(cfg) and cfg.mode == "perturbed":
        ell = SlowlyVaryingSpec(cfg.ell_family, c=cfg.ell_c, p=cfg.ell_p)
        m = tail_only_model(cfg.alpha, ell)
        return replace(m, b=cfg.drift, sigma2=cfg.sigma2)
    m = stable_model(cfg.alpha, cfg.beta, cfg.scale)
    if cfg.mode == "perturbed":
        m = replace(m, stable=None, b=m.b + cfg.drift, sigma2=cfg.sigma2)
    return m


def monitoring_grid(cfg: ExperimentConfig, T: float) -> TimeGrid:
    return GRID_POLICIES[cfg.grid_policy](cfg, T)


# ---------------------------------------------------------------------------
# experiment drivers: each returns a list of CSV row dicts
# ---------------------------------------------------------------------------

def _row(cfg: ExperimentConfig, **kw) -> dict:
    base = {c: "" for c in CSV_COLUMNS}
    base.update(experiment_id=cfg.experiment_id, kind=cfg.kind,
                alpha=cfg.alpha, beta=cfg.beta, seed=cfg.seed)
    base.update(kw)
    return base


def _estimate_row(cfg, boundary_kind, est: SurvivalEstimate, kind=None):
    return _row(cfg, kind=kind or cfg.kind, boundary_kind=boundary_kind,
                gamma=cfg.gamma, T=est.T,
                n_paths=est.n_paths, survivors=est.survivors, p_hat=est.p_hat,
                ln_p=math.log(est.p_hat) if est.p_hat > 0 else -math.inf,
                ci_low=est.log_ci[0], ci_high=est.log_ci[1])


def _fit_row(cfg, boundary_kind, ests):
    """The fit row; its rho, stderr and CI cells stay empty when too few
    horizons keep survivors, so the survival rows are still written."""
    row = _row(cfg, kind="fit", boundary_kind=boundary_kind, gamma=cfg.gamma,
               n_paths=cfg.n_paths)
    try:
        fit = fit_exponent(ests)
    except FitUnavailable as exc:
        print(f"levypassage: warning: no fit for {boundary_kind}: {exc}",
              file=sys.stderr)
        return row
    row.update(p_hat=fit.rho_hat, ln_p=fit.stderr,
               ci_low=fit.rho_hat - WILSON_Z * fit.stderr,
               ci_high=fit.rho_hat + WILSON_Z * fit.stderr)
    return row


def run_survival_like(cfg: ExperimentConfig) -> list[dict]:
    model = build_model(cfg)
    T_grid = np.geomspace(cfg.t_min, cfg.t_max, cfg.t_points)
    grid = monitoring_grid(cfg, float(T_grid[-1]))
    boundaries = [Boundary(bk, cfg.gamma, cfg.level) for bk in cfg.boundary_kinds]
    counts = survival_counts(model, boundaries, T_grid, cfg.n_paths, grid,
                             cfg.seed, cfg.threads)
    rows = []
    for bi, b in enumerate(boundaries):
        ests = [SurvivalEstimate.from_counts(float(T), int(k), cfg.n_paths)
                for T, k in zip(T_grid, counts[bi])]
        rows += [_estimate_row(cfg, b.kind, e) for e in ests]
        if cfg.kind == "exponent":
            rows.append(_fit_row(cfg, b.kind, ests))
    return rows


def run_lemma(cfg: ExperimentConfig) -> list[dict]:
    ell = SlowlyVaryingSpec(cfg.ell_family, c=cfg.ell_c, p=cfg.ell_p)
    res = lemma_n0N_experiment(cfg.alpha, cfg.gamma, ell, cfg.lemma_n,
                               cfg.n_paths, cfg.seed, cfg.threads)
    est = SurvivalEstimate.from_counts(float(res.N), res.survivors, res.n_paths)
    row = _estimate_row(cfg, "lemma-range-%d-%d" % (res.N1, res.N), est)
    row["kind"] = cfg.kind + ("-vacuous" if res.vacuous else "")
    return [row]


def run_product_bound(cfg: ExperimentConfig) -> list[dict]:
    model = build_model(cfg)
    rep = product_bound_check(model, cfg.t_max, cfg.gamma, cfg.n_paths,
                              cfg.seed, cfg.threads)
    mk = lambda name, p, se: _row(cfg, boundary_kind=name, gamma=cfg.gamma,
                                  T=cfg.t_max, n_paths=cfg.n_paths, p_hat=p,
                                  ln_p=se)
    return [mk("lhs-decreasing", rep.p_lhs, rep.se_lhs),
            mk("y-constant", rep.p_y, rep.se_y),
            mk("s-above", rep.p_s, rep.se_s),
            _row(cfg, kind="product-margin", boundary_kind="satisfied" if
                 rep.satisfied else "violated", gamma=cfg.gamma, T=cfg.t_max,
                 n_paths=cfg.n_paths, p_hat=rep.margin, ln_p=rep.se_margin)]


def run_kappa(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for rho in cfg.rho_values:
        prof = PositivityProfile.constant(rho)
        for a in cfg.a_values:
            k = kappa(prof, a)
            rows.append(_row(cfg, gamma=rho, T=a, p_hat=k,
                             ln_p=abs(k - a ** rho) / a ** rho))
    return rows


def run_spitzer(cfg: ExperimentConfig) -> list[dict]:
    model = build_model(cfg)
    t_values = cfg.t_values or tuple(np.geomspace(cfg.t_min, cfg.t_max, cfg.t_points))
    prof = spitzer_profile(model, np.asarray(t_values), cfg.n_paths, cfg.seed,
                           threads=cfg.threads)
    rows = []
    for t, p in zip(prof.t, prof.p):
        k = int(round(p * cfg.n_paths))
        lo, hi = wilson_log_ci(k, cfg.n_paths)
        rows.append(_row(cfg, T=t, n_paths=cfg.n_paths, survivors=k, p_hat=p,
                         ln_p=math.log(p) if p > 0 else -math.inf,
                         ci_low=lo, ci_high=hi))
    return rows


def run_integral_test(cfg: ExperimentConfig) -> list[dict]:
    b = Boundary(cfg.boundary_kinds[0], cfg.gamma, cfg.level)
    res = brownian_integral_test(b)
    return [_row(cfg, boundary_kind=res.classification, gamma=cfg.gamma,
                 p_hat=res.value)]


def run_discrete_survival(cfg: ExperimentConfig) -> list[dict]:
    model = build_model(cfg)
    T_grid = np.geomspace(cfg.t_min, cfg.t_max, cfg.t_points)
    results = discrete_survival_experiment(model, T_grid, cfg.level, cfg.seed,
                                           cfg.n_paths, cfg.threads)
    rows = []
    for res in results:
        rows.append(_estimate_row(cfg, "discrete-y", res.estimate_y,
                                  kind="discrete-survival-y"))
        rows.append(_estimate_row(cfg, "discrete-x", res.estimate_x,
                                  kind="discrete-survival-x"))
    rows.append(_fit_row(cfg, "discrete-y", [res.estimate_y for res in results]))
    return rows


DRIVERS = {
    "survival": run_survival_like,
    "exponent": run_survival_like,
    "lemma-n0N": run_lemma,
    "product-bound": run_product_bound,
    "kappa": run_kappa,
    "spitzer": run_spitzer,
    "integral-test": run_integral_test,
    "discrete-survival": run_discrete_survival,
}


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_results_csv(path: Path, rows: list[dict]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = (row.get(col, "") for col in CSV_COLUMNS)
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in cells))
    path.write_text("\n".join(lines) + "\n")


def emit_plot_data(rows: list[dict]) -> str:
    """Columnar (ln T, ln p, ci) text grouped per boundary; no rendering."""
    data = [r for r in rows if r.get("survivors") != "" and r.get("T") != ""]
    if not data:
        raise ValueError("no survival rows to plot")
    groups: dict[str, list[dict]] = {}
    for r in data:
        groups.setdefault(str(r["boundary_kind"]), []).append(r)
    out = []
    for name, rs in groups.items():
        out.append(f"# boundary={name}")
        out.append("ln_T\tln_p\tci_low\tci_high\tflag")
        for r in rs:
            censored = r["survivors"] == 0
            out.append("\t".join([
                fmt(math.log(r["T"])),
                "" if censored else fmt(r["ln_p"]),
                "" if censored else fmt(r["ci_low"]),
                fmt(r["ci_high"]),
                "censored" if censored else "ok",
            ]))
    return "\n".join(out) + "\n"


def write_manifest(path: Path, cfg: ExperimentConfig, wall_s: float) -> None:
    lines = [f"# levypassage manifest (version = {__version__})",
             f"# wall_time_s = {wall_s:.3f}",
             f"# experiment_id = {cfg.experiment_id}"]
    lines += cfg.canonical_lines()
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: Path,
                   quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rows = DRIVERS[cfg.kind](cfg)
    wall = time.perf_counter() - start
    write_results_csv(out_dir / "results.csv", rows)
    write_manifest(out_dir / "manifest.txt", cfg, wall)
    if cfg.kind in ("survival", "exponent", "discrete-survival", "spitzer"):
        (out_dir / "plotdata.tsv").write_text(emit_plot_data(rows))
    if not quiet:
        print(f"{cfg.kind}: {len(rows)} rows -> {out_dir / 'results.csv'} "
              f"({wall:.2f}s)")
    return 0


def _error_record(code: int, violations: list[tuple[str, str]]) -> str:
    return json.dumps({"error": {"code": code,
                                 "violations": [{"field": f, "message": m}
                                                for f, m in violations]}})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="levypassage",
                                 description="moving-boundary survival experiments")
    ap.add_argument("--config", required=True, help="experiment config file")
    ap.add_argument("--out", default="./out", help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override run.seed")
    ap.add_argument("--threads", type=int, default=None, help="override run.threads")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    try:
        raw = parse_config_text(Path(args.config).read_text())
        if args.seed is not None:
            raw["run.seed"] = str(args.seed)
        if args.threads is not None:
            raw["run.threads"] = str(args.threads)
        cfg = build_config(raw)
    except ConfigError as exc:
        print(_error_record(2, exc.violations), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_error_record(2, [("--config", str(exc))]), file=sys.stderr)
        return 2

    warning = _regime_warning(cfg)
    if warning:
        print(f"levypassage: warning: {warning}", file=sys.stderr)
    try:
        return run_experiment(cfg, Path(args.out), quiet=args.quiet)
    except (ValueError, RuntimeError) as exc:
        print(_error_record(3, [("runtime", str(exc))]), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
