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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .decompose import InvalidDecompositionError
from .estimate import (FitUnavailable, SurvivalEstimate,
                       discrete_survival_experiment, fit_exponent,
                       lemma_n0N_experiment,
                       product_bound_check, survival_counts, wilson_log_ci)
from .fluctuation import PositivityProfile, kappa, spitzer_profile
from .levymodel import Boundary, LevyModel, stable_model, tail_only_model
from .passage import brownian_integral_test
from .rvcalc import CONSTANT, LOG_POWER, SlowlyVaryingSpec
from .simulate import TimeGrid

KINDS = ("survival", "exponent", "lemma-n0N", "product-bound", "kappa",
         "spitzer", "integral-test", "discrete-survival")

GRID_POLICIES = ("survival", "uniform", "geometric", "integers")
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


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict[str, str] = field(default_factory=dict)

    # model block
    alpha: float | None = None
    beta: float = 0.0
    scale: float = 1.0
    sigma2: float = 0.0
    drift: float = 0.0
    ell_family: str = CONSTANT
    ell_c: float = 1.0
    ell_p: float = 0.0
    mode: str = "exact"
    rho: float | None = None

    # boundary block
    boundary_kinds: tuple[str, ...] = ("constant",)
    gamma: float = 1.0
    level: float = 1.0

    # run block
    t_min: float = 16.0
    t_max: float = 1024.0
    t_points: int = 6
    n_paths: int = 1000
    seed: int | None = None
    threads: int = 1
    grid_policy: str = "survival"
    grid_dt: float = 1e-3
    grid_t_min: float = 2.0 ** -10
    grid_per_octave: int = 8

    # kind-specific
    rho_values: tuple[float, ...] = (0.3, 0.5, 0.7)
    a_values: tuple[float, ...] = (0.25, 0.5, 2.0, 4.0)
    t_values: tuple[float, ...] = ()
    lemma_n: int = 10_000

    def canonical_lines(self, include_threads: bool = True) -> list[str]:
        pairs = [
            ("experiment.kind", self.kind),
            ("model.alpha", fmt(self.alpha)),
            ("model.beta", fmt(self.beta)),
            ("model.scale", fmt(self.scale)),
            ("model.sigma2", fmt(self.sigma2)),
            ("model.drift", fmt(self.drift)),
            ("model.ell_family", self.ell_family),
            ("model.ell_c", fmt(self.ell_c)),
            ("model.ell_p", fmt(self.ell_p)),
            ("model.mode", self.mode),
            ("model.rho", fmt(self.rho)),
            ("boundary.kind", ",".join(self.boundary_kinds)),
            ("boundary.gamma", fmt(self.gamma)),
            ("boundary.level", fmt(self.level)),
            ("run.t_min", fmt(self.t_min)),
            ("run.t_max", fmt(self.t_max)),
            ("run.t_points", fmt(self.t_points)),
            ("run.n_paths", fmt(self.n_paths)),
            ("run.seed", fmt(self.seed)),
            ("run.grid_policy", self.grid_policy),
            ("run.grid_dt", fmt(self.grid_dt)),
            ("run.grid_t_min", fmt(self.grid_t_min)),
            ("run.grid_per_octave", fmt(self.grid_per_octave)),
            ("kappa.rho_values", ",".join(fmt(v) for v in self.rho_values)),
            ("kappa.a_values", ",".join(fmt(v) for v in self.a_values)),
            ("spitzer.t_values", ",".join(fmt(v) for v in self.t_values)),
            ("lemma.n", fmt(self.lemma_n)),
        ]
        if include_threads:
            pairs.append(("run.threads", fmt(self.threads)))
        return [f"{k} = {v}" for k, v in pairs if v != ""]

    @property
    def experiment_id(self) -> str:
        text = "\n".join(self.canonical_lines(include_threads=False))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_float(raw, key, violations, default=None):
    if key not in raw:
        return default
    try:
        return float(raw[key])
    except ValueError:
        violations.append((key, f"not a number: {raw[key]!r}"))
        return default


def _parse_int(raw, key, violations, default=None):
    if key not in raw:
        return default
    try:
        return int(raw[key])
    except ValueError:
        violations.append((key, f"not an integer: {raw[key]!r}"))
        return default


def _parse_floats(raw, key, violations, default):
    if key not in raw:
        return default
    try:
        return tuple(float(v) for v in raw[key].split(","))
    except ValueError:
        violations.append((key, f"not a comma-separated number list: {raw[key]!r}"))
        return default


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    violations: list[tuple[str, str]] = []
    kind = raw.get("experiment.kind", "")
    if kind not in KINDS:
        violations.append(("experiment.kind", f"must be one of {', '.join(KINDS)}"))
    cfg = ExperimentConfig(kind=kind, raw=dict(raw))

    cfg.alpha = _parse_float(raw, "model.alpha", violations)
    cfg.beta = _parse_float(raw, "model.beta", violations, 0.0)
    cfg.scale = _parse_float(raw, "model.scale", violations, 1.0)
    cfg.sigma2 = _parse_float(raw, "model.sigma2", violations, 0.0)
    cfg.drift = _parse_float(raw, "model.drift", violations, 0.0)
    cfg.ell_family = raw.get("model.ell_family", CONSTANT)
    cfg.ell_c = _parse_float(raw, "model.ell_c", violations, 1.0)
    cfg.ell_p = _parse_float(raw, "model.ell_p", violations, 0.0)
    cfg.mode = raw.get("model.mode", "exact")
    cfg.rho = _parse_float(raw, "model.rho", violations)

    kinds_raw = raw.get("boundary.kind", "constant")
    cfg.boundary_kinds = tuple(s.strip() for s in kinds_raw.split(","))
    for bk in cfg.boundary_kinds:
        if bk not in ("constant", "decreasing", "increasing"):
            violations.append(("boundary.kind", f"unknown boundary kind {bk!r}"))
    cfg.gamma = _parse_float(raw, "boundary.gamma", violations, 1.0)
    cfg.level = _parse_float(raw, "boundary.level", violations, 1.0)

    cfg.t_min = _parse_float(raw, "run.t_min", violations, 16.0)
    cfg.t_max = _parse_float(raw, "run.t_max", violations, 1024.0)
    cfg.t_points = _parse_int(raw, "run.t_points", violations, 6)
    cfg.n_paths = _parse_int(raw, "run.n_paths", violations, 1000)
    cfg.seed = _parse_int(raw, "run.seed", violations)
    cfg.threads = _parse_int(raw, "run.threads", violations, 1)
    cfg.grid_policy = raw.get("run.grid_policy", "survival")
    cfg.grid_dt = _parse_float(raw, "run.grid_dt", violations, 1e-3)
    cfg.grid_t_min = _parse_float(raw, "run.grid_t_min", violations, 2.0 ** -10)
    cfg.grid_per_octave = _parse_int(raw, "run.grid_per_octave", violations, 8)

    cfg.rho_values = _parse_floats(raw, "kappa.rho_values", violations, (0.3, 0.5, 0.7))
    cfg.a_values = _parse_floats(raw, "kappa.a_values", violations, (0.25, 0.5, 2.0, 4.0))
    cfg.t_values = _parse_floats(raw, "spitzer.t_values", violations, ())
    cfg.lemma_n = _parse_int(raw, "lemma.n", violations, 10_000)

    known_prefixes = ("experiment.", "model.", "boundary.", "run.", "kappa.",
                      "spitzer.", "lemma.")
    known_keys = {k for k, _ in (line.split(" = ", 1)
                                 for line in cfg.canonical_lines())}
    for key in raw:
        if not key.startswith(known_prefixes) or key not in known_keys:
            violations.append((key, "unknown configuration key"))

    # semantic validation
    if cfg.seed is None:
        violations.append(("run.seed", "an explicit seed is required"))
    if cfg.threads is not None and cfg.threads < 1:
        violations.append(("run.threads", "threads must be >= 1"))
    if cfg.n_paths is not None and cfg.n_paths < 1:
        violations.append(("run.n_paths", "n_paths must be >= 1"))
    if cfg.kind in ("exponent", "discrete-survival") and (cfg.t_points or 0) < 4:
        violations.append(("run.t_points", "exponent fits need at least 4 T points"))
    if cfg.kind in HORIZON_KINDS or (cfg.kind == "spitzer" and not cfg.t_values):
        if not cfg.t_min > 0:
            violations.append(("run.t_min", "t_min must be > 0"))
        elif not (cfg.t_min < cfg.t_max
                  or (cfg.t_min == cfg.t_max and cfg.t_points == 1)):
            violations.append(("run.t_min", "t_min must be below run.t_max"))
        if cfg.t_points is not None and cfg.t_points < 1:
            violations.append(("run.t_points", "t_points must be >= 1"))
    if cfg.grid_policy not in GRID_POLICIES:
        violations.append(("run.grid_policy",
                           f"must be one of {', '.join(GRID_POLICIES)}"))
    if cfg.mode not in ("exact", "perturbed"):
        violations.append(("model.mode", "mode must be 'exact' or 'perturbed'"))
    if cfg.ell_family not in (CONSTANT, LOG_POWER):
        violations.append(("model.ell_family", "unknown slowly varying family"))
    custom_ell = _has_custom_ell(cfg)
    if cfg.kind not in ("lemma-n0N",) and custom_ell and cfg.mode == "exact":
        violations.append(("model.mode",
                           "exact mode fixes the matched constant tails; "
                           "custom ell requires mode = perturbed"))
    if custom_ell and cfg.mode == "perturbed" and cfg.beta not in (0.0, None) \
            and cfg.kind != "lemma-n0N":
        violations.append(("model.beta", "custom ell models must be symmetric"))
    if cfg.mode == "exact" and (cfg.sigma2 or cfg.drift):
        if cfg.alpha is not None and (cfg.sigma2 != 0.0 or cfg.drift != 0.0):
            violations.append(("model.mode",
                               "exact stable increments admit no extra drift or "
                               "Gaussian part; use mode = perturbed"))
    if cfg.kind in ("survival", "exponent", "spitzer", "product-bound",
                    "discrete-survival"):
        if cfg.alpha is None and cfg.sigma2 == 0.0 and cfg.drift == 0.0:
            violations.append(("model.alpha", "this experiment needs a model"))
    if violations:
        raise ConfigError(violations)
    return cfg


def _has_custom_ell(cfg: ExperimentConfig) -> bool:
    """True when the ell keys deviate from the matched constant-tail default."""
    return (cfg.ell_family != CONSTANT or cfg.ell_c != 1.0 or cfg.ell_p != 0.0)


def build_model(cfg: ExperimentConfig) -> LevyModel:
    if cfg.alpha is None:
        return LevyModel(b=cfg.drift, sigma2=cfg.sigma2, rho=cfg.rho)
    if _has_custom_ell(cfg) and cfg.mode == "perturbed":
        ell = SlowlyVaryingSpec(cfg.ell_family, c=cfg.ell_c, p=cfg.ell_p)
        m = tail_only_model(cfg.alpha, ell, sides="both", rho=cfg.rho)
        return replace(m, b=cfg.drift, sigma2=cfg.sigma2)
    m = stable_model(cfg.alpha, cfg.beta, cfg.scale, rho=cfg.rho)
    if cfg.mode == "perturbed":
        m = replace(m, stable=None, b=m.b + cfg.drift, sigma2=cfg.sigma2)
    return m


def monitoring_grid(cfg: ExperimentConfig, T: float) -> TimeGrid:
    if cfg.grid_policy == "survival":
        return TimeGrid.survival(T, t_min=cfg.grid_t_min,
                                 per_octave=cfg.grid_per_octave)
    if cfg.grid_policy == "uniform":
        return TimeGrid.uniform(T, cfg.grid_dt)
    if cfg.grid_policy == "geometric":
        return TimeGrid.geometric(T, t_min=cfg.grid_t_min,
                                  per_octave=cfg.grid_per_octave)
    if cfg.grid_policy == "integers":
        return TimeGrid.integers(T)
    raise ConfigError([("run.grid_policy", f"unknown policy {cfg.grid_policy!r}")])


# ---------------------------------------------------------------------------
# experiment drivers: each returns a list of CSV row dicts
# ---------------------------------------------------------------------------

def _row(cfg: ExperimentConfig, **kw) -> dict:
    base = {c: "" for c in CSV_COLUMNS}
    base.update(experiment_id=cfg.experiment_id, kind=cfg.kind,
                alpha=cfg.alpha, beta=cfg.beta, seed=cfg.seed)
    base.update(kw)
    return base


FIT_CI_Z = 1.959963984540054


def _estimate_row(cfg, boundary_kind, est: SurvivalEstimate, kind=None, gamma=None):
    return _row(cfg, kind=kind or cfg.kind, boundary_kind=boundary_kind,
                gamma=cfg.gamma if gamma is None else gamma, T=est.T,
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
               ci_low=fit.rho_hat - FIT_CI_Z * fit.stderr,
               ci_high=fit.rho_hat + FIT_CI_Z * fit.stderr)
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
        ests = [SurvivalEstimate.from_counts(float(T), int(k), cfg.n_paths, cfg.seed)
                for T, k in zip(T_grid, counts[bi])]
        rows += [_estimate_row(cfg, b.kind, e) for e in ests]
        if cfg.kind == "exponent":
            rows.append(_fit_row(cfg, b.kind, ests))
    return rows


def run_lemma(cfg: ExperimentConfig) -> list[dict]:
    ell = SlowlyVaryingSpec(cfg.ell_family, c=cfg.ell_c, p=cfg.ell_p)
    res = lemma_n0N_experiment(cfg.alpha, cfg.gamma, ell, cfg.lemma_n,
                               cfg.n_paths, cfg.seed, cfg.threads)
    est = SurvivalEstimate.from_counts(float(res.N), res.survivors,
                                       res.n_paths, cfg.seed)
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
    prof = spitzer_profile(model, np.asarray(t_values), cfg.n_paths, cfg.seed)
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
                 p_hat=res.value if res.value is not None else "")]


def run_discrete_survival(cfg: ExperimentConfig) -> list[dict]:
    model = build_model(cfg)
    T_grid = np.geomspace(cfg.t_min, cfg.t_max, cfg.t_points)
    rows, y_ests = [], []
    for T in T_grid:
        res = discrete_survival_experiment(model, float(T), cfg.level,
                                           cfg.seed, cfg.n_paths, cfg.threads)
        y_ests.append(res.estimate_y)
        rows.append(_estimate_row(cfg, "discrete-y", res.estimate_y,
                                  kind="discrete-survival-y"))
        rows.append(_estimate_row(cfg, "discrete-x", res.estimate_x,
                                  kind="discrete-survival-x"))
        if not res.ordering_ok:
            raise RuntimeError("pathwise ordering Y_T <= X violated")
    rows.append(_fit_row(cfg, "discrete-y", y_ests))
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
        cells = []
        for col in CSV_COLUMNS:
            v = row.get(col, "")
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt(v))
        lines.append(",".join(cells))
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

    try:
        return run_experiment(cfg, Path(args.out), quiet=args.quiet)
    except (InvalidDecompositionError, ValueError, RuntimeError) as exc:
        print(_error_record(3, [("runtime", str(exc))]), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
