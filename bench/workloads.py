"""The four benchmark workloads: CLI configs and the checks on their outputs.

Every check compares against a closed form from closed_forms.py or an
invariant that holds for any seed; none compares against stored counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import closed_forms as cf

ALPHA = 0.7
UNIT_SCALE = cf.unit_density_scale(ALPHA)  # unit Lévy tail density, ~6.938
FIT_SE = 4.0  # checks allow this many standard errors
EXACT_GAMMA = 1.3
# acceptance windows of criteria 1-3, as half-widths around rho
FIT_WINDOW = {"constant": 0.08, "decreasing": 0.12, "increasing": 0.12}
# tolerance of test_discrete_survival_ordering_and_exponents
DISCRETE_TOLERANCE = 0.2
# product-bound scale: at unit density the Y factor P(Y_T <= 1/2) is below
# 1/200 and the workload would need thousands of paths to keep survivors
PRODUCT_SCALE = 1.5
POSITIVITY_BETA = 0.5
REL = 1e-9  # relative tolerance of recomputed floating-point values


def fmt(x: float) -> str:
    return "%.17g" % x


def config_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def exact_exponent(seed: int, smoke: bool, threads: int) -> dict[str, str]:
    return {
        "experiment.kind": "exponent",
        "model.alpha": fmt(ALPHA),
        "model.scale": fmt(UNIT_SCALE),
        "boundary.kind": "constant,decreasing,increasing",
        "boundary.gamma": fmt(EXACT_GAMMA),
        "run.grid_policy": "survival",
        "run.t_min": "16",
        "run.t_max": "1024" if smoke else "16384",
        "run.t_points": "5" if smoke else "8",
        "run.n_paths": "300" if smoke else "3000",
        "run.seed": str(seed),
        "run.threads": str(threads),
    }


def sparre_andersen_oracle(seed: int, smoke: bool, threads: int) -> dict[str, str]:
    """Constant boundary at level 0 on the integers: Sparre Andersen applies."""
    return {
        "experiment.kind": "exponent",
        "model.alpha": fmt(ALPHA),
        "model.scale": fmt(UNIT_SCALE),
        "boundary.kind": "constant",
        "boundary.level": "0",
        "run.grid_policy": "integers",
        "run.t_min": "1",
        "run.t_max": "64" if smoke else "1024",
        "run.t_points": "7" if smoke else "11",
        "run.n_paths": "500" if smoke else "4000",
        "run.seed": str(seed),
        "run.threads": str(threads),
    }


def perturbed_product_bound(seed: int, smoke: bool, threads: int) -> dict[str, str]:
    return {
        "experiment.kind": "product-bound",
        "model.alpha": fmt(ALPHA),
        "model.scale": fmt(PRODUCT_SCALE),
        "boundary.gamma": "1",
        "run.t_max": "64" if smoke else "256",
        "run.n_paths": "30" if smoke else "400",
        "run.seed": str(seed),
        "run.threads": str(threads),
    }


def discrete_survival(seed: int, smoke: bool, threads: int) -> dict[str, str]:
    return {
        "experiment.kind": "discrete-survival",
        "model.alpha": fmt(ALPHA),
        "model.scale": fmt(UNIT_SCALE),
        "boundary.level": "1",
        "run.t_min": "16",
        "run.t_max": "64" if smoke else "128",
        "run.t_points": "4",
        "run.n_paths": "40" if smoke else "200",
        "run.seed": str(seed),
        "run.threads": str(threads),
    }


def positivity_profile(seed: int, smoke: bool, threads: int) -> dict[str, str]:
    return {
        "experiment.kind": "spitzer",
        "model.alpha": fmt(ALPHA),
        "model.beta": fmt(POSITIVITY_BETA),
        "model.mode": "exact",
        "spitzer.t_values": "0.5,1,2,4,8",
        "run.n_paths": "2000" if smoke else "60000",
        "run.seed": str(seed),
        "run.threads": str(threads),
    }


# ---------------------------------------------------------------------------
# checks: each returns a list of mismatch messages, empty when all hold
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rel: float = REL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _survival_rows(rows: list[dict], n_paths: int, where: str) -> list[str]:
    """p_hat = survivors / n and Wilson bounds for every row with a count."""
    bad = []
    for r in rows:
        k = r["survivors"]
        if r["n_paths"] != n_paths:
            bad.append(f"{where}: n_paths {r['n_paths']} != {n_paths}")
        if r["p_hat"] != k / n_paths:
            bad.append(f"{where} T={r['T']}: p_hat {r['p_hat']!r} != {k}/{n_paths}")
        lo, hi = cf.wilson_log_bounds(k, n_paths)
        if not (_close(r["ci_low"], lo) and _close(r["ci_high"], hi)):
            bad.append(f"{where} T={r['T']}: Wilson ({r['ci_low']!r}, "
                       f"{r['ci_high']!r}) != recomputed ({lo!r}, {hi!r})")
    return bad


def _fit_near(fit: dict, rho: float, half_width: float, where: str) -> list[str]:
    rho_hat, se = fit["p_hat"], fit["ln_p"]
    allowed = max(half_width, FIT_SE * se)
    if abs(rho_hat - rho) > allowed:
        return [f"{where}: fitted rho {rho_hat:.4f} is {abs(rho_hat - rho):.4f} "
                f"from {rho:.4f}, more than {allowed:.4f}"]
    return []


def check_exact_exponent(cfg, rows, record) -> list[str]:
    n = int(cfg["run.n_paths"])
    rho = cf.positivity(ALPHA, 0.0)
    kinds = cfg["boundary.kind"].split(",")
    est = {k: [r for r in rows if r["boundary_kind"] == k and r["kind"] == "exponent"]
           for k in kinds}
    fits = {r["boundary_kind"]: r for r in rows if r["kind"] == "fit"}
    bad = []
    for k in kinds:
        counts = [r["survivors"] for r in est[k]]
        if len(counts) != int(cfg["run.t_points"]) or k not in fits:
            return [f"{k}: expected {cfg['run.t_points']} survival rows and a fit row"]
        if any(b > a for a, b in zip(counts, counts[1:])):
            bad.append(f"{k}: survivor counts increase with T: {counts}")
        bad += _survival_rows(est[k], n, k)
        bad += _fit_near(fits[k], rho, FIT_WINDOW[k], f"{k} fit")
    for d, c, i in zip(est["decreasing"], est["constant"], est["increasing"]):
        if not d["survivors"] <= c["survivors"] <= i["survivors"]:
            bad.append(f"T={c['T']}: decreasing {d['survivors']} <= constant "
                       f"{c['survivors']} <= increasing {i['survivors']} fails")
    return bad


def check_sparre_andersen(cfg, rows, record) -> list[str]:
    n_paths = int(cfg["run.n_paths"])
    rho = cf.positivity(ALPHA, 0.0)
    est = [r for r in rows if r["kind"] == "exponent"]
    if len(est) != int(cfg["run.t_points"]):
        return [f"oracle: expected {cfg['run.t_points']} survival rows"]
    bad = _survival_rows(est, n_paths, "oracle")
    for r in est:
        # survivors at horizon T stayed <= 0 at every integer step up to floor(T)
        steps = int(math.floor(r["T"]))
        p = cf.sparre_andersen(steps, rho)
        se = cf.binomial_se(p, n_paths)
        if abs(r["p_hat"] - p) > FIT_SE * se:
            bad.append(f"oracle n={steps}: p_hat {r['p_hat']:.5f} vs Sparre "
                       f"Andersen {p:.5f}, {abs(r['p_hat'] - p) / se:.2f} se apart")
    return bad


def check_product_bound(cfg, rows, record) -> list[str]:
    n = int(cfg["run.n_paths"])
    T = float(cfg["run.t_max"])
    by = {r["boundary_kind"]: r for r in rows}
    factors = ("lhs-decreasing", "y-constant", "s-above")
    if not all(f in by for f in factors) or len(rows) != 4:
        return [f"product-bound: expected rows {factors} and a margin row"]
    bad = []
    margin = [r for r in rows if r["kind"] == "product-margin"]
    if not margin or margin[0]["boundary_kind"] != "satisfied":
        bad.append("product-bound: margin row does not read 'satisfied'")
    p = {}
    for f in factors:
        p[f], se = by[f]["p_hat"], by[f]["ln_p"]
        if abs(p[f] * n - round(p[f] * n)) > 1e-6:
            bad.append(f"{f}: p {p[f]!r} is not a count over {n}")
        if not _close(se, cf.binomial_se(p[f], n)):
            bad.append(f"{f}: standard error {se!r} != sqrt(p(1-p)/n)")
    if margin:
        m = margin[0]
        want = p["lhs-decreasing"] - p["y-constant"] * p["s-above"]
        if not _close(m["p_hat"], want):
            bad.append(f"margin {m['p_hat']!r} != p_lhs - p_y p_s = {want!r}")
    c = cf.tail_constant(ALPHA, PRODUCT_SCALE)
    bad += _check_plans(record, c)
    for d in record["decompositions"]:
        if d["side"] != "negative" or d["T"] != T:
            bad.append(f"unexpected decomposition {d}")
        bad += _check_decomposition(d, c)
    if len(record["decompositions"]) != 1:
        bad.append(f"expected one decomposition, got {len(record['decompositions'])}")
    return bad


def _check_plans(record, c: float) -> list[str]:
    want = cf.jump_rate(ALPHA, c)
    plain = [pl for pl in record["plans"] if not pl["thinned"]]
    if not plain:
        return ["no un-thinned jump plan was built"]
    return [f"plan jump rate {pl['rate']!r} != 2 c eta^-alpha / alpha = {want!r}"
            for pl in plain if not _close(pl["rate"], want, 1e-6)]


def _check_decomposition(d: dict, c: float) -> list[str]:
    bad = []
    if d["delta"] != cf.delta(d["T"]):
        bad.append(f"delta({d['T']}) = {d['delta']!r} != {cf.delta(d['T'])!r}")
    want = cf.nu_s_mass(ALPHA, c, d["T"])
    if not _close(d["total_mass"], want, 1e-6):
        bad.append(f"nu_S mass at T={d['T']}: {d['total_mass']!r} != "
                   f"delta(T) c / alpha = {want!r}")
    return bad


def check_discrete_survival(cfg, rows, record) -> list[str]:
    n = int(cfg["run.n_paths"])
    ys = [r for r in rows if r["kind"] == "discrete-survival-y"]
    xs = [r for r in rows if r["kind"] == "discrete-survival-x"]
    fits = [r for r in rows if r["kind"] == "fit"]
    if len(ys) != int(cfg["run.t_points"]) or len(xs) != len(ys) or len(fits) != 1:
        return ["discrete-survival: expected a Y and an X row per horizon and a fit"]
    bad = _survival_rows(ys, n, "Y") + _survival_rows(xs, n, "X")
    for y, x in zip(ys, xs):
        if y["survivors"] < x["survivors"]:
            bad.append(f"T={y['T']}: Y survivors {y['survivors']} < X {x['survivors']}")
    # thinning big positive jumps by delta leaves tails (1 - delta) c and c
    d = cf.delta(float(cfg["run.t_max"]))
    beta = ((1.0 - d) - 1.0) / ((1.0 - d) + 1.0)
    bad += _fit_near(fits[0], cf.positivity(ALPHA, beta), DISCRETE_TOLERANCE, "Y fit")
    bad += _check_plans(record, 1.0)
    horizons = sorted(r["T"] for r in ys)
    if sorted(d["T"] for d in record["decompositions"]) != horizons:
        bad.append("expected one decomposition per horizon")
    for dec in record["decompositions"]:
        bad += _check_decomposition(dec, 1.0)
    return bad


def check_positivity(cfg, rows, record) -> list[str]:
    n = int(cfg["run.n_paths"])
    rho = cf.positivity(ALPHA, POSITIVITY_BETA)
    se = cf.binomial_se(rho, n)
    times = [float(t) for t in cfg["spitzer.t_values"].split(",")]
    if [r["T"] for r in rows] != times:
        return [f"positivity: expected one row per t in {times}"]
    bad = _survival_rows(rows, n, "positivity")
    for r in rows:
        if abs(r["p_hat"] - rho) > FIT_SE * se:
            bad.append(f"t={r['T']}: p_hat {r['p_hat']:.5f} vs rho {rho:.5f}, "
                       f"{abs(r['p_hat'] - rho) / se:.2f} se apart")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int, bool, int], dict[str, str]]
    check: Callable[[dict, list, dict], list[str]]
    path_sets: Callable[[dict], int]  # path sets simulated per path index
    replay: int  # paths replayed for passage.needed_point_share
    oracle: tuple | None = None  # (config, check) of an untimed extra run


WORKLOADS = {w.name: w for w in (
    Workload("exact-exponent", exact_exponent, check_exact_exponent,
             lambda cfg: 1, replay=200,
             oracle=(sparre_andersen_oracle, check_sparre_andersen)),
    Workload("perturbed-product-bound", perturbed_product_bound,
             check_product_bound, lambda cfg: 3, replay=40),
    Workload("discrete-survival", discrete_survival, check_discrete_survival,
             lambda cfg: int(cfg["run.t_points"]), replay=100),
    Workload("positivity-profile", positivity_profile, check_positivity,
             lambda cfg: 1, replay=1),  # no boundary: the share is 1, no replay
)}
