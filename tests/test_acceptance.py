"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy runs are shared: criteria 1-3 reuse a single 10^5-path simulation of
the symmetric alpha = 0.7 stable model (unit Lévy tail density) scored
against all five boundaries on common paths.
"""

import math
import sys

import numpy as np
import pytest

from levypassage.cli import main as cli_main
from levypassage.decompose import NEGATIVE, POSITIVE, build_decomposition
from levypassage.estimate import (SurvivalEstimate, fit_exponent,
                                  gaussian_refinement_counts,
                                  lemma_n0N_experiment, subordinator_laplace_check,
                                  survival_counts)
from levypassage.fluctuation import PositivityProfile, kappa
from levypassage.levymodel import (Boundary, characteristic_exponent,
                                   standard_symmetric_model, tail_only_model)
from levypassage.rng import stream
from levypassage.rvcalc import SlowlyVaryingSpec
from levypassage.simulate import TimeGrid, sample_subordinator_path
from levypassage.stable import StableParams, positivity_parameter

SEED = 20250810
N_PATHS = 100_000
ELL1 = SlowlyVaryingSpec("constant", c=1.0)

BOUNDARIES = {
    "constant": Boundary("constant"),
    "dec-1.0": Boundary("decreasing", 1.0),
    "dec-1.3": Boundary("decreasing", 1.3),
    "inc-1.0": Boundary("increasing", 1.0),
    "inc-1.3": Boundary("increasing", 1.3),
}


_VERDICTS: list[str] = []


def report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})"
    _VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _verdict_banner(request):
    """Echo one pass/fail line per criterion past pytest's capture."""
    yield
    cap = request.config.pluginmanager.getplugin("capturemanager")
    with cap.global_and_fixture_disabled():
        print("\n".join(["", "-" * 72] + _VERDICTS + ["-" * 72]),
              file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def shared_fits():
    """rho_hat per boundary from one 10^5-path run, T-grid 2^4..2^14."""
    model = standard_symmetric_model(0.7)
    T_grid = np.geomspace(2.0 ** 4, 2.0 ** 14, 8)
    grid = TimeGrid.survival(float(T_grid[-1]))
    counts = survival_counts(model, list(BOUNDARIES.values()), T_grid,
                             N_PATHS, grid, seed=SEED, threads=4)
    fits = {}
    for name, row in zip(BOUNDARIES, counts):
        ests = [SurvivalEstimate.from_counts(float(T), int(k), N_PATHS)
                for T, k in zip(T_grid, row)]
        fits[name] = (fit_exponent(ests), row)
    return fits


def test_criterion_01_constant_boundary_exponent(shared_fits):
    fit, row = shared_fits["constant"]
    ok = 0.42 <= fit.rho_hat <= 0.58
    report("criterion-1 constant-boundary exponent", ok,
           f"rho_hat={fit.rho_hat:.4f} se={fit.stderr:.4f} "
           f"survivors(Tmax)={row[-1]}, window [0.42, 0.58]")


def test_criterion_02_decreasing_boundaries(shared_fits):
    fit10, _ = shared_fits["dec-1.0"]
    fit13, _ = shared_fits["dec-1.3"]
    ok = 0.40 <= fit10.rho_hat <= 0.60 and 0.38 <= fit13.rho_hat <= 0.62
    report("criterion-2 decreasing boundary 1 - t^g", ok,
           f"gamma=1.0: {fit10.rho_hat:.4f} in [0.40,0.60]; "
           f"gamma=1.3: {fit13.rho_hat:.4f} in [0.38,0.62]")


def test_criterion_03_increasing_boundaries(shared_fits):
    fit10, _ = shared_fits["inc-1.0"]
    fit13, _ = shared_fits["inc-1.3"]
    fitc, _ = shared_fits["constant"]
    ok = (0.40 <= fit10.rho_hat <= 0.60 and 0.38 <= fit13.rho_hat <= 0.62
          and fit10.rho_hat <= fitc.rho_hat + 0.05
          and fit13.rho_hat <= fitc.rho_hat + 0.05)
    report("criterion-3 increasing boundary 1 + t^g", ok,
           f"gamma=1.0: {fit10.rho_hat:.4f}; gamma=1.3: {fit13.rho_hat:.4f}; "
           f"constant: {fitc.rho_hat:.4f} (dominance slack 0.05)")


def test_criterion_04_brownian_oracle():
    T_grid = [1.0, 4.0]
    counts = gaussian_refinement_counts(1.0, 0.0, 1.0, T_grid, dt_fine=5e-4,
                                        stride=2, n_paths=N_PATHS, seed=SEED,
                                        threads=4)
    details, ok = [], True
    for j, T in enumerate(T_grid):
        oracle = math.erf(1.0 / math.sqrt(2.0 * T))  # 2*Phi(1/sqrt(T)) - 1
        p_coarse = counts[0, j] / N_PATHS   # dt = 1e-3
        p_fine = counts[1, j] / N_PATHS     # dt = 5e-4
        bias_hat = (p_coarse - p_fine) / (1.0 - 2.0 ** -0.5)
        se = math.sqrt(p_coarse * (1.0 - p_coarse) / N_PATHS)
        ok &= abs(p_coarse - oracle) <= 3.0 * se + bias_hat
        ok &= counts[1, j] <= counts[0, j]  # bias shrinks when dt halves
        details.append(f"T={T}: |p-oracle|={abs(p_coarse - oracle):.5f} "
                       f"<= 3se+bias={3 * se + bias_hat:.5f}")
    report("criterion-4 Brownian oracle + discretization study", bool(ok),
           "; ".join(details))


def test_criterion_05_laplace_bound():
    model = tail_only_model(0.5, ELL1)
    details, ok = [], True
    for side in (NEGATIVE, POSITIVE):
        d = build_decomposition(model, 1e6, side)
        for lam in (1e-3, 1e-2):
            chk = subordinator_laplace_check(d, lam, N_PATHS, SEED)
            ok &= chk.satisfied
            details.append(f"{side}/lam={lam:g}: emp={chk.empirical:.5f} "
                           f"bound={chk.bound.value:.5f}")
    report("criterion-5 Laplace exponent bound, both sides", bool(ok),
           "; ".join(details))


def test_criterion_06_frullani_kappa():
    worst = 0.0
    for rho in (0.3, 0.5, 0.7):
        prof = PositivityProfile.constant(rho)
        for a in (0.25, 0.5, 2.0, 4.0):
            worst = max(worst, abs(kappa(prof, a) - a ** rho) / a ** rho)
    report("criterion-6 Frullani/kappa consistency", worst < 1e-3,
           f"worst relative error {worst:.2e} < 1e-3")


def test_criterion_07_lemma_n0N():
    res = lemma_n0N_experiment(0.5, 1.5, ELL1, 10 ** 4, 10 ** 4, seed=SEED)
    ok = res.p_hat >= 0.99
    report("criterion-7 subordinator-follows-boundary experiment", ok,
           f"p_hat={res.p_hat:.4f} >= 0.99 (N1={res.N1}, "
           f"index range {'empty: vacuously certain' if res.vacuous else 'non-empty'})")


def _synthetic(T, p, n=10 ** 8):
    return SurvivalEstimate(T=T, n_paths=n, survivors=int(round(p * n)),
                            p_hat=p, log_ci=(math.log(p), math.log(p)))


def test_criterion_08_exponent_fit_exactness():
    e1 = [_synthetic(T, T ** -0.5) for T in (10.0, 100.0, 1000.0, 10000.0)]
    e2 = [_synthetic(T, 7.0 * T ** -0.3) for T in (1e3, 1e4, 1e5, 1e6)]
    d1 = abs(fit_exponent(e1).rho_hat - 0.5)
    d2 = abs(fit_exponent(e2).rho_hat - 0.3)
    report("criterion-8 exponent-fit exactness", d1 < 1e-12 and d2 < 1e-12,
           f"|rho-0.5|={d1:.2e}, |rho-0.3|={d2:.2e}")


def test_criterion_09_thread_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment.kind = exponent\n"
        "model.alpha = 0.7\n"
        "boundary.kind = constant,decreasing\n"
        "boundary.gamma = 1.0\n"
        "run.t_min = 16\nrun.t_max = 256\nrun.t_points = 4\n"
        "run.n_paths = 2000\nrun.seed = 11\nrun.grid_per_octave = 4\n")
    outputs = {}
    for threads in (1, 4, 16):
        out = tmp_path / f"t{threads}"
        rc = cli_main(["--config", str(cfg), "--out", str(out),
                       "--threads", str(threads), "--quiet"])
        assert rc == 0
        outputs[threads] = (out / "results.csv").read_bytes()
    ok = outputs[1] == outputs[4] == outputs[16]
    fit_rows = [ln for ln in outputs[1].decode().splitlines()
                if ln.split(",")[1] == "fit"]
    rho = float(fit_rows[0].split(",")[9])
    report("criterion-9 thread-count determinism", ok,
           f"byte-identical CSV across threads 1/4/16: {ok}; "
           f"constant-boundary fit row rho_hat={rho:.3f}")


def test_criterion_10_property_suites():
    checks = []

    # measure-split identity at 1e-12, 200 points
    m = tail_only_model(0.7, SlowlyVaryingSpec("log-power", p=0.5))
    d = build_decomposition(m, 1000.0, NEGATIVE)
    v = np.log(np.geomspace(1.001, 100.0, 200))  # in density * x**(alpha+1)
    rel = np.abs(d.h_S(v) + d.h_rest(v) - m.tail_left.h(v)) / m.tail_left.h(v)
    checks.append(("measure-split", float(np.max(rel)) < 1e-12))

    # subordinator monotonicity on every sampled path
    d2 = build_decomposition(tail_only_model(0.5, ELL1), 100.0, NEGATIVE)
    grid = TimeGrid.geometric(50.0, t_min=0.5, per_octave=4)
    mono = all(np.all(np.diff(sample_subordinator_path(d2, grid, stream(SEED, i)).values)
                      >= 0.0) for i in range(2000))
    checks.append(("subordinator-monotone", mono))

    # survival nesting and boundary ordering as exact integer dominations
    model = standard_symmetric_model(0.7)
    bs = [Boundary("decreasing", 1.0), Boundary("constant"),
          Boundary("increasing", 1.0)]
    counts = survival_counts(model, bs, np.array([2.0, 8.0, 32.0]), 3000,
                             TimeGrid.survival(32.0), seed=SEED)
    checks.append(("nesting", bool(np.all(np.diff(counts, axis=1) <= 0))))
    checks.append(("boundary-order", bool(np.all(counts[0] <= counts[1])
                                          and np.all(counts[1] <= counts[2]))))

    # conjugate symmetry of the characteristic exponent at 1e-12
    sym_ok = True
    mpsi = tail_only_model(0.7, ELL1)
    for u in (0.5, 1.0, 2.0):
        psi = characteristic_exponent(mpsi, u)
        sym_ok &= abs(characteristic_exponent(mpsi, -u) - psi.conjugate()) \
            <= 1e-12 * abs(psi)
    checks.append(("psi-conjugate", bool(sym_ok)))

    # positivity reflection identity, exact
    refl = all(abs(positivity_parameter(StableParams(a, b))
                   + positivity_parameter(StableParams(a, -b)) - 1.0) < 1e-15
               for a in (0.3, 0.7, 1.5) for b in (-1.0, -0.4, 0.0, 0.6, 1.0))
    checks.append(("rho-reflection", refl))

    ok = all(flag for _, flag in checks)
    report("criterion-10 property suites", ok,
           ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks))
