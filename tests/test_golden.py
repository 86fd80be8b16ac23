"""Golden outputs: fixed-seed literals that every engine change must reproduce.

The exact-mode survivor counts were recorded from the engine that simulates
every path over the whole monitoring grid; the perturbed-mode ones from paths
that draw their jumps block by block in time.  They pin the per-path stream
layout, the running sum and the first-crossing scoring (ties survive) bit for
bit, so any change that alters a single draw or a single rounding shows up
here.  Each
case that takes a thread count runs at one and at four threads.  The
remaining literals pin the other path builders (product bound, discrete
survival, renewal gaps, Gaussian refinement, Spitzer profiles, the lemma
worker), the canonical config lines with the experiment id derived from
them, and the bytes the CLI writes for the benchmark workloads.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from levypassage.cli import DRIVERS, build_config, main, parse_config_text
from levypassage.decompose import NEGATIVE, build_decomposition
from levypassage.estimate import (gaussian_refinement_counts,
                                  lemma_n0N_experiment, product_bound_check,
                                  survival_counts)
from levypassage.fluctuation import renewal_convergence_gaps, spitzer_profile
from levypassage.levymodel import (Boundary, LevyModel, stable_model,
                                   standard_symmetric_model, tail_only_model)
from levypassage.rvcalc import SlowlyVaryingSpec
from levypassage.simulate import PerturbedPlan, TimeGrid

UNIT = standard_symmetric_model(0.7)


def _cases():
    return {
        # the acceptance model and boundaries over the full survival grid
        "survival-grid": (
            UNIT,
            [Boundary("constant"), Boundary("decreasing", 1.3),
             Boundary("increasing", 1.3)],
            np.geomspace(2.0 ** 4, 2.0 ** 14, 8), 300,
            TimeGrid.survival(2.0 ** 14), 11,
            [[22, 12, 7, 5, 4, 3, 2, 2],
             [18, 9, 4, 2, 1, 0, 0, 0],
             [37, 22, 16, 10, 7, 5, 4, 3]]),
        # Sparre Andersen setting: integer monitoring, level 0
        "integer-grid-level-0": (
            UNIT, [Boundary("constant", level=0.0)],
            np.geomspace(1.0, 1024.0, 11), 400, TimeGrid.integers(1024.0), 12,
            [[206, 152, 115, 81, 60, 37, 25, 17, 14, 11, 7]]),
        # 161 increments (not a multiple of 4), skewed law
        "ragged-geometric-skewed": (
            stable_model(0.7, -0.6, 1.5),
            [Boundary("constant"), Boundary("decreasing", 0.5, 2.0)],
            np.array([0.25, 1.0, 4.0, 16.0, 64.0]), 300,
            TimeGrid.geometric(64.0, per_octave=10), 13,
            [[293, 270, 239, 207, 176],
             [293, 274, 239, 206, 175]]),
        # a boundary below 0 is crossed by every path at t = 0
        "below-zero": (
            UNIT, [Boundary("constant", level=-0.5), Boundary("constant")],
            np.array([0.0, 1.0, 8.0, 64.0]), 200, TimeGrid.survival(64.0), 14,
            [[0, 0, 0, 0],
             [200, 80, 32, 8]]),
        # perturbed mode: compound-Poisson jumps at their epochs
        "perturbed": (
            replace(UNIT, stable=None),
            [Boundary("constant"), Boundary("decreasing", 1.0)],
            np.array([2.0, 4.0, 8.0, 16.0]), 40, TimeGrid.survival(16.0), 15,
            [[11, 8, 5, 4],
             [10, 8, 5, 4]]),
    }


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", list(_cases()))
def test_golden_survival_counts(name, threads):
    model, boundaries, T_grid, n_paths, grid, seed, want = _cases()[name]
    got = survival_counts(model, boundaries, T_grid, n_paths, grid, seed,
                          threads=threads)
    assert got.tolist() == want


SCALED = stable_model(0.7, 0.0, 1.5)


def _perturbed_cases():
    """Perturbed paths over several time blocks, with the plan to use."""
    return {
        # p_right != 1/2, Gaussian part and drift, non-integer horizon
        "skewed-diffusive-geometric": (
            replace(stable_model(0.5, 0.6), stable=None, sigma2=0.3, b=0.1),
            None,
            [Boundary("constant"), Boundary("decreasing", 0.6, 2.0),
             Boundary("increasing", 0.9)],
            np.array([0.5, 2.0, 8.0, 40.5]), 300, TimeGrid.geometric(40.5), 16,
            [[208, 76, 15, 2], [230, 68, 15, 3], [229, 115, 31, 5]]),
        "log-power-integers": (
            tail_only_model(0.8, SlowlyVaryingSpec("log-power", c=0.5, p=0.5)),
            None,
            [Boundary("constant", level=2.0), Boundary("increasing", 0.9)],
            np.array([1.0, 4.0, 16.0, 64.0]), 300, TimeGrid.integers(64.0), 17,
            [[113, 54, 19, 9], [99, 47, 16, 7]]),
        # the Y_T factor of the product bound: big negative jumps thinned
        "thinned-y-plan": (
            replace(SCALED, stable=None),
            PerturbedPlan.from_model(SCALED, build_decomposition(SCALED, 256.0,
                                                                 NEGATIVE)),
            [Boundary("constant", level=0.5), Boundary("constant", level=2.0)],
            np.array([1.0, 4.0, 16.0, 64.0, 256.0]), 60,
            TimeGrid.survival(256.0), 18,
            [[27, 9, 1, 0, 0], [36, 16, 1, 0, 0]]),
        # a horizon <= 1 is a single block
        "horizon-below-one": (
            replace(SCALED, stable=None), None,
            [Boundary("constant", level=0.5), Boundary("decreasing", 0.5)],
            np.array([0.125, 0.5, 0.75]), 300, TimeGrid.survival(0.75), 19,
            [[268, 198, 177], [274, 178, 138]]),
        "jump-free": (
            LevyModel(b=0.05, sigma2=0.5), None,
            [Boundary("constant"), Boundary("increasing", 0.5, 0.25)],
            np.array([0.5, 2.0, 8.0, 32.0]), 300, TimeGrid.survival(32.0), 20,
            [[290, 228, 137, 59], [280, 253, 215, 171]]),
    }


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", list(_perturbed_cases()))
def test_golden_perturbed_survival_counts(name, threads):
    model, plan, boundaries, T_grid, n_paths, grid, seed, want = \
        _perturbed_cases()[name]
    got = survival_counts(model, boundaries, T_grid, n_paths, grid, seed,
                          threads=threads, plan=plan)
    assert got.tolist() == want


@pytest.mark.parametrize("threads", [1, 4])
def test_golden_product_bound(threads):
    n = 80
    rep = product_bound_check(stable_model(0.7, 0.0, 1.5), 64.0, 1.0, n,
                              seed=41, threads=threads)
    assert [round(p * n) for p in (rep.p_lhs, rep.p_y, rep.p_s)] == [2, 1, 4]


@pytest.mark.parametrize("threads", [1, 4])
def test_golden_discrete_survival(threads):
    cfg = build_config(parse_config_text("""
experiment.kind = discrete-survival
model.alpha = 0.7
model.mode = perturbed
run.t_min = 16
run.t_max = 32
run.t_points = 4
run.n_paths = 60
run.seed = 22
"""))
    rows = DRIVERS[cfg.kind](replace(cfg, t_points=2, threads=threads))
    got = [(r["kind"], r["T"], r["survivors"]) for r in rows if r["T"] != ""]
    assert got == [("discrete-survival-y", 16.0, 34),
                   ("discrete-survival-x", 16.0, 17),
                   ("discrete-survival-y", 32.0, 27),
                   ("discrete-survival-x", 32.0, 12)]


def test_golden_renewal_gaps():
    m = tail_only_model(0.7, SlowlyVaryingSpec("constant", c=1.0))
    decomps = [build_decomposition(m, T, NEGATIVE) for T in (1e2, 1e4)]
    gaps = renewal_convergence_gaps(m, decomps, TimeGrid.integers(16.0), 1.0,
                                    40, 24)
    assert {T: "%.17g" % g for T, g in gaps.items()} == {
        1e2: "0.72499999999999964", 1e4: "0.34999999999999964"}
    assert all(type(g) is float for g in gaps.values())


@pytest.mark.parametrize("threads", [1, 4])
def test_golden_gaussian_refinement(threads):
    got = gaussian_refinement_counts(1.0, 0.0, 1.0, [0.25, 0.5, 1.0, 2.0],
                                     1e-3, 4, 200, 23, threads=threads)
    assert got.tolist() == [[194, 172, 147, 105], [194, 171, 145, 105]]


SKEWED = stable_model(0.7, -0.6, 1.5)


@pytest.mark.parametrize("model, seed, want", [
    (SKEWED, 31, [60, 58, 55, 62, 59]),
    (replace(SKEWED, stable=None), 32, [62, 62, 66, 64, 55]),
])
def test_golden_spitzer_profile(model, seed, want):
    # 600 paths: two full chunks of 256 and a ragged one of 88, at one
    # thread and in forked workers
    n = 600
    for threads in (1, 4):
        prof = spitzer_profile(model, [0.5, 1.0, 2.0, 4.0, 8.0], n, seed, threads=threads)
        assert (prof.p * n).round().astype(int).tolist() == want


@pytest.mark.parametrize("threads", [1, 4])
def test_golden_lemma_survivors(threads):
    res = lemma_n0N_experiment(0.5, 0.6, SlowlyVaryingSpec("constant", c=0.05),
                               2000, 600, seed=33, threads=threads)
    assert not res.vacuous and (res.N1, res.survivors) == (171, 259)


CONFIGS = {
    "exponent-exact": ("""
experiment.kind = exponent
model.alpha = 0.7
model.scale = 6.9382
boundary.kind = constant,decreasing,increasing
boundary.gamma = 1.3
run.t_min = 16
run.t_max = 16384
run.t_points = 8
run.n_paths = 3000
run.seed = 7
run.threads = 4
""", "09a6d91eb06e", [
        "experiment.kind = exponent", "model.alpha = 0.69999999999999996",
        "model.beta = 0", "model.scale = 6.9382000000000001",
        "model.sigma2 = 0", "model.drift = 0", "model.ell_family = constant",
        "model.ell_c = 1", "model.ell_p = 0", "model.mode = exact",
        "boundary.kind = constant,decreasing,increasing",
        "boundary.gamma = 1.3", "boundary.level = 1", "run.t_min = 16",
        "run.t_max = 16384", "run.t_points = 8", "run.n_paths = 3000",
        "run.seed = 7", "run.grid_policy = survival", "run.grid_dt = 0.001",
        "run.grid_t_min = 0.0009765625", "run.grid_per_octave = 8",
        "kappa.rho_values = 0.29999999999999999,0.5,0.69999999999999996",
        "kappa.a_values = 0.25,0.5,2,4", "lemma.n = 10000",
        "run.threads = 4"]),
    "lemma-n0N": ("""
experiment.kind = lemma-n0N
model.alpha = 0.5
model.ell_c = 1.5
boundary.gamma = 0.6
lemma.n = 20000
run.n_paths = 400
run.seed = 10
""", "0eea61d133ec", [
        "experiment.kind = lemma-n0N", "model.alpha = 0.5", "model.beta = 0",
        "model.scale = 1", "model.sigma2 = 0", "model.drift = 0",
        "model.ell_family = constant", "model.ell_c = 1.5", "model.ell_p = 0",
        "model.mode = exact", "boundary.kind = constant",
        "boundary.gamma = 0.59999999999999998", "boundary.level = 1",
        "run.t_min = 16", "run.t_max = 1024", "run.t_points = 6",
        "run.n_paths = 400", "run.seed = 10", "run.grid_policy = survival",
        "run.grid_dt = 0.001", "run.grid_t_min = 0.0009765625",
        "run.grid_per_octave = 8",
        "kappa.rho_values = 0.29999999999999999,0.5,0.69999999999999996",
        "kappa.a_values = 0.25,0.5,2,4", "lemma.n = 20000",
        "run.threads = 1"]),
    "perturbed-custom-ell": ("""
experiment.kind = survival
model.alpha = 0.8
model.mode = perturbed
model.ell_family = log-power
model.ell_c = 2
model.ell_p = 0.5
model.sigma2 = 0.25
model.drift = -0.1
boundary.kind = increasing
boundary.level = 0.5
run.t_min = 2
run.t_max = 64
run.t_points = 3
run.grid_policy = geometric
run.grid_t_min = 0.01
run.grid_per_octave = 4
kappa.a_values = 0.5,3
spitzer.t_values = 1,2.5
run.seed = 3
run.threads = 2
""", "8bdde7cb80d4", [
        "experiment.kind = survival", "model.alpha = 0.80000000000000004",
        "model.beta = 0", "model.scale = 1", "model.sigma2 = 0.25",
        "model.drift = -0.10000000000000001", "model.ell_family = log-power",
        "model.ell_c = 2", "model.ell_p = 0.5", "model.mode = perturbed",
        "boundary.kind = increasing",
        "boundary.gamma = 1", "boundary.level = 0.5", "run.t_min = 2",
        "run.t_max = 64", "run.t_points = 3", "run.n_paths = 1000",
        "run.seed = 3", "run.grid_policy = geometric", "run.grid_dt = 0.001",
        "run.grid_t_min = 0.01", "run.grid_per_octave = 4",
        "kappa.rho_values = 0.29999999999999999,0.5,0.69999999999999996",
        "kappa.a_values = 0.5,3", "spitzer.t_values = 1,2.5",
        "lemma.n = 10000", "run.threads = 2"]),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_golden_config_lines_and_id(name):
    text, want_id, want_lines = CONFIGS[name]
    cfg = build_config(parse_config_text(text))
    assert cfg.experiment_id == want_id
    assert cfg.canonical_lines() == want_lines
    assert cfg.canonical_lines(include_threads=False) == want_lines[:-1]


# The benchmark workloads at smoke size and the Sparre-Andersen oracle run,
# written out, with the sha256 of each output file: (config, results.csv,
# plotdata.tsv or None where the kind writes none).
CLI_RUNS = {
    "exact-exponent": ("""
experiment.kind = exponent
model.alpha = 0.69999999999999996
model.scale = 6.9383134906008292
boundary.kind = constant,decreasing,increasing
boundary.gamma = 1.3
run.grid_policy = survival
run.t_min = 16
run.t_max = 1024
run.t_points = 5
run.n_paths = 300
run.seed = 7
run.threads = 1
""",
        "780bb8aac11c4a8bd8c9833d80db128caeb44a08d017422fc905403ad4cb471b",
        "c019f4e4ae071fec4f68172b56543f819b1bbb62073bfdd2f946fd15041687fb"),
    "perturbed-product-bound": ("""
experiment.kind = product-bound
model.alpha = 0.69999999999999996
model.scale = 1.5
boundary.gamma = 1
run.t_max = 64
run.n_paths = 30
run.seed = 7
run.threads = 1
""",
        "ff4ffbb5c59106e1c822fd9b285704046d24c4bb115ba471324190fc8a04eca3",
        None),
    "discrete-survival": ("""
experiment.kind = discrete-survival
model.alpha = 0.69999999999999996
model.scale = 6.9383134906008292
boundary.level = 1
run.t_min = 16
run.t_max = 64
run.t_points = 4
run.n_paths = 40
run.seed = 7
run.threads = 1
""",
        "2d09d4392d823caa7f39e9757bc42478bc00209097750c81bf9d97a91f30ea75",
        "a4e20dafa1ae7a5662525a2bd51ae8ce7e3fc350d94b2d12c7c798c7da09e1ad"),
    "positivity-profile": ("""
experiment.kind = spitzer
model.alpha = 0.69999999999999996
model.beta = 0.5
model.mode = exact
spitzer.t_values = 0.5,1,2,4,8
run.n_paths = 2000
run.seed = 7
run.threads = 1
""",
        "0f46ba0df00ca17889af0a593baf5979b30cc0192efb76abc4de4737bb4508d9",
        "b6c36bfcabf2ce9e9a225fb2d162fa2b620f4effd9716e28ec7a8b350e559374"),
    "sparre-andersen-oracle": ("""
experiment.kind = exponent
model.alpha = 0.69999999999999996
model.scale = 6.9383134906008292
boundary.kind = constant
boundary.level = 0
run.grid_policy = integers
run.t_min = 1
run.t_max = 64
run.t_points = 7
run.n_paths = 500
run.seed = 7
run.threads = 1
""",
        "95574718bfed02f33b236c618840c43599cb00f14fa39f03e51f94d60150a5ca",
        "8094c211cb71b4f93679ed484bc6aa2d3dfa7cd0b50e12fe40b45ac51b7b92c5"),
    # the Frullani oracle at rho 0 and 1 and at a = 1
    "kappa": ("""
experiment.kind = kappa
kappa.rho_values = 0,0.3,0.5,0.7,1
kappa.a_values = 0.25,0.5,1,2,4,16
run.seed = 7
""",
        "6b6a7df42387245b14e764bfec2b99bb517e927e924024d2795fded6a31f1c9c",
        None),
    # an increasing boundary whose sign change falls inside (1, inf)
    "integral-test": ("""
experiment.kind = integral-test
boundary.kind = increasing
boundary.gamma = 0.3
boundary.level = -2
run.seed = 7
""",
        "230de327342d819d70bfc014140eef51f0064bbc57a121fafbbed11347e6300b",
        None),
}


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_golden_cli_output_bytes(name, tmp_path):
    text, want_csv, want_tsv = CLI_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    csv = (out / "results.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == want_csv, csv.decode()
    tsv = out / "plotdata.tsv"
    got_tsv = hashlib.sha256(tsv.read_bytes()).hexdigest() if tsv.exists() else None
    assert got_tsv == want_tsv, csv.decode()
