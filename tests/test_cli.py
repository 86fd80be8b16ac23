import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypassage import estimate
from levypassage.cli import (CSV_COLUMNS, SCHEMA, ConfigError, build_config,
                             build_model, emit_plot_data, main,
                             monitoring_grid, parse_config_text)
from levypassage.levymodel import Boundary

BASE = """
experiment.kind = exponent
model.alpha = 0.7
model.mode = exact
boundary.kind = constant
run.t_min = 4
run.t_max = 64
run.t_points = 5
run.n_paths = 400
run.seed = 7
run.grid_per_octave = 4
"""


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_config_text():
    raw = parse_config_text("a.b = 1\n# comment\nc.d = x  # trailing\n\n")
    assert raw == {"a.b": "1", "c.d": "x"}


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_config_text("a.b.c = 1")
    with pytest.raises(ConfigError):
        parse_config_text("a.b = 1\na.b = 2")
    with pytest.raises(ConfigError):
        parse_config_text("justtext")


def test_config_requires_seed():
    raw = parse_config_text(BASE.replace("run.seed = 7", ""))
    with pytest.raises(ConfigError, match="seed"):
        build_config(raw)


def test_config_unknown_key():
    for line in ("run.bogus = 1", "model.rho = 0.3"):
        raw = parse_config_text(BASE + line + "\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_config(raw)


@pytest.mark.parametrize("p, default", [pytest.param(p, d, id=k) for k, _, p, d in SCHEMA
                                        if p.show(d) != ""])
def test_defaults_lie_in_their_domains(p, default):
    # build_config runs no domain on a default, and manifest.txt shows each
    # default as a config line that must read back to it
    assert p.parse(p.show(default)) == default


def test_seed_range_edges_build():
    for seed in ("0", str((1 << 64) - 1)):
        cfg = build_config(parse_config_text(BASE.replace("run.seed = 7", f"run.seed = {seed}")))
        assert cfg.seed == int(seed)


def test_config_validation_messages():
    raw = parse_config_text(BASE.replace("run.t_points = 5", "run.t_points = 3"))
    with pytest.raises(ConfigError, match="4 T points"):
        build_config(raw)
    raw = parse_config_text(BASE.replace("run.seed = 7", "run.seed = 7\nrun.threads = 0"))
    with pytest.raises(ConfigError, match="threads"):
        build_config(raw)


def test_build_model_modes():
    cfg = build_config(parse_config_text(BASE))
    m = build_model(cfg)
    assert m.stable is not None and m.stable.alpha == 0.7
    cfg2 = build_config(parse_config_text(BASE.replace("model.mode = exact",
                                                       "model.mode = perturbed")))
    m2 = build_model(cfg2)
    assert m2.stable is None and m2.tail_left is not None


def test_exact_mode_rejects_custom_ell():
    raw = parse_config_text(BASE + "model.ell_p = 1.0\nmodel.ell_family = log-power\n")
    with pytest.raises(ConfigError, match="exact"):
        build_config(raw)


def test_cli_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "plotdata.tsv").read_bytes() == \
        (tmp_path / "b" / "plotdata.tsv").read_bytes()


def test_cli_threads_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, BASE)
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert main(["--config", str(cfg), "--out", str(out),
                     "--threads", str(threads), "--quiet"]) == 0
        outs[threads] = (out / "results.csv").read_bytes()
    assert outs[1] == outs[4]


@pytest.mark.parametrize("mode", ["exact", "perturbed"])
def test_spitzer_threads_do_not_change_output(tmp_path, mode):
    # 600 paths make three chunks, so four threads fork worker processes
    cfg = write_config(tmp_path, f"""
experiment.kind = spitzer
model.alpha = 0.7
model.beta = 0.5
model.mode = {mode}
spitzer.t_values = 0.5,1,2,4,8
run.n_paths = 600
run.seed = 8
""")
    outs = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert main(["--config", str(cfg), "--out", str(out),
                     "--threads", str(threads), "--quiet"]) == 0
        outs[threads] = [(out / name).read_bytes() for name in ("results.csv", "plotdata.tsv")]
    assert outs[1] == outs[4]


def test_manifest_round_trip(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    manifest = tmp_path / "a" / "manifest.txt"
    assert main(["--config", str(manifest), "--out", str(tmp_path / "b"),
                 "--quiet"]) == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_csv_schema_and_fit_row(tmp_path):
    cfg = write_config(tmp_path, BASE)
    main(["--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"])
    lines = (tmp_path / "a" / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    t_rows = [r for r in rows if r["kind"] == "exponent"]
    fit_rows = [r for r in rows if r["kind"] == "fit"]
    assert len(t_rows) == 5 and len(fit_rows) == 1
    rho = float(fit_rows[0]["p_hat"])
    assert 0.0 < rho < 1.0
    assert all(r["survivors"] != "" for r in t_rows)


def test_integral_test_kind(tmp_path):
    text = """
experiment.kind = integral-test
boundary.kind = increasing
boundary.gamma = 0.25
boundary.level = 0
run.seed = 1
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["boundary_kind"] == "convergent"
    assert float(row["p_hat"]) == pytest.approx(4.0, rel=1e-12)


def test_kappa_kind(tmp_path):
    text = """
experiment.kind = kappa
run.seed = 1
kappa.rho_values = 0.5
kappa.a_values = 0.25,4
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [float(r["p_hat"]) for r in rows] == pytest.approx([0.5, 2.0], rel=1e-6)


def test_lemma_kind_vacuous(tmp_path):
    text = """
experiment.kind = lemma-n0N
model.alpha = 0.5
boundary.gamma = 1.5
lemma.n = 10000
run.n_paths = 50
run.seed = 3
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["kind"] == "lemma-n0N-vacuous"
    assert float(row["p_hat"]) == 1.0


def test_multi_boundary_plotdata_groups(tmp_path):
    text = BASE.replace("boundary.kind = constant",
                        "boundary.kind = decreasing,constant,increasing")
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    plot = (tmp_path / "o" / "plotdata.tsv").read_text()
    assert plot.count("# boundary=") == 3
    assert "ln_T\tln_p\tci_low\tci_high\tflag" in plot


def test_plotdata_censors_zero_survivors():
    rows = [{"experiment_id": "x", "kind": "survival", "boundary_kind": "constant",
             "T": 10.0, "n_paths": 100, "survivors": 0, "p_hat": 0.0,
             "ln_p": -math.inf, "ci_low": -math.inf, "ci_high": -2.0, "seed": 1}]
    out = emit_plot_data(rows)
    assert "censored" in out
    with pytest.raises(ValueError):
        emit_plot_data([])


def test_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "experiment.kind = nope\nrun.seed = 1\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2 and err["error"]["violations"]

    # runtime failure: invalid decomposition (thinning ratio above 1/delta)
    text = """
experiment.kind = product-bound
model.alpha = 0.5
model.mode = perturbed
model.ell_family = log-power
model.ell_p = 2.0
boundary.gamma = 1.0
run.t_max = 100
run.n_paths = 10
run.seed = 2
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 3

    # a strongly bending log-power ell (alpha 0.2, p 3) runs: a third of its
    # jump tables' mass lies past their last knot
    text = """
experiment.kind = survival
model.alpha = 0.2
model.mode = perturbed
model.ell_family = log-power
model.ell_p = 3
boundary.kind = constant
run.t_min = 1
run.t_max = 4
run.t_points = 2
run.n_paths = 10
run.seed = 2
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "t"), "--quiet"]) == 0
    assert (tmp_path / "t" / "results.csv").exists()


def test_discrete_ordering_violation_exits_3(tmp_path, capsys, monkeypatch):
    # S_T increments below zero would put Y_T = X - S_T above X
    real = estimate.discrete_increments

    def negative(*args, **kwargs):
        inc, s_inc = real(*args, **kwargs)
        return inc, -1.0 - s_inc

    monkeypatch.setattr(estimate, "discrete_increments", negative)
    out = tmp_path / "o"
    assert main(["--config", str(engine_config(tmp_path, "discrete-survival")),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["violations"] == [
        {"field": "runtime", "message": "pathwise ordering Y_T <= X violated"}]
    assert not (out / "results.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 2


def test_survival_kind_has_no_fit_row(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("experiment.kind = exponent",
                                              "experiment.kind = survival"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds == {"survival"}


def test_spitzer_kind(tmp_path):
    text = """
experiment.kind = spitzer
model.alpha = 0.7
run.n_paths = 3000
run.seed = 5
spitzer.t_values = 1,8,64
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 3
    for r in rows:  # symmetric model: P(X(t) >= 0) = 1/2
        assert abs(float(r["p_hat"]) - 0.5) < 0.03


def test_product_bound_kind(tmp_path):
    text = """
experiment.kind = product-bound
model.alpha = 0.7
boundary.gamma = 1.0
run.t_max = 64
run.n_paths = 120
run.seed = 6
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [r["boundary_kind"] for r in rows[:3]] == \
        ["lhs-decreasing", "y-constant", "s-above"]
    assert rows[3]["kind"] == "product-margin"


def test_discrete_survival_kind(tmp_path):
    text = """
experiment.kind = discrete-survival
model.alpha = 0.7
boundary.level = 1.0
run.t_min = 16
run.t_max = 40
run.t_points = 4
run.n_paths = 120
run.seed = 9
"""
    cfg = write_config(tmp_path, text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().strip().splitlines()
    kinds = [ln.split(",")[1] for ln in lines[1:]]
    assert kinds.count("discrete-survival-y") == 4
    assert kinds.count("discrete-survival-x") == 4
    assert kinds.count("fit") == 1


def test_out_of_regime_run_warns_and_succeeds(tmp_path, capsys):
    # gamma = 2 >= 1/alpha: 1 - t^2 lies outside the theorem's regime
    text = BASE.replace("boundary.kind = constant",
                        "boundary.kind = decreasing\nboundary.gamma = 2")
    cfg = write_config(tmp_path, text.replace("run.n_paths = 400", "run.n_paths = 50"))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    err = capsys.readouterr().err.splitlines()
    regime = [ln for ln in err if "regime" in ln]
    assert len(regime) == 1 and regime[0].startswith("levypassage: warning:")
    assert "gamma = 2 >= 1/alpha" in regime[0]
    assert (out / "results.csv").exists()

    cfg = write_config(tmp_path, BASE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "p"), "--quiet"]) == 0
    assert "regime" not in capsys.readouterr().err


def test_seed_override_changes_id(tmp_path):
    cfg = write_config(tmp_path, BASE)
    main(["--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"])
    main(["--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "8",
          "--quiet"])
    a = (tmp_path / "a" / "results.csv").read_text()
    b = (tmp_path / "b" / "results.csv").read_text()
    assert a != b


@pytest.mark.parametrize("change, field", [
    ("run.grid_policy = bogus", "run.grid_policy"),
    ("run.t_min = 0", "run.t_min"),
    ("run.t_min = -4", "run.t_min"),
    ("run.t_min = 20000", "run.t_min"),
    ("run.t_min = 64", "run.t_min"),
    ("run.t_points = 0", "run.t_points"),
    ("boundary.level = nan", "boundary.level"),
    ("boundary.level = inf", "boundary.level"),
    ("run.t_max = inf", "run.t_max"),
    ("run.grid_per_octave = 0", "run.grid_per_octave"),
    ("run.grid_policy = uniform\nrun.grid_dt = 0", "run.grid_dt"),
    ("run.grid_t_min = -1", "run.grid_t_min"),
    ("run.grid_policy = geometric\nrun.grid_t_min = 64", "run.grid_t_min"),
    ("model.alpha = 2.5", "model.alpha"),
    ("model.beta = 3", "model.beta"),
    ("model.scale = 0", "model.scale"),
    ("boundary.kind = decreasing\nboundary.gamma = nan", "boundary.gamma"),
    ("boundary.kind = decreasing\nboundary.gamma = -1", "boundary.gamma"),
    # rho is the closed form of (alpha, beta), so it is not a key
    ("model.rho = 0.3", "model.rho"),
    # the path streams keep a seed's low 64 bits: -1 would draw the paths
    # of 2**64 - 1 under another experiment id
    ("run.seed = -1", "run.seed"),
    ("run.seed = 18446744073709551616", "run.seed"),
    ("model.sigma2 = -1", "model.sigma2"),
    ("model.drift = inf", "model.drift"),
    ("model.ell_c = 0", "model.ell_c"),
    ("model.ell_p = nan", "model.ell_p"),
    ("run.n_paths = 0", "run.n_paths"),
    ("model.mode = bogus", "model.mode"),
    ("model.ell_family = bogus", "model.ell_family"),
    ("boundary.kind = constant,bogus", "boundary.kind"),
    # each domain holds for every kind, read or not
    ("lemma.n = 2", "lemma.n"),
    ("spitzer.t_values = 2,1", "spitzer.t_values"),
    ("kappa.rho_values = 2", "kappa.rho_values"),
    ("kappa.a_values = 0", "kappa.a_values"),
    # two rules fail on model.mode; it is reported once
    ("model.ell_family = log-power\nmodel.sigma2 = 1", "model.mode"),
])
def test_range_checks_exit_2(tmp_path, capsys, change, field):
    key = change.split(" = ")[0]
    lines = [ln for ln in BASE.splitlines() if not ln.startswith(key)]
    cfg = write_config(tmp_path, "\n".join(lines + [change]) + "\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert [v["field"] for v in err["error"]["violations"]] == [field]
    assert not out.exists()


# One valid config per experiment kind whose engine checks its own inputs;
# each case below changes or removes (None) keys of one of them.
ENGINE_BASES = {
    "discrete-survival": {"model.alpha": "0.7", "run.t_min": "16",
                          "run.t_max": "40", "run.t_points": "4"},
    "product-bound": {"model.alpha": "0.7", "boundary.gamma": "1", "run.t_max": "64"},
    "lemma-n0N": {"model.alpha": "0.7", "boundary.gamma": "1", "lemma.n": "100"},
    "spitzer": {"model.alpha": "0.7", "spitzer.t_values": "1,2"},
    "kappa": {},
}


def engine_config(tmp_path, kind, change=()):
    keys = {"experiment.kind": kind, "run.n_paths": "20", "run.seed": "3",
            **ENGINE_BASES[kind], **dict(change)}
    return write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()
                                          if v is not None))


@pytest.mark.parametrize("kind, change, field", [
    ("discrete-survival", {"run.t_min": "4"}, "run.t_min"),
    ("product-bound", {"run.t_max": "8"}, "run.t_max"),
    ("discrete-survival", {"model.alpha": "1.5"}, "model.alpha"),
    ("product-bound", {"model.alpha": "1.5"}, "model.alpha"),
    ("discrete-survival", {"model.beta": "-1"}, "model.beta"),
    ("product-bound", {"model.beta": "1"}, "model.beta"),
    ("discrete-survival", {"model.alpha": None, "model.sigma2": "1"}, "model.alpha"),
    ("lemma-n0N", {"boundary.gamma": "1.5"}, "boundary.gamma"),
    ("lemma-n0N", {"model.ell_family": "log-power", "model.ell_p": "0.5"},
     "model.ell_family"),
    ("lemma-n0N", {"model.alpha": None}, "model.alpha"),
    ("lemma-n0N", {"lemma.n": "2"}, "lemma.n"),
    ("spitzer", {"spitzer.t_values": "2,1"}, "spitzer.t_values"),
    ("spitzer", {"spitzer.t_values": "-1,2"}, "spitzer.t_values"),
    ("kappa", {"kappa.a_values": "-1"}, "kappa.a_values"),
    ("spitzer", {"spitzer.t_values": "1,inf"}, "spitzer.t_values"),
    ("kappa", {"kappa.rho_values": "-1"}, "kappa.rho_values"),
    ("kappa", {"kappa.rho_values": "1.5,nan"}, "kappa.rho_values"),
    # S_N is a one-sided stable subordinator: alpha < 1, vacuous range or not
    ("lemma-n0N", {"model.alpha": "1.5", "boundary.gamma": "0.01"}, "model.alpha"),
    ("lemma-n0N", {"model.alpha": "1.5", "boundary.gamma": "0.6"}, "model.alpha"),
    # kappa reads no horizon, but each domain holds for every kind
    ("kappa", {"run.t_min": "0"}, "run.t_min"),
    ("kappa", {"run.t_points": "0"}, "run.t_points"),
    # no model and no alpha < 1: two rules fail on model.alpha, reported once
    ("discrete-survival", {"model.alpha": None}, "model.alpha"),
])
def test_engine_input_rules_exit_2(tmp_path, capsys, kind, change, field):
    # each config is one the engine would reject at run time (exit 3, or a
    # traceback for lemma-n0N without alpha), or would turn into meaningless
    # rows (a Spitzer row at t = inf, kappa for rho outside [0, 1]);
    # build_config rejects it first
    out = tmp_path / "o"
    assert main(["--config", str(engine_config(tmp_path, kind, change)),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert [v["field"] for v in err["error"]["violations"]] == [field]
    assert not out.exists()


@pytest.mark.parametrize("kind", list(ENGINE_BASES))
def test_engine_bases_run(tmp_path, kind):
    assert main(["--config", str(engine_config(tmp_path, kind)),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_failed_fit_keeps_survival_rows(tmp_path, capsys):
    # the largest horizons keep no survivors below 1 - t^1.3
    text = """
experiment.kind = exponent
model.alpha = 0.7
boundary.kind = decreasing
boundary.gamma = 1.3
run.t_min = 16
run.t_max = 16384
run.n_paths = 200
run.seed = 7
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="dropping unusable"):
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    warning = capsys.readouterr().err.strip().splitlines()
    assert len(warning) == 1 and "warning" in warning[0]
    lines = (out / "results.csv").read_text().strip().splitlines()
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    survival = [r for r in rows if r["kind"] == "exponent"]
    assert len(survival) == 6 and survival[-1]["survivors"] == "0"
    assert rows[-1]["kind"] == "fit" and rows[-1]["n_paths"] == "200"
    assert all(rows[-1][c] == "" for c in ("p_hat", "ln_p", "ci_low", "ci_high"))
    plot = (out / "plotdata.tsv").read_text().splitlines()
    assert len(plot) == 2 + len(survival)


# Valid values per key, kept small enough that no monitoring grid gets large.
# A key other than the required ones is left out about half of the time, and
# FUZZ_BAD values replace up to two keys.
FUZZ_VALUES = {
    "experiment.kind": ["survival", "exponent", "lemma-n0N", "product-bound",
                        "kappa", "spitzer", "integral-test",
                        "discrete-survival"],
    "model.alpha": ["0.5", "0.7", "1", "1.5"],
    "model.beta": ["0", "0.5", "-1", "1"],
    "model.scale": ["1", "1.5"],
    "model.sigma2": ["0", "0.25"],
    "model.drift": ["0", "-0.1"],
    "model.ell_family": ["constant", "log-power"],
    "model.ell_c": ["1", "2"],
    "model.ell_p": ["0", "0.5"],
    "model.mode": ["exact", "perturbed"],
    "boundary.kind": ["constant", "decreasing",
                      "constant,decreasing,increasing"],
    "boundary.gamma": ["0.5", "1.3"],
    "boundary.level": ["1", "0", "-0.5"],
    "run.t_min": ["1", "16"],
    "run.t_max": ["0.5", "64", "1024"],
    "run.t_points": ["1", "4"],
    "run.n_paths": ["10"],
    "run.seed": ["7"],
    "run.grid_policy": ["survival", "uniform", "geometric", "integers"],
    "run.grid_dt": ["0.5", "0.1"],
    "run.grid_t_min": ["0.001", "0.5", "2"],
    "run.grid_per_octave": ["1", "8"],
    "kappa.rho_values": ["0.3,0.5"],
    "kappa.a_values": ["2"],
    "spitzer.t_values": ["1,2"],
    "lemma.n": ["100"],
    "run.threads": ["1", "2"],
}
FUZZ_BAD = ["nan", "inf", "-1", "0", "abc", ""]
REQUIRED = ("experiment.kind", "run.seed")


@st.composite
def config_texts(draw):
    raw = {key: draw(st.sampled_from(values) if key in REQUIRED
                     else st.none() | st.sampled_from(values))
           for key, values in FUZZ_VALUES.items()}
    for key in draw(st.lists(st.sampled_from(list(FUZZ_VALUES)), max_size=2)):
        raw[key] = draw(st.sampled_from(FUZZ_BAD))
    return "".join(f"{k} = {v}\n" for k, v in raw.items() if v is not None)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(config_texts())
def test_accepted_configs_build(text):
    """A config is either rejected as a ConfigError or every object the
    drivers build from it constructs."""
    raw = parse_config_text(text)
    try:
        cfg = build_config(raw)
    except ConfigError as exc:
        # a misspelled field in a rule would name a key nobody wrote
        known = {key for key, *_ in SCHEMA} | raw.keys()
        assert {field for field, _ in exc.violations} <= known
        return
    build_model(cfg)
    monitoring_grid(cfg, cfg.t_max)
    for kind in cfg.boundary_kinds:
        Boundary(kind, cfg.gamma, cfg.level)
