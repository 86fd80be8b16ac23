import json
import math

import pytest

from levypassage.cli import (CSV_COLUMNS, ConfigError, build_config,
                             build_model, emit_plot_data, main,
                             parse_config_text)

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
    raw = parse_config_text(BASE + "run.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown"):
        build_config(raw)


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
])
def test_range_checks_exit_2(tmp_path, capsys, change, field):
    key = change.split(" = ")[0]
    lines = [ln for ln in BASE.splitlines() if not ln.startswith(key)]
    cfg = write_config(tmp_path, "\n".join(lines + [change]) + "\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    assert {v["field"] for v in err["error"]["violations"]} == {field}
    assert not out.exists()


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
