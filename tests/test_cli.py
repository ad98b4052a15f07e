import copy
import json
import math

import pytest

from remest import BadBracketError, SystemConfig, ConfigError, simulate, solve_cmdp
from remest import solver
from remest.cli import emit_results, main

BASE_DOC = {
    "alphabet_size": 3,
    "transition": [[0.8, 0.1, 0.1], [0.3, 0.6, 0.1], [0.2, 0.1, 0.7]],
    "p_s": 0.7,
    "distortion": "hamming",
    "age_function": {"kind": "exponential_affine", "a": 1.2, "b": 0.55, "c": 0.3},
    "theta_max": 6,
    "delta_max": 6,
    "f_max": 0.1,
    "lambda_max": 1000.0,
    "tolerances": {"eval": 1e-10, "search": 1e-3, "mixture": 1e-6},
    "seed": 7,
    "estimator": "map",
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_DOC))
    return str(path)


def write_doc(tmp_path, doc, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_round_trips(self, config_path):
        cfg = SystemConfig.from_file(config_path)
        assert cfg.alphabet_size == 3
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_is_hard_error(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["extra_knob"] = 1
        with pytest.raises(ConfigError, match="unknown config keys"):
            SystemConfig.from_file(write_doc(tmp_path, doc))

    def test_missing_key_is_hard_error(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        del doc["p_s"]
        with pytest.raises(ConfigError, match="missing config keys"):
            SystemConfig.from_file(write_doc(tmp_path, doc))

    def test_unknown_age_key_rejected(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["age_function"] = {"kind": "exponential_affine", "a": 1, "b": 1, "c": 1, "q": 2}
        with pytest.raises(ConfigError, match="age_function"):
            SystemConfig.from_file(write_doc(tmp_path, doc))

    def test_digest_stable_and_sensitive(self, config_path):
        cfg = SystemConfig.from_file(config_path)
        assert cfg.digest() == cfg.digest()
        assert cfg.digest() != cfg.with_overrides(f_max=0.2).digest()

    def test_timing_is_optional_and_keeps_the_digest(self, config_path, tmp_path):
        cfg = SystemConfig.from_file(config_path)
        assert cfg.timing == "immediate"
        explicit = SystemConfig.from_dict({**BASE_DOC, "timing": "immediate"})
        assert explicit == cfg and explicit.digest() == cfg.digest()
        delayed = SystemConfig.from_dict({**BASE_DOC, "timing": "delayed"})
        assert delayed == cfg.with_overrides(timing="delayed")
        assert SystemConfig.from_dict(delayed.to_dict()) == delayed
        assert delayed.digest() != cfg.digest()
        assert delayed.build_model().timing == "delayed"
        assert delayed.build_model(timing="immediate").timing == "immediate"
        with pytest.raises(ConfigError, match="timing"):
            SystemConfig.from_file(write_doc(tmp_path, {**BASE_DOC, "timing": "late"}))

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"estimator": "foo"}, "estimator"),
            ({"f_max": 5.0}, "f_max"),
            ({"f_max": 0.0}, "f_max"),
            ({"timing": "late"}, "timing"),
        ],
    )
    def test_overrides_take_the_same_checks(self, config_path, override, match):
        cfg = SystemConfig.from_file(config_path)
        with pytest.raises(ConfigError, match=match):
            cfg.with_overrides(**override)
        with pytest.raises(ConfigError, match=match):
            SystemConfig.from_dict({**BASE_DOC, **override})

    def test_shipped_digests(self):
        digests = {
            "three_state": ("b2b61718b22c887b", "a0ebc7f6a0d2cfe9"),
            "three_state_zoh": ("49c7418fb5b6e432", "704f7700ef3e0d1e"),
            "symmetric_three": ("3ad47f2c17760478", "fdfe6c2d5ce46539"),
        }
        for name, (own, delayed) in digests.items():
            cfg = SystemConfig.from_file(f"configs/{name}.json")
            assert cfg.digest() == own
            assert cfg.with_overrides(timing="delayed").digest() == delayed


class TestExitCodes:
    def test_bad_row_sum_exits_two(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["transition"][0] = [0.5, 0.6, 0.0]
        path = write_doc(tmp_path, doc)
        code = main(["check", "--config", path, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RowSumError"

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["mystery"] = True
        path = write_doc(tmp_path, doc)
        code = main(["check", "--config", path, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "args",
        [
            ["thresholds", "--fmax-grid", "0.3:0.1:0.05"],
            ["thresholds", "--fmax-grid", "0.1:0.3"],
            ["thresholds", "--fmax-grid", "abc"],
            ["thresholds", "--fmax-grid", "0.1,nan"],
            ["thresholds", "--fmax-grid", ","],
            ["truncation", "--theta-grid", "2.5"],
            ["simulate", "--seed", "-1", "--horizon", "10"],
        ],
    )
    def test_malformed_arguments_exit_two(self, config_path, capsys, args):
        assert main([*args, "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_check_succeeds(self, config_path, tmp_path):
        out = tmp_path / "check.csv"
        assert main(["check", "--config", config_path, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("config_digest,states,assumption_holds")


class TestCommands:
    def test_solve_lambda_csv(self, config_path, tmp_path):
        out = tmp_path / "pt.csv"
        code = main([
            "solve-lambda", "--config", config_path, "--lam", "2.0",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:5] == ["config_digest", "lambda", "F", "J", "L"]

    def test_solve_lambda_reads_rates_from_its_solve(self, config_path, tmp_path, monkeypatch):
        # F and J come from the solve's own pinned system, with no second
        # stationary law; they agree with it.
        import remest.constrained
        import remest.evaluation
        from remest import spi_solve, stationary_metrics

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return stationary_metrics(*args, **kwargs)

        for module in (remest.evaluation, remest.constrained):
            monkeypatch.setattr(module, "stationary_metrics", counted)
        out = tmp_path / "pt.json"
        args = ["solve-lambda", "--config", config_path, "--lam", "5", "--format", "json"]
        assert main(args + ["--out", str(out)]) == 0
        assert calls == []
        rec = json.loads(out.read_text())["records"][0]
        model = SystemConfig.from_file(config_path).build_model()
        met = stationary_metrics(model, spi_solve(model, 5.0)[0])
        assert abs(rec["F"] - met.F) <= 1e-12
        assert abs(rec["J"] - met.J) <= 1e-12
        assert abs(rec["L"] - (met.J + 5.0 * met.F)) <= 1e-11

    def test_sweep_schema_and_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", "--config", config_path, "--lambdas", "0:4:1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["lambda", "F", "J", "L"]

    def test_solve_json(self, config_path, tmp_path):
        out = tmp_path / "sol.json"
        code = main([
            "solve", "--config", config_path, "--format", "json",
            "--out", str(out), "--fmax", "0.2",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["experiment"] == "solve"
        rec = doc["records"][0]
        assert rec["f_max"] == 0.2
        assert rec["kind"] in ("deterministic", "mixture")

    def test_fmax_override_changes_result(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--config", config_path, "--format", "json",
              "--out", str(out1), "--fmax", "0.3"])
        main(["solve", "--config", config_path, "--format", "json",
              "--out", str(out2), "--fmax", "0.1"])
        j1 = json.loads(out1.read_text())["records"][0]["J"]
        j2 = json.loads(out2.read_text())["records"][0]["J"]
        assert j2 > j1

    def test_simulate_command(self, config_path, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--config", config_path, "--horizon", "20000",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        rec = json.loads(out.read_text())["records"][0]
        assert rec["horizon"] == 20000
        assert 0.0 <= rec["empirical_F"] <= 1.0
        cfg = SystemConfig.from_file(config_path)
        sol = solve_cmdp(cfg.build_model(), cfg.f_max, cfg.lambda_max, cfg.tolerances.mixture)
        assert rec["stationary_F"] == sol.F
        assert rec["stationary_J"] == sol.J

    def test_simulate_follows_config_timing(self, tmp_path):
        out = tmp_path / "sim.json"
        path = write_doc(tmp_path, {**BASE_DOC, "timing": "delayed"}, "delayed.json")
        code = main(["simulate", "--config", path, "--horizon", "20000",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())["records"][0]
        cfg = SystemConfig.from_dict(BASE_DOC)
        model = cfg.build_model(timing="delayed")
        sol = solve_cmdp(model, cfg.f_max, cfg.lambda_max, cfg.tolerances.mixture)
        report = simulate(model, sol.policy, 20000, cfg.seed)
        assert rec["stationary_F"] == sol.F and rec["stationary_J"] == sol.J
        assert {k: rec[k] for k in report.as_dict()} == report.as_dict()

    def test_truncation_command(self, config_path, tmp_path):
        out = tmp_path / "kl.csv"
        code = main([
            "truncation", "--config", config_path,
            "--theta-grid", "6", "--delta-grid", "4,6",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["theta_max", "delta_max", "kl"]
        assert len(lines) == 3

    def test_compare_estimators_pairs_rows(self, config_path, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare-estimators", "--config", config_path,
            "--fmax-grid", "0.15,0.25", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["f_max", "j_map", "j_zoh"]
        assert len(lines) == 3

    def test_selftest_passes(self, config_path, tmp_path):
        out = tmp_path / "self.csv"
        assert main(["selftest", "--config", config_path, "--out", str(out)]) == 0

    def test_selftest_stdout_is_result_data(self, config_path, capsys):
        assert main(["selftest", "--config", config_path, "--format", "json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["meta"]["experiment"] == "selftest"
        assert all(rec["passed"] for rec in doc["records"])
        assert "[PASS]" in captured.err

    def test_selftest_reads_the_solver_kernel(self, config_path, capsys, monkeypatch):
        def leaky(model, tx_prob):
            return 0.5 * solver._kernel_values(model, tx_prob)

        monkeypatch.setattr("remest.cli._kernel_values", leaky)
        assert main(["selftest", "--config", config_path, "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)["records"]
        failed = [rec["check"] for rec in records if not rec["passed"]]
        assert failed == ["transition-fans-sum-to-one"]


class TestEmitResults:
    def test_round_trip_byte_identical(self, tmp_path):
        import csv as csv_mod

        records = [
            {"a": 1.0 / 3.0, "b": "x"},
            {"a": 2.0, "b": "y,z"},
        ]
        p1 = tmp_path / "r1.csv"
        emit_results(records, "csv", str(p1), columns=["a", "b"])
        with open(p1) as fh:
            rows = list(csv_mod.DictReader(fh))
        parsed = [{"a": float(r["a"]), "b": r["b"]} for r in rows]
        p2 = tmp_path / "r2.csv"
        emit_results(parsed, "csv", str(p2), columns=["a", "b"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_quoting_is_rfc4180(self, tmp_path):
        path = tmp_path / "q.csv"
        emit_results([{"a": 'he said "hi"', "b": "x,y"}], "csv", str(path))
        assert path.read_text().splitlines()[1] == '"he said ""hi""","x,y"'

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "d.csv"
        emit_results([{"v": 0.1234567890123456}], "csv", str(path))
        assert path.read_text().splitlines()[1] == "0.123456789012"

    def test_json_stable_key_order(self, tmp_path):
        path = tmp_path / "k.json"
        emit_results([{"b": 1, "a": 2}], "json", str(path), columns=["b", "a"])
        doc = json.loads(path.read_text())
        assert doc["records"] == [{"b": 1, "a": 2}]

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", str(tmp_path / "e.csv"))


def test_spi_pass_cap_exits_three(config_path, capsys, monkeypatch):
    monkeypatch.setattr("remest.solver.SPI_MAX_PASSES", 1)
    assert main(["solve-lambda", "--config", config_path, "--lam", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConvergenceFailure"


def test_infeasible_budget_keeps_the_grid(tmp_path):
    # On this config f = 0.05 cannot be bracketed (F at lambda_max is
    # 0.0542); the default grid's five other budgets are still reported.
    config = "configs/symmetric_three.json"
    cfg = SystemConfig.from_file(config)
    models = {
        "map": cfg.build_model(),
        "zoh": cfg.with_overrides(theta_max=1, estimator="zoh").build_model(),
    }
    grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    expected = {}
    for label, model in models.items():
        with pytest.raises(BadBracketError):
            solve_cmdp(model, grid[0], cfg.lambda_max, cfg.tolerances.mixture)
        for f in grid[1:]:
            sol = solve_cmdp(model, f, cfg.lambda_max, cfg.tolerances.mixture)
            expected[label, f] = (sol.kind, sol.J, sol.lam_star)

    def records(command):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", config, "--format", "json", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        assert [r["f_max"] for r in recs] == grid
        return recs

    def check(f, got, label):
        if f == grid[0]:
            assert got[0] == "infeasible"
            assert all(math.isnan(v) for v in got[1:])
        else:
            assert got == expected[label, f]

    for rec in records("thresholds"):
        check(rec["f_max"], (rec["kind"], rec["j_star"], rec["lambda_star"]), "map")
        assert math.isnan(rec["p"]) == (rec["f_max"] == grid[0])
    for rec in records("compare-estimators"):
        for label in models:
            got = tuple(rec[f"{k}_{label}"] for k in ("kind", "j", "lambda"))
            check(rec["f_max"], got, label)
