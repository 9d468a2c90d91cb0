"""Config loading and the command line interface, run in-process."""

import json

import pytest

from l0geom import Quantity, ValidationReport, ValidationRow, solver
from l0geom import cli
from l0geom.cli import main
from l0geom.config import ConfigError, config_from_dict, load_config

AXES = [[1.0, 0.0], [0.0, 1.0]]
THREE = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def minimal(**extra):
    obj = {"dictionary": AXES, "tau": 0.05}
    obj.update(extra)
    return obj


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict(minimal())
        assert cfg.fidelity.kind == "l2" and cfg.data.kind == "l2"
        assert cfg.theta == 1.0
        assert cfg.tau_grid == (0.05,)
        assert cfg.K_list == (0, 1, 2)
        assert cfg.quantities == tuple(Quantity)
        assert cfg.n_samples == 100_000
        assert cfg.seed == 42
        assert (cfg.span_tol, cfg.feas_tol, cfg.dist_tol) == (1e-9, 1e-10, 1e-9)
        assert cfg.threads == 1

    def test_explicit_fields(self):
        cfg = config_from_dict(
            {
                "dictionary": THREE,
                "fidelity": {"kind": "linf"},
                "data": {"kind": "wlp", "p": 2.0, "weights": [1.0, 0.5]},
                "tau_grid": [0.01, 0.1],
                "theta": 2.5,
                "K_list": [1, 2],
                "quantities": ["prob_leq", "expect"],
                "samples": 500,
                "seed": 0,
                "threads": 4,
            }
        )
        assert cfg.fidelity.kind == "linf"
        assert cfg.data.weights == (1.0, 0.5)
        assert cfg.tau_grid == (0.01, 0.1)
        assert cfg.K_list == (1, 2)
        assert cfg.quantities == (Quantity.PROB_LEQ, Quantity.EXPECT)
        assert cfg.n_samples == 500
        assert cfg.seed == 0
        assert cfg.threads == 4

    def test_constants_samples_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['constants_samples'\]"):
            config_from_dict(minimal(constants_samples=800))

    @pytest.mark.parametrize("key", ["theta", "tau", "tau_grid", "span_tol"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400])
    def test_non_finite_numbers_are_refused(self, key, value):
        obj = minimal(**{key: [value] if key == "tau_grid" else value})
        if key == "tau_grid":
            del obj["tau"]
        with pytest.raises(ConfigError, match=f"'{key}'.*positive finite number"):
            config_from_dict(obj)

    def test_json_overflow_reads_as_infinity_and_is_refused(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"dictionary": [[1, 0], [0, 1]], "tau": 0.05, "theta": 1e999}')
        with pytest.raises(ConfigError, match="'theta' must be a positive finite number, got inf"):
            load_config(str(path))

    def test_span_tol_is_the_dictionary_tolerance(self):
        cfg = config_from_dict(minimal(span_tol=1e-6))
        assert cfg.span_tol == cfg.dictionary.span_tol == 1e-6
        assert cfg == cfg and cfg != config_from_dict(minimal(span_tol=1e-6))

    def test_scalar_level(self):
        assert config_from_dict(minimal(K=1)).K_list == (1,)

    @pytest.mark.parametrize(
        "bad,fragment",
        [
            ({"dictionary": AXES}, "tau"),
            (minimal(tau_grid=[0.1]), "not both"),
            (minimal(K=1, K_list=[0]), "not both"),
            (minimal(K=5), "[0, 2]"),
            (minimal(K=True), "[0, 2]"),
            (minimal(colour="red"), "colour"),
            (minimal(tau=-0.1), "positive"),
            ({"dictionary": AXES, "tau_grid": []}, "nonempty"),
            (minimal(theta=0), "positive"),
            (minimal(samples=0), "positive"),
            (minimal(seed=-1), "seed"),
            (minimal(seed=1.5), "seed"),
            (minimal(quantities=["entropy"]), "unknown quantity"),
            (minimal(quantities=[]), "nonempty"),
            (minimal(fidelity={"kind": "l7"}), "norm"),
            (
                minimal(data={"kind": "wlp", "p": 2.0, "weights": [1.0, 1.0, 1.0]}),
                "dictionary dimension",
            ),
            ({"dictionary": [[1.0, 0.0], [2.0, 0.0]], "tau": 0.1}, "span"),
            ({"dictionary": [[1.0, 0.0], [0.0, 0.0]], "tau": 0.1}, "zero"),
            ([1, 2, 3], "object"),
        ],
    )
    def test_rejects_bad_input(self, bad, fragment):
        with pytest.raises(ConfigError) as err:
            config_from_dict(bad)
        assert fragment in str(err.value)

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        garbled = tmp_path / "broken.json"
        garbled.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(garbled))


@pytest.fixture
def config_path(tmp_path):
    def write(obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return str(path)

    return write


class TestSolveCommand:
    def test_json_output(self, config_path, capsys):
        path = config_path({"dictionary": THREE, "tau": 0.05})
        assert main(["solve", "--config", path, "--data", "0.9,0.9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 1
        assert out["support"] == [2]
        assert out["tau"] == 0.05
        assert out["residual"] <= 0.05 * (1 + 1e-9)

    def test_tau_flag_overrides_config(self, config_path, capsys):
        # (0.92, 0.9) is near, but not on, the diagonal atom: one atom
        # suffices at the config tau, none does at the tightened tau.
        path = config_path({"dictionary": THREE, "tau": 0.05})
        assert main(["solve", "--config", path, "--data", "0.92,0.9"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1
        assert main(["solve", "--config", path, "--data", "0.92,0.9", "--tau", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2

    def test_dimension_mismatch_is_an_error(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["solve", "--config", path, "--data", "1,2,3"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("data", ["nan,0.5", "inf,0.5"])
    def test_non_finite_data_vector(self, config_path, capsys, data):
        path = config_path(minimal())
        assert main(["solve", "--config", path, "--data", data]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tau", ["inf", "nan", "0", "-0.5"])
    def test_tau_flag_must_be_positive_and_finite(self, config_path, capsys, tau):
        path = config_path(minimal())
        assert main(["solve", "--config", path, "--data", "0.5,0.5", f"--tau={tau}"]) == 1
        captured = capsys.readouterr()
        assert "--tau must be a positive finite number" in captured.err
        assert captured.out == ""

    def test_unparsable_data_vector(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["solve", "--config", path, "--data", "1,oops"]) == 1
        assert "comma-separated" in capsys.readouterr().err


class TestSpansCommand:
    def test_listing(self, config_path, capsys):
        path = config_path({"dictionary": THREE, "tau": 0.05})
        assert main(["spans", "--config", path, "--level", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 1 and out["ambient_dim"] == 2
        assert [m["atoms"] for m in out["members"]] == [[0], [1], [2]]
        assert len(out["pairs"]["0"]) == 6

    def test_listing_at_the_config_span_tol(self, config_path, capsys):
        # The second atom is within 1e-7 of the first: one span at 1e-6.
        near = [[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]]
        path = config_path({"dictionary": near, "tau": 0.05, "span_tol": 1e-6})
        assert main(["spans", "--config", path, "--level", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [m["atoms"] for m in out["members"]] == [[0], [2]]
        assert out["pairs"] == {"0": [[0, 1], [1, 0]]}

    def test_level_out_of_range(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["spans", "--config", path, "--level", "9"]) == 1
        assert "level" in capsys.readouterr().err


class TestConstantsCommand:
    def test_csv_values(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["constants", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("K,C_K,kK,")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["1"][1]) == pytest.approx(8.0, rel=1e-12)
        assert float(rows["0"][1]) == pytest.approx(3.141592653589793)

    def test_a_level_above_the_span_cap_is_refused_before_any_constant(
        self, config_path, capsys, monkeypatch
    ):
        from l0geom import cli, sizes

        entered = []
        monkeypatch.setattr(sizes, "MAX_SPAN_SUBSETS", 2)
        monkeypatch.setattr(cli, "assemble_constants", lambda *a, **k: entered.append(a))
        path = config_path(minimal(dictionary=THREE, K_list=[0, 1]))
        assert main(["constants", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "C(3, 1) = 3 subsets, above the cap of 2 (sizes.MAX_SPAN_SUBSETS)" in err
        assert entered == []


class TestEstimateCommand:
    def test_row_layout(self, config_path, capsys):
        path = config_path(
            {
                "dictionary": AXES, "tau_grid": [0.05, 0.1], "K_list": [0, 1],
                "quantities": ["prob_leq", "expect"], "samples": 2000,
            }
        )
        assert main(["estimate", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,K,tau,theta,estimate,ci,n,seed"
        assert len(lines) == 1 + 4 + 2
        assert lines[1].startswith("prob_leq,0,")
        assert lines[-1].startswith("expect,,")

    def test_rows_follow_the_validate_cells(self, config_path, capsys):
        # One config for both commands: every estimate row is the validate
        # row of the same (quantity, K, tau) cell, in the same order.
        path = config_path(
            {
                "dictionary": THREE, "tau_grid": [0.05, 0.1], "K_list": [1, 2],
                "quantities": ["measure_eq", "expect", "prob_leq"], "samples": 3000,
            }
        )
        assert main(["estimate", "--config", path]) == 0
        estimates = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        main(["validate", "--config", path])
        validated = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(estimates) == len(validated) == 2 * 2 + 2 + 2 * 2
        # quantity, K, tau, theta, estimate, ci lead both layouts.
        assert [row[:6] for row in estimates] == [row[:6] for row in validated]


class TestValidateCommand:
    CLEAN = {
        "dictionary": AXES, "tau_grid": [0.05, 0.1], "samples": 20000, "seed": 11,
    }

    def test_clean_run_exits_zero(self, config_path, capsys):
        path = config_path(self.CLEAN)
        assert main(["validate", "--config", path]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("quantity,K,tau,theta,estimate,ci,lower,upper")
        assert len(lines) == 1 + 26
        assert all(line.endswith(",true") for line in lines[1:])
        assert captured.err == ""

    def test_output_file(self, config_path, capsys, tmp_path):
        path = config_path(self.CLEAN)
        target = tmp_path / "report.csv"
        assert main(["validate", "--config", path, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("quantity,")

    def test_byte_determinism_and_thread_invariance(self, config_path, capsys, monkeypatch):
        from l0geom import cli

        workers = []
        real = cli.validate_bounds

        def recording(*args, **kwargs):
            workers.append(kwargs["workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_bounds", recording)
        path = config_path(self.CLEAN)
        main(["validate", "--config", path])
        first = capsys.readouterr().out
        main(["validate", "--config", path])
        second = capsys.readouterr().out
        main(["validate", "--config", path, "--threads", "3"])
        third = capsys.readouterr().out
        assert workers == [1, 1, 3]
        assert first == second == third

    def test_seed_flag_beats_config(self, config_path, capsys):
        path = config_path(self.CLEAN)
        main(["estimate", "--config", path])
        base = capsys.readouterr().out
        main(["estimate", "--config", path, "--seed", "123"])
        flag_out = capsys.readouterr().out
        main(["estimate", "--config", config_path(dict(self.CLEAN, seed=123))])
        config_out = capsys.readouterr().out
        assert ",11" in base.splitlines()[1]
        assert flag_out != base and flag_out == config_out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "'seed' must be a nonnegative integer, got -1"),
            ("--threads", "0", "'threads' must be a positive integer, got 0"),
            ("--samples", "0", "'samples' must be a positive integer, got 0"),
        ],
        ids=["seed", "threads", "samples"],
    )
    def test_bad_override_gets_the_config_message(
        self, config_path, capsys, monkeypatch, flag, value, message
    ):
        from l0geom import cli

        monkeypatch.setattr(cli, "validate_bounds", lambda *a, **k: pytest.fail("ran"))
        path = config_path(self.CLEAN)
        assert main(["validate", "--config", path, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_validity_warning(self, config_path, capsys):
        path = config_path({"dictionary": AXES, "tau": 0.6, "samples": 2000})
        assert main(["validate", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert any(line.endswith(",false,") for line in captured.out.splitlines()[1:])

    @pytest.mark.parametrize(
        "quantities, flagged_taus, invalid_cells",
        [
            # expect uses every level's gate: 2 * tau at level 1 flags tau 0.6.
            (None, [0.6, 1.5], 6),
            # prob_leq at K = 0 has gate 1 * tau: only tau 1.5 is flagged.
            (["prob_leq"], [1.5], 1),
        ],
    )
    def test_warning_lists_exactly_the_flagged_taus(
        self, config_path, capsys, quantities, flagged_taus, invalid_cells
    ):
        obj = {
            "dictionary": THREE, "theta": 1.0, "K_list": [0],
            "tau_grid": [0.6, 1.5], "samples": 2000,
        }
        if quantities is not None:
            obj["quantities"] = quantities
        assert main(["validate", "--config", config_path(obj)]) == 0
        captured = capsys.readouterr()
        assert f"for tau in {flagged_taus};" in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        invalid = [row for row in rows if row[11] == "false"]
        assert len(invalid) == invalid_cells
        assert sorted({float(row[2]) for row in invalid}) == flagged_taus

    def test_failures_exit_two(self, config_path, capsys, monkeypatch):
        path = config_path(self.CLEAN)
        bad_row = ValidationRow(
            Quantity.PROB_LEQ, 1, 0.05, 1.0, 0.5, 0.01,
            0.0, 0.1, 0.0, 0.0, 1.0, True, False,
        )
        fake = ValidationReport(rows=(bad_row,), theta=1.0, n_samples=1, seed=0)
        monkeypatch.setattr("l0geom.cli.validate_bounds", lambda *a, **k: fake)
        assert main(["validate", "--config", path]) == 2
        assert "1 of 1 cells failed" in capsys.readouterr().err


class TestCliPlumbing:
    def test_missing_config_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/config.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--config", "x.json"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["solve"])
        assert err.value.code == 2

    def test_each_subcommand_keeps_its_options(self):
        shared = ["--config", "--output", "--seed", "--threads", "--samples"]
        expected = {
            "solve": shared + ["--data", "--tau"],
            "spans": shared + ["--level"],
            "constants": shared,
            "estimate": shared,
            "validate": shared,
        }
        (commands,) = cli.build_parser()._subparsers._group_actions
        assert list(commands.choices) == list(expected)
        for name, parser in commands.choices.items():
            options = [a.option_strings[0] for a in parser._actions if a.option_strings]
            assert options == ["-h"] + expected[name], name
            required = {a.option_strings[0] for a in parser._actions if a.required}
            assert required == {"--config"} | {"solve": {"--data"}, "spans": {"--level"}}.get(name, set())
            assert parser.get_default("run") is getattr(cli, f"_cmd_{name}")

    def test_samples_flag(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["estimate", "--config", path, "--samples", "500"]) == 0
        assert all(
            line.split(",")[6] == "500"
            for line in capsys.readouterr().out.splitlines()[1:]
        )

    @pytest.mark.parametrize("key", ["feas_tol", "dist_tol"])
    def test_a_solver_constant_in_the_config_exits_one_naming_it(self, config_path, capsys, key):
        # Even at the solver's own value: the constants are not run settings.
        path = config_path(minimal(**{key: getattr(solver, key.upper())}))
        assert main(["solve", "--config", path, "--data", "0.5,0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown config keys: ['{key}']\n" and captured.out == ""

    def test_negative_overrides_rejected(self, config_path, capsys):
        path = config_path(minimal())
        assert main(["estimate", "--config", path, "--seed", "-4"]) == 1
        assert main(["estimate", "--config", path, "--threads", "0"]) == 1
