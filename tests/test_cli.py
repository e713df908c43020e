import json

import numpy as np
import pytest
from click.testing import CliRunner

from qdfsim.cli import (
    ConfigError,
    RunConfig,
    execute_run,
    main,
    parse_config,
    run_single_csv,
    serialize_config,
)

TINY_N2 = json.dumps(
    {
        "n_qubits": 2,
        "state": "bell-d",
        "zeta": 0.2,
        "t_end": 2.0,
        "dt": 1e-3,
        "sample_interval": 0.5,
    }
)


class TestConfigParsing:
    def test_defaults_reproduce_figure_settings(self):
        cfg = parse_config("{}")
        assert cfg.n_qubits == 4
        assert cfg.omega == 2.0
        assert cfg.epsilon is None and cfg.j_coupling is None
        assert cfg.primed_scale == 1.0
        assert cfg.t_end == 50.0
        assert cfg.dt == 1e-3

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="omega_3"):
            parse_config('{"omega_3": 1.9}')

    def test_type_error_names_field_path(self):
        with pytest.raises(ConfigError, match=r"epsilon\[1\]"):
            parse_config('{"n_qubits": 2, "epsilon": [0.0, "x"]}')
        with pytest.raises(ConfigError, match=r"barriers\.left\[0\]"):
            parse_config('{"barriers": {"left": ["a"], "right": [2]}}')

    def test_length_validation(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config('{"n_qubits": 4, "epsilon": [0.0, 0.0]}')

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="zeta"):
            parse_config('{"zeta": 1.5}')
        with pytest.raises(ConfigError, match="eta"):
            parse_config('{"eta": -0.2}')

    @pytest.mark.parametrize(
        "text",
        ['{"dt": NaN}', '{"omega": Infinity}', '{"zeta": -Infinity}', '{"omega": 1e999}'],
        ids=["nan", "inf", "minus_inf", "overflow"],
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="config: "):
            parse_config(text)

    @pytest.mark.parametrize("scenario", ["uniform", "custom"])
    def test_eta_needs_affected_qubits(self, scenario):
        # neither scenario names affected qubits, so eta would be dropped
        with pytest.raises(ConfigError, match="eta"):
            parse_config(f'{{"scenario": "{scenario}", "eta": 0.05}}')
        assert parse_config(f'{{"scenario": "{scenario}", "eta": 0.0}}').eta == 0.0

    def test_thread_count_must_be_integer(self, monkeypatch):
        from qdfsim.cli import _max_workers

        monkeypatch.setenv("QDF_THREADS", "abc")
        with pytest.raises(ConfigError, match="QDF_THREADS"):
            _max_workers()

    def test_roundtrip_idempotent(self):
        text = '{"n_qubits": 2, "state": "bell-b", "zeta": 0.6, "epsilon": [0.1, 0.2]}'
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_scenario_config_flows_into_params(self):
        cfg = parse_config('{"scenario": "case_i", "eta": 0.05}')
        from qdfsim.cli import config_params

        base, eff = config_params(cfg)
        assert eff.omega[2] == pytest.approx(1.9)
        assert base.omega[2] == pytest.approx(2.0)

    def test_invalid_scenario_for_n2(self):
        cfg = parse_config('{"n_qubits": 2, "state": "bell-a", "scenario": "case_iii", "eta": 0.05}')
        from qdfsim.cli import config_params

        with pytest.raises(ConfigError):
            config_params(cfg)


class TestRunSingle:
    def test_golden_psi2_weak_measurement(self):
        # golden value frozen from the dense-exponential oracle
        cfg = parse_config('{"state": "psi2", "zeta": 0.2}')
        res = execute_run(cfg)
        assert res.times[-1] == pytest.approx(50.0)
        assert res.fidelities[0] == pytest.approx(1.0, abs=1e-12)
        assert res.fidelities[-1] == pytest.approx(0.734445236898, abs=1e-6)

    def test_decoupled_bell_c_stays_unit(self):
        cfg = parse_config('{"n_qubits": 2, "state": "bell-c", "zeta": 0.0, "t_end": 10.0}')
        res = execute_run(cfg)
        assert np.abs(res.fidelities - 1.0).max() < 1e-8

    def test_nonuniformity_lowers_psi1(self):
        base = parse_config('{"state": "psi1", "zeta": 0.2}')
        bent = parse_config('{"state": "psi1", "zeta": 0.2, "scenario": "case_ii", "eta": 0.05}')
        f_base = execute_run(base).fidelities[-1]
        f_bent = execute_run(bent).fidelities[-1]
        assert f_bent < f_base

    def test_csv_shape_and_determinism(self):
        cfg = parse_config(TINY_N2)
        text = run_single_csv(cfg)
        lines = text.splitlines()
        assert lines[0] == "t,F,trace_err,pop_a,pop_b,pop_c"
        assert len(lines) == 1 + 5  # t = 0, 0.5, ..., 2.0
        assert text == run_single_csv(cfg)

    def test_baseline_frame_flag_matches_for_uniform(self):
        cfg = parse_config(TINY_N2)
        a = run_single_csv(cfg, baseline_frame=False)
        b = run_single_csv(cfg, baseline_frame=True)
        assert a == b  # no scenario applied: the two frames coincide

    def test_baseline_frame_differs_under_scenario(self):
        cfg = parse_config(
            '{"state": "psi1", "scenario": "case_ii", "eta": 0.05, '
            '"t_end": 5.0, "sample_interval": 1.0}'
        )
        modified = execute_run(cfg, baseline_frame=False).fidelities[-1]
        uniform = execute_run(cfg, baseline_frame=True).fidelities[-1]
        assert abs(modified - uniform) > 1e-4


class TestCommands:
    def test_simulate_stdout(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(TINY_N2)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 0
        assert result.output.startswith("t,F,trace_err")

    def test_simulate_writes_output_file(self, tmp_path):
        cfg = json.loads(TINY_N2)
        cfg["output"] = str(tmp_path / "series.csv")
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 0
        assert (tmp_path / "series.csv").read_text().startswith("t,F,trace_err")

    def test_config_error_exit_code_two(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text('{"no_such_field": 1}')
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text",
        ['{"dt": NaN}', '{"omega": Infinity}', '{"scenario": "custom", "eta": 0.05}'],
        ids=["nan", "inf", "custom_eta"],
    )
    def test_bad_config_values_exit_two(self, tmp_path, text):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_bad_thread_count_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QDF_THREADS", "abc")
        result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "QDF_THREADS" in result.output

    def test_baseline_command(self):
        result = CliRunner().invoke(
            main,
            ["baseline", "--state", "bell-b", "--gamma-d", "0.35", "--t-end", "2.0", "--sample-interval", "0.5"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t,F"
        t, f = (float(x) for x in lines[-1].split(","))
        assert f == pytest.approx(0.5 * (1 + np.exp(-8 * 0.35 * t)), abs=1e-10)

    def test_baseline_rejects_unknown_state(self):
        result = CliRunner().invoke(main, ["baseline", "--state", "ghz", "--gamma-d", "0.1"])
        assert result.exit_code == 2

    def test_dump_generator(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-a", "zeta": 0.2}')
        reduced = CliRunner().invoke(main, ["dump-generator", "--config", str(cfg_file)])
        assert reduced.exit_code == 0
        assert "b_up" not in reduced.output
        assert reduced.output.splitlines() == sorted(reduced.output.splitlines())
        full = CliRunner().invoke(
            main, ["dump-generator", "--config", str(cfg_file), "--full"]
        )
        assert full.exit_code == 0
        assert "b_up,000,000" in full.output

    def test_verify_passes_on_fresh_checkout(self):
        result = CliRunner().invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "all" in result.output and "passed" in result.output


class TestFigures:
    def test_figure_command_rejects_unknown_name(self, tmp_path):
        result = CliRunner().invoke(main, ["figure", "fig9", "--out", str(tmp_path)])
        assert result.exit_code != 0

    def test_figure_command_writes_csv_and_plot_script(self, tmp_path):
        result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        csv_path = tmp_path / "fig2.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.count(",") == 8  # t plus four states x two zetas
        script = (tmp_path / "fig2_plot.py").read_text()
        assert "fig2.csv" in script and "matplotlib" in script

    def test_fig3a_layout_short_horizon(self):
        from qdfsim.cli import run_time_figure

        csv_text = run_time_figure("fig3a", t_end=1.0)
        lines = csv_text.splitlines()
        header = lines[0].split(",")
        assert len(header) == 10  # t plus 3 states x 3 cases
        assert header[1] == "psi1_case_i"
        values = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        assert values.shape == (11, 10)
        assert np.all(values[:, 1:] <= 1 + 1e-9)
        assert np.all(values[:, 1:] >= -1e-9)

    def test_thread_cap_env(self, monkeypatch):
        from qdfsim.cli import _max_workers

        monkeypatch.setenv("QDF_THREADS", "5")
        assert _max_workers() == 5
        monkeypatch.setenv("QDF_THREADS", "0")
        assert _max_workers() == 1
        monkeypatch.delenv("QDF_THREADS")
        assert _max_workers() >= 1

    def test_parallelism_does_not_change_bytes(self, monkeypatch):
        from qdfsim.cli import run_time_figure

        monkeypatch.setenv("QDF_THREADS", "1")
        serial = run_time_figure("fig2", t_end=1.0)
        monkeypatch.setenv("QDF_THREADS", "4")
        threaded = run_time_figure("fig2", t_end=1.0)
        assert serial == threaded
