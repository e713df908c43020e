import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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
        [
            '{"dt": NaN}',
            '{"omega": Infinity}',
            '{"zeta": -Infinity}',
            '{"omega": 1e999}',
            '{"omega": 1' + "0" * 400 + "}",
            '{"omega": 1' + "0" * 4400 + "}",
        ],
        ids=["nan", "inf", "minus_inf", "overflow", "int_overflow", "int_digit_limit"],
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
        [
            '{"dt": NaN}',
            '{"omega": Infinity}',
            '{"scenario": "custom", "eta": 0.05}',
            '{"t_end": 0.5, "dt": 1.0}',
            '{"n_qubits": 2, "state": "bell-b", "t_end": 1.0, "sample_interval": 0.3}',
        ],
        ids=["nan", "inf", "custom_eta", "dt_over_interval", "interval_over_t_end"],
    )
    def test_bad_config_values_exit_two(self, tmp_path, text):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "text, dt",
        [
            # F = 80611.9 and pop_b = -3.6e6 at t = 1 without the gate
            ('{"t_end": 1, "dt": 0.5, "sample_interval": 0.5, "zeta": 0.9, "primed_scale": 50}', "0.5"),
            # trace error 5e-9 at t = 4; F(t) failed its unit-trace check later
            ('{"dt": 0.25, "sample_interval": 0.5, "t_end": 10}', "0.25"),
            # overflows to a non-finite state in the first step
            (
                '{"n_qubits": 2, "state": "bell-b", "t_end": 1, "dt": 0.5, '
                '"sample_interval": 0.5, "omega": 1e200}',
                "0.5",
            ),
        ],
        ids=["populations", "trace", "overflow"],
    )
    def test_unstable_dt_exit_two(self, tmp_path, text, dt):
        cfg_file = tmp_path / "unstable.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        (line,) = result.output.strip().splitlines()
        assert line.startswith(f"Error: dt={dt} is unstable")

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

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--t-end", "1e300"], "the grid holds 1e+301 samples, more than 100,000"),
            (["--sample-interval", "0"], "sample_interval must be positive, got 0.0"),
            (["--t-end", "1", "--sample-interval", "0.3"], "sample_interval=0.3 must divide t_end=1.0"),
            (["--t-end", "-5"], "t_end must be non-negative, got -5.0"),
            (["--t-end", "inf"], "t_end must be finite, got inf"),
        ],
        ids=["huge_t_end", "zero_interval", "non_dividing", "negative_t_end", "infinite_t_end"],
    )
    def test_baseline_grid_exit_two(self, args, reason):
        result = CliRunner().invoke(main, ["baseline", "--state", "bell-b", "--gamma-d", "0.3", *args])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [f"Error: --t-end/--sample-interval: {reason}"]

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_baseline_rate_exit_two(self, gamma):
        result = CliRunner().invoke(main, ["baseline", "--state", "bell-b", "--gamma-d", gamma])
        assert result.exit_code == 2
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error: dephasing rate must be finite and non-negative")

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

    def test_dump_generator_trace_check_exit_two(self, tmp_path, monkeypatch):
        # a planted trace defect of 1e-10 per unit of max|L| (2.4 here)
        from qdfsim import liouvillian

        true_violation = liouvillian.trace_violation
        monkeypatch.setattr(
            liouvillian, "trace_violation", lambda g: true_violation(g) + 2.4e-10
        )
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-b"}')
        for extra in ([], ["--full"]):
            result = CliRunner().invoke(main, ["dump-generator", "--config", str(cfg_file), *extra])
            assert result.exit_code == 2
            assert "Traceback" not in result.output
            assert result.output.strip().splitlines() == [
                "Error: generator is not trace preserving: defect 2.400e-10 > 2.4e-12"
            ]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_dump_generator_overflowing_rates_exit_two(self, tmp_path):
        # rates that overflow to inf leave a NaN trace defect, which is refused
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-b", "primed_scale": 1e308}')
        result = CliRunner().invoke(main, ["dump-generator", "--config", str(cfg_file)])
        assert result.exit_code == 2
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error: generator is not trace preserving: defect nan")

    def test_dump_generator_large_rates(self, tmp_path):
        # rates of 1e4 leave a trace defect of 3.6e-12 on rounding, about
        # 1.5e-16 of max|L|: inside the scaled bound
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-b", "primed_scale": 1e4}')
        for extra in ([], ["--full"]):
            result = CliRunner().invoke(main, ["dump-generator", "--config", str(cfg_file), *extra])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("a,000,000 <- a,000,000 : ")
            assert ("b_up" in result.output) == bool(extra)

    def test_huge_t_end_exit_two_naming_count(self, tmp_path):
        # refused by the grid check before any trajectory is allocated
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"t_end": 1e300}')
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [
            "Error: t_end/dt/sample_interval: the grid holds 1e+301 samples, more than 100,000"
        ]

    def test_verify_passes_on_fresh_checkout(self):
        result = CliRunner().invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "all" in result.output and "passed" in result.output
        assert "PASS real_form_n4" in result.output
        assert "PASS krylov_route_n5" in result.output
        # the verify checks keep the absolute 1e-12 bound and their values
        for name, value in (("full_n2", "4.441e-16"), ("reduced_n2", "4.441e-16"),
                            ("full_n4", "2.220e-16"), ("reduced_n4", "2.220e-16")):
            line = f"PASS trace_identity_{name}: measured={value} tolerance=1.0e-12"
            assert line in result.output.splitlines()


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


@st.composite
def _n2_configs(draw) -> dict:
    """An N=2 run with t_end <= 1, mostly on a dividing grid, then at most
    one other field replaced by a non-dividing step, an unstable scale, an
    oversized number or a wrong type."""
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.25, 0.5]))
    interval = dt * draw(st.integers(1, 4))
    t_end = st.one_of(
        st.integers(0, int(1.0 / interval)).map(lambda k: k * interval),
        st.floats(0.0, 1.0),
        st.sampled_from([-1.0, "1", None]),
    )
    cfg = {
        "n_qubits": 2,
        "state": draw(st.sampled_from(["bell-a", "bell-b", "bell-c", "bell-d"])),
        "dt": dt,
        "sample_interval": interval,
        "t_end": draw(t_end),
        "zeta": draw(st.floats(0.0, 0.99)),
        "omega": draw(st.one_of(st.floats(0.0, 3.0), st.sampled_from([50.0, 1e6, 1e200]))),
        "primed_scale": draw(st.one_of(st.floats(0.1, 3.0), st.sampled_from([50.0, 1e4]))),
    }
    bad_value = st.one_of(
        st.floats(1e-3, 2.0),
        st.sampled_from([0, -0.5, 1.0, 1e300, 10**400, "0.1", None, True, [0.1], "psi1"]),
    )
    fields = sorted(set(cfg) - {"t_end"})  # t_end stays <= 1: a longer run only costs time
    replace = draw(st.one_of(st.none(), st.tuples(st.sampled_from(fields), bad_value)))
    if replace is not None:
        cfg[replace[0]] = replace[1]
    return cfg


@settings(derandomize=True, max_examples=80, deadline=None)
@given(cfg=_n2_configs())
def test_simulate_exit_contract(cfg):
    """Exit 0 with a CSV inside the invariant gate, or exit 2; no traceback."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("run.json", "w") as fh:
            fh.write(json.dumps(cfg))
        result = runner.invoke(main, ["simulate", "--config", "run.json"])
    assert result.exit_code in (0, 2), (result.exit_code, repr(result.exception))
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        rows = np.array(
            [[float(x) for x in line.split(",")] for line in result.output.splitlines()[1:]]
        )
        assert np.isfinite(rows).all()
        assert rows[:, 1].max() <= 1 + 1e-9
        assert rows[:, 2].max() <= 1e-9
        assert rows[:, 3:].min() >= -1e-9 and rows[:, 3:].max() <= 1 + 1e-9
