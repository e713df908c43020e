import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qdfsim.analysis import fidelity_series, rotation_frequencies
from qdfsim.cli import (
    ConfigError,
    RunConfig,
    config_params,
    execute_run,
    main,
    parse_config,
    reduced_generator,
    run_single_csv,
)
from qdfsim.integrator import evolve_expm
from qdfsim.liouvillian import SECTORS_FULL, SECTORS_REDUCED
from qdfsim.model import CASE_AFFECTED
from qdfsim.states import state_by_name, to_density

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

    @pytest.mark.parametrize("scenario", ["uniform"])
    def test_eta_needs_affected_qubits(self, scenario):
        # the scenario names no affected qubits, so eta would be dropped
        with pytest.raises(ConfigError, match="eta"):
            parse_config(f'{{"scenario": "{scenario}", "eta": 0.05}}')
        assert parse_config(f'{{"scenario": "{scenario}", "eta": 0.0}}').eta == 0.0

    def test_roundtrip_idempotent(self):
        text = '{"n_qubits": 2, "state": "bell-b", "zeta": 0.6, "epsilon": [0.1, 0.2]}'
        once = json.dumps(dataclasses.asdict(parse_config(text)))
        twice = json.dumps(dataclasses.asdict(parse_config(once)))
        assert once == twice

    @pytest.mark.parametrize("scenario", ["custom", "case_iv"])
    def test_unknown_scenario_rejected(self, scenario):
        names = "uniform, case_i, case_ii, case_iii"
        reason = f"scenario: unknown scenario '{scenario}'; expected one of {names}"
        for eta in (0.0, 0.05):
            with pytest.raises(ConfigError, match=reason):
                parse_config(f'{{"scenario": "{scenario}", "eta": {eta}}}')

    def test_scenario_config_flows_into_params(self):
        cfg = parse_config('{"scenario": "case_i", "eta": 0.05}')
        from qdfsim.cli import config_params

        base, eff = config_params(cfg)
        assert eff.omega[2] == pytest.approx(1.9)
        assert base.omega[2] == pytest.approx(2.0)

    def test_invalid_scenario_for_n2(self):
        with pytest.raises(ConfigError) as refused:
            parse_config('{"n_qubits": 2, "state": "bell-a", "scenario": "case_iii", "eta": 0.05}')
        assert refused.value.message == "scenario affects qubit 4 but model has 2 qubits"

    @pytest.mark.parametrize(
        "field, reason",
        [
            ('"primed_scale": 0', "primed_scale must be positive"),
            ('"scenario": "case_iii"', "scenario affects qubit 4 but model has 2 qubits"),
            ('"barriers": {"left": [1, 2]}', "both barriers need at least one qubit"),
        ],
        ids=["primed_scale", "case_iii_n2", "one_sided_barriers"],
    )
    def test_model_rules_refused_when_read(self, field, reason):
        # the model's rules refuse the config as it is read, before any run
        with pytest.raises(ConfigError) as refused:
            parse_config(f'{{"n_qubits": 2, "state": "bell-b", {field}}}')
        assert refused.value.message == reason


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

    @pytest.mark.parametrize(
        "output, reason",
        [
            ("missing/x.csv", "[Errno 2] No such file or directory: '{path}'"),
            ("file/x.csv", "[Errno 20] Not a directory: '{path}'"),
            (".", "[Errno 21] Is a directory: '{path}'"),
        ],
        ids=["missing/x.csv", "file/x.csv", "."],
    )
    def test_simulate_unwritable_output_exit_two(self, tmp_path, monkeypatch, output, reason):
        # a missing directory, a file in its place, or a directory in place of
        # the file is refused before the run, in the line that baseline --out
        # prints for the same path after its run
        from qdfsim import cli

        runs = []
        monkeypatch.setattr(cli, "run_single_csv", lambda *a: runs.append(a) or "t,F\n")
        (tmp_path / "file").write_text("")
        path = tmp_path / output
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({**json.loads(TINY_N2), "output": str(path)}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2, result.output
        assert runs == []
        line = f"Error: cannot write output: {reason.format(path=path)}"
        assert result.output.splitlines() == [line]
        base = CliRunner().invoke(main, _BASELINE + ["--out", str(path)])
        assert (base.exit_code, base.output) == (2, result.output)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.json"]

    def test_config_error_exit_code_two(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text('{"no_such_field": 1}')
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert result.output.splitlines() == ["Error: unknown config field 'no_such_field'"]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"dt": NaN}', "config: non-finite number NaN is not allowed"),
            ('{"omega": Infinity}', "config: non-finite number Infinity is not allowed"),
            ('{"scenario": "custom", "eta": 0.05}', "scenario: unknown scenario 'custom'; {names}"),
            ('{"scenario": "custom"}', "scenario: unknown scenario 'custom'; {names}"),
            (
                '{"t_end": 0.5, "dt": 1.0}',
                "t_end/dt/sample_interval: dt=1.0 must divide the sample interval 0.1",
            ),
            (
                '{"n_qubits": 2, "state": "bell-b", "t_end": 1.0, "sample_interval": 0.3}',
                "t_end/dt/sample_interval: sample_interval=0.3 must divide t_end=1.0",
            ),
        ],
        ids=["nan", "inf", "custom_eta", "custom_scenario", "dt_over_interval", "interval_over_t_end"],
    )
    def test_bad_config_values_exit_two(self, tmp_path, text, reason):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        names = "expected one of uniform, case_i, case_ii, case_iii"
        assert result.output.splitlines() == ["Error: " + reason.format(names=names)]

    @pytest.mark.parametrize(
        "text, reason",
        [
            # F = 80611.9 and pop_b = -3.6e6 at t = 1 without the gate
            (
                '{"t_end": 1, "dt": 0.5, "sample_interval": 0.5, "zeta": 0.9, "primed_scale": 50}',
                "dt=0.5 is unstable for this run: pop_b=-195.013 at t=0.5",
            ),
            # trace error 5e-9 at t = 4 and F(t) failed its unit-trace check later
            # without the gate, which names the earlier population breach
            (
                '{"dt": 0.25, "sample_interval": 0.5, "t_end": 10}',
                "dt=0.25 is unstable for this run: pop_b=-0.462867 at t=3.5",
            ),
            # overflows to a non-finite state in the first step; omega^2 is
            # past the float range, the frame frequency is not
            (
                '{"n_qubits": 2, "state": "bell-b", "t_end": 1, "dt": 0.5, '
                '"sample_interval": 0.5, "omega": 1e200}',
                "dt=0.5 is unstable for this run: integration produced a non-finite value at "
                "step 1; largest finite entry 9.138e+197",
            ),
            # F = -0.0120 at t = 14 with trace error <= 2.9e-15 and populations in
            # [0, 1]; the same run at dt = 1e-3 reads F = +0.0527 there
            (
                '{"n_qubits": 2, "state": "custom:0.894925+0.300631j,-0.286859-0.614735j,'
                '-2.185117-1.296952j,0.600050-1.340785j", "omega": 1.5596642530654687, '
                '"epsilon": [0.08254590541219775, -0.973298131793864], '
                '"j_coupling": [-0.4299874535720134], "zeta": 0.0752335844163212, '
                '"primed_scale": 2.0468312344361657, "t_end": 20.0, "dt": 0.25, '
                '"sample_interval": 1.0}',
                "dt=0.25 is unstable for this run: F=-0.0120027 at t=14",
            ),
        ],
        ids=["populations", "trace", "overflow", "negative_fidelity"],
    )
    def test_unstable_dt_exit_two(self, tmp_path, text, reason):
        cfg_file = tmp_path / "unstable.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"Error: {reason}"]

    def test_frame_frequency_past_float_range(self, tmp_path):
        # omega^2 overflows, but the frame frequency does not: at dt * omega =
        # 1e-3 the run is stable and bell-c, which the detector leaves alone,
        # keeps F = 1
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(
            '{"n_qubits": 2, "state": "bell-c", "omega": 1e200, "t_end": 4e-200, '
            '"dt": 1e-203, "sample_interval": 1e-200}'
        )
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 0, result.output
        f = np.array([float(row.split(",")[1]) for row in result.output.splitlines()[1:]])
        assert len(f) == 5 and np.abs(f - 1.0).max() <= 1e-9

    def test_krylov_route_past_float_range(self, tmp_path):
        # the same frame at N = 4, which takes the Krylov route: |L_r v| passes
        # 1e154, where (L_r v)^2 overflows, and F follows the exact exponential
        text = (
            '{"n_qubits": 4, "state": "psi2", "omega": 1e200, '
            '"epsilon": [3e199, -2e199, 1e199, 5e198], "t_end": 4e-200, "dt": 1e-203, '
            '"sample_interval": 1e-200}'
        )
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 0, result.output
        rows = np.array([row.split(",")[:2] for row in result.output.splitlines()[1:]], float)
        _, params = config_params(parse_config(text))
        amps = state_by_name("psi2", 4)
        v0 = to_density(amps).flatten(SECTORS_REDUCED)
        g = reduced_generator(params)
        exact = np.array([evolve_expm(g, v0, t) for t in rows[:, 0]])
        f = fidelity_series(rows[:, 0], exact, amps, rotation_frequencies(params))
        assert len(rows) == 5 and np.abs(rows[:, 1] - f).max() <= 1e-9

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
            (
                ["--t-end", "1e300", "--sample-interval", "1e-10"],
                "the grid holds inf samples, more than 100,000",
            ),
        ],
        ids=[
            "huge_t_end",
            "zero_interval",
            "non_dividing",
            "negative_t_end",
            "infinite_t_end",
            "count_past_float_range",
        ],
    )
    def test_baseline_grid_exit_two(self, args, reason):
        result = CliRunner().invoke(main, ["baseline", "--state", "bell-b", "--gamma-d", "0.3", *args])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [f"Error: --t-end/--sample-interval: {reason}"]

    @pytest.mark.parametrize("gamma", ["nan", "inf"])  # -1: the REFUSALS row baseline_fidelity
    def test_baseline_rate_exit_two(self, gamma):
        result = CliRunner().invoke(main, ["baseline", "--state", "bell-b", "--gamma-d", gamma])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"Error: dephasing rate must be finite and non-negative, got {gamma}"
        ]

    def test_baseline_custom_state_sets_n_qubits(self):
        from qdfsim.states import state_by_name

        spec = "custom:" + ",".join(repr(float(a.real)) for a in state_by_name("psi1", 4))
        args = ["--gamma-d", "0.3", "--t-end", "2.0"]
        custom = CliRunner().invoke(main, ["baseline", "--state", spec, *args])
        named = CliRunner().invoke(main, ["baseline", "--state", "psi1", *args])
        assert custom.exit_code == 0, custom.output
        assert custom.output == named.output

    @pytest.mark.parametrize("amps", ["1", "1,0,0", "1,0,0,0,0,0"])
    def test_baseline_custom_amplitude_count_exit_two(self, amps):
        args = ["baseline", "--state", f"custom:{amps}", "--gamma-d", "0.3"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        count = len(amps.split(","))
        assert result.output.strip().splitlines() == [
            f"Error: custom state needs 2^N amplitudes with N >= 1, got {count}"
        ]

    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                '{"t_end": 1e300, "sample_interval": 1e-10, "dt": 1e-10}',
                "the grid holds inf samples, more than 100,000",
            ),
            (
                '{"t_end": 1e300, "sample_interval": 1e300, "dt": 1e-10}',
                "sample_interval=1e+300 over dt=1e-10 is past the float range",
            ),
        ],
        ids=["count", "steps"],
    )
    def test_simulate_grid_past_float_range_exit_two(self, tmp_path, text, reason):
        cfg_file = tmp_path / "grid.json"
        cfg_file.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2
        assert result.output.strip().splitlines() == [f"Error: t_end/dt/sample_interval: {reason}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "amps, reason",
        [
            ("1e308,1e308,1e308,1e308", "custom state has a norm past the float range"),
            ("inf,0,0,0", "custom state has a non-finite amplitude 'inf'"),
            ("nan,1,0,0", "custom state has a non-finite amplitude 'nan'"),
        ],
        ids=["norm_overflow", "inf", "nan"],
    )
    def test_non_finite_custom_state_exit_two(self, tmp_path, amps, reason):
        # normalizing these would give zeros or nans; both commands refuse the state
        state = f"custom:{amps}"
        base = CliRunner().invoke(
            main, ["baseline", "--state", state, "--gamma-d", "0.3", "--t-end", "0.2"]
        )
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_qubits": 2, "state": state, "t_end": 0.2}))
        sim = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert (base.exit_code, sim.exit_code) == (2, 2)
        assert base.output.strip().splitlines() == [f"Error: {reason}"]
        assert sim.output.strip().splitlines() == [f"Error: state: {reason}"]

    @pytest.mark.parametrize("state", ["customX:1,0,0,1", "custom1,0,0,1", "custom"])
    def test_custom_needs_the_exact_prefix_exit_two(self, tmp_path, state):
        args = ["baseline", "--state", state, "--gamma-d", "0.3", "--t-end", "0.2"]
        base = CliRunner().invoke(main, args)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_qubits": 2, "state": state, "t_end": 0.2}))
        sim = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert (base.exit_code, sim.exit_code) == (2, 2)
        assert base.output.strip().splitlines() == [f"Error: unknown state {state!r}"]
        assert sim.output.strip().splitlines() == [f"Error: state: unknown state {state!r}"]

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

    def test_runs_and_reduced_dumps_build_only_the_reduced_generator(
        self, tmp_path, monkeypatch
    ):
        # the reduced generator is written straight from the channels: no
        # four-sector build and no P L E projection
        from qdfsim import cli

        def never(g):
            raise AssertionError("reduce_spin_symmetric called")

        layouts = []
        build = cli.assemble

        def recording(params, sectors=SECTORS_FULL):
            layouts.append(sectors)
            return build(params, sectors)

        monkeypatch.setattr(cli, "reduce_spin_symmetric", never)
        monkeypatch.setattr(cli, "assemble", recording)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-b", "t_end": 0.2}')
        for command in ("simulate", "dump-generator"):
            result = CliRunner().invoke(main, [command, "--config", str(cfg_file)])
            assert result.exit_code == 0, result.output
        assert layouts == [SECTORS_REDUCED, SECTORS_REDUCED]

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

    @pytest.mark.parametrize("command", ["simulate", "dump-generator"])
    @pytest.mark.parametrize(
        "field",
        ['"epsilon": [1e308, 0]', '"j_coupling": [1e308]', '"primed_scale": 1e308'],
        ids=["epsilon", "j_coupling", "primed_scale"],
    )
    def test_overflowing_energies_exit_two(self, tmp_path, command, field):
        # energy differences past the float range make -i(H x I - I x H)
        # non-finite off the trace rows, and rates past it leave inf entries;
        # either generator is refused without a RuntimeWarning
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"n_qubits": 2, "state": "bell-b", ' + field + "}")
        result = CliRunner().invoke(main, [command, "--config", str(cfg_file)])
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines() == ["Error: generator has a non-finite entry"]

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

    def test_generator_bound_refuses_default_grid(self, tmp_path, monkeypatch):
        # an N = 10 run on the default grid of 501 samples is refused by the
        # generator bound before the parameters, states or generator are built
        from qdfsim import cli

        def never(*args, **kwargs):
            raise AssertionError("built a run the generator bound refuses")

        monkeypatch.setattr(cli, "config_params", never)
        monkeypatch.setattr(cli, "reduced_generator", never)
        state = "custom:" + ",".join(["1"] * 2**10)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_qubits": 10, "state": state}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines() == [
            "Error: n_qubits: at most 8 qubits fit the 2 GiB generator build, got 10"
        ]

    def test_long_grid_admitted_at_six_qubits(self, tmp_path, monkeypatch):
        # 100,000 samples at N = 6 would have kept 18.3 GiB of states; the run
        # now holds one block of them, so it reaches the integration
        from qdfsim import cli

        class Reached(Exception):
            pass

        def integrate(g, *args):
            raise Reached(g.dim, args[1:4])

        monkeypatch.setattr(cli, "evolve_rk4", integrate)
        state = "custom:" + ",".join(["1"] * 2**6)
        grid = {"t_end": 9999.9, "sample_interval": 0.1, "dt": 0.05}
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_qubits": 6, "state": state, **grid}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert isinstance(result.exception, Reached), result.output
        assert result.exception.args == (3 * 4**6, (9999.9, 0.05, 0.1))

    @pytest.mark.parametrize("command", ["simulate", "dump-generator"])
    def test_generator_bound_exit_two(self, tmp_path, monkeypatch, command):
        # two samples keep 100 MB of trajectory, but the N = 10 generator
        # (96.5M entries, about 11.5 GiB to build) is refused before the
        # parameters or generator are built
        from qdfsim import cli

        def never(*args, **kwargs):
            raise AssertionError("built a generator the size bound refuses")

        monkeypatch.setattr(cli, "config_params", never)
        monkeypatch.setattr(cli, "assemble", never)
        state = "custom:" + ",".join(["1"] * 2**10)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(
            json.dumps({"n_qubits": 10, "state": state, "t_end": 0.1, "sample_interval": 0.1})
        )
        result = CliRunner().invoke(main, [command, "--config", str(cfg_file)])
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines() == [
            "Error: n_qubits: at most 8 qubits fit the 2 GiB generator build, got 10"
        ]

    def test_generator_bound_admits_eight_qubits(self):
        from qdfsim.cli import _check_generator_size

        for n in range(2, 9):
            _check_generator_size(n)
        for n in (9, 10, 10**6):
            with pytest.raises(ConfigError) as refused:
                _check_generator_size(n)
            assert refused.value.message == (
                f"n_qubits: at most 8 qubits fit the 2 GiB generator build, got {n}"
            )

    def test_verify_passes_on_fresh_checkout(self):
        result = CliRunner().invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "all" in result.output and "passed" in result.output
        assert "PASS real_form_n4" in result.output
        assert "PASS krylov_route_n4" in result.output
        assert "PASS krylov_route_n5" in result.output
        # the direct reduced build equals P L E of the full one bit for bit
        assert "PASS spin_reduction_n4: measured=0.000e+00 tolerance=1.0e-12" in result.output
        # the verify checks keep the absolute 1e-12 bound and their values
        for name, value in (("full_n2", "4.441e-16"), ("reduced_n2", "4.441e-16"),
                            ("full_n4", "2.220e-16"), ("reduced_n4", "2.220e-16")):
            line = f"PASS trace_identity_{name}: measured={value} tolerance=1.0e-12"
            assert line in result.output.splitlines()

    def test_verify_certifies_the_routed_path(self, monkeypatch):
        # a Krylov route that is off by 1e-10 where evolve_rk4 looks it up
        # fails both route checks and nothing else
        from qdfsim import integrator

        krylov = integrator._evolve_krylov

        def off(g, v0, n_intervals, steps_per_sample, dt, sink):
            scaled = lambda times, block: sink(times, block * (1 + 1e-10))  # noqa: E731
            krylov(g, v0, n_intervals, steps_per_sample, dt, scaled)

        monkeypatch.setattr(integrator, "_evolve_krylov", off)
        result = CliRunner().invoke(main, ["verify"])
        assert result.exit_code == 1, result.output
        lines = result.stdout.splitlines()
        assert len(lines) == 15
        failed = [line.split(":")[0] for line in lines if not line.startswith("PASS ")]
        assert failed == ["FAIL krylov_route_n4", "FAIL krylov_route_n5"]
        assert result.stderr == "2 of 15 checks failed\n"


_N2 = '{"n_qubits": 2, "state": "bell-b", '
_BASELINE = ["baseline", "--state", "bell-b", "--gamma-d", "0.3"]

# One row for each place where cli turns an expected error into exit 2, one
# for each model rule that refuses a config as it is read, and one for each
# config or output path that cannot be read or written: the
# arguments, the bytes of the config file at {cfg} (a file in the test's
# directory {tmp}) and the one line printed.
REFUSALS = {
    "json": (
        ["simulate", "--config", "{cfg}"],
        b"{bad",
        "config is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "config_read": (
        ["simulate", "--config", "{cfg}"],
        b'{"state": "\xff"}',
        "cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte",
    ),
    "dump_config_read": (
        ["dump-generator", "--config", "{cfg}"],
        b'{"state": "\xff"}',
        "cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte",
    ),
    "run_grid": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"t_end": 1, "sample_interval": 0.3}').encode(),
        "t_end/dt/sample_interval: sample_interval=0.3 must divide t_end=1.0",
    ),
    "config_params": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"barriers": {"left": [1, 2]}}').encode(),
        "both barriers need at least one qubit",
    ),
    "n_qubits": (
        ["simulate", "--config", "{cfg}"],
        b'{"n_qubits": 1, "state": "psi1"}',
        "n_qubits: must be >= 2",
    ),
    "epsilon_length": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"epsilon": [0.1]}').encode(),
        "epsilon: expected length 2, got 1",
    ),
    "j_coupling_length": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"j_coupling": [0.1, 0.2]}').encode(),
        "j_coupling: expected length 1, got 2",
    ),
    "eta_range": (
        ["simulate", "--config", "{cfg}"],
        b'{"scenario": "case_i", "eta": 1.2}',
        "eta: must lie in [0, 1), got 1.2",
    ),
    "scenario_name": (
        ["simulate", "--config", "{cfg}"],
        b'{"scenario": "case_iv"}',
        "scenario: unknown scenario 'case_iv'; expected one of uniform, case_i, case_ii, case_iii",
    ),
    "primed_scale": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"primed_scale": 0}').encode(),
        "primed_scale must be positive",
    ),
    "zeta_above": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"zeta": 1.5}').encode(),
        "zeta: must lie in [0, 1), got 1.5",
    ),
    "zeta_below": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"zeta": -0.1}').encode(),
        "zeta: must lie in [0, 1), got -0.1",
    ),
    "state": (
        ["simulate", "--config", "{cfg}"],
        b'{"n_qubits": 2, "state": "psi1"}',
        "state: state 'psi1' requires n_qubits=4, got 2",
    ),
    "run_generator": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"primed_scale": 1e308}').encode(),
        "generator has a non-finite entry",
    ),
    "dump_generator": (
        ["dump-generator", "--config", "{cfg}"],
        (_N2 + '"primed_scale": 1e308}').encode(),
        "generator has a non-finite entry",
    ),
    "rk4_overflow": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"t_end": 1, "dt": 0.5, "sample_interval": 0.5, "omega": 1e150}').encode(),
        "dt=0.5 is unstable for this run: integration produced a non-finite value at step 1; "
        "largest finite entry 2.092e+298",
    ),
    # every entry of the sample has overflowed, so none can be quoted
    "rk4_overflow_everywhere": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"epsilon": [1e150, 0], "t_end": 0.2}').encode(),
        "dt=0.001 is unstable for this run: integration produced a non-finite value at "
        "step 100; no entry is finite",
    ),
    "emit_output": (
        _BASELINE + ["--out", "{tmp}/missing/x.csv"],
        b"",
        "cannot write output: [Errno 2] No such file or directory: '{tmp}/missing/x.csv'",
    ),
    # the run completes, then the write refuses the path; argv cannot hold a NUL
    "output_nul": (
        ["simulate", "--config", "{cfg}"],
        (_N2 + '"t_end": 0.2, "sample_interval": 0.1, "output": "a\\u0000b"}').encode(),
        "cannot write output: embedded null byte",
    ),
    "figure_output": (
        ["figure", "fig2", "--out", "{cfg}/sub"],
        b"",
        "cannot write output: [Errno 20] Not a directory: '{cfg}/sub'",
    ),
    "config_missing": (
        ["simulate", "--config", "{tmp}/missing.json"],
        b"",
        "cannot read config {tmp}/missing.json: [Errno 2] No such file or directory: "
        "'{tmp}/missing.json'",
    ),
    "config_directory": (
        ["simulate", "--config", "{tmp}"],
        b"",
        "cannot read config {tmp}: [Errno 21] Is a directory: '{tmp}'",
    ),
    "dump_config_directory": (
        ["dump-generator", "--config", "{tmp}"],
        b"",
        "cannot read config {tmp}: [Errno 21] Is a directory: '{tmp}'",
    ),
    "figure_output_file": (
        ["figure", "fig2", "--out", "{cfg}"],
        b"",
        "cannot write output: [Errno 17] File exists: '{cfg}'",
    ),
    "baseline_output_directory": (
        _BASELINE + ["--out", "{tmp}"],
        b"",
        "cannot write output: [Errno 21] Is a directory: '{tmp}'",
    ),
    "baseline_grid": (
        _BASELINE + ["--t-end", "1", "--sample-interval", "0.3"],
        b"",
        "--t-end/--sample-interval: sample_interval=0.3 must divide t_end=1.0",
    ),
    "baseline_state": (
        ["baseline", "--state", "psi9", "--gamma-d", "0.3"],
        b"",
        "unknown state 'psi9'",
    ),
    "baseline_fidelity": (
        ["baseline", "--state", "bell-b", "--gamma-d", "-1"],
        b"",
        "dephasing rate must be finite and non-negative, got -1.0",
    ),
}


@pytest.mark.parametrize("args, config, line", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_lines(tmp_path, args, config, line):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(config)
    result = CliRunner().invoke(main, [a.format(cfg=cfg, tmp=tmp_path) for a in args])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["Error: " + line.format(cfg=cfg, tmp=tmp_path)]


class TestFigures:
    def test_figure_command_rejects_unknown_name(self, tmp_path):
        result = CliRunner().invoke(main, ["figure", "fig9", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: Invalid value for '{fig2|fig3a|fig3b|fig4a|fig4b}': 'fig9' is not one of "
            "'fig2', 'fig3a', 'fig3b', 'fig4a', 'fig4b'."
        )

    def test_figure_command_writes_csv_and_plot_script(self, tmp_path):
        result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        csv_path = tmp_path / "fig2.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.count(",") == 8  # t plus four states x two zetas
        script = (tmp_path / "fig2_plot.py").read_text()
        assert "fig2.csv" in script and "matplotlib" in script

    @pytest.mark.parametrize("taken", ["fig2.csv", "fig2_plot.py"])
    def test_figure_output_directory_exit_two(self, tmp_path, monkeypatch, taken):
        # a directory in place of an output file is refused before any series runs
        from qdfsim import cli

        runs = []
        monkeypatch.setattr(cli, "run_states", lambda *a: runs.append(a))
        (tmp_path / taken).mkdir()
        result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert runs == []
        assert result.output.splitlines() == [
            f"Error: cannot write output: [Errno 21] Is a directory: '{tmp_path / taken}'"
        ]

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


@pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig4a", "fig4b"])
def test_short_horizon_figure_bytes(name):
    # CSV text of each figure at t_end 1.0, checked in; a change that moves
    # these bytes on purpose regenerates the files and states its largest |dF|
    from qdfsim.cli import run_eta_figure, run_time_figure

    run = run_eta_figure if name.startswith("fig4") else run_time_figure
    golden = Path(__file__).parent / "data" / f"{name}_t1.csv"
    assert run(name, t_end=1.0) == golden.read_text()


@pytest.mark.parametrize("name", ["custom_n5_t1", "custom_n6_t1"])
def test_krylov_run_bytes(name):
    # a seeded N = 5 or 6 run of complex amplitudes with bias and coupling
    # takes the Krylov route; its simulate CSV is checked in beside its config
    data = Path(__file__).parent / "data"
    result = CliRunner().invoke(main, ["simulate", "--config", str(data / f"{name}.json")])
    assert result.exit_code == 0, result.output
    assert result.output == (data / f"{name}.csv").read_text()


class TestGroupPool:
    """A figure evolves its generator groups in forked worker processes; the
    bytes, the refusals and the process table are those of one process."""

    @staticmethod
    def _workers(monkeypatch, n: int) -> None:
        from qdfsim import cli

        monkeypatch.setattr(cli, "_max_workers", lambda: n)

    @pytest.mark.parametrize("name", ["fig2", "fig3a", "fig3b", "fig4a", "fig4b"])
    def test_pool_bytes_match_one_process(self, monkeypatch, name):
        # two workers are forced, so a one-core host still runs the pool
        from qdfsim.cli import run_eta_figure, run_time_figure

        run = run_eta_figure if name.startswith("fig4") else run_time_figure
        self._workers(monkeypatch, 2)
        pooled = run(name, t_end=1.0)
        self._workers(monkeypatch, 1)
        assert pooled == run(name, t_end=1.0)

    def test_worker_error_and_cleanup(self, monkeypatch, tmp_path):
        import multiprocessing

        from qdfsim import cli

        self._workers(monkeypatch, 2)
        path = cli.write_figure("fig3b", tmp_path)
        assert path.is_file() and multiprocessing.active_children() == []
        series = {
            "psi1": ("psi1", (4, 0.2, "uniform", 0.0)),
            "nope": ("no-such-state", (2, 0.2, "uniform", 0.0)),
        }
        messages = []
        for workers in (2, 1):
            self._workers(monkeypatch, workers)
            with pytest.raises(ConfigError) as exc:
                cli._run_grouped(series, 0.1, 0.1)
            assert type(exc.value) is ConfigError and exc.value.exit_code == 2
            assert multiprocessing.active_children() == []
            messages.append(exc.value.message)
        assert messages[0] == messages[1]
        assert messages[0].startswith("state: ")

    @pytest.mark.parametrize("forks", [0, 1], ids=["no_worker", "one_worker"])
    def test_pool_that_cannot_start_runs_in_process(self, monkeypatch, tmp_path, forks):
        # fork fails at once, or after one worker has started: the figure is
        # written from this process, with its bytes, and no worker is left
        import multiprocessing

        from qdfsim import cli

        self._workers(monkeypatch, 1)
        one = cli.write_figure("fig2", tmp_path / "one").parent
        fork = os.fork
        calls = []

        def failing_fork():
            calls.append(None)
            if len(calls) > forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        self._workers(monkeypatch, 2)
        result = CliRunner().invoke(main, ["figure", "fig2", "--out", str(tmp_path / "pool")])
        left = multiprocessing.active_children()
        for worker in left:  # a worker left waiting would hang the test run at exit
            worker.terminate()
        assert result.exit_code == 0, result.output
        assert len(calls) == forks + 1 and left == []
        for name in ("fig2.csv", "fig2_plot.py"):
            assert (tmp_path / "pool" / name).read_bytes() == (one / name).read_bytes()


def _cli_import_loads(module: str) -> bool:
    """Whether ``import qdfsim.cli`` in a fresh interpreter loads ``module``."""
    import qdfsim

    env = {**os.environ, "PYTHONPATH": str(Path(qdfsim.__file__).parents[1])}
    code = f"import sys, qdfsim.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_out_scipy_linalg():
    # only the evolve_expm oracle needs scipy.linalg; no run pays for its import
    assert not _cli_import_loads("scipy.linalg")


def test_cli_import_leaves_out_multiprocessing():
    # only a figure's worker pool needs multiprocessing; importing the CLI
    # does not pay for it
    assert not _cli_import_loads("multiprocessing")


class TestSampleBlocks:
    """A run reduces its samples block by block as the integration writes
    them; where the blocks fall changes no output byte and no refusal."""

    @staticmethod
    def _blocks_of(monkeypatch, samples: int, dim: int, states: int = 1) -> None:
        from qdfsim import integrator

        monkeypatch.setattr(integrator, "_BLOCK_BYTES", samples * 16 * dim * states)

    @pytest.mark.parametrize("samples", [1, 4])
    def test_outputs_do_not_depend_on_blocks(self, monkeypatch, samples):
        from qdfsim import analysis, cli

        cfg = parse_config(
            '{"n_qubits": 2, "state": "bell-b", "zeta": 0.6, "t_end": 2.0, "sample_interval": 0.1}'
        )
        one_block = run_single_csv(cfg), cli.run_time_figure("fig3b", t_end=1.0)
        lengths = []
        fidelity_series = analysis.fidelity_series

        def spy(times, *args):
            lengths.append(len(times))
            return fidelity_series(times, *args)

        monkeypatch.setattr(analysis, "fidelity_series", spy)
        self._blocks_of(monkeypatch, samples, dim=48)  # 21 samples of one N = 2 state
        assert run_single_csv(cfg) == one_block[0]
        assert max(lengths) == samples and sum(lengths) == 21
        lengths.clear()
        self._blocks_of(monkeypatch, samples, dim=768, states=3)  # 11 samples of each case's DF states
        # forked workers inherit the block size, but the spy only sees calls
        # made in this process: the pool's bytes are compared, then one
        # process counts the block lengths
        monkeypatch.setattr(cli, "_max_workers", lambda: 2)
        assert cli.run_time_figure("fig3b", t_end=1.0) == one_block[1]
        assert lengths == []
        monkeypatch.setattr(cli, "_max_workers", lambda: 1)
        assert cli.run_time_figure("fig3b", t_end=1.0) == one_block[1]
        assert max(lengths) == samples and sum(lengths) == 9 * 11

    @pytest.mark.parametrize(
        "samples, t_end",
        [(3, 10), (1, 10), (3, 100), (1, 100)],
        ids=[
            "three_sample_blocks",
            "one_sample_blocks",
            "three_sample_blocks_t_end100",
            "one_sample_blocks_t_end100",
        ],
    )
    def test_unstable_run_stops_in_a_later_block(self, tmp_path, monkeypatch, samples, t_end):
        # pop_b leaves [0, 1] at sample 7 (t = 3.5), before the trace error
        # does; the gate names that sample whether it comes in the one block
        # of the whole run, in the block of samples 6-8 or in a block of its
        # own.  At t_end 100 the state overflows at step 358, inside the one
        # block of the whole run: the samples before it reach the gate first.
        cfg_file = tmp_path / "unstable.json"
        cfg_file.write_text(json.dumps({"dt": 0.25, "sample_interval": 0.5, "t_end": t_end}))
        breach = ["Error: dt=0.25 is unstable for this run: pop_b=-0.462867 at t=3.5"]
        one_block = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert one_block.output.strip().splitlines() == breach
        self._blocks_of(monkeypatch, samples, dim=768)
        result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_file)])
        assert result.exit_code == one_block.exit_code == 2
        assert result.output.strip().splitlines() == breach


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


@st.composite
def _valid_configs(draw) -> RunConfig:
    """A run configuration of the right types, in the config's own ranges and
    on a dividing grid, with every field drawn; the model may still refuse it
    (a non-positive primed_scale, or a case whose qubits N lacks)."""
    n = draw(st.integers(2, 4))
    numbers = st.floats(-1e6, 1e6)
    scenario = draw(st.sampled_from(sorted(CASE_AFFECTED)))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05]))
    interval = dt * draw(st.integers(1, 10))
    qubits = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(1, n - 1))
    return RunConfig(
        n_qubits=n,
        state=draw(st.one_of(st.sampled_from(["psi1", "bell-b", "custom:1,0,0,1"]), st.text())),
        omega=draw(numbers),
        epsilon=draw(st.one_of(st.none(), st.lists(numbers, min_size=n, max_size=n))),
        j_coupling=draw(st.one_of(st.none(), st.lists(numbers, min_size=n - 1, max_size=n - 1))),
        zeta=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eta=draw(st.floats(0.0, 1.0, exclude_max=True)) if CASE_AFFECTED[scenario] else 0.0,
        scenario=scenario,
        primed_scale=draw(numbers),
        t_end=interval * draw(st.integers(0, 100)),
        dt=dt,
        sample_interval=interval,
        barriers=draw(st.sampled_from([None, {"left": qubits[:cut], "right": qubits[cut:]}])),
        output=draw(st.one_of(st.none(), st.text())),
    )


def _wrong_types(field: str, n: int) -> list[tuple[object, str]]:
    """JSON values of the wrong type for one field, each with the path its error names."""
    if field == "n_qubits":
        return [(v, field) for v in ("4", 4.0, True, None, [4])]
    if field in ("state", "scenario", "output"):
        return [(v, field) for v in (1, 0.5, False, ["psi1"], {})] + (
            [] if field == "output" else [(None, field)]
        )
    if field in ("omega", "zeta", "eta", "primed_scale", "t_end", "dt", "sample_interval"):
        return [(v, field) for v in ("0.1", True, None, [0.1], {})]
    if field in ("epsilon", "j_coupling"):
        k = n if field == "epsilon" else n - 1
        scalars = [(v, field) for v in (0.1, "0.1", True, {})]
        return scalars + [
            ([0.0] * i + [bad] + [0.0] * (k - i - 1), f"{field}[{i}]")
            for i in range(k)
            for bad in ("x", True, None, [0.1])
        ]
    if field == "barriers":
        return [(v, field) for v in (1, "left", True, [[1], [2]])] + [
            ({"left": [1], "right": [2], "top": []}, "barriers.top"),
            ({"left": 1, "right": [2]}, "barriers.left"),
            ({"left": ["a"], "right": [2]}, "barriers.left[0]"),
            ({"right": [0.5]}, "barriers.right[0]"),
            ({"left": [1], "right": [True]}, "barriers.right[0]"),
        ]
    raise AssertionError(f"no wrong-type values for config field {field!r}")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cfg=_valid_configs())
def test_config_schema_round_trip(cfg):
    """A config the model accepts round-trips; one it refuses is refused as
    it is read, with the model's message."""
    from qdfsim.cli import config_params

    text = json.dumps(dataclasses.asdict(cfg))
    try:
        config_params(cfg)
    except ConfigError as model_refused:
        with pytest.raises(ConfigError) as refused:
            parse_config(text)
        assert refused.value.message == model_refused.message
    else:
        assert parse_config(text) == cfg


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(cfg=_valid_configs(), data=st.data())
def test_config_wrong_type_names_field_path(field, cfg, data):
    """Every field refuses a value of the wrong JSON type, naming its path first."""
    raw = dataclasses.asdict(cfg)
    raw[field], path = data.draw(st.sampled_from(_wrong_types(field, cfg.n_qubits)))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(raw))
    assert str(excinfo.value).startswith(f"{path}: expected")
