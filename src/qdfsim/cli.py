"""Experiment runner: single simulations, figure-style comparisons, eta
sweeps, the analytic baseline, and the self-verification suite.

Output is plain CSV with fixed 12-significant-digit formatting, so identical
configurations produce byte-identical files.  Figure commands also emit a
small matplotlib companion script that reads the CSV by relative path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import analysis, baseline, states
from .integrator import (
    DEFAULT_DT,
    REAL_FORM_TOL,
    _MAX_TRAJECTORY_BYTES,
    _evolve_krylov,
    _evolve_stepwise,
    _sample_grid,
    evolve_expm,
    evolve_rk4,
    real_form,
)
from .liouvillian import (
    SECTORS_REDUCED,
    Generator,
    assemble,
    reduce_spin_symmetric,
    trace_violation,
)
from .model import CASE_AFFECTED, ModelParams, apply_scenario

ETA_GRID = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
FIGURES = ("fig2", "fig3a", "fig3b", "fig4a", "fig4b")


def fmt(x: float) -> str:
    return f"{x:.12g}"


class ConfigError(click.ClickException):
    exit_code = 2


@dataclass
class RunConfig:
    """One simulation run; field defaults reproduce the figure settings."""

    n_qubits: int = 4
    state: str = "psi2"
    omega: float = 2.0
    epsilon: list[float] | None = None
    j_coupling: list[float] | None = None
    zeta: float = 0.2
    eta: float = 0.0
    scenario: str = "uniform"
    primed_scale: float = 1.0
    t_end: float = 50.0
    dt: float = DEFAULT_DT
    sample_interval: float = 0.1
    barriers: dict[str, list[int]] | None = None
    output: str | None = None


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _expect(value, kinds, path: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ConfigError(f"{path}: expected {names}, got {value!r}")
    return value


def _reject_constant(name: str) -> float:
    raise ConfigError(f"config: non-finite number {name} is not allowed")


def _finite(text: str) -> str:
    """A JSON number literal that a float can hold, else a ConfigError."""
    if not math.isfinite(float(text)):
        shown = text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"
        raise ConfigError(f"config: number {shown} is out of range")
    return text


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration; unknown fields are errors."""
    try:
        raw = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=lambda t: float(_finite(t)),
            parse_int=lambda t: int(_finite(t)),
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = RunConfig()
    for key, value in raw.items():
        if key == "n_qubits":
            cfg.n_qubits = _expect(value, int, key)
        elif key in ("state", "scenario"):
            setattr(cfg, key, _expect(value, str, key))
        elif key in ("omega", "zeta", "eta", "primed_scale", "t_end", "dt", "sample_interval"):
            setattr(cfg, key, float(_expect(value, (int, float), key)))
        elif key in ("epsilon", "j_coupling"):
            if value is None:
                setattr(cfg, key, None)
                continue
            _expect(value, list, key)
            setattr(
                cfg,
                key,
                [float(_expect(v, (int, float), f"{key}[{i}]")) for i, v in enumerate(value)],
            )
        elif key == "barriers":
            if value is None:
                cfg.barriers = None
                continue
            _expect(value, dict, key)
            for side in value:
                if side not in ("left", "right"):
                    raise ConfigError(f"barriers.{side}: expected keys 'left' and 'right'")
            parsed = {}
            for side in ("left", "right"):
                lst = _expect(value.get(side, []), list, f"barriers.{side}")
                parsed[side] = [
                    _expect(v, int, f"barriers.{side}[{i}]") for i, v in enumerate(lst)
                ]
            cfg.barriers = parsed
        elif key == "output":
            cfg.output = None if value is None else _expect(value, str, key)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    n = cfg.n_qubits
    if n < 2:
        raise ConfigError("n_qubits: must be >= 2")
    for name in ("epsilon", "j_coupling"):
        lst = getattr(cfg, name)
        want = n if name == "epsilon" else n - 1
        if lst is not None and len(lst) != want:
            raise ConfigError(f"{name}: expected length {want}, got {len(lst)}")
    if not 0.0 <= cfg.zeta < 1.0:
        raise ConfigError(f"zeta: must lie in [0, 1), got {cfg.zeta}")
    if not 0.0 <= cfg.eta < 1.0:
        raise ConfigError(f"eta: must lie in [0, 1), got {cfg.eta}")
    if cfg.scenario not in CASE_AFFECTED:
        names = ", ".join(CASE_AFFECTED)
        raise ConfigError(f"scenario: unknown scenario {cfg.scenario!r}; expected one of {names}")
    if cfg.eta > 0.0 and not CASE_AFFECTED[cfg.scenario]:
        raise ConfigError(
            f"eta: scenario {cfg.scenario!r} names no affected qubits, so eta must be 0"
        )
    try:
        _sample_grid(cfg.t_end, cfg.dt, cfg.sample_interval)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"t_end/dt/sample_interval: {exc}") from exc


def config_params(cfg: RunConfig) -> tuple[ModelParams, ModelParams]:
    """(base, scenario-applied) model parameters of a run configuration."""
    barriers = cfg.barriers or {}
    try:
        base = ModelParams.uniform(
            cfg.n_qubits,
            omega=cfg.omega,
            zeta=cfg.zeta,
            epsilon=cfg.epsilon if cfg.epsilon is not None else 0.0,
            j_coupling=cfg.j_coupling if cfg.j_coupling is not None else 0.0,
            primed_scale=cfg.primed_scale,
            left_barrier=barriers.get("left"),
            right_barrier=barriers.get("right"),
        )
        effective = apply_scenario(base, cfg.scenario, cfg.eta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return base, effective


def reduced_generator(params: ModelParams) -> Generator:
    return reduce_spin_symmetric(assemble(params))


@dataclass
class RunResult:
    times: np.ndarray
    fidelities: np.ndarray
    trace_err: np.ndarray
    populations: np.ndarray  # (n_samples, 3) sector traces a, b, c


_GATE_TOL = 1e-9


def _gate(
    cfg: RunConfig, times: np.ndarray, name: str, values: np.ndarray, lo: float, hi: float
) -> None:
    """Stop a run with a sample that is not finite or leaves [lo, hi], naming the first.

    A stable RK4 run keeps these bounds to rounding, so a breach means ``dt``
    lies outside the stability region of the generator.
    """
    bad = np.argwhere(~(np.isfinite(values) & (values >= lo) & (values <= hi)))
    if len(bad):
        idx = tuple(bad[0])
        if len(idx) == 2:
            name = f"{name}_{SECTORS_REDUCED[idx[1]]}"
        raise ConfigError(
            f"dt={cfg.dt:g} is unstable for this run: {name}={values[idx]:.6g} "
            f"at t={times[idx[0]]:g}"
        )


# Peak memory of building the run's generator (assemble, spin reduction and
# real_form) per full-generator entry, rounded up: measured 91 B at N = 8 and
# 126 B at N = 5.
_BUILD_BYTES_PER_ENTRY = 128


def _check_generator_size(n_qubits: int) -> None:
    """Refuse a generator whose build would exceed ``_MAX_TRAJECTORY_BYTES``.

    Each row of the full generator holds at most its diagonal, 2N qubit flips
    and two rate gains, so it has at most ``4 * 4^N * (2N + 3)`` entries.
    """
    try:
        entries = 4 * 4.0**n_qubits * (2 * n_qubits + 3)
    except OverflowError:
        entries = math.inf
    size = entries * _BUILD_BYTES_PER_ENTRY
    if size > _MAX_TRAJECTORY_BYTES:
        raise ConfigError(
            f"the generator at n_qubits={n_qubits} has up to {entries:.3g} entries and would "
            f"take about {size / 2**30:.3g} GiB to build, "
            f"more than {_MAX_TRAJECTORY_BYTES / 2**30:g} GiB"
        )


def run_states(
    cfg: RunConfig, state_names: list[str], baseline_frame: bool = False
) -> list[RunResult]:
    """Evolve the named states as one batch under the generator of ``cfg``.

    ``cfg.state`` is not read.  Each trajectory passes the invariant gate
    (trace error, sector populations, then F) before it is returned.  A run
    whose kept trajectory, or whose generator build, would exceed
    ``_MAX_TRAJECTORY_BYTES`` is refused before anything is built.
    """
    n_samples = _sample_grid(cfg.t_end, cfg.dt, cfg.sample_interval)[0] + 1
    try:  # complex128 samples of the reduced dim 3 * 4^N, one column per state
        size = n_samples * len(SECTORS_REDUCED) * len(state_names) * 16 * 4.0**cfg.n_qubits
    except OverflowError:
        size = math.inf
    if size > _MAX_TRAJECTORY_BYTES:
        raise ConfigError(
            f"the trajectory of {len(state_names)} state(s) at n_qubits={cfg.n_qubits} over "
            f"{n_samples} samples would hold {size / 2**30:.3g} GiB, "
            f"more than {_MAX_TRAJECTORY_BYTES / 2**30:g} GiB"
        )
    _check_generator_size(cfg.n_qubits)
    base, params = config_params(cfg)
    try:
        amp_list = [states.state_by_name(name, cfg.n_qubits) for name in state_names]
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc
    try:
        g = reduced_generator(params)
    except ValueError as exc:  # the trace check, when rates dwarf its tolerance
        raise ConfigError(str(exc)) from exc
    v0 = np.stack([states.to_density(a).flatten(SECTORS_REDUCED) for a in amp_list], axis=1)
    try:
        # an overflow surfaces as the FloatingPointError below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            traj = evolve_rk4(g, v0, cfg.t_end, cfg.dt, cfg.sample_interval)
    except FloatingPointError as exc:
        raise ConfigError(f"dt={cfg.dt:g} is unstable for this run: {exc}") from exc
    omega_prime = analysis.rotation_frequencies(base if baseline_frame else params)
    d = 2**cfg.n_qubits
    n_sectors = len(SECTORS_REDUCED)
    results = []
    for col, amps in enumerate(amp_list):
        flat = traj.states[:, :, col]
        mats = flat.reshape(len(traj.times), n_sectors, d, d)
        pops = np.einsum("tsii->ts", mats).real
        trace_err = np.abs(pops.sum(axis=1) - 1.0)
        _gate(cfg, traj.times, "trace_err", trace_err, 0.0, _GATE_TOL)
        _gate(cfg, traj.times, "pop", pops, -_GATE_TOL, 1.0 + _GATE_TOL)
        rho0 = np.outer(amps, amps.conj())
        fid = analysis.fidelity_series(traj.times, flat, rho0, omega_prime, cfg.n_qubits, n_sectors)
        _gate(cfg, traj.times, "F", fid, -np.inf, 1.0 + _GATE_TOL)
        results.append(RunResult(traj.times, fid, trace_err, pops))
    return results


def execute_run(cfg: RunConfig, baseline_frame: bool = False) -> RunResult:
    """Evolve one configured run and reduce it to the CSV observables."""
    return run_states(cfg, [cfg.state], baseline_frame)[0]


def run_single_csv(cfg: RunConfig, baseline_frame: bool = False) -> str:
    res = execute_run(cfg, baseline_frame)
    lines = ["t,F,trace_err,pop_a,pop_b,pop_c"]
    for i, t in enumerate(res.times):
        row = [t, res.fidelities[i], res.trace_err[i], *res.populations[i]]
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# figure runners


@dataclass(frozen=True)
class SeriesSpec:
    name: str
    state: str
    n_qubits: int
    zeta: float
    scenario: str
    eta: float


def _run_grouped(
    specs: list[SeriesSpec], t_end: float, dt: float, si: float
) -> dict[str, np.ndarray]:
    """F(t) of every series keyed by name; series that share a generator
    (the same n_qubits, zeta, scenario and eta) are evolved as one batch."""
    groups: dict[tuple[int, float, str, float], list[SeriesSpec]] = {}
    for spec in specs:
        groups.setdefault((spec.n_qubits, spec.zeta, spec.scenario, spec.eta), []).append(spec)
    results: dict[str, np.ndarray] = {}
    for (n_qubits, zeta, scenario, eta), members in groups.items():
        cfg = RunConfig(
            n_qubits=n_qubits,
            zeta=zeta,
            scenario=scenario,
            eta=eta,
            t_end=t_end,
            dt=dt,
            sample_interval=si,
        )
        runs = run_states(cfg, [m.state for m in members])
        results.update((m.name, run.fidelities) for m, run in zip(members, runs))
    return results


def _fig2_specs() -> list[SeriesSpec]:
    specs = []
    for state in ("psi2", "psi3", "bell-b", "bell-c"):
        n = 4 if state.startswith("psi") else 2
        for zeta in (0.2, 0.6):
            specs.append(SeriesSpec(f"{state}_zeta{zeta:g}", state, n, zeta, "uniform", 0.0))
    return specs


def _fig3_specs(eta: float, zeta: float) -> list[SeriesSpec]:
    specs = []
    for state in ("psi1", "psi2", "psi3"):
        for case in ("case_i", "case_ii", "case_iii"):
            specs.append(SeriesSpec(f"{state}_{case}", state, 4, zeta, case, eta))
    return specs


def run_time_figure(
    name: str, t_end: float = 50.0, dt: float = DEFAULT_DT, si: float = 0.1
) -> str:
    """CSV text of a time-series figure (fig2, fig3a, fig3b)."""
    if name == "fig2":
        specs = _fig2_specs()
    elif name == "fig3a":
        specs = _fig3_specs(eta=0.01, zeta=0.6)
    elif name == "fig3b":
        specs = _fig3_specs(eta=0.05, zeta=0.2)
    else:
        raise ValueError(f"unknown time figure {name!r}")
    series = _run_grouped(specs, t_end, dt, si)
    times = np.arange(int(round(t_end / si)) + 1) * si
    header = "t," + ",".join(spec.name for spec in specs)
    lines = [header]
    for i, t in enumerate(times):
        lines.append(",".join([fmt(t)] + [fmt(series[s.name][i]) for s in specs]))
    return "\n".join(lines) + "\n"


def run_eta_figure(name: str, t_end: float = 50.0, dt: float = DEFAULT_DT) -> str:
    """CSV text of an eta sweep (fig4a: case ii, fig4b: case iii) at t_end."""
    case = {"fig4a": "case_ii", "fig4b": "case_iii"}.get(name)
    if case is None:
        raise ValueError(f"unknown eta figure {name!r}")
    state_names = ("psi1", "psi2", "psi3")
    specs = [
        SeriesSpec(f"{state}_eta{eta:g}", state, 4, 0.2, case if eta > 0 else "uniform", eta)
        for eta in ETA_GRID
        for state in state_names
    ]
    series = _run_grouped(specs, t_end, dt, si=t_end)
    lines = ["eta," + ",".join(state_names)]
    for eta in ETA_GRID:
        vals = [series[f"{state}_eta{eta:g}"][-1] for state in state_names]
        lines.append(",".join([fmt(eta)] + [fmt(v) for v in vals]))
    return "\n".join(lines) + "\n"


def run_figure(name: str) -> str:
    if name in ("fig2", "fig3a", "fig3b"):
        return run_time_figure(name)
    return run_eta_figure(name)


_PLOT_TEMPLATE = """#!/usr/bin/env python3
\"\"\"Plot {csv_name} (expects the CSV next to this script).\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.reader((Path(__file__).parent / "{csv_name}").open()))
header, data = rows[0], [[float(x) for x in r] for r in rows[1:]]
xs = [r[0] for r in data]
for j, label in enumerate(header[1:], start=1):
    plt.plot(xs, [r[j] for r in data], label=label)
plt.xlabel("{xlabel}")
plt.ylabel("F")
plt.legend(fontsize=7)
plt.tight_layout()
plt.savefig(Path(__file__).parent / "{stem}.png", dpi=200)
"""


def write_figure(name: str, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(run_figure(name))
    xlabel = "eta" if name.startswith("fig4") else "t"
    (out_dir / f"{name}_plot.py").write_text(
        _PLOT_TEMPLATE.format(csv_name=csv_path.name, xlabel=xlabel, stem=name)
    )
    return csv_path


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class Check:
    name: str
    measured: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.tolerance


def _hermitian_stack(n_qubits: int, n_sectors: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    mats = rng.normal(size=(n_sectors, d, d)) + 1j * rng.normal(size=(n_sectors, d, d))
    mats = mats + mats.conj().transpose(0, 2, 1)
    return mats.reshape(-1)


def _stack_hermiticity_defect(vec: np.ndarray, n_qubits: int, n_sectors: int) -> float:
    d = 2**n_qubits
    mats = vec.reshape(n_sectors, d, d)
    return float(np.abs(mats - mats.conj().transpose(0, 2, 1)).max())


def run_verify() -> list[Check]:
    """Invariant suite run by `qdfsim verify`; every check is deterministic."""
    checks: list[Check] = []

    for n in (2, 4):
        p = ModelParams.uniform(n, zeta=0.2)
        full = assemble(p)
        red = reduce_spin_symmetric(full)
        checks.append(Check(f"trace_identity_full_n{n}", trace_violation(full), 1e-12))
        checks.append(Check(f"trace_identity_reduced_n{n}", trace_violation(red), 1e-12))

    p2 = ModelParams.uniform(2, zeta=0.2)
    g2 = reduce_spin_symmetric(assemble(p2))
    v = _hermitian_stack(2, 3)
    checks.append(
        Check("hermiticity_preservation_n2", _stack_hermiticity_defect(g2.apply(v), 2, 3), 1e-12)
    )

    amps = states.make_bell("d")
    v0 = states.to_density(amps).flatten(SECTORS_REDUCED)
    rk4_final = evolve_rk4(g2, v0, 50.0, 1e-3, 50.0).final()
    expm_final = evolve_expm(g2, v0, 50.0)
    checks.append(
        Check("oracle_equivalence_n2", float(np.abs(rk4_final - expm_final).max()), 1e-8)
    )

    p4 = ModelParams.uniform(4, zeta=0.2)
    full4 = assemble(p4)
    red4 = reduce_spin_symmetric(full4)
    amps4 = states.make_df4("psi2")
    sdm = states.to_density(amps4)
    rho0 = np.outer(amps4, amps4.conj())
    omega_prime = analysis.rotation_frequencies(p4)
    tf = evolve_rk4(full4, sdm.flatten(), 5.0, 0.01, 0.5)
    tr = evolve_rk4(red4, sdm.flatten(SECTORS_REDUCED), 5.0, 0.01, 0.5)
    f_full = analysis.fidelity_series(tf.times, tf.states, rho0, omega_prime, 4, 4)
    f_red = analysis.fidelity_series(tr.times, tr.states, rho0, omega_prime, 4, 3)
    checks.append(
        Check("reduction_equivalence_n4", float(np.abs(f_full - f_red).max()), 1e-10)
    )

    grid = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for name in ("psi1", "psi2", "psi3"):
        f = baseline.baseline_fidelity(states.make_df4(name), 0.3, grid)
        worst = max(worst, float(np.abs(f - 1.0).max()))
    for name in ("c", "d"):
        f = baseline.baseline_fidelity(states.make_bell(name), 0.3, grid)
        worst = max(worst, float(np.abs(f - 1.0).max()))
    checks.append(Check("df_baseline_certification", worst, 1e-12))
    f_b = baseline.baseline_fidelity(states.make_bell("b"), 0.3, grid)
    closed = 0.5 * (1.0 + np.exp(-8.0 * 0.3 * grid))
    checks.append(Check("bell_b_closed_form", float(np.abs(f_b - closed).max()), 1e-10))

    try:
        run = execute_run(RunConfig(state="psi2", zeta=0.6))
        trace_err = float(run.trace_err.max())
        pops = run.populations
        pop_violation = float(max(0.0, -pops.min(), pops.max() - 1.0))
    except ConfigError:  # the run's own invariant gate stopped it
        trace_err = pop_violation = math.inf
    checks.append(Check("conservation_trace_n4", trace_err, 1e-9))
    checks.append(Check("sector_population_bounds_n4", pop_violation, 1e-9))
    # premise of the real-coordinate RK4 routes: S L S^-1 is real
    checks.append(Check("real_form_n4", real_form(red4).imag_residual, REAL_FORM_TOL))

    # the route of every N >= 5 run: Krylov-projected RK4 against the plain
    # stepwise loop, over 2 samples of 100 steps
    p5 = ModelParams.uniform(
        5, zeta=0.2, epsilon=[0.3, -0.2, 0.1, -0.4, 0.25], j_coupling=[0.1, -0.2, 0.15, 0.05]
    )
    g5 = reduced_generator(p5)
    rng = np.random.default_rng(7)
    amps5 = rng.normal(size=32) + 1j * rng.normal(size=32)
    v5 = states.to_density(amps5 / np.linalg.norm(amps5)).flatten(SECTORS_REDUCED)
    krylov = _evolve_krylov(g5, v5, 2, 100, 1e-3)
    stepwise = _evolve_stepwise(g5, v5, 2, 100, 1e-3)
    checks.append(Check("krylov_route_n5", float(np.abs(krylov - stepwise).max()), 1e-12))

    return checks


# ---------------------------------------------------------------------------
# click commands


@click.group()
def main() -> None:
    """Charge-qubit robustness simulator for a two-barrier island detector."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option(
    "--baseline-frame",
    is_flag=True,
    help="Rotate with the unmodified (pre-scenario) frame frequencies.",
)
def simulate(config_path: str, baseline_frame: bool) -> None:
    """Run a single configured evolution and write its CSV time series."""
    cfg = parse_config(Path(config_path).read_text())
    csv_text = run_single_csv(cfg, baseline_frame)
    if cfg.output:
        Path(cfg.output).write_text(csv_text)
        click.echo(f"wrote {cfg.output}")
    else:
        click.echo(csv_text, nl=False)


@main.command()
@click.argument("name", type=click.Choice(FIGURES))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def figure(name: str, out_dir: str) -> None:
    """Reproduce one of the named figure datasets (CSV + plot script)."""
    path = write_figure(name, Path(out_dir))
    click.echo(f"wrote {path}")


@main.command("baseline")
@click.option("--state", "state_name", required=True)
@click.option("--gamma-d", type=float, required=True)
@click.option("--t-end", type=float, default=50.0, show_default=True)
@click.option("--sample-interval", type=float, default=0.1, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def baseline_cmd(
    state_name: str, gamma_d: float, t_end: float, sample_interval: float, out_path: str | None
) -> None:
    """Analytic collective-dephasing fidelity of a named state."""
    if state_name.startswith("custom"):
        count = len(states._amplitude_fields(state_name))
        n = count.bit_length() - 1
        if count < 2 or count != 1 << n:
            raise ConfigError(f"custom state needs 2^N amplitudes with N >= 1, got {count}")
    else:
        n = 4 if state_name.startswith("psi") else 2
    try:
        n_intervals, _ = _sample_grid(t_end, sample_interval, sample_interval)
    except ValueError as exc:
        raise ConfigError(f"--t-end/--sample-interval: {exc}") from exc
    try:
        amps = states.state_by_name(state_name, n)
        times = np.arange(n_intervals + 1) * sample_interval
        fid = baseline.baseline_fidelity(amps, gamma_d, times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["t,F"] + [f"{fmt(t)},{fmt(f)}" for t, f in zip(times, fid)]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command()
def verify() -> None:
    """Run the invariant suite; nonzero exit on any failure."""
    checks = run_verify()
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        if not c.ok:
            failed += 1
        click.echo(f"{status} {c.name}: measured={c.measured:.3e} tolerance={c.tolerance:.1e}")
    if failed:
        click.echo(f"{failed} of {len(checks)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(checks)} checks passed")


@main.command("dump-generator")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--full", "dump_full", is_flag=True, help="Dump the four-sector generator.")
def dump_generator(config_path: str, dump_full: bool) -> None:
    """Print the assembled generator entries in the debug text format."""
    cfg = parse_config(Path(config_path).read_text())
    _check_generator_size(cfg.n_qubits)
    _, params = config_params(cfg)
    try:
        g = assemble(params)
        if not dump_full:
            g = reduce_spin_symmetric(g)
    except ValueError as exc:  # the trace check, when rates dwarf its tolerance
        raise ConfigError(str(exc)) from exc
    click.echo(g.dump(), nl=False)


if __name__ == "__main__":
    main()
