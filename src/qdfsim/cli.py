"""Experiment runner: single simulations, figure-style comparisons, eta
sweeps, the analytic baseline, and the self-verification suite.

Output is plain CSV with fixed 12-significant-digit formatting, so identical
configurations produce byte-identical files.  Figure commands also emit a
small matplotlib companion script that reads the CSV by relative path.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import analysis, baseline, states
from .integrator import (
    REAL_FORM_TOL,
    Collect,
    _evolve_stepwise,
    _sample_grid,
    evolve_expm,
    evolve_rk4,
    real_form,
)
from .liouvillian import (
    SECTORS_FULL,
    SECTORS_REDUCED,
    Generator,
    assemble,
    reduce_spin_symmetric,
    trace_violation,
)
from .model import CASE_AFFECTED, ModelParams, apply_scenario

ETA_GRID = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
FIGURES = ("fig2", "fig3a", "fig3b", "fig4a", "fig4b")


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then each row's numbers at 12 significant digits."""
    return "\n".join([header] + [",".join(f"{x:.12g}" for x in row) for row in rows]) + "\n"


class ConfigError(click.ClickException):
    exit_code = 2


@contextmanager
def _refused(prefix: str = "", errors: type | tuple[type, ...] = ValueError):
    """Turn an error of the kinds ``errors`` raised in the block into a
    one-line exit 2: the prefix, then the error's message."""
    try:
        yield
    except errors as exc:
        raise ConfigError(prefix + str(exc)) from exc


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
    dt: float = 1e-3
    sample_interval: float = 0.1
    barriers: dict[str, list[int]] | None = None
    output: str | None = None


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _expect(value, kinds: tuple[type, ...], path: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{path}: expected {'/'.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def _reject_constant(name: str) -> float:
    raise ConfigError(f"config: non-finite number {name} is not allowed")


def _finite(text: str) -> str:
    """A JSON number literal that a float can hold, else a ConfigError."""
    if not math.isfinite(float(text)):
        shown = text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"
        raise ConfigError(f"config: number {shown} is out of range")
    return text


def _coerce(value, annotation, path: str):
    """``value`` checked against a ``RunConfig`` annotation; ints widen to float."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(value, args[0], path)
    if origin is list:
        items = _expect(value, (list,), path)
        return [_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(items)]
    if origin is dict:  # barriers: the sides "left" and "right", a missing one empty
        for side in _expect(value, (dict,), path):
            if side not in ("left", "right"):
                raise ConfigError(f"{path}.{side}: expected keys 'left' and 'right'")
        return {s: _coerce(value.get(s, []), args[1], f"{path}.{s}") for s in ("left", "right")}
    if annotation is float:
        return float(_expect(value, (int, float), path))
    return _expect(value, (annotation,), path)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration; unknown fields are errors."""
    with _refused("config is not valid JSON: ", json.JSONDecodeError):
        raw = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=lambda t: float(_finite(t)),
            parse_int=lambda t: int(_finite(t)),
        )
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = RunConfig(**{key: _coerce(value, _FIELD_TYPES[key], key) for key, value in raw.items()})
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    """The config's own policies; ``config_params`` checks the model's rules."""
    _check_generator_size(cfg.n_qubits)  # before a model of that size is built
    if not 0.0 <= cfg.zeta < 1.0:  # the model admits a negative zeta
        raise ConfigError(f"zeta: must lie in [0, 1), got {cfg.zeta}")
    config_params(cfg)
    if cfg.eta > 0.0 and not CASE_AFFECTED[cfg.scenario]:
        raise ConfigError(
            f"eta: scenario {cfg.scenario!r} names no affected qubits, so eta must be 0"
        )
    with _refused("t_end/dt/sample_interval: "):
        _sample_grid(cfg.t_end, cfg.dt, cfg.sample_interval)


def config_params(cfg: RunConfig) -> tuple[ModelParams, ModelParams]:
    """(base, scenario-applied) model parameters of a run configuration."""
    barriers = cfg.barriers or {}
    with _refused():
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
    return base, effective


def reduced_generator(params: ModelParams) -> Generator:
    return assemble(params, SECTORS_REDUCED)


@dataclass
class RunResult:
    times: np.ndarray
    fidelities: np.ndarray
    trace_err: np.ndarray
    populations: np.ndarray  # (n_samples, 3) sector traces a, b, c


_GATE_TOL = 1e-9


def _first_breach(
    times: np.ndarray, name: str, values: np.ndarray, lo: float, hi: float
) -> tuple[int, str] | None:
    """(index, description) of the first sample that is not finite or leaves
    [lo, hi], or None.

    A breach means ``dt`` lies outside the stability region of the generator,
    or that at a stable ``dt`` RK4's truncation error, or from about 1e8 steps
    on the rounding that each step adds, carries a sample out of bounds.
    """
    bad = np.argwhere(~(np.isfinite(values) & (values >= lo) & (values <= hi)))
    if not len(bad):
        return None
    idx = tuple(bad[0])
    if len(idx) == 2:
        name = f"{name}_{SECTORS_REDUCED[idx[1]]}"
    return idx[0], f"{name}={values[idx]:.6g} at t={times[idx[0]]:g}"


# Largest qubit count a run or a dump may build.  A run builds the reduced
# generator, at most 4^N * (6N + 7) entries (each row: its diagonal, 2N qubit
# flips and one or two rate gains); the direct assembly and real_form peak at
# about 107 B per entry (measured 105 B at N = 8, 107 B at N = 5): 0.36 GiB at
# N = 8 and 1.6 GiB at N = 9.  The dump text of the four-sector generator,
# 4 * 4^N * (2N + 3) entries, peaks at about 240 B per entry (measured at
# N = 5 and 6): 1.1 GiB at N = 8 and 4.9 GiB at N = 9, so N = 8 is the largest
# under 2 GiB.
_MAX_QUBITS = 8


def _check_generator_size(n_qubits: int) -> None:
    """Refuse, before anything is built, more than ``_MAX_QUBITS`` qubits."""
    if n_qubits > _MAX_QUBITS:
        raise ConfigError(
            f"n_qubits: at most {_MAX_QUBITS} qubits fit the 2 GiB generator build, got {n_qubits}"
        )


def run_states(
    cfg: RunConfig, state_names: list[str], baseline_frame: bool = False
) -> list[RunResult]:
    """Evolve the named states as one batch under the generator of ``cfg``.

    ``cfg.state`` is not read.  The samples are reduced block by block as the
    integration writes them: each block passes the invariant gate and only
    F, the trace error and the populations are kept.  The gate names the
    earliest sample of any state that breaks a bound, checking at each sample
    the trace error, then the sector populations, then F, so an unstable run
    stops at its first bad block and the sample named does not depend on the
    block size.  A run of more than ``_MAX_QUBITS`` qubits is refused before
    anything is built.
    """
    _check_generator_size(cfg.n_qubits)
    base, params = config_params(cfg)
    with _refused("state: "):
        amp_list = [states.state_by_name(name, cfg.n_qubits) for name in state_names]
    with _refused():  # the trace or finite-entry check of the generator
        g = reduced_generator(params)
    v0 = np.stack([states.to_density(a).flatten(SECTORS_REDUCED) for a in amp_list], axis=1)
    d = 2**cfg.n_qubits
    omega_prime = analysis.rotation_frequencies(base if baseline_frame else params)
    unstable = f"dt={cfg.dt:g} is unstable for this run: "
    kept = [[] for _ in amp_list]  # (times, F, trace_err, pops) of each block, per state

    def reduce(times: np.ndarray, block: np.ndarray) -> None:
        flats = [block[:, :, col] for col in range(len(amp_list))]
        pops = [np.einsum("tsii->ts", f.reshape(len(times), -1, d, d)).real for f in flats]
        trace_err = [np.abs(p.sum(axis=1) - 1.0) for p in pops]
        breaches = [_first_breach(times, "trace_err", e, 0.0, _GATE_TOL) for e in trace_err]
        breaches += [_first_breach(times, "pop", p, -_GATE_TOL, 1.0 + _GATE_TOL) for p in pops]
        # F is formed only before the first sample whose trace error or
        # populations break; at that sample those are named first
        end = min((b[0] for b in breaches if b), default=len(times))
        fids = [
            analysis.fidelity_series(times[:end], f[:end], amps, omega_prime)
            for f, amps in zip(flats, amp_list)
        ]
        breaches += [_first_breach(times, "F", f, -_GATE_TOL, 1.0 + _GATE_TOL) for f in fids]
        found = [b for b in breaches if b]
        if found:  # the earliest sample; min keeps the first listed of equal ones
            first = min(found, key=lambda b: b[0])
            raise ConfigError(unstable + first[1])
        for col, reduced in enumerate(zip(fids, trace_err, pops)):
            kept[col].append((times, *reduced))

    # an overflow surfaces as evolve_rk4's FloatingPointError, not as warnings
    with _refused(unstable, FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
        evolve_rk4(g, v0, cfg.t_end, cfg.dt, cfg.sample_interval, reduce)
    return [RunResult(*map(np.concatenate, zip(*blocks))) for blocks in kept]


def execute_run(cfg: RunConfig, baseline_frame: bool = False) -> RunResult:
    """Evolve one configured run and reduce it to the CSV observables."""
    return run_states(cfg, [cfg.state], baseline_frame)[0]


def run_single_csv(cfg: RunConfig, baseline_frame: bool = False) -> str:
    res = execute_run(cfg, baseline_frame)
    columns = np.column_stack([res.times, res.fidelities, res.trace_err, res.populations])
    return _csv("t,F,trace_err,pop_a,pop_b,pop_c", columns)


# ---------------------------------------------------------------------------
# figure runners


Series = dict[str, tuple[str, tuple[int, float, str, float]]]


def _series(name: str) -> Series:
    """Series of a figure: column name -> (state, (N, zeta, scenario, eta)).

    fig2 follows two DF states and two Bell states at two zetas; fig3a and
    fig3b take the DF states through the three cases at one eta; fig4a and
    fig4b sweep eta over ``ETA_GRID`` in one case (uniform at eta 0).
    """
    if name == "fig2":
        return {
            f"{state}_zeta{zeta:g}": (state, (states.qubit_count(state), zeta, "uniform", 0.0))
            for state in ("psi2", "psi3", "bell-b", "bell-c")
            for zeta in (0.2, 0.6)
        }
    if name in ("fig3a", "fig3b"):
        zeta, eta = (0.6, 0.01) if name == "fig3a" else (0.2, 0.05)
        return {
            f"{state}_{case}": (state, (4, zeta, case, eta))
            for state in states.DF4_NAMES
            for case in ("case_i", "case_ii", "case_iii")
        }
    if name in ("fig4a", "fig4b"):
        case = "case_ii" if name == "fig4a" else "case_iii"
        return {
            f"{state}_eta{eta:g}": (state, (4, 0.2, case if eta > 0 else "uniform", eta))
            for eta in ETA_GRID
            for state in states.DF4_NAMES
        }
    raise ValueError(f"unknown figure {name!r}")


def _max_workers() -> int:
    """Cores this process may run on (all cores where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_grouped(series: Series, t_end: float, si: float) -> dict[str, RunResult]:
    """The run of every series keyed by column; series that share a generator
    (the same n_qubits, zeta, scenario and eta) are evolved as one batch.

    The groups share nothing, so they run in up to one forked worker process
    per usable core; each group is the same batch as in one process, so the
    bytes are the same.  Workers are forked, not spawned: a spawned worker
    re-imports numpy and scipy (about 0.5 s), which costs more than a figure
    group (about 0.1 s at N = 4, t_end 50).  With one worker, where fork is
    unavailable, or where the pool cannot start its workers or loses one,
    the groups run in this process.  The pool joins every worker before this
    returns or raises, and a worker's ``ConfigError`` re-raises here
    unchanged.  ``simulate`` and ``verify`` stay in one process.
    """
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    groups: dict[tuple[int, float, str, float], list[tuple[str, str]]] = {}
    for column, (state, key) in series.items():
        groups.setdefault(key, []).append((column, state))
    configs = [
        RunConfig(
            n_qubits=n, zeta=zeta, scenario=scenario, eta=eta, t_end=t_end, sample_interval=si
        )
        for n, zeta, scenario, eta in groups
    ]
    names = [[state for _, state in members] for members in groups.values()]
    workers = min(len(groups), _max_workers())
    batches = None
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        before = set(multiprocessing.active_children())
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                batches = list(pool.map(run_states, configs, names))
        except (OSError, BrokenProcessPool):
            # a fork that fails after others succeeded leaves their workers
            # waiting for work the pool never sends
            for worker in set(multiprocessing.active_children()) - before:
                worker.terminate()
                worker.join()
    if batches is None:
        batches = list(map(run_states, configs, names))
    return {
        column: run
        for members, runs in zip(groups.values(), batches)
        for (column, _), run in zip(members, runs)
    }


def run_time_figure(name: str, t_end: float = 50.0, si: float = 0.1) -> str:
    """CSV text of a time-series figure (fig2, fig3a, fig3b)."""
    series = _series(name)
    runs = _run_grouped(series, t_end, si)
    times = runs[next(iter(series))].times  # every run samples the same grid
    columns = [runs[c].fidelities for c in series]
    return _csv("t," + ",".join(series), np.column_stack([times, *columns]))


def run_eta_figure(name: str, t_end: float = 50.0) -> str:
    """CSV text of an eta sweep (fig4a: case ii, fig4b: case iii) at t_end."""
    f = {c: run.fidelities[-1] for c, run in _run_grouped(_series(name), t_end, si=t_end).items()}
    rows = [[eta] + [f[f"{s}_eta{eta:g}"] for s in states.DF4_NAMES] for eta in ETA_GRID]
    return _csv("eta," + ",".join(states.DF4_NAMES), rows)


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


def _check_output(path: Path) -> None:
    """Refuse, before anything is computed, an output path that lies under no
    directory or names one: there the write always fails, and its error says why."""
    with _refused("cannot write output: ", (OSError, ValueError)):
        if not path.parent.is_dir() or path.is_dir():
            path.write_text("")


def write_figure(name: str, out_dir: Path) -> Path:
    """Write a figure's CSV and plot script; only a failed write of the
    output directory or files is an output error."""
    csv_path, plot_path = out_dir / f"{name}.csv", out_dir / f"{name}_plot.py"
    with _refused("cannot write output: ", OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
        _check_output(csv_path)
        _check_output(plot_path)
    text = run_eta_figure(name) if name.startswith("fig4") else run_time_figure(name)
    xlabel = text[: text.index(",")]  # the CSV's first column, t or eta
    plot = _PLOT_TEMPLATE.format(csv_name=csv_path.name, xlabel=xlabel, stem=name)
    with _refused("cannot write output: ", OSError):
        csv_path.write_text(text)
        plot_path.write_text(plot)
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


def run_verify() -> list[Check]:
    """Invariant suite run by `qdfsim verify`; every check is deterministic."""
    checks: list[Check] = []

    built = {}
    for n in (2, 4):
        p = ModelParams.uniform(n, zeta=0.2)
        full = assemble(p)
        red = assemble(p, SECTORS_REDUCED)
        built[n] = p, full, red
        checks.append(Check(f"trace_identity_full_n{n}", trace_violation(full), 1e-12))
        checks.append(Check(f"trace_identity_reduced_n{n}", trace_violation(red), 1e-12))

    g2 = built[2][2]
    rng = np.random.default_rng(7)  # a Hermitian matrix in each of the 3 reduced sectors
    mats = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    out = (g2.csr @ (mats + mats.conj().transpose(0, 2, 1)).reshape(-1)).reshape(3, 4, 4)
    defect = float(np.abs(out - out.conj().transpose(0, 2, 1)).max())
    checks.append(Check("hermiticity_preservation_n2", defect, 1e-12))

    amps = states.state_by_name("bell-d", 2)
    v0 = states.to_density(amps).flatten(SECTORS_REDUCED)
    rk4 = Collect()
    evolve_rk4(g2, v0, 50.0, 1e-3, 50.0, rk4)
    expm_final = evolve_expm(g2, v0, 50.0)
    checks.append(
        Check("oracle_equivalence_n2", float(np.abs(rk4.states[-1] - expm_final).max()), 1e-8)
    )

    p4, full4, red4 = built[4]
    df4 = {name: states.state_by_name(name, 4) for name in states.DF4_NAMES}
    sdm = states.to_density(df4["psi2"])
    omega_prime = analysis.rotation_frequencies(p4)
    tf, tr = Collect(), Collect()
    evolve_rk4(full4, sdm.flatten(), 5.0, 0.01, 0.5, tf)
    evolve_rk4(red4, sdm.flatten(SECTORS_REDUCED), 5.0, 0.01, 0.5, tr)
    f_full = analysis.fidelity_series(tf.times, tf.states, df4["psi2"], omega_prime)
    f_red = analysis.fidelity_series(tr.times, tr.states, df4["psi2"], omega_prime)
    checks.append(
        Check("reduction_equivalence_n4", float(np.abs(f_full - f_red).max()), 1e-10)
    )
    # the direct reduced build against the projection P L E of the full one
    fold_defect = abs(red4.csr - reduce_spin_symmetric(full4).csr).max()
    checks.append(Check("spin_reduction_n4", float(fold_defect), 1e-12))

    grid = np.linspace(0.0, 10.0, 21)
    df_states = [*df4.values()] + [states.state_by_name(name, 2) for name in ("bell-c", "bell-d")]
    worst = max(
        float(np.abs(baseline.baseline_fidelity(a, 0.3, grid) - 1.0).max()) for a in df_states
    )
    checks.append(Check("df_baseline_certification", worst, 1e-12))
    f_b = baseline.baseline_fidelity(states.state_by_name("bell-b", 2), 0.3, grid)
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

    # evolve_rk4, the path every run takes, against the four-stage loop that
    # defines the scheme: fig3b's case-ii group (psi1-psi3 as one batch) over
    # 3 samples of 100 steps, and a seeded biased, coupled N = 5 state over 2
    g4 = reduced_generator(apply_scenario(ModelParams.uniform(4, zeta=0.2), "case_ii", 0.05))
    v4 = np.stack([states.to_density(a).flatten(SECTORS_REDUCED) for a in df4.values()], axis=1)
    p5 = ModelParams.uniform(
        5, zeta=0.2, epsilon=[0.3, -0.2, 0.1, -0.4, 0.25], j_coupling=[0.1, -0.2, 0.15, 0.05]
    )
    rng = np.random.default_rng(7)
    amps5 = rng.normal(size=32) + 1j * rng.normal(size=32)
    v5 = states.to_density(amps5 / np.linalg.norm(amps5)).flatten(SECTORS_REDUCED)
    for name, g, v0, n_samples in (
        ("krylov_route_n4", g4, v4, 3),
        ("krylov_route_n5", reduced_generator(p5), v5, 2),
    ):
        routed, stepwise = Collect(), Collect()
        evolve_rk4(g, v0, n_samples * 0.1, 1e-3, 0.1, routed)
        _evolve_stepwise(g, v0, n_samples, 100, 1e-3, stepwise)
        defect = float(np.abs(routed.states - stepwise.states).max())
        checks.append(Check(name, defect, 1e-12))

    return checks


# ---------------------------------------------------------------------------
# click commands


def _read_config(path: str) -> RunConfig:
    with _refused(f"cannot read config {path}: ", (OSError, UnicodeDecodeError)):
        text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when none is given."""
    if not out_path:
        click.echo(text, nl=False)
        return
    with _refused("cannot write output: ", (OSError, ValueError)):  # a NUL: ValueError
        Path(out_path).write_text(text)
    click.echo(f"wrote {out_path}")


@click.group()
def main() -> None:
    """Charge-qubit robustness simulator for a two-barrier island detector."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option(
    "--baseline-frame",
    is_flag=True,
    help="Rotate with the unmodified (pre-scenario) frame frequencies.",
)
def simulate(config_path: str, baseline_frame: bool) -> None:
    """Run a single configured evolution and write its CSV time series."""
    cfg = _read_config(config_path)
    if cfg.output:
        _check_output(Path(cfg.output))
    _emit(run_single_csv(cfg, baseline_frame), cfg.output)


@main.command()
@click.argument("name", type=click.Choice(FIGURES))
@click.option("--out", "out_dir", required=True, type=click.Path())
def figure(name: str, out_dir: str) -> None:
    """Reproduce one of the named figure datasets (CSV + plot script)."""
    click.echo(f"wrote {write_figure(name, Path(out_dir))}")


@main.command("baseline")
@click.option("--state", "state_name", required=True)
@click.option("--gamma-d", type=float, required=True)
@click.option("--t-end", type=float, default=50.0, show_default=True)
@click.option("--sample-interval", type=float, default=0.1, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def baseline_cmd(
    state_name: str, gamma_d: float, t_end: float, sample_interval: float, out_path: str | None
) -> None:
    """Analytic collective-dephasing fidelity of a named state."""
    with _refused("--t-end/--sample-interval: "):
        n_intervals, _ = _sample_grid(t_end, sample_interval, sample_interval)
    with _refused():
        amps = states.state_by_name(state_name, states.qubit_count(state_name))
        times = np.arange(n_intervals + 1) * sample_interval
        fid = baseline.baseline_fidelity(amps, gamma_d, times)
    _emit(_csv("t,F", zip(times, fid)), out_path)


@main.command()
def verify() -> None:
    """Run the invariant suite; nonzero exit on any failure."""
    checks = run_verify()
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        click.echo(f"{status} {c.name}: measured={c.measured:.3e} tolerance={c.tolerance:.1e}")
    failed = sum(not c.ok for c in checks)
    if failed:
        click.echo(f"{failed} of {len(checks)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(checks)} checks passed")


@main.command("dump-generator")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--full", "dump_full", is_flag=True, help="Dump the four-sector generator.")
def dump_generator(config_path: str, dump_full: bool) -> None:
    """Print the assembled generator entries in the debug text format."""
    cfg = _read_config(config_path)
    _, params = config_params(cfg)
    with _refused():  # the trace or finite-entry check of the generator
        g = assemble(params, SECTORS_FULL if dump_full else SECTORS_REDUCED)
    click.echo(g.dump(), nl=False)


if __name__ == "__main__":
    main()
