"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the reference each operation is checked against.

An operation is one call a user makes through the package's public entry
points: ``cli.write_figure`` for a figure, ``cli.parse_config`` followed by
``cli.run_single_csv`` for a configured run. Entry points are looked up on the
module at call time, so the tracer's wrappers see every call. References are
built lazily by ``Op.check``, which the runner calls after the timed passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse.linalg import expm_multiply

from qdfsim import cli, integrator, states
from qdfsim.liouvillian import SECTORS_REDUCED

import checks

ORACLE_TOL = 1e-12  # expm_multiply against evolve_expm, in F


@dataclass
class Op:
    label: str
    call: Callable[[], str]  # timed: runs the program and returns its CSV text
    check: Callable[[str], None]  # untimed: raises checks.CheckFailed on a wrong output


def _initial(amps_list: list[np.ndarray]) -> np.ndarray:
    """Reduced-layout initial vectors as columns, shape (dim, k)."""
    return np.stack(
        [states.to_density(a).flatten(SECTORS_REDUCED) for a in amps_list], axis=1
    )


def expm_trajectory(g, v0: np.ndarray, interval: float, n_intervals: int) -> np.ndarray:
    """Exact states at every sample, shape (n_intervals + 1, dim, k).

    ``integrator.evolve_expm`` applied to the identity gives the exact
    propagator over one sample interval; it is then applied sample by sample.
    """
    hop = integrator.evolve_expm(g, np.eye(g.dim, dtype=np.complex128), interval)
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    for i in range(n_intervals):
        out[i + 1] = hop @ out[i]
    return out


def _run_reference(cfg_text: str) -> tuple[object, object, np.ndarray, np.ndarray]:
    """(config, effective params, generator, initial amplitudes) of a run config."""
    cfg = cli.parse_config(cfg_text)
    _, params = cli.config_params(cfg)
    g = cli.reduced_generator(params)
    amps = states.state_by_name(cfg.state, cfg.n_qubits)
    return cfg, params, g, amps


def _sample_times(t_end: float, interval: float) -> np.ndarray:
    return np.arange(int(round(t_end / interval)) + 1) * interval


def _custom_state(rng: np.random.Generator, n_qubits: int) -> str:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return "custom:" + ",".join(f"{float(a.real)!r}{float(a.imag):+}j" for a in amps)


# ---------------------------------------------------------------------------
# figures


def figure_series(name: str) -> dict[str, tuple[str, tuple[int, float, str, float]]]:
    """Series of a paper figure: column name -> (state, (N, zeta, scenario, eta))."""
    if name == "fig2":
        return {
            f"{state}_zeta{zeta:g}": (state, (4 if state.startswith("psi") else 2, zeta, "uniform", 0.0))
            for state in ("psi2", "psi3", "bell-b", "bell-c")
            for zeta in (0.2, 0.6)
        }
    if name == "fig3b":
        return {
            f"{state}_{case}": (state, (4, 0.2, case, 0.05))
            for state in ("psi1", "psi2", "psi3")
            for case in ("case_i", "case_ii", "case_iii")
        }
    if name == "fig4a":
        return {
            f"{state}_eta{eta:g}": (state, (4, 0.2, "case_ii" if eta > 0 else "uniform", eta))
            for eta in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
            for state in ("psi1", "psi2", "psi3")
        }
    raise ValueError(f"unknown figure {name!r}")


def figure_reference(
    name: str, t_end: float, interval: float, dt: float = 1e-3
) -> dict[str, checks.FReference]:
    """Reference F of every series of a figure on its sample grid.

    fig4a samples only t_end; the time figures sample every ``interval``.
    """
    if name == "fig4a":
        interval = t_end
    groups: dict[tuple, list[tuple[str, str]]] = {}
    for column, (state, key) in figure_series(name).items():
        groups.setdefault(key, []).append((column, state))
    times = _sample_times(t_end, interval)
    out = {}
    for (n, zeta, scenario, eta), members in groups.items():
        cfg = cli.RunConfig(n_qubits=n, zeta=zeta, scenario=scenario, eta=eta)
        _, params = cli.config_params(cfg)
        g = cli.reduced_generator(params)
        amps = [states.state_by_name(state, n) for _, state in members]
        traj = expm_trajectory(g, _initial(amps), interval, len(times) - 1)
        freqs = checks.frame_frequencies(params)
        for col, ((column, _), a) in enumerate(zip(members, amps)):
            out[column] = checks.fidelity_reference(g.matrix(), traj[:, :, col], times, dt, a, freqs)
    return out


def check_figure(
    name: str, text: str, ref: dict[str, checks.FReference], t_end: float, interval: float
) -> None:
    if name == "fig4a":
        etas = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        by_state = {}
        for state in ("psi1", "psi2", "psi3"):
            finals = [ref[f"{state}_eta{eta:g}"] for eta in etas]
            by_state[state] = checks.FReference(
                np.array([r.exact[-1] for r in finals]), np.array([r.rk4_shift[-1] for r in finals])
            )
        checks.check_figure_csv(text, "eta", etas, by_state)
    else:
        checks.check_figure_csv(text, "t", _sample_times(t_end, interval), ref)


class Figures:
    """fig2, fig3b and fig4a at paper settings; the seed is unused."""

    name = "figures"
    names = ("fig2", "fig3b", "fig4a")
    t_end = 50.0
    interval = 0.1
    dt = 1e-3

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._refs: dict[str, dict[str, checks.FReference]] = {}

    def _check(self, name: str, text: str) -> None:
        if name not in self._refs:
            self._refs[name] = figure_reference(name, self.t_end, self.interval, self.dt)
        check_figure(name, text, self._refs[name], self.t_end, self.interval)

    def make_pass(self, k: int) -> list[Op]:
        return [
            Op(
                name,
                lambda name=name: cli.write_figure(name, self.out_dir).read_text(),
                lambda text, name=name: self._check(name, text),
            )
            for name in self.names
        ]


# ---------------------------------------------------------------------------
# sweep


def sweep_config(rng: np.random.Generator, n: int) -> dict:
    """One seeded short run at N qubits.

    The ranges bracket the figure settings (omega = 2, zeta 0.2 and 0.6, eta
    up to 0.05) and add bias, coupling and primed rates.
    """
    cfg = {
        "n_qubits": n,
        "omega": rng.uniform(1.0, 3.0),
        "epsilon": list(rng.uniform(-1.0, 1.0, n)),
        "j_coupling": list(rng.uniform(-0.5, 0.5, n - 1)),
        "zeta": rng.uniform(0.05, 0.8),
        "primed_scale": rng.uniform(0.5, 2.0),
        "t_end": 0.5,
        "dt": 1e-3,
        "sample_interval": float(rng.choice([0.05, 0.1])),
    }
    if n == 4:
        cfg["state"] = str(rng.choice(["psi1", "psi2", "psi3", "custom"]))
        if rng.uniform() < 0.6:
            cfg["scenario"] = str(rng.choice(["case_i", "case_ii", "case_iii"]))
            cfg["eta"] = rng.uniform(0.005, 0.05)
    elif n == 2:
        cfg["state"] = str(rng.choice(["bell-a", "bell-b", "bell-c", "bell-d", "custom"]))
    else:
        cfg["state"] = "custom"
    if cfg["state"] == "custom":
        cfg["state"] = _custom_state(rng, n)
    return cfg


def run_reference(cfg_text: str) -> tuple[np.ndarray, checks.FReference]:
    """Sample times and reference F of a configured run, from
    ``expm_multiply`` on the program's generator at every sample."""
    cfg, params, g, amps = _run_reference(cfg_text)
    times = _sample_times(cfg.t_end, cfg.sample_interval)
    traj = expm_multiply(
        g.matrix(), _initial([amps])[:, 0], start=0.0, stop=cfg.t_end, num=len(times), endpoint=True
    )
    freqs = checks.frame_frequencies(params)
    return times, checks.fidelity_reference(g.matrix(), traj, times, cfg.dt, amps, freqs)


def oracle_cross_check(cfg_text: str, times: np.ndarray, ref: checks.FReference) -> None:
    """Check a ``run_reference`` result against ``integrator.evolve_expm``."""
    cfg, params, g, amps = _run_reference(cfg_text)
    traj = expm_trajectory(g, _initial([amps]), cfg.sample_interval, len(times) - 1)
    exact = checks.reference_fidelity(traj[:, :, 0], times, amps, checks.frame_frequencies(params))
    err = float(np.abs(exact - ref.exact).max())
    if not err <= ORACLE_TOL:
        raise checks.CheckFailed(f"expm_multiply reference off evolve_expm by {err:.3e}")


class _RunChecks:
    """Checks of configured runs, one cached reference per distinct config
    (a traced run repeats its untraced inputs)."""

    def __init__(self) -> None:
        self._refs: dict[str, tuple[np.ndarray, checks.FReference]] = {}

    def op(self, label: str, cfg_text: str) -> Op:
        return Op(
            label,
            lambda: cli.run_single_csv(cli.parse_config(cfg_text)),
            lambda out: checks.check_run_csv(out, *self.reference(cfg_text)),
        )

    def reference(self, cfg_text: str) -> tuple[np.ndarray, checks.FReference]:
        if cfg_text not in self._refs:
            self._refs[cfg_text] = run_reference(cfg_text)
        return self._refs[cfg_text]


class Sweep:
    """Distinct seeded short runs; pass k draws fresh configurations."""

    name = "sweep"

    def __init__(self, seed: int, counts: dict[int, int] | None = None):
        self.seed = seed
        # stratified by N so every pass has the same size mix; N=4 dominates
        self.counts = counts or {2: 18, 3: 27, 4: 55}
        self._checks = _RunChecks()

    def configs(self, k: int) -> list[str]:
        rng = np.random.default_rng([self.seed, k])
        ns = [n for n, c in self.counts.items() for _ in range(c)]
        rng.shuffle(ns)
        return [json.dumps(sweep_config(rng, int(n))) for n in ns]

    def make_pass(self, k: int) -> list[Op]:
        texts = self.configs(k)
        ops = [self._checks.op(f"sweep[{k}.{i}]", text) for i, text in enumerate(texts)]
        check = ops[0].check

        def check_and_cross_check(out: str) -> None:
            check(out)
            oracle_cross_check(texts[0], *self._checks.reference(texts[0]))

        ops[0].check = check_and_cross_check
        return ops


# ---------------------------------------------------------------------------
# large_n


class LargeN:
    """One fig-style run per pass at N=5 with a seeded state, epsilon and J."""

    name = "large_n"

    def __init__(self, seed: int, n_qubits: int = 5, t_end: float = 50.0):
        self.seed = seed
        self.n_qubits = n_qubits
        self.t_end = t_end
        self._checks = _RunChecks()

    def config(self, k: int) -> str:
        rng = np.random.default_rng([self.seed, k])
        n = self.n_qubits
        return json.dumps(
            {
                "n_qubits": n,
                "state": _custom_state(rng, n),
                "epsilon": list(rng.uniform(-0.5, 0.5, n)),
                "j_coupling": list(rng.uniform(-0.3, 0.3, n - 1)),
                "t_end": self.t_end,
                "dt": 1e-3,
                "sample_interval": 0.1,
            }
        )

    def make_pass(self, k: int) -> list[Op]:
        return [self._checks.op(f"large_n[{k}]", self.config(k))]


def make(name: str, seed: int, out_dir: Path):
    if name == "figures":
        return Figures(out_dir / "figures")
    if name == "sweep":
        return Sweep(seed)
    if name == "large_n":
        return LargeN(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("figures", "sweep", "large_n")
