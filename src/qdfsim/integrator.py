"""Time evolution of flat sector vectors under the sparse generator.

Two routes are provided:

* :func:`evolve_rk4` -- classical fixed-step fourth-order Runge-Kutta.  For a
  time-independent linear system the RK4 update is the fixed polynomial
  ``P(dt L) = 1 + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24`` applied once
  per step, so whenever a dense matrix is feasible the implementation forms
  ``P(dt L)`` once, raises it to the number of steps between samples, and
  advances sample-to-sample with BLAS products.  This is the same method with
  the same truncation error, merely reassociated; a plain step-by-step sparse
  loop is kept for large dimensions and short runs and agrees to rounding.

* :func:`evolve_expm` -- the independent dense reference: scaling-and-squaring
  Pade matrix exponential of ``L t`` applied to the initial vector.

The spectrum of the generator is set by rates and couplings of order one, so
the default step ``dt = 1e-3`` resolves it with a wide margin; no stiffness
handling is attempted (rates orders of magnitude above the coupling would
need an implicit scheme, which is out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .liouvillian import Generator

DEFAULT_DT = 1e-3

_DENSE_LIMIT = 4096
# Below this many total steps the plain sparse loop beats building and
# powering the dense one-step matrix.
_STEPWISE_CUTOFF = 2500


@dataclass
class Trajectory:
    """Sampled states of one evolution.

    ``states`` has shape (n_samples, dim) for a single initial vector or
    (n_samples, dim, k) for a batch evolved under the same generator.
    """

    times: np.ndarray
    states: np.ndarray

    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_finite(state: np.ndarray, step: int) -> None:
    if not np.isfinite(state).all():
        mask = np.isfinite(state)
        peak = float(np.abs(state[mask]).max()) if mask.any() else float("nan")
        raise FloatingPointError(
            f"integration produced a non-finite value at step {step}; "
            f"largest finite entry {peak:.3e}"
        )


def _sample_grid(t_end: float, dt: float, sample_interval: float | None) -> tuple[int, int]:
    """Validate the grid and return (n_intervals, steps_per_sample)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if sample_interval is None:
        sample_interval = t_end if t_end > 0.0 else dt
    if sample_interval <= 0.0:
        raise ValueError(f"sample_interval must be positive, got {sample_interval}")
    steps_per_sample = int(round(sample_interval / dt))
    if steps_per_sample < 1 or abs(steps_per_sample * dt - sample_interval) > 1e-9 * sample_interval:
        raise ValueError(f"dt={dt} must divide the sample interval {sample_interval}")
    n_intervals = int(round(t_end / sample_interval))
    if abs(n_intervals * sample_interval - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError(f"sample_interval={sample_interval} must divide t_end={t_end}")
    return n_intervals, steps_per_sample


def _rk4_step_matrix(g: Generator, dt: float) -> np.ndarray:
    """Dense one-step matrix P(dt L) of the classical RK4 scheme."""
    scaled = (g.matrix() * dt).tocsr()
    acc = sp.identity(g.dim, format="csr", dtype=np.complex128)
    term = sp.identity(g.dim, format="csr", dtype=np.complex128)
    for j in range(1, 5):
        term = (term @ scaled) / j
        acc = acc + term
    return acc.toarray()


def _evolve_propagator(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float
) -> np.ndarray:
    step = _rk4_step_matrix(g, dt)
    hop = np.linalg.matrix_power(step, steps_per_sample)
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    v = v0
    for i in range(1, n_intervals + 1):
        v = hop @ v
        _check_finite(v, i * steps_per_sample)
        out[i] = v
    return out


def _evolve_stepwise(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float
) -> np.ndarray:
    m = g.matrix()
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    v = v0.astype(np.complex128)
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_intervals + 1):
        for _ in range(steps_per_sample):
            k1 = m @ v
            k2 = m @ (v + half * k1)
            k3 = m @ (v + half * k2)
            k4 = m @ (v + dt * k3)
            v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(v, i * steps_per_sample)
        out[i] = v
    return out


def evolve_rk4(
    g: Generator,
    v0: np.ndarray,
    t_end: float,
    dt: float = DEFAULT_DT,
    sample_interval: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory sampled every ``sample_interval`` time units.

    ``v0`` may be a single flat vector (dim,) or a batch (dim, k) sharing the
    generator.  The dimension and step count pick the cheaper route; both
    routes realize the identical scheme and differ only by floating-point
    reassociation.
    """
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: generator {g.dim}, state {v0.shape[0]}")
    n_intervals, steps_per_sample = _sample_grid(t_end, dt, sample_interval)
    times = np.arange(n_intervals + 1) * (steps_per_sample * dt)
    if n_intervals == 0:
        return Trajectory(times, v0[np.newaxis].copy())
    total_steps = n_intervals * steps_per_sample
    stepwise = g.dim > _DENSE_LIMIT or total_steps <= _STEPWISE_CUTOFF
    run = _evolve_stepwise if stepwise else _evolve_propagator
    return Trajectory(times, run(g, v0, n_intervals, steps_per_sample, dt))


def evolve_expm(g: Generator, v0: np.ndarray, t: float) -> np.ndarray:
    """Exact-exponential reference: exp(L t) @ v0 on the dense generator.

    This is the oracle all derived test values trust; it shares nothing with
    the RK4 route beyond the generator entries themselves.
    """
    if g.dim > _DENSE_LIMIT:
        raise ValueError(f"dense exponential infeasible above dim {_DENSE_LIMIT}, got {g.dim}")
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: generator {g.dim}, state {v0.shape[0]}")
    if t == 0.0:
        return v0.copy()
    return la.expm(g.as_dense() * t) @ v0
