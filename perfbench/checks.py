"""Output checks for benchmark operations.

Every operation's CSV is checked against the invariants the program promises
(trace error, sector population bounds, F <= 1) and against a reference
trajectory computed outside the timed region. References share only the model
inputs with the run: the generator, the initial state and the parameters. The
rotating-frame fidelity is recomputed here from its definition, so a defect in
the program's fidelity reduction cannot hide behind itself.

F must lie within ``F_TOL`` of the exact F, or of the exact F shifted by the
truncation error of fixed-step RK4 at the run's ``dt``. For a linear system
RK4 advances each step by ``R(z) = exp(z - z^5/120 + z^6/144 + O(z^7))`` with
``z = dt L``, so after time t its state is, to first order in that error,
``v(t) + t (-dt^4 L^5 / 120 + dt^5 L^6 / 144) v(t)``. With general states and
nonzero bias the shift reaches a few 1e-9 in F at t = 50 (measured against
the exact exponential), far above ``F_TOL``; the L^6 term is a few percent of
it, so both are kept. Both an RK4 route and an exact route therefore pass,
and an error of either beyond ``F_TOL`` fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

F_TOL = 1e-10  # per sample, see above
INV_TOL = 1e-9  # trace error, population and F bounds

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


class CheckFailed(Exception):
    """An operation's output is wrong; the message says where and by how much."""


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise CheckFailed(f"malformed CSV: header {len(header)} columns, rows {rows.shape}")
    return header, rows


def frame_frequencies(params) -> np.ndarray:
    """Rotating-frame frequencies sqrt(omega_i^2 + epsilon_i^2 / 4)."""
    w = np.asarray(params.omega, dtype=float)
    e = np.asarray(params.epsilon, dtype=float)
    return np.sqrt(w * w + 0.25 * e * e)


def _rotate_back(psi: np.ndarray, freqs: np.ndarray, t: float) -> np.ndarray:
    """R(t)^dagger psi for R(t) = prod_i exp(i w_i t sigma_x,i), qubit 1 = bit 0."""
    n = len(freqs)
    out = psi.reshape((2,) * n)  # axis 0 is the highest qubit
    for i, w in enumerate(freqs):
        r_dag = np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) * _SX
        axis = n - 1 - i
        out = np.moveaxis(np.tensordot(r_dag, out, axes=([1], [axis])), 0, axis)
    return out.reshape(-1)


def reference_fidelity(
    flat_states: np.ndarray, times: np.ndarray, amps: np.ndarray, freqs: np.ndarray
) -> np.ndarray:
    """F(t) = <psi| R rho_q(t) R^dagger |psi> from reduced-layout flat states.

    ``flat_states`` has shape (n_samples, dim); rho_q is the sum of the
    island-sector blocks.
    """
    d = len(amps)
    out = np.empty(len(times))
    for k, (t, vec) in enumerate(zip(times, flat_states)):
        rho_q = vec.reshape(-1, d, d).sum(axis=0)
        phi = _rotate_back(amps, freqs, t)
        out[k] = float(np.vdot(phi, rho_q @ phi).real)
    return out


def check_grid(times: np.ndarray, expected: np.ndarray) -> None:
    if times.shape != expected.shape or np.abs(times - expected).max() > 1e-9:
        raise CheckFailed(f"time grid differs: got {times[:3]}..., expected {expected[:3]}...")


def rk4_shift(matrix, flat_states: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """RK4 error of exact states: t (-dt^4 L^5 / 120 + dt^5 L^6 / 144) v(t)."""
    l5 = flat_states.T
    for _ in range(5):
        l5 = matrix @ l5
    l6 = matrix @ l5
    return times[:, None] * (-(dt**4 / 120.0) * l5.T + (dt**5 / 144.0) * l6.T)


@dataclass
class FReference:
    exact: np.ndarray  # F of the exact trajectory
    rk4_shift: np.ndarray  # RK4 truncation error of F


def fidelity_reference(
    matrix, flat_states: np.ndarray, times: np.ndarray, dt: float, amps: np.ndarray, freqs: np.ndarray
) -> FReference:
    """F of exact states, and of their RK4 shift (F is linear in the state)."""
    shift = rk4_shift(matrix, flat_states, times, dt)
    return FReference(
        reference_fidelity(flat_states, times, amps, freqs),
        reference_fidelity(shift, times, amps, freqs),
    )


def check_fidelity(label: str, got: np.ndarray, ref: FReference) -> None:
    if got.max() > 1.0 + INV_TOL:
        raise CheckFailed(f"{label}: F = {got.max():.12g} exceeds 1")
    off_exact = np.abs(got - ref.exact)
    err = np.minimum(off_exact, np.abs(got - ref.exact - ref.rk4_shift))
    k = int(err.argmax())
    if not err[k] <= F_TOL:
        raise CheckFailed(
            f"{label}: F - F_exact = {got[k] - ref.exact[k]:.3e} at sample {k}, "
            f"RK4 truncation estimate {ref.rk4_shift[k]:.3e} (tolerance {F_TOL:.0e})"
        )


def check_run_csv(text: str, times: np.ndarray, f_ref: FReference) -> None:
    """Check a `simulate`-style CSV (t, F, trace_err, pop_a, pop_b, pop_c)."""
    header, rows = parse_csv(text)
    if header != ["t", "F", "trace_err", "pop_a", "pop_b", "pop_c"]:
        raise CheckFailed(f"unexpected header {header}")
    check_grid(rows[:, 0], times)
    trace_err = rows[:, 2].max()
    if not trace_err <= INV_TOL:
        raise CheckFailed(f"trace_err {trace_err:.3e} exceeds {INV_TOL:.0e}")
    pops = rows[:, 3:]
    if not (pops.min() >= -INV_TOL and pops.max() <= 1.0 + INV_TOL):
        raise CheckFailed(f"sector population outside [0, 1]: [{pops.min():.3e}, {pops.max():.12g}]")
    check_fidelity("F", rows[:, 1], f_ref)


def check_figure_csv(
    text: str, first_col: str, xs: np.ndarray, f_ref: dict[str, FReference]
) -> None:
    """Check a figure CSV: first column ``xs``, then one F column per series."""
    header, rows = parse_csv(text)
    if header[0] != first_col or sorted(header[1:]) != sorted(f_ref):
        raise CheckFailed(f"unexpected header {header}")
    check_grid(rows[:, 0], xs)
    for j, name in enumerate(header[1:], start=1):
        check_fidelity(name, rows[:, j], f_ref[name])
