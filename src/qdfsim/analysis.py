"""Qubit-space reduction, rotating-frame transformation, and fidelity."""

from __future__ import annotations

import numpy as np

from .model import ModelParams

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)

_IMAG_TOL = 1e-10
_TRACE_TOL = 1e-6


def qubit_dm_from_flat(vec: np.ndarray, d: int) -> np.ndarray:
    """Sector-sum the d x d blocks of the last axis into the qubit DM, keeping
    leading axes such as one per sample; ValueError when the blocks are not whole."""
    n_sectors, rest = divmod(vec.shape[-1], d * d)
    if rest or not n_sectors:
        raise ValueError(f"flat length {vec.shape[-1]} is not a whole number of {d}x{d} sectors")
    return vec.reshape(vec.shape[:-1] + (n_sectors, d, d)).sum(axis=-3)


def rotation_frequencies(p: ModelParams) -> np.ndarray:
    """Per-qubit rotating-frame frequencies sqrt(omega_i^2 + epsilon_i^2 / 4)."""
    w = np.asarray(p.omega)
    e = np.asarray(p.epsilon)
    return np.sqrt(w * w + 0.25 * e * e)


def frame_rotation(omega_prime: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Unitary R(t) = prod_i (cos(w'_i t) + i sin(w'_i t) sigma_x,i).

    Built with qubit 1 innermost so indices match the configuration layout.
    An array of times gives the stack of R(t), shape (len(t), D, D).
    """
    t = np.asarray(t, dtype=float)
    acc = None
    for w in omega_prime:
        c = np.cos(w * t)[..., None, None]
        s = np.sin(w * t)[..., None, None]
        rj = c * _I2 + 1j * s * _SX
        if acc is None:
            acc = rj
        else:  # np.kron(rj, acc) for every time at once
            n = 2 * acc.shape[-1]
            acc = (rj[..., :, None, :, None] * acc[..., None, :, None, :]).reshape(t.shape + (n, n))
    return acc


def rotating_frame(
    rho_q: np.ndarray, omega_prime: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Transform the qubit DM into the frame co-rotating with the free qubits.

    An array of times rotates a stack of DMs, one per time.
    """
    r = frame_rotation(np.asarray(omega_prime, dtype=float), t)
    return r @ rho_q @ np.swapaxes(r.conj(), -1, -2)


def fidelity_series(
    times: np.ndarray,
    flat_states: np.ndarray,
    rho0: np.ndarray,
    omega_prime: np.ndarray,
) -> np.ndarray:
    """F(t) = Tr[rho(0) rho'(t)] for every sampled flat state of a trajectory.

    ``rho'(t)`` is the sector-summed qubit DM rotated into the free-qubit
    frame, with the sectors counted from the flat length.  Raises ValueError,
    naming the first bad time, when ``rho0`` or a rotated sample departs from
    unit trace by more than 1e-6, or when an overlap has an imaginary part
    above 1e-10 (inputs not hermitian).
    """
    times = np.asarray(times, dtype=float)
    rho_q = qubit_dm_from_flat(flat_states, len(rho0))
    rot = rotating_frame(rho_q, omega_prime, times)
    tr0 = complex(np.trace(rho0))
    tr1 = np.trace(rot, axis1=1, axis2=2)
    bad = np.flatnonzero((abs(tr0 - 1.0) > _TRACE_TOL) | (np.abs(tr1 - 1.0) > _TRACE_TOL))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"fidelity needs unit-trace inputs: traces {tr0:.6g}, {complex(tr1[i]):.6g} "
            f"at t={times[i]:g}"
        )
    f = np.einsum("ij,tji->t", rho0, rot)
    bad = np.flatnonzero(np.abs(f.imag) > _IMAG_TOL)
    if len(bad):
        raise ValueError(
            f"fidelity has non-real value {complex(f[bad[0]])} at t={times[bad[0]]:g}; "
            "inputs not hermitian?"
        )
    return f.real
