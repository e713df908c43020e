"""Qubit-space reduction, rotating-frame transformation, and fidelity."""

from __future__ import annotations

import numpy as np

from .model import ModelParams

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)

_IMAG_TOL = 1e-10
_TRACE_TOL = 1e-6


def qubit_dm_from_flat(vec: np.ndarray, n_qubits: int, n_sectors: int) -> np.ndarray:
    """Sector-sum a flat vector (full or reduced layout) into the qubit DM."""
    d = 2**n_qubits
    return vec.reshape(n_sectors, d, d).sum(axis=0)


def rotation_frequencies(p: ModelParams) -> np.ndarray:
    """Per-qubit rotating-frame frequencies sqrt(omega_i^2 + epsilon_i^2 / 4)."""
    w = np.asarray(p.omega)
    e = np.asarray(p.epsilon)
    return np.sqrt(w * w + 0.25 * e * e)


def frame_rotation(omega_prime: np.ndarray, t: float) -> np.ndarray:
    """Unitary R(t) = prod_i (cos(w'_i t) + i sin(w'_i t) sigma_x,i).

    Built with qubit 1 innermost so indices match the configuration layout.
    """
    acc = None
    for w in omega_prime:
        rj = np.cos(w * t) * _I2 + 1j * np.sin(w * t) * _SX
        acc = rj if acc is None else np.kron(rj, acc)
    return acc


def rotating_frame(rho_q: np.ndarray, omega_prime: np.ndarray, t: float) -> np.ndarray:
    """Transform the qubit DM into the frame co-rotating with the free qubits."""
    r = frame_rotation(np.asarray(omega_prime, dtype=float), t)
    return r @ rho_q @ r.conj().T


def fidelity(rho0: np.ndarray, rho_rot: np.ndarray) -> float:
    """Overlap Tr[rho(0) rho'(t)] between initial and rotated evolved qubit DM."""
    tr0 = complex(np.trace(rho0))
    tr1 = complex(np.trace(rho_rot))
    if abs(tr0 - 1.0) > _TRACE_TOL or abs(tr1 - 1.0) > _TRACE_TOL:
        raise ValueError(
            f"fidelity needs unit-trace inputs: traces {tr0:.6g}, {tr1:.6g}"
        )
    f = complex(np.trace(rho0 @ rho_rot))
    if abs(f.imag) > _IMAG_TOL:
        raise ValueError(f"fidelity has non-real value {f}; inputs not hermitian?")
    return f.real


def fidelity_series(
    times: np.ndarray,
    flat_states: np.ndarray,
    rho0: np.ndarray,
    omega_prime: np.ndarray,
    n_qubits: int,
    n_sectors: int,
) -> np.ndarray:
    """F(t) for every sampled flat state of a trajectory."""
    out = np.empty(len(times))
    for i, (t, vec) in enumerate(zip(times, flat_states)):
        rq = qubit_dm_from_flat(vec, n_qubits, n_sectors)
        out[i] = fidelity(rho0, rotating_frame(rq, omega_prime, t))
    return out
