"""Qubit-space reduction, rotating-frame frequencies, and fidelity."""

from __future__ import annotations

import numpy as np

from .model import ModelParams

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
    """Per-qubit rotating-frame frequencies sqrt(omega_i^2 + epsilon_i^2 / 4).

    Where the squares overflow, hypot(omega_i, epsilon_i / 2) gives the
    frequency instead; elsewhere the sum of squares is kept, since hypot can
    differ from it in the last bit.
    """
    w = np.asarray(p.omega)
    e = np.asarray(p.epsilon)
    with np.errstate(over="ignore"):
        direct = np.sqrt(w * w + 0.25 * e * e)
    return np.where(np.isfinite(direct), direct, np.hypot(w, 0.5 * e))


def fidelity_series(
    times: np.ndarray,
    flat_states: np.ndarray,
    amps: np.ndarray,
    omega_prime: np.ndarray,
) -> np.ndarray:
    """F(t) = <phi(t)| rho_q(t) |phi(t)> for every sampled flat state of a trajectory.

    ``rho_q`` is the sector-summed qubit DM, with the sectors counted from the
    flat length, and ``phi(t) = R(t)^dag psi`` is the initial state ``amps``
    rotated back by the free-qubit frame R(t) = prod_i (cos(w'_i t) + i
    sin(w'_i t) X_i).  This is Tr[rho(0) R rho_q R^dag] for rho(0) = |psi><psi|.
    Raises ValueError, naming the first bad time, when |psi|^2 or Tr rho_q
    departs from 1 by more than 1e-6, or when an overlap has an imaginary part
    above 1e-10 (samples not hermitian).
    """
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amps, dtype=complex)
    d = len(amps)
    n = d.bit_length() - 1
    rho_q = qubit_dm_from_flat(flat_states, d)
    # phi over the axes (time, qubit N, ..., qubit 1); X_i flips the axis of qubit i
    phi = np.broadcast_to(amps, (len(times), d)).reshape((len(times),) + (2,) * n)
    for i, w in enumerate(omega_prime):
        c = np.cos(w * times).reshape((-1,) + (1,) * n)
        s = np.sin(w * times).reshape((-1,) + (1,) * n)
        phi = c * phi - 1j * s * np.flip(phi, axis=n - i)
    phi = phi.reshape(len(times), d)
    tr0 = np.vdot(amps, amps).real
    tr1 = np.trace(rho_q, axis1=1, axis2=2)
    bad = np.flatnonzero((abs(tr0 - 1.0) > _TRACE_TOL) | (np.abs(tr1 - 1.0) > _TRACE_TOL))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"fidelity needs unit-trace inputs: traces {tr0:.6g}, {complex(tr1[i]):.6g} "
            f"at t={times[i]:g}"
        )
    f = np.einsum("ti,tij,tj->t", phi.conj(), rho_q, phi)
    bad = np.flatnonzero(np.abs(f.imag) > _IMAG_TOL)
    if len(bad):
        raise ValueError(
            f"fidelity has non-real value {complex(f[bad[0]])} at t={times[bad[0]]:g}; "
            "inputs not hermitian?"
        )
    return f.real
