"""Analytic collective-dephasing baseline.

A single environment operator sum_i sigma_z,i dephases configuration
coherences at a rate set by the squared difference of the total spins, so
the channel is diagonal in the configuration basis::

    rho[z1, z2](t) = rho[z1, z2](0) * exp(-gamma_d t (S_z1 - S_z2)^2 / 2)

Any state supported on the total-sigma-z-zero subspace is untouched for all
times -- the executable definition of "decoherence free" that the test suite
certifies against the detector model.  The baseline deliberately excludes
coherent driving (omega = epsilon = J = 0).
"""

from __future__ import annotations

import numpy as np


def total_spin(z: int, n_qubits: int) -> int:
    """Sum of sigma-z eigenvalues of configuration z."""
    ones = bin(z & (2**n_qubits - 1)).count("1")
    return 2 * ones - n_qubits


def damping_factors(n_qubits: int, gamma_d: float, t: float) -> np.ndarray:
    """Elementwise decay factors of the channel; all lie in (0, 1]."""
    if not 0.0 <= gamma_d < np.inf:
        raise ValueError(f"dephasing rate must be finite and non-negative, got {gamma_d}")
    s = np.array([total_spin(z, n_qubits) for z in range(2**n_qubits)], dtype=float)
    diff = s[:, None] - s[None, :]
    return np.exp(-0.5 * gamma_d * t * diff * diff)


def collective_dephasing_step(rho_q: np.ndarray, gamma_d: float, t: float) -> np.ndarray:
    """Apply the collective-dephasing channel for a time t."""
    d = rho_q.shape[0]
    n = d.bit_length() - 1
    return rho_q * damping_factors(n, gamma_d, t)


def baseline_fidelity(amps: np.ndarray, gamma_d: float, times: np.ndarray) -> np.ndarray:
    """F(t) = Tr[rho(0) rho(t)] under the channel for a pure initial state."""
    rho0 = np.outer(amps, amps.conj())
    out = np.empty(len(times))
    for i, t in enumerate(times):
        out[i] = float(np.trace(rho0 @ collective_dephasing_step(rho0, gamma_d, t)).real)
    return out
