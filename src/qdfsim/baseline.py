"""Analytic collective-dephasing baseline.

A single environment operator sum_i sigma_z,i dephases configuration
coherences at a rate set by the squared difference of the total spins, so
the channel is diagonal in the configuration basis::

    rho[z1, z2](t) = rho[z1, z2](0) * exp(-gamma_d t (S_z1 - S_z2)^2 / 2)

Any state supported on the total-sigma-z-zero subspace is untouched for all
times -- the executable definition of "decoherence free" that the test suite
certifies against the detector model.  The baseline deliberately excludes
coherent driving (omega = epsilon = J = 0).

Total spins of N qubits differ by even numbers 2m, m = 0..N, so the fidelity
of a pure state groups its coherences by m::

    F(t) = Tr[rho(0) rho(t)] = sum_m W_m exp(-gamma_d t (2m)^2 / 2),
    W_m  = sum over |S_z1 - S_z2| = 2m of |rho(0)[z1, z2]|^2

The m = 0 weight is never multiplied by gamma_d t, so a product past the
float range gives the t -> infinity limit W_0.
"""

from __future__ import annotations

import numpy as np

from .model import config_spins


def baseline_fidelity(amps: np.ndarray, gamma_d: float, times: np.ndarray) -> np.ndarray:
    """F(t) = Tr[rho(0) rho(t)] under the channel for a pure initial state."""
    if not 0.0 <= gamma_d < np.inf:
        raise ValueError(f"dephasing rate must be finite and non-negative, got {gamma_d}")
    n = len(amps).bit_length() - 1
    s = config_spins(n).sum(axis=1).astype(int)
    m = np.abs(s[:, None] - s[None, :]) // 2
    w = np.bincount(m.ravel(), weights=np.abs(np.outer(amps, amps.conj())).ravel() ** 2)
    times = np.asarray(times, dtype=float)
    out = np.full(len(times), w[0])
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf, exp 0
        for k in range(1, len(w)):
            out += w[k] * np.exp(-0.5 * gamma_d * times * (2 * k) * (2 * k))
    return out
