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

A configuration with k up spins has S_z = 2k - N, and |rho(0)[z1, z2]|^2 =
|a_z1|^2 |a_z2|^2 for a pure state, so the weights need only the N + 1
total-spin populations P_k (the weight on configurations with k up spins)::

    W_m  = sum over |k1 - k2| = m of P_k1 P_k2

which takes O(2^N) time and memory, not the O(4^N) of the coherences.

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
    ups = (config_spins(n).sum(axis=1).astype(int) + n) // 2
    pops = np.bincount(ups, weights=np.abs(amps) ** 2, minlength=n + 1)
    k = np.arange(n + 1)
    w = np.bincount(np.abs(k[:, None] - k[None, :]).ravel(), weights=np.outer(pops, pops).ravel())
    times = np.asarray(times, dtype=float)
    out = np.full(len(times), w[0])
    with np.errstate(over="ignore"):  # an exponent past the float range is -inf, exp 0
        for k in range(1, len(w)):
            out += w[k] * np.exp(-0.5 * gamma_d * times * (2 * k) * (2 * k))
    return out
