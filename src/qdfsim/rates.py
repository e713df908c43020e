"""Effective barrier tunneling rates as a function of the joint qubit configuration.

Each qubit modulates the transparency of the barrier it is assigned to.  The
qubits on one barrier act like tunnel resistances in series, so the barrier
rate is the harmonic combination of the per-qubit branch rates
``gamma0_i + s_i * delta_gamma_i``.  Primed rates (electrode evaluated at the
energy shifted by the island charging energy) are the same combination scaled
by ``primed_scale``.  These rates set the strength of the Lindblad jump
operators of the island, ``liouvillian.channels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams


@dataclass(frozen=True)
class RateTable:
    """Barrier rates of every configuration, precomputed once and shared read-only.

    Arrays are indexed by the integer configuration index.
    """

    gamma_L: np.ndarray
    gamma_R: np.ndarray
    gamma_L_primed: np.ndarray
    gamma_R_primed: np.ndarray


def _series_rates(qubits: frozenset[int], p: ModelParams) -> np.ndarray:
    """Harmonic sum of the branch rates of ``qubits`` for every configuration.

    Qubits are summed in ascending order, so the result does not depend on
    set iteration order.  ``ModelParams`` guarantees positive branch rates.
    """
    z = np.arange(2**p.n_qubits)
    inv = np.zeros(len(z))
    for i in sorted(qubits):
        spin = np.where((z >> (i - 1)) & 1, 1.0, -1.0)
        inv += 1.0 / (p.gamma0[i - 1] + spin * p.delta_gamma[i - 1])
    return 1.0 / inv


def rate_table(p: ModelParams) -> RateTable:
    """Tabulate barrier rates over all 2^N configurations."""
    gl = _series_rates(p.left_barrier, p)
    gr = _series_rates(p.right_barrier, p)
    return RateTable(gl, gr, p.primed_scale * gl, p.primed_scale * gr)
