"""Physical parameters, joint spin-configuration indexing, and the named
non-uniformity cases.

Conventions used throughout the package:

* Qubit indices are 1-based (qubit ``1 .. N``).
* A joint configuration of N qubits assigns each qubit a sigma-z eigenvalue
  ``s_i`` in {-1, +1}; ``-1`` is "down", ``+1`` is "up".
* Configurations are integer indices ``0 .. 2^N - 1``: qubit ``i``
  occupies bit ``i - 1`` and a down spin maps to a 0 bit.  Qubit 1 therefore
  varies fastest, and all tensor products elsewhere in the package place
  qubit 1 innermost.
* All energies and rates are expressed in units of the common tunneling
  rate (one rate unit == 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

GAMMA0_UNIT = 1.0

# Which qubits a named non-uniformity case perturbs (defined for N = 4).
CASE_AFFECTED = {
    "uniform": frozenset(),
    "case_i": frozenset({3}),
    "case_ii": frozenset({2, 3}),
    "case_iii": frozenset({4}),
}


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the coupled qubits + two-barrier island detector.

    ``omega``/``epsilon`` are the intra-qubit tunnel coupling and gate bias,
    ``j_coupling`` the nearest-neighbour sigma-z couplings (length N-1).
    ``gamma0``/``delta_gamma`` give per-qubit branch rates
    ``gamma0_i + s * delta_gamma_i`` for spin ``s``; ``primed_scale`` maps
    each rate to its value at the shifted electrode energy (1.0 in all
    figure settings).  ``left_barrier``/``right_barrier`` partition
    ``{1..N}`` into the qubits electrostatically coupled to each barrier.
    """

    n_qubits: int
    omega: tuple[float, ...]
    epsilon: tuple[float, ...]
    j_coupling: tuple[float, ...]
    gamma0: tuple[float, ...]
    delta_gamma: tuple[float, ...]
    primed_scale: float
    left_barrier: frozenset[int]
    right_barrier: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n_qubits
        if n < 1:
            raise ValueError("n_qubits must be >= 1")
        for name in ("omega", "epsilon", "gamma0", "delta_gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have length {n}")
        if len(self.j_coupling) != n - 1:
            raise ValueError(f"j_coupling must have length {n - 1}")
        if not self.left_barrier or not self.right_barrier:
            raise ValueError("both barriers need at least one qubit")
        if self.left_barrier & self.right_barrier:
            raise ValueError("barrier assignments must be disjoint")
        if self.left_barrier | self.right_barrier != frozenset(range(1, n + 1)):
            raise ValueError("barriers must partition {1..N}")
        for i in range(n):
            if self.gamma0[i] - abs(self.delta_gamma[i]) <= 0.0:
                raise ValueError(
                    f"branch rates of qubit {i + 1} must stay positive: "
                    f"gamma0={self.gamma0[i]}, delta_gamma={self.delta_gamma[i]}"
                )
        if self.primed_scale <= 0.0:
            raise ValueError("primed_scale must be positive")

    @classmethod
    def uniform(
        cls,
        n_qubits: int,
        omega: float = 2.0,
        zeta: float = 0.0,
        epsilon: float | Iterable[float] = 0.0,
        j_coupling: float | Iterable[float] = 0.0,
        primed_scale: float = 1.0,
        left_barrier: Iterable[int] | None = None,
        right_barrier: Iterable[int] | None = None,
    ) -> "ModelParams":
        """Uniform qubits with measurement strength zeta (branch rates 1 +- zeta).

        The default barrier split assigns the lower half of the qubits to the
        left barrier and the upper half to the right one, matching the serial
        detector geometry (for N=2: one qubit per barrier).
        """
        n = n_qubits
        eps = (
            tuple(float(e) for e in epsilon)
            if isinstance(epsilon, Iterable)
            else (float(epsilon),) * n
        )
        jc = (
            tuple(float(j) for j in j_coupling)
            if isinstance(j_coupling, Iterable)
            else (float(j_coupling),) * (n - 1)
        )
        if left_barrier is None or right_barrier is None:
            left_barrier = range(1, n // 2 + 1)
            right_barrier = range(n // 2 + 1, n + 1)
        return cls(
            n_qubits=n,
            omega=(float(omega),) * n,
            epsilon=eps,
            j_coupling=jc,
            gamma0=(GAMMA0_UNIT,) * n,
            delta_gamma=(float(zeta) * GAMMA0_UNIT,) * n,
            primed_scale=float(primed_scale),
            left_barrier=frozenset(left_barrier),
            right_barrier=frozenset(right_barrier),
        )


def apply_scenario(base: ModelParams, name: str, eta: float) -> ModelParams:
    """Return a copy of ``base`` with the named case's deviations applied.

    The qubits ``CASE_AFFECTED[name]`` get ``omega -> (1-eta) omega``,
    ``epsilon -> eta`` (in rate units, replacing the base value), and both
    branch-rate parameters scaled by ``(1-eta)`` so the relative modulation is
    preserved.  With ``eta == 0`` or ``uniform`` the parameters are returned
    unchanged (identity), which takes precedence over the absolute epsilon
    replacement.
    """
    if name not in CASE_AFFECTED:
        raise ValueError(f"unknown scenario {name!r}; expected one of {tuple(CASE_AFFECTED)}")
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    affected = CASE_AFFECTED[name]
    if affected and max(affected) > base.n_qubits:
        raise ValueError(
            f"scenario affects qubit {max(affected)} but model has {base.n_qubits} qubits"
        )
    if eta == 0.0 or not affected:
        return base
    omega = list(base.omega)
    epsilon = list(base.epsilon)
    gamma0 = list(base.gamma0)
    delta_gamma = list(base.delta_gamma)
    for k in affected:
        i = k - 1
        omega[i] *= 1.0 - eta
        epsilon[i] = eta * GAMMA0_UNIT  # absolute replacement, not a scaling
        gamma0[i] *= 1.0 - eta
        delta_gamma[i] *= 1.0 - eta
        if gamma0[i] - abs(delta_gamma[i]) <= 0.0:
            raise ValueError(f"scenario drives rates of qubit {k} non-positive")
    return replace(
        base,
        omega=tuple(omega),
        epsilon=tuple(epsilon),
        gamma0=tuple(gamma0),
        delta_gamma=tuple(delta_gamma),
    )


def config_spins(n: int) -> np.ndarray:
    """Sigma-z eigenvalues of every configuration, shape (2^N, N): row z,
    column i - 1 holds qubit i's spin, +1.0 where bit i - 1 of z is set."""
    z = np.arange(2**n)
    return np.where((z[:, None] >> np.arange(n)) & 1, 1.0, -1.0)


def config_energies(p: ModelParams) -> np.ndarray:
    """Diagonal qubit energy of every configuration, indexed by z.

    Evaluates ``sum_i epsilon_i s_i + sum_i J_{i,i+1} s_i s_{i+1}``, i.e. the
    diagonal of the qubit Hamiltonian in the configuration basis; each sum
    runs over ascending i and the two are added last.
    """
    s = config_spins(p.n_qubits).T
    e = sum(p.epsilon[i] * s[i] for i in range(p.n_qubits))
    return e + sum(p.j_coupling[i] * s[i] * s[i + 1] for i in range(p.n_qubits - 1))
