"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the package internals it is
used to check: flat and flipped indices are written out from the documented
layout, dense Hamiltonians are built by explicit Kronecker products, small
linear systems are solved by eigen-decomposition, RK4 is run on the complex
flat vector, and F(t) is reduced one sample at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def flat_index(sector: int, z1: int, z2: int, n_qubits: int) -> int:
    """Flat position of matrix element (z1, z2) of the given sector."""
    d = 2**n_qubits
    return (sector * d + z1) * d + z2


def flip_index(z: int, j: int, n_qubits: int) -> int:
    """Flip of qubit j (1-based); an involution on configuration indices."""
    if not 1 <= j <= n_qubits:
        raise ValueError(f"qubit index {j} out of range 1..{n_qubits}")
    return z ^ (1 << (j - 1))


def kron_chain(ops: list[np.ndarray]) -> np.ndarray:
    """Tensor product with qubit 1 (ops[0]) innermost / fastest-varying."""
    acc = ops[0]
    for op in ops[1:]:
        acc = np.kron(op, acc)
    return acc


def single_site(op: np.ndarray, j: int, n: int) -> np.ndarray:
    """op acting on qubit j (1-based) of an n-qubit register."""
    ops = [I2] * n
    ops[j - 1] = op
    return kron_chain(ops)


def dense_hamiltonian(omega, epsilon, j_coupling) -> np.ndarray:
    """Brute-force qubit Hamiltonian sum_i (w_i X_i + e_i Z_i) + sum J_i Z_i Z_{i+1}."""
    n = len(omega)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        h += omega[i] * single_site(SX, i + 1, n)
        h += epsilon[i] * single_site(SZ, i + 1, n)
    for i in range(n - 1):
        h += j_coupling[i] * single_site(SZ, i + 1, n) @ single_site(SZ, i + 2, n)
    return h


def eig_propagate(m: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """Solve dp/dt = M p by eigen-decomposition (general small dense M)."""
    vals, vecs = np.linalg.eig(m)
    coeff = np.linalg.solve(vecs, p0.astype(complex))
    return vecs @ (np.exp(vals * t) * coeff)


def complex_rk4(csr, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float) -> np.ndarray:
    """Samples of RK4 on the complex flat vector: the dense one-step matrix
    P(dt L) = sum_{j<=4} (dt L)^j / j!, raised to the steps per sample."""
    a = dt * csr.toarray()
    step = term = np.eye(len(a), dtype=complex)
    for j in range(1, 5):
        term = term @ a / j
        step = step + term
    hop = np.linalg.matrix_power(step, steps_per_sample)
    out = [np.asarray(v0, dtype=complex)]
    for _ in range(n_intervals):
        out.append(hop @ out[-1])
    return np.array(out)


def fidelity(rho0: np.ndarray, rho_rot: np.ndarray) -> float:
    """Overlap Tr[rho(0) rho'(t)] of one sample, with unit-trace and realness checks."""
    tr0 = complex(np.trace(rho0))
    tr1 = complex(np.trace(rho_rot))
    if abs(tr0 - 1.0) > 1e-6 or abs(tr1 - 1.0) > 1e-6:
        raise ValueError(f"fidelity needs unit-trace inputs: traces {tr0:.6g}, {tr1:.6g}")
    f = complex(np.trace(rho0 @ rho_rot))
    if abs(f.imag) > 1e-10:
        raise ValueError(f"fidelity has non-real value {f}; inputs not hermitian?")
    return f.real


def fidelity_series_loop(times, flat_states, rho0, omega_prime, n_qubits, n_sectors) -> np.ndarray:
    """F(t) sample by sample through the single-sample reductions."""
    from qdfsim.analysis import qubit_dm_from_flat, rotating_frame

    return np.array(
        [
            fidelity(rho0, rotating_frame(qubit_dm_from_flat(vec, n_qubits, n_sectors), omega_prime, t))
            for t, vec in zip(times, flat_states)
        ]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)
