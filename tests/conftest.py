"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the package internals it is
used to check: flat and flipped indices are written out from the documented
layout, dense Hamiltonians are built by explicit Kronecker products, small
linear systems are solved by eigen-decomposition, RK4 is run on the complex
flat vector, and F(t) is reduced one sample at a time.  The qubit-only model
reads the package's channel table, the rates it approximates, and nothing the
generator is built with.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdfsim.liouvillian import SECTORS_REDUCED, channels
from qdfsim.model import ModelParams

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


def complex_rk4_sparse(csr, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float) -> np.ndarray:
    """The samples of ``complex_rk4``, one four-stage step at a time with sparse
    products, for generators whose dense matrix is too large to build."""
    x = np.asarray(v0, dtype=complex)
    out = [x]
    for _ in range(n_intervals):
        for _ in range(steps_per_sample):
            k1 = csr @ x
            k2 = csr @ (x + 0.5 * dt * k1)
            k3 = csr @ (x + 0.5 * dt * k2)
            k4 = csr @ (x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
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


def fidelity_series_loop(times, flat_states, rho0, omega_prime) -> np.ndarray:
    """F(t) sample by sample: the sectors summed entry by entry through
    ``flat_index``, and R(t) = prod_i (cos(w_i t) + i sin(w_i t) X_i) as the
    Kronecker chain of its one-qubit factors."""
    d = len(rho0)
    n = d.bit_length() - 1
    out = []
    for t, vec in zip(times, flat_states):
        sectors = range(len(vec) // (d * d))
        rho_q = np.zeros((d, d), dtype=complex)
        for z1 in range(d):
            for z2 in range(d):
                rho_q[z1, z2] = sum(vec[flat_index(s, z1, z2, n)] for s in sectors)
        r = kron_chain([np.cos(w * t) * I2 + 1j * np.sin(w * t) * SX for w in omega_prime])
        out.append(fidelity(rho0, r @ rho_q @ r.conj().T))
    return np.array(out)


def island_dephasing(p: ModelParams) -> np.ndarray:
    """Gamma(z1, z2), shape (D, D): minus the largest real part of the island's
    3 x 3 block over (a, b, c) for the configuration pair (z1, z2).

    Without H the reduced generator is block-diagonal over the pairs: a jump
    of rate r adds sqrt(r(z1) r(z2)) to each listed target and takes
    (r(z1) + r(z2)) / 2 per target from its source.  All D^2 blocks are solved
    in one batched ``np.linalg.eigvals``.
    """
    d = 2**p.n_qubits
    blocks = np.zeros((d, d, 3, 3))
    for src, targets, r in channels(p, SECTORS_REDUCED):
        s = SECTORS_REDUCED.index(src)
        for to in targets:
            blocks[:, :, SECTORS_REDUCED.index(to), s] += np.sqrt(np.outer(r, r))
            blocks[:, :, s, s] -= 0.5 * (r[:, None] + r[None, :])
    return -np.linalg.eigvals(blocks).real.max(axis=-1)


def qubit_only_generator(p: ModelParams) -> np.ndarray:
    """Dense ``L_q = -i[H, .] - Gamma o .`` on row-major D x D qubit matrices:
    the reduced generator with the island eliminated to zeroth order, each
    pair (z1, z2) dephasing at its slowest island rate Gamma(z1, z2)."""
    h = dense_hamiltonian(p.omega, p.epsilon, p.j_coupling)
    eye = np.eye(len(h))
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) - np.diag(island_dephasing(p).ravel())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)
