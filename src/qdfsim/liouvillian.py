"""Sector-resolved density-matrix generator for qubits measured through a
two-barrier detector with an internal island.

The detector island holds 0, 1 (spin up/down) or 2 electrons, so the joint
state is carried by four matrices over configuration pairs (z1, z2):

* ``rho_a``   -- empty island,
* ``rho_b_up`` / ``rho_b_dn`` -- singly occupied island,
* ``rho_c``   -- doubly occupied island.

Every sector obeys one equation (D = 2^N configurations, ``o`` the
elementwise product)::

    d rho_s/dt = -i [H, rho_s] + sum_s' K_ss' o rho_s'

with the qubit Hamiltonian ``H = diag(E) + sum_j omega_j X_j`` (``E_z`` the
diagonal configuration energy, ``X_j`` the flip of qubit j) and D x D rate
matrices built from the configuration rate table (GL, GR and their primed
values); ``b`` is either spin sector, and the two never couple::

    K_aa = -(GL (+) GL)                    K_ab = sqrt(GR) sqrt(GR)^T
    K_bb = -(GL' (+) GL' + GR (+) GR) / 2  K_ba = sqrt(GL) sqrt(GL)^T
                                           K_bc = sqrt(GR') sqrt(GR')^T
    K_cc = -(GR' (+) GR')                  K_cb = sqrt(GL') sqrt(GL')^T

where ``(u (+) v)[z1, z2] = u[z1] + v[z2]``.  ``assemble`` writes exactly
that.  With the row-major identity ``vec(A rho B) = (A (x) B^T) vec rho`` and
H real symmetric, the commutator is ``-i (H (x) I - I (x) H)`` on every
sector; the rates are one 4 x 4 block table of ``diag(K_ss'.ravel())``
blocks.

The island is spin degenerate, so the evolution closes on
(a, b_up + b_dn, c).  ``reduce_spin_symmetric`` builds that three-sector
generator (768 coupled equations for four qubits) as the projection
``P L E``: ``P`` sums the b_up and b_dn rows, and ``E`` embeds the reduced b
as an even split.  Both spin rows gain ``K_ba o a``, so the reduced b row
gains ``2 K_ba o a`` (and ``2 K_bc o c``); that is the factor 2 on the
reduced b gains.  The a row gains ``K_ab o (b/2)`` from each spin sector,
which sums to the plain ``K_ab o b``, and likewise for c.

Flat layout (the contract shared with the integrator and the exact-exponential
oracle): sector-major, then z1-major, z2-minor::

    flat index = (sector_index * D + z1) * D + z2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, config_energy
from .rates import rate_table

SECTORS_FULL = ("a", "b_up", "b_dn", "c")
SECTORS_REDUCED = ("a", "b", "c")

# Trace check bound per unit of max(1, max|L|): a column sum over the trace
# rows adds a few terms of size up to max|L|, so rounding leaves a few ulps
# of max|L| (about 1e-16 relative), far inside this bound.
_TRACE_TOL = 1e-12


@dataclass
class SectorDM:
    """Density matrix resolved over the four island charge sectors.

    Physical states keep every matrix hermitian, the summed trace equal to
    one, and diagonal entries real and non-negative (up to integrator
    tolerance).
    """

    rho_a: np.ndarray
    rho_b_up: np.ndarray
    rho_b_dn: np.ndarray
    rho_c: np.ndarray

    def __post_init__(self) -> None:
        shape = self.rho_a.shape
        d = shape[0]
        if shape != (d, d) or d & (d - 1):
            raise ValueError(f"sector matrices must be square with power-of-two size, got {shape}")
        for m in (self.rho_b_up, self.rho_b_dn, self.rho_c):
            if m.shape != shape:
                raise ValueError("all sector matrices must share one shape")

    def flatten(self, sectors: tuple[str, ...] = SECTORS_FULL) -> np.ndarray:
        """Flat vector in the documented layout, full or spin-reduced."""
        if sectors == SECTORS_FULL:
            mats = (self.rho_a, self.rho_b_up, self.rho_b_dn, self.rho_c)
        elif sectors == SECTORS_REDUCED:
            mats = (self.rho_a, self.rho_b_up + self.rho_b_dn, self.rho_c)
        else:
            raise ValueError(f"unknown sector layout {sectors}")
        return np.concatenate([m.reshape(-1) for m in mats])


@dataclass(eq=False)
class Generator:
    """Sparse time-independent generator L with d(vec rho)/dt = L . vec rho.

    ``csr`` is canonical: complex, sorted column indices, no duplicates and
    no explicit zeros, so construction is deterministic.  The object is
    immutable by convention.
    """

    n_qubits: int
    sectors: tuple[str, ...]
    csr: sp.csr_matrix

    @property
    def dim(self) -> int:
        return len(self.sectors) * 4**self.n_qubits

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def matrix(self) -> sp.csr_matrix:
        return self.csr

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Exact sparse product L @ v (row-wise, fixed summation order)."""
        if v.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: generator {self.dim}, vector {v.shape[0]}")
        return self.csr @ v

    def as_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def entries(self) -> Iterator[tuple[int, int, complex]]:
        """(row, col, value) triples in (row, col) order."""
        m = self.csr
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        yield from zip(rows.tolist(), m.indices.tolist(), m.data.tolist())

    def dump(self) -> str:
        """Debug text form: one line per entry, sorted lexicographically.

        Line format: ``sector,z1,z2 <- sector,w1,w2 : re,im`` with
        zero-padded configuration indices.
        """
        d = 2**self.n_qubits
        lines = []
        for r, c, v in self.entries():
            s1, z1, z2 = r // (d * d), (r // d) % d, r % d
            s2, w1, w2 = c // (d * d), (c // d) % d, c % d
            lines.append(
                f"{self.sectors[s1]},{z1:03d},{z2:03d} <- "
                f"{self.sectors[s2]},{w1:03d},{w2:03d} : {v.real!r},{v.imag!r}"
            )
        return "\n".join(sorted(lines)) + "\n"


def _canonical(n_qubits: int, sectors: tuple[str, ...], m: sp.spmatrix) -> Generator:
    """Generator on the canonical complex CSR form of m, checked for trace
    preservation to ``_TRACE_TOL * max(1, max|L|)``."""
    csr = m.tocsr().astype(np.complex128)
    csr.eliminate_zeros()
    csr.sort_indices()
    g = Generator(n_qubits, sectors, csr)
    defect = trace_violation(g)
    bound = _TRACE_TOL * max(1.0, float(np.abs(csr.data).max(initial=0.0)))
    if not defect <= bound:  # a NaN defect (overflowing rates) is refused too
        raise ValueError(f"generator is not trace preserving: defect {defect:.3e} > {bound:.1e}")
    return g


def assemble(p: ModelParams) -> Generator:
    """Assemble the full four-sector generator from the model parameters."""
    n = p.n_qubits
    d = 2**n
    rates = rate_table(p)
    gl, gr = rates.gamma_L, rates.gamma_R
    glp, grp = rates.gamma_L_primed, rates.gamma_R_primed

    z = np.arange(d)
    h = np.diag([config_energy(k, p) for k in range(d)])
    for j, w in enumerate(p.omega):
        h[z, z ^ (1 << j)] += w
    h = sp.csr_matrix(h)
    eye = sp.identity(d, format="csr")
    coherent = -1j * (sp.kron(h, eye) - sp.kron(eye, h))

    def gain(rate: np.ndarray) -> np.ndarray:
        return np.outer(np.sqrt(rate), np.sqrt(rate))

    def ksum(rate: np.ndarray) -> np.ndarray:
        return rate[:, None] + rate[None, :]

    # summed left to right, GL'[z1] + GL'[z2] + GR[z1] + GR[z2], so every bit of
    # the b loss is reproducible against the written equations
    loss_b = -0.5 * (glp[:, None] + glp[None, :] + gr[:, None] + gr[None, :])
    table = [
        [-ksum(gl), gain(gr), gain(gr), None],
        [gain(gl), loss_b, None, gain(grp)],
        [gain(gl), None, loss_b, gain(grp)],
        [None, gain(glp), gain(glp), -ksum(grp)],
    ]
    blocks = [[None if k is None else sp.diags(k.ravel()) for k in row] for row in table]
    m = sp.kron(sp.identity(len(SECTORS_FULL)), coherent) + sp.bmat(blocks)
    return _canonical(n, SECTORS_FULL, m)


def reduce_spin_symmetric(g: Generator) -> Generator:
    """Project the four-sector generator onto (a, b_up + b_dn, c).

    Valid because the model never distinguishes the island spin: the full
    generator commutes with the b_up <-> b_dn swap, so the projection
    pi(v) = (a, b_up + b_dn, c) intertwines the two evolutions exactly for
    every vector, not just symmetric ones.  The reduced generator is
    ``P L E`` with ``P = pi`` and ``E`` the even split of b, a right inverse
    of ``P``.
    """
    if g.sectors != SECTORS_FULL:
        raise ValueError("reduce_spin_symmetric expects the full four-sector generator")
    fold = np.array([[1.0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    split = fold.T * np.array([[1.0], [0.5], [0.5], [1.0]])
    eye = sp.identity(4**g.n_qubits, format="csr")
    m = sp.kron(fold, eye, format="csr") @ g.csr @ sp.kron(split, eye, format="csr")
    return _canonical(g.n_qubits, SECTORS_REDUCED, m)


def trace_violation(g: Generator) -> float:
    """Largest column sum of L over the trace-functional rows.

    Identically zero for a correctly assembled generator: the inter-sector
    gain/loss terms cancel exactly and the coherent flips are commutators.
    """
    d = 2**g.n_qubits
    # flat indices of every (sector, z, z) entry: their sum is the total trace
    trace_rows = np.arange(len(g.sectors))[:, None] * d * d + np.arange(d) * (d + 1)
    col_sums = np.asarray(g.csr[trace_rows.ravel(), :].sum(axis=0)).ravel()
    return float(np.abs(col_sums).max())
