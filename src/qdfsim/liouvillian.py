"""Sector-resolved density-matrix generator for qubits measured through a
two-barrier detector with an internal island.

The detector island holds 0, 1 (spin up/down) or 2 electrons, so the joint
state is carried by four matrices over configuration pairs (z1, z2):

* ``rho_a``   -- empty island,
* ``rho_b_up`` / ``rho_b_dn`` -- singly occupied island,
* ``rho_c``   -- doubly occupied island.

The joint state on qubits (x) island obeys a Lindblad master equation,
with ``H = diag(E) + sum_j omega_j X_j`` (``E_z`` the diagonal configuration
energy, ``X_j`` the flip of qubit j, D = 2^N configurations)::

    d rho/dt = -i [H (x) I, rho] + sum_k (L_k rho L_k^+ - {L_k^+ L_k, rho} / 2)

``channels`` lists the jumps ``L = diag(sqrt(r)) (x) |to><from|``; per spin
sector b of the island there are four::

    diag(sqrt GL)  (x) |b><a|      diag(sqrt GR)  (x) |a><b|
    diag(sqrt GL') (x) |c><b|      diag(sqrt GR') (x) |b><c|

Jumps keep the island diagonal, so the four sector matrices close: a jump
adds ``sqrt(r) sqrt(r)^T o rho_from`` to the ``to`` sector and
``-(r (+) r) / 2 o rho_from`` to its own (``o`` elementwise,
``(u (+) v)[z1, z2] = u[z1] + v[z2]``).  With the row-major identity
``vec(A rho B) = (A (x) B^T) vec rho`` and H real symmetric, the commutator
is ``-i (H (x) I - I (x) H)`` on every sector.

The island is spin degenerate, so the evolution closes on
(a, b_up + b_dn, c).  ``reduce_spin_symmetric`` builds that three-sector
generator as the projection ``P L E``: ``P`` sums the b_up and b_dn rows,
and ``E`` embeds the reduced b as an even split.  The channels out of a and
c have multiplicity 2, one jump per spin, hence the factor 2 on the reduced
b gains; a and c gain from each spin half of b, which sums to the plain b.

Flat layout (the contract shared with the integrator and the exact-exponential
oracle): sector-major, then z1-major, z2-minor::

    flat index = (sector_index * D + z1) * D + z2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import ModelParams, config_energies
from .rates import rate_table

SECTORS_FULL = ("a", "b_up", "b_dn", "c")
SECTORS_REDUCED = ("a", "b", "c")

# Trace check bound per unit of max(1, max|L|): a column sum over the trace
# rows adds a few terms of size up to max|L|, so rounding leaves a few ulps
# of max|L| (about 1e-16 relative), far inside this bound.
_TRACE_TOL = 1e-12


@dataclass
class SectorDM:
    """A density matrix with an empty island: ``rho_a`` in sector a, every
    other sector zero."""

    rho_a: np.ndarray

    def __post_init__(self) -> None:
        shape = self.rho_a.shape
        d = shape[0]
        if shape != (d, d) or d & (d - 1):
            raise ValueError(f"rho_a must be square with power-of-two size, got {shape}")

    def flatten(self, sectors: tuple[str, ...] = SECTORS_FULL) -> np.ndarray:
        """Flat vector in the documented layout, full or spin-reduced."""
        if sectors not in (SECTORS_FULL, SECTORS_REDUCED):
            raise ValueError(f"unknown sector layout {sectors}")
        zeros = np.zeros((len(sectors) - 1) * self.rho_a.size, dtype=self.rho_a.dtype)
        return np.concatenate([self.rho_a.reshape(-1), zeros])


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

    def dump(self) -> str:
        """Debug text form: one line per entry, sorted lexicographically.

        Line format: ``sector,z1,z2 <- sector,w1,w2 : re,im`` with
        zero-padded configuration indices.
        """
        d = 2**self.n_qubits
        m = self.csr.tocoo()
        lines = []
        for r, c, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
            s1, z1, z2 = r // (d * d), (r // d) % d, r % d
            s2, w1, w2 = c // (d * d), (c // d) % d, c % d
            lines.append(
                f"{self.sectors[s1]},{z1:03d},{z2:03d} <- "
                f"{self.sectors[s2]},{w1:03d},{w2:03d} : {v.real!r},{v.imag!r}"
            )
        return "\n".join(sorted(lines)) + "\n"


def _canonical(n_qubits: int, sectors: tuple[str, ...], m: sp.spmatrix) -> Generator:
    """Generator on the canonical complex CSR form of m, checked for finite
    entries and then for trace preservation to ``_TRACE_TOL * max(1, max|L|)``."""
    csr = m.tocsr().astype(np.complex128)
    csr.eliminate_zeros()
    csr.sort_indices()
    if not np.isfinite(csr.data).all():  # overflowing rates or energies
        raise ValueError("generator has a non-finite entry")
    g = Generator(n_qubits, sectors, csr)
    defect = trace_violation(g)
    bound = _TRACE_TOL * max(1.0, float(np.abs(csr.data).max(initial=0.0)))
    if defect > bound:
        raise ValueError(f"generator is not trace preserving: defect {defect:.3e} > {bound:.1e}")
    return g


def channels(p: ModelParams) -> list[tuple[str, tuple[str, ...], np.ndarray]]:
    """The island's jump channels as ``(from sector, to sectors, rate)``.

    Each target is one jump ``diag(sqrt(rate)) (x) |to><from|``.  The empty
    island fills through the left barrier (GL), the full one empties through
    the right (GR'), and each spin leaves for c (GL') and then for a (GR), the
    summation order of the b loss.
    """
    t = rate_table(p)
    spins = ("b_up", "b_dn")
    out = [("a", spins, t.gamma_L)]
    for b in spins:
        out += [(b, ("c",), t.gamma_L_primed), (b, ("a",), t.gamma_R)]
    return out + [("c", spins, t.gamma_R_primed)]


@np.errstate(over="ignore", invalid="ignore")  # _canonical refuses what overflows
def assemble(p: ModelParams) -> Generator:
    """Assemble the full four-sector generator from the model parameters."""
    d = 2**p.n_qubits
    z = np.arange(d)
    h = np.diag(config_energies(p))
    for j, w in enumerate(p.omega):
        h[z, z ^ (1 << j)] += w
    h = sp.csr_matrix(h)
    eye = sp.identity(d, format="csr")
    coherent = -1j * (sp.kron(h, eye) - sp.kron(eye, h))
    # a gain block per jump; a loss block of minus half the escape sum, in channel order
    blocks = [[None] * len(SECTORS_FULL) for _ in SECTORS_FULL]
    escape = [0.0] * len(SECTORS_FULL)
    for src, targets, r in channels(p):
        s, m = SECTORS_FULL.index(src), len(targets)
        for to in targets:
            blocks[SECTORS_FULL.index(to)][s] = sp.diags(np.outer(np.sqrt(r), np.sqrt(r)).ravel())
        escape[s] = escape[s] + m * r[:, None] + m * r[None, :]
    for s, e in enumerate(escape):
        blocks[s][s] = sp.diags((-0.5 * e).ravel())
    coherent_all = sp.kron(sp.identity(len(SECTORS_FULL)), coherent)
    return _canonical(p.n_qubits, SECTORS_FULL, coherent_all + sp.bmat(blocks))


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
