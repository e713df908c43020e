"""Time evolution of flat sector vectors under the sparse generator.

:func:`evolve_rk4` is classical fixed-step fourth-order Runge-Kutta.  For a
time-independent linear system the RK4 update is the fixed polynomial
``P(dt L) = 1 + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24`` applied once
per step, so a sample interval of m steps is the map ``P(dt L)^m``.  Three
routes apply that same map and differ only in how it is evaluated:

* stepwise: the four sparse products of each step, one step at a time;
* dense propagator: ``P(dt L)`` formed once as a dense matrix, raised to the
  m-th power, and applied sample to sample with BLAS products;
* Krylov: ``P(dt L)^s x`` evaluated in an Arnoldi basis of the sparse L and
  x (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, SIAM J.
  Numer. Anal. 34, 1911 (1997)) as ``|x| V_k P(dt H_k)^s e_1``.  One basis
  serves every power s, so it advances its column over as many samples as
  its a-posteriori estimate ``h_{k+1,k} |e_k^T P(dt H_k)^s e_1|`` allows
  (at most 1e-13 relative to |x|), in pieces of one sample or of at most
  ``3 / (dt ||L||_inf)`` steps, and each sample it crosses is written from
  it (Expokit's dense output, Sidje, ACM TOMS 24, 130 (1998)); the next
  basis starts from the last accepted state.  The projection is exact on a
  breakdown and whenever the degree 4s is below k, so a piece that misses
  the estimate in a fresh basis of 60 vectors is retried at half the steps
  and always ends.  The result is RK4's map up to that projection error,
  not another integrator: the step ``dt`` keeps its truncation error and its
  stability limit.

Routing: a generator of dimension 768 and above (N >= 4) takes the Krylov
route for any non-zero horizon, so no dense matrix of its dimension is
built; smaller ones (N <= 3) take the stepwise loop for short runs and the
dense propagator for long ones, which beats Krylov on long runs of a few
columns at these sizes (about 23 ms against 110 ms for 3 general columns
at N = 3 with bias and coupling, t = 50).

:func:`evolve_expm` is the independent dense reference: scaling-and-squaring
Pade matrix exponential of ``L t`` applied to the initial vector.

All RK4 routes run in real coordinates.  Every sector block rho_s is
hermitian and L maps hermitian blocks to hermitian blocks (H is real
symmetric, every rate matrix K_ss' is real), so in the coordinates
``x = S vec(rho)`` with, per sector, ``x[z,z] = rho_zz``, ``x[i,j] = Re rho_ij``
and ``x[j,i] = Im rho_ij`` for i < j, the generator ``L_r = S L S^-1`` is a
real matrix of the same dimension.  S has the exact factors 0.5 and -+0.5i
and S^-1 the factors 1 and +-i, so ``S^-1 S = I`` bit for bit.  Because
``P(dt S L S^-1) = S P(dt L) S^-1``, RK4 on ``x`` is the same scheme as RK4
on ``vec(rho)``; real products cost a quarter of the flops of complex ones
and hold half the memory.

* Inputs are stacks of hermitian sector blocks, whose ``S v`` is exactly
  real; any other input raises ValueError.
* ``L_r`` is formed once per evolution and its relative imaginary residual
  checked against :data:`REAL_FORM_TOL`; a generator that breaks
  hermiticity raises ValueError, its imaginary part is never dropped.
* One writer maps samples back with S^-1 one at a time and hands them to a
  sink in blocks of at most :data:`_BLOCK_BYTES`; :class:`Collect` keeps them.

The spectrum of the generator is set by rates and couplings of order one, so
the step ``dt = 1e-3`` of every figure run resolves it with a wide margin; no
stiffness handling is attempted (rates orders of magnitude above the
coupling would need an implicit scheme, which is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .liouvillian import Generator

# Largest dimension of the dense evolve_expm oracle.
_DENSE_LIMIT = 4096
# Generators of this dimension and above (N >= 4) take the Krylov route.
_KRYLOV_MIN_DIM = 768
# Runs below that dimension of at most this many total steps take the plain
# sparse loop.  It is not the faster route (at N = 2 over 500-2,500 steps it
# takes 14-67 ms, the dense propagator 1-2 ms); it stays for the benchmark's
# stepwise span and as the reference `qdfsim verify` checks evolve_rk4 against.
_STEPWISE_CUTOFF = 2500
# Krylov route: largest basis, error bound per chunk relative to |x|, and the
# bound on (steps per chunk) * dt * ||L_r||_inf.
_KRYLOV_MAX_BASIS = 60
_KRYLOV_TOL = 1e-13
_KRYLOV_CHUNK_NORM = 3.0
_EPS = float(np.finfo(np.float64).eps)
# Arnoldi reorthogonalizes a vector when one Gram-Schmidt pass leaves less
# than this share of its norm.
_DGKS = 1 / math.sqrt(2)
# Largest number of samples a grid may hold: a run writes a CSV row for each.
_MAX_SAMPLES = 100_000
# Largest block of complex samples a sink receives, in bytes (at least one
# sample).  A run holds one block, so this bounds its sample memory: a
# fig-style N = 5 run peaks at 4.8 MiB of traced allocations, against 8.9 MiB
# with 4 MiB blocks.  Below 1 MiB the generator build and the Krylov loop set
# the peak (4.1 MiB with 512 KiB blocks).  The CPU time of a fig3b group
# (three columns, 501 samples, 18 blocks) reads 0.23 s at both 4 and 1 MiB,
# and 0.27 s at 512 KiB, with overlapping quartiles.
_BLOCK_BYTES = 2**20
# Bound on max|Im S L S^-1| / max|L|; rounding leaves about 1e-16.
REAL_FORM_TOL = 1e-14


class Collect:
    """A sink that keeps every sample: ``times`` (n,) and ``states`` (n, dim[, k])."""

    def __call__(self, times: np.ndarray, block: np.ndarray) -> None:
        self.times = np.concatenate([getattr(self, "times", times[:0]), times])
        self.states = np.concatenate([getattr(self, "states", block[:0]), block])


@dataclass(frozen=True, eq=False)
class RealForm:
    """The generator in real hermitian coordinates ``x = S v``."""

    s: sp.csr_matrix
    s_inv: sp.csr_matrix
    l_r: sp.csr_matrix  # Re(S L S^-1), float64 with contiguous data
    imag_residual: float  # max|Im S L S^-1| / max|L|


def hermitian_maps(n_sectors: int, d: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """S and S^-1 for ``n_sectors`` stacked d x d blocks in the flat layout.

    Row (s, i, j) of S reads rho_ij for i == j, Re rho_ij = (rho_ij + rho_ji)/2
    for i < j and Im rho_ji = (-i rho_ji + i rho_ij)/2 for i > j.
    """
    r = np.arange(n_sectors * d * d)
    z1, z2 = (r // d) % d, r % d
    mirror = r + (z2 - z1) * (d - 1)  # flat index of (s, z2, z1)
    upper, off = z1 < z2, z1 != z2
    rows = np.concatenate([r, r[off]])
    cols = np.concatenate([r, mirror[off]])

    def build(diag, own_upper, own_lower, mirror_upper, mirror_lower):
        own = np.where(upper, own_upper, np.where(off, own_lower, diag))
        data = np.concatenate([own, np.where(upper, mirror_upper, mirror_lower)[off]])
        return sp.csr_matrix((data.astype(np.complex128), (rows, cols)), shape=(r.size, r.size))

    return build(1.0, 0.5, 0.5j, 0.5, -0.5j), build(1.0, 1.0, -1j, 1j, 1.0)


def real_form(g: Generator) -> RealForm:
    """S, S^-1 and ``Re(S L S^-1)`` of g, with the relative imaginary residual."""
    s, s_inv = hermitian_maps(len(g.sectors), 2**g.n_qubits)
    l_c = (s @ g.csr @ s_inv).tocsr()
    scale = np.abs(g.csr.data).max(initial=0.0)
    imag = np.abs(l_c.data.imag).max(initial=0.0)
    # l_c.real would view the complex data at a stride of 16 bytes, which
    # every sparse product then copies; own contiguous values instead
    values = np.ascontiguousarray(l_c.data.real)
    l_r = sp.csr_matrix((values, l_c.indices, l_c.indptr), shape=l_c.shape)
    l_r.eliminate_zeros()
    return RealForm(s, s_inv, l_r, imag / scale if scale > 0.0 else 0.0)


def _checked_real_form(g: Generator) -> RealForm:
    rf = real_form(g)
    if rf.imag_residual > REAL_FORM_TOL:
        raise ValueError(
            f"generator does not preserve hermiticity: max|Im S L S^-1| / max|L| = "
            f"{rf.imag_residual:.3e} > {REAL_FORM_TOL:.0e}"
        )
    return rf


def _to_real(rf: RealForm, v0: np.ndarray) -> np.ndarray:
    """Real columns of S v0, shape (dim, k), for k stacks of hermitian blocks."""
    x = rf.s @ v0.reshape(v0.shape[0], -1)
    if x.imag.any():
        raise ValueError("initial state breaks hermiticity: S v0 is not real")
    return np.ascontiguousarray(x.real)


def _sample_grid(t_end: float, dt: float, sample_interval: float) -> tuple[int, int]:
    """Validate the grid and return (n_intervals, steps_per_sample)."""
    for name, value in (("t_end", t_end), ("sample_interval", sample_interval), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if sample_interval <= 0.0:
        raise ValueError(f"sample_interval must be positive, got {sample_interval}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = sample_interval / dt
    if not math.isfinite(steps):
        raise ValueError(f"sample_interval={sample_interval} over dt={dt} is past the float range")
    steps_per_sample = int(round(steps))
    if steps_per_sample < 1 or abs(steps_per_sample * dt - sample_interval) > 1e-9 * sample_interval:
        raise ValueError(f"dt={dt} must divide the sample interval {sample_interval}")
    n_intervals = t_end / sample_interval
    if math.isfinite(n_intervals):  # an infinite count fails the sample bound below
        n_intervals = int(round(n_intervals))
        if abs(n_intervals * sample_interval - t_end) > 1e-9 * max(t_end, 1.0):
            raise ValueError(f"sample_interval={sample_interval} must divide t_end={t_end}")
    if n_intervals + 1 > _MAX_SAMPLES:
        raise ValueError(
            f"the grid holds {float(n_intervals + 1):.6g} samples, more than {_MAX_SAMPLES:,}"
        )
    return n_intervals, steps_per_sample


def _rk4_step_matrix(l_r: sp.csr_matrix, dt: float) -> np.ndarray:
    """Dense one-step matrix P(dt L_r) of the classical RK4 scheme."""
    scaled = (l_r * dt).tocsr()
    acc = sp.identity(l_r.shape[0], format="csr", dtype=l_r.dtype)
    term = acc
    for j in range(1, 5):
        term = (term @ scaled) / j
        acc = acc + term
    return acc.toarray()


def _samples(
    rf: RealForm, v0: np.ndarray, advance, n_intervals: int, steps_per_sample: int, dt: float, sink
) -> None:
    """The samples of a route: v0, then ``x = advance(x)`` from the real columns
    x of v0, each checked finite, mapped back with S^-1 and handed to
    ``sink(times, states)`` in consecutive blocks of at most ``_BLOCK_BYTES``
    and at least one sample, in one buffer that the next block overwrites.
    The samples before a non-finite one go to the sink before the FloatingPointError."""
    times = np.arange(n_intervals + 1) * (steps_per_sample * dt)
    size = max(1, _BLOCK_BYTES // (16 * v0.size))
    block = np.empty((min(size, n_intervals + 1),) + v0.shape, dtype=np.complex128)
    block[0] = v0
    x = _to_real(rf, v0)
    start = 0
    for i in range(1, n_intervals + 1):
        x = advance(x)
        finite = np.isfinite(x)
        if not finite.all():
            sink(times[start:i], block[: i - start])
            largest = (
                f"largest finite entry {np.abs(x[finite]).max():.3e}"
                if finite.any()
                else "no entry is finite"
            )
            raise FloatingPointError(
                f"integration produced a non-finite value at step {i * steps_per_sample}; {largest}"
            )
        if i - start == len(block):
            sink(times[start:i], block)
            start = i
        block[i - start] = (rf.s_inv @ x).reshape(v0.shape)
    sink(times[start:], block[: n_intervals + 1 - start])


def _evolve_propagator(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float, sink
) -> None:
    rf = _checked_real_form(g)
    # the one-step matrix is freed before the samples are written and reduced
    hop = np.linalg.matrix_power(_rk4_step_matrix(rf.l_r, dt), steps_per_sample)
    # as (k, dim) @ hop^T: BLAS handles a few rows faster than a few columns
    _samples(rf, v0, lambda x: (x.T @ hop.T).T, n_intervals, steps_per_sample, dt, sink)


def _evolve_stepwise(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float, sink
) -> None:
    rf = _checked_real_form(g)
    half = 0.5 * dt
    sixth = dt / 6.0

    def advance(x, m=rf.l_r):
        for _ in range(steps_per_sample):
            k1 = m @ x
            k2 = m @ (x + half * k1)
            k3 = m @ (x + half * k2)
            k4 = m @ (x + dt * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    _samples(rf, v0, advance, n_intervals, steps_per_sample, dt, sink)


def _rk4_power(h: np.ndarray, dt: float, m: int) -> np.ndarray:
    """P(dt h)^m for a small dense h and m >= 1, by binary powering.

    P is the polynomial of :func:`_rk4_step_matrix`; the powers are not taken
    with ``np.linalg.matrix_power``, which the dense route alone uses.
    """
    scaled = dt * h
    step = term = np.eye(len(h))
    for j in range(1, 5):
        term = (term @ scaled) / j
        step = step + term
    power = None
    while m:
        if m & 1:
            power = step if power is None else power @ step
        m >>= 1
        if m:
            step = step @ step
    return power


def _norm(w: np.ndarray) -> float:
    """|w|; where ``w @ w`` overflows, the norm of w scaled exactly by a power of two."""
    square = w @ w
    if math.isfinite(square):
        return math.sqrt(square)
    _, e = math.frexp(float(np.abs(w).max()))
    scaled = np.ldexp(w, -e)
    return float(np.ldexp(math.sqrt(scaled @ scaled), e))


def _arnoldi(
    l_r: sp.csr_matrix, x: np.ndarray, basis: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Arnoldi on L_r and a finite non-zero x, into the rows of ``basis``.

    One pass of classical Gram-Schmidt per vector, and a second one only when
    the first cancelled most of it (the DGKS test ``|w_after| < |w_before| /
    sqrt(2)``: Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)),
    build the orthonormal rows ``basis[:k]`` and the k x k Hessenberg h, for
    k up to the number of rows.  Returns (|x|, h, h[k, k-1]).  The last is
    0.0 when the space closed, where the projection is exact: at the full
    dimension, or on a breakdown, when what is left of ``L_r v_k`` is
    rounding.  Exact zeros in L_r leave about 1e-31 of it, not 0, and a
    vector made from that would be noise.  Norms are taken by :func:`_norm`:
    past |L_r v_k| of about 1.3e154 the square overflows, and an infinite
    norm would read as rounding (inf <= eps * inf) and close the space after
    one vector.
    """
    scale = float(np.abs(x).max())
    basis[0] = x / scale  # |x| itself may overflow while x does not
    beta = float(np.linalg.norm(basis[0]))
    basis[0] /= beta
    cap = basis.shape[0]
    h = np.zeros((cap, cap))
    for k in range(1, cap + 1):
        w = l_r @ basis[k - 1]
        product = h_next = _norm(w)
        for _ in range(2):
            c = basis[:k] @ w
            w -= c @ basis[:k]
            h[:k, k - 1] += c
            norm, h_next = h_next, _norm(w)
            if h_next >= norm * _DGKS:
                break
        if h_next <= _EPS * product or k == len(w):
            return beta * scale, h[:k, :k], 0.0
        if k < cap:
            h[k, k - 1] = h_next
            basis[k] = w / h_next
    return beta * scale, h, h_next


class _KrylovWalk:
    """One real column under RK4's map, walked in an Arnoldi basis.

    The basis of L_r and the state x it was built from serves every power of
    the step map: ``P(dt L_r)^s x`` is ``|x| V_k P(dt h_k)^s e_1`` for any s
    up to the projection error.  The walk keeps the coefficients y of the
    current state and advances them by ``P(dt h_k)^m`` in pieces of at most
    ``unit`` steps.  A piece is accepted when the basis is exact for it (a
    closed space, or a degree 4s below k) or when the estimate
    ``h[k, k-1] |y[k-1]|`` is at most ``_KRYLOV_TOL``; the first piece that
    is not restarts the basis from the last accepted state.  When not even
    the first piece of a fresh basis is accepted, the piece is halved for
    that basis alone; one step is exact in a basis of five.
    """

    def __init__(self, l_r: sp.csr_matrix, x: np.ndarray, dt: float, unit: int):
        self.l_r, self.dt, self.unit = l_r, dt, unit
        self.basis = np.empty((min(_KRYLOV_MAX_BASIS, l_r.shape[0]), l_r.shape[0]))
        self._restart(x)

    def _restart(self, x: np.ndarray) -> None:
        self.x, self.walked, self.piece, self.powers = x, 0, self.unit, {}
        scale = float(np.abs(x).max())
        if scale == 0.0 or not np.isfinite(scale):
            self.y = None  # zero stays zero; a non-finite state is left to the writer
            return
        self.beta, self.h, self.h_next = _arnoldi(self.l_r, x, self.basis)
        self.y = np.zeros(len(self.h))
        self.y[0] = 1.0

    def state(self) -> np.ndarray:
        """The current state, formed from the basis."""
        if not self.walked:
            return self.x
        return self.beta * (self.y @ self.basis[: len(self.y)])

    def advance(self, steps: int) -> np.ndarray:
        """The state ``steps`` RK4 steps on."""
        while steps and self.y is not None:
            m = min(self.piece, steps)
            if m not in self.powers:
                self.powers[m] = _rk4_power(self.h, self.dt, m)
            y = self.powers[m] @ self.y
            s, k = self.walked + m, len(y)
            if self.h_next == 0.0 or 4 * s < k or self.h_next * abs(y[-1]) <= _KRYLOV_TOL:
                self.y, self.walked, steps = y, s, steps - m
            elif self.walked:
                self._restart(self.state())
            else:
                self.piece = max(1, m // 2)
        return self.state()


def _evolve_krylov(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float, sink
) -> None:
    """RK4 samples with each column walked in Krylov bases of L_r.

    One basis serves as many samples as its estimate allows (the dense output
    of Sidje, ACM TOMS 24, 130 (1998)); see :class:`_KrylovWalk`.  It walks
    in pieces of one sample or, when ``dt ||L_r||_inf`` times a sample
    exceeds ``_KRYLOV_CHUNK_NORM``, of a sample split evenly into pieces
    within that bound (the last piece may be shorter).
    """
    rf = _checked_real_form(g)
    norm = float(abs(rf.l_r).sum(axis=1).max())  # largest absolute row sum
    chunk = steps_per_sample
    if norm * dt * chunk > _KRYLOV_CHUNK_NORM:
        chunk = max(1, int(_KRYLOV_CHUNK_NORM / (norm * dt)))
    pieces = (steps_per_sample + chunk - 1) // chunk
    unit = (steps_per_sample + pieces - 1) // pieces  # an even split of one sample
    walks = [_KrylovWalk(rf.l_r, x, dt, unit) for x in _to_real(rf, v0).T.copy()]
    advance = lambda _: np.stack([w.advance(steps_per_sample) for w in walks]).T  # noqa: E731
    _samples(rf, v0, advance, n_intervals, steps_per_sample, dt, sink)


def evolve_rk4(
    g: Generator,
    v0: np.ndarray,
    t_end: float,
    dt: float,
    sample_interval: float,
    sink,
) -> None:
    """Fixed-step RK4 samples every ``sample_interval`` time units, handed to
    ``sink`` in blocks (see :func:`_samples`).

    ``v0`` may be a single flat vector (dim,) or a batch (dim, k) sharing the
    generator.  The dimension and step count pick the route (see the module
    docstring); the routes realize the identical scheme and differ only by
    floating-point reassociation, and on the Krylov route by its projection
    error.  A generator that does not preserve hermiticity raises ValueError.
    """
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: generator {g.dim}, state {v0.shape[0]}")
    n_intervals, steps_per_sample = _sample_grid(t_end, dt, sample_interval)
    if g.dim >= _KRYLOV_MIN_DIM and n_intervals:  # a zero horizon needs no Krylov basis
        run = _evolve_krylov
    elif n_intervals * steps_per_sample <= _STEPWISE_CUTOFF:
        run = _evolve_stepwise
    else:
        run = _evolve_propagator
    run(g, v0, n_intervals, steps_per_sample, dt, sink)


def evolve_expm(g: Generator, v0: np.ndarray, t: float) -> np.ndarray:
    """Exact-exponential reference: exp(L t) @ v0 on the dense generator.

    This is the oracle all derived test values trust; it shares nothing with
    the RK4 route beyond the generator entries themselves.
    """
    if g.dim > _DENSE_LIMIT:
        raise ValueError(f"dense exponential infeasible above dim {_DENSE_LIMIT}, got {g.dim}")
    v0 = np.asarray(v0, dtype=np.complex128)
    if v0.shape[0] != g.dim:
        raise ValueError(f"dimension mismatch: generator {g.dim}, state {v0.shape[0]}")
    if t == 0.0:
        return v0.copy()
    import scipy.linalg  # here, not at module level: no run calls the oracle
    return scipy.linalg.expm(g.csr.toarray() * t) @ v0
