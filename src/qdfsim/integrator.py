"""Time evolution of flat sector vectors under the sparse generator.

:func:`evolve_rk4` is classical fixed-step fourth-order Runge-Kutta.  For a
time-independent linear system the RK4 update is the fixed polynomial
``P(dt L) = 1 + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24`` applied once
per step, so a sample interval of m steps is the map ``P(dt L)^m``.  Three
routes apply that same map and differ only in how it is evaluated:

* stepwise: the four sparse products of each step, one step at a time;
* dense propagator: ``P(dt L)`` formed once as a dense matrix, raised to the
  m-th power, and applied sample to sample with BLAS products;
* Krylov: ``P(dt L)^m x`` evaluated in an Arnoldi basis of the sparse L and
  x (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich, SIAM J.
  Numer. Anal. 34, 1911 (1997)) as ``|x| V_k P(dt H_k)^m e_1``.  Each chunk
  of at most ``3 / (dt ||L||_inf)`` steps is accepted when the a-posteriori
  estimate ``h_{k+1,k} |e_k^T P(dt H_k)^m e_1|`` is at most 1e-13 relative
  to |x|; the projection is exact on a breakdown and whenever the degree 4m
  is below k, so a chunk that misses the estimate within 60 basis vectors is
  retried at half the steps and always ends.  The result is RK4's map up to
  that projection error, not another integrator: the step ``dt`` keeps its
  truncation error and its stability limit.

Routing: a generator of dimension above 768 (N >= 5) takes the Krylov route,
so no dense matrix of its dimension is built; smaller ones take the
stepwise loop for short runs and the dense propagator for long ones.

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

* Any complex input is exact: the real and imaginary parts of ``S v`` are
  evolved as separate real columns; the imaginary ones are left out when
  they are exactly zero, as they are for hermitian blocks.
* ``L_r`` is formed once per evolution and its relative imaginary residual
  checked against :data:`REAL_FORM_TOL`; a generator that breaks
  hermiticity raises ValueError, its imaginary part is never dropped.
* Samples are mapped back with S^-1 one at a time into the complex output,
  so no real copy of the whole trajectory is held.

The spectrum of the generator is set by rates and couplings of order one, so
the default step ``dt = 1e-3`` resolves it with a wide margin; no stiffness
handling is attempted (rates orders of magnitude above the coupling would
need an implicit scheme, which is out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .liouvillian import Generator

DEFAULT_DT = 1e-3

# Largest dimension of the dense evolve_expm oracle.
_DENSE_LIMIT = 4096
# Generators above this dimension (N >= 5) take the Krylov route.
_KRYLOV_MIN_DIM = 768
# Below this many total steps the plain sparse loop beats building and
# powering the dense one-step matrix.
_STEPWISE_CUTOFF = 2500
# Krylov route: largest basis, error bound per chunk relative to |x|, and the
# bound on (steps per chunk) * dt * ||L_r||_inf.
_KRYLOV_MAX_BASIS = 60
_KRYLOV_TOL = 1e-13
_KRYLOV_CHUNK_NORM = 3.0
# Largest number of samples a grid may hold: the trajectory keeps every one.
_MAX_SAMPLES = 100_000
# Bound on max|Im S L S^-1| / max|L|; rounding leaves about 1e-16.
REAL_FORM_TOL = 1e-14


@dataclass
class Trajectory:
    """Sampled states of one evolution.

    ``states`` has shape (n_samples, dim) for a single initial vector or
    (n_samples, dim, k) for a batch evolved under the same generator.
    """

    times: np.ndarray
    states: np.ndarray

    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class RealForm:
    """The generator in real hermitian coordinates ``x = S v``."""

    s: sp.csr_matrix
    s_inv: sp.csr_matrix
    l_r: sp.csr_matrix  # Re(S L S^-1), float64
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
    l_r = sp.csr_matrix(l_c.real)
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
    """Real columns of S v0, shape (dim, 2k): the real parts, then the
    imaginary parts.  Those are exactly zero for hermitian blocks and are
    then left out, giving shape (dim, k)."""
    x = rf.s @ v0.reshape(v0.shape[0], -1)
    if not x.imag.any():
        return np.ascontiguousarray(x.real)
    return np.concatenate([x.real, x.imag], axis=1)


def _from_real(rf: RealForm, x: np.ndarray, out: np.ndarray) -> None:
    """Write S^-1 of the real columns x, recombined as Re + i Im, into ``out``."""
    k = out.size // out.shape[0]
    y = x if x.shape[1] == k else x[:, :k] + 1j * x[:, k:]
    out[...] = (rf.s_inv @ y).reshape(out.shape)


def _check_finite(state: np.ndarray, step: int) -> None:
    if not np.isfinite(state).all():
        mask = np.isfinite(state)
        peak = float(np.abs(state[mask]).max()) if mask.any() else float("nan")
        raise FloatingPointError(
            f"integration produced a non-finite value at step {step}; "
            f"largest finite entry {peak:.3e}"
        )


def _sample_grid(t_end: float, dt: float, sample_interval: float | None) -> tuple[int, int]:
    """Validate the grid and return (n_intervals, steps_per_sample)."""
    for name, value in (("t_end", t_end), ("sample_interval", sample_interval), ("dt", dt)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if sample_interval is not None and sample_interval <= 0.0:
        raise ValueError(f"sample_interval must be positive, got {sample_interval}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sample_interval is None:
        sample_interval = t_end if t_end > 0.0 else dt
    steps_per_sample = int(round(sample_interval / dt))
    if steps_per_sample < 1 or abs(steps_per_sample * dt - sample_interval) > 1e-9 * sample_interval:
        raise ValueError(f"dt={dt} must divide the sample interval {sample_interval}")
    n_intervals = int(round(t_end / sample_interval))
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


def _evolve_propagator(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float
) -> np.ndarray:
    rf = _checked_real_form(g)
    step = _rk4_step_matrix(rf.l_r, dt)
    hop = np.linalg.matrix_power(step, steps_per_sample)
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    x = _to_real(rf, v0)
    for i in range(1, n_intervals + 1):
        # as (k, dim) @ hop^T: BLAS handles a few rows faster than a few columns
        x = (x.T @ hop.T).T
        _check_finite(x, i * steps_per_sample)
        _from_real(rf, x, out[i])
    return out


def _evolve_stepwise(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float
) -> np.ndarray:
    rf = _checked_real_form(g)
    m = rf.l_r
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    x = _to_real(rf, v0)
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_intervals + 1):
        for _ in range(steps_per_sample):
            k1 = m @ x
            k2 = m @ (x + half * k1)
            k3 = m @ (x + half * k2)
            k4 = m @ (x + dt * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(x, i * steps_per_sample)
        _from_real(rf, x, out[i])
    return out


def _rk4_power_e1(h: np.ndarray, dt: float, m: int) -> np.ndarray:
    """First column of P(dt h)^m for a small dense h, by binary powering.

    P is the polynomial of :func:`_rk4_step_matrix`; the powers are not taken
    with ``np.linalg.matrix_power``, which the dense route alone uses.
    """
    scaled = dt * h
    step = term = np.eye(len(h))
    for j in range(1, 5):
        term = (term @ scaled) / j
        step = step + term
    y = np.zeros(len(h))
    y[0] = 1.0
    while m:
        if m & 1:
            y = step @ y
        m >>= 1
        if m:
            step = step @ step
    return y


def _krylov_chunk(
    l_r: sp.csr_matrix, x: np.ndarray, m: int, dt: float, basis: np.ndarray, k_check: int
) -> tuple[np.ndarray | None, int]:
    """P(dt L_r)^m x projected on the Krylov space of L_r and x.

    Arnoldi with two passes of classical Gram-Schmidt builds the orthonormal
    rows of ``basis`` and the Hessenberg h.  From basis size ``k_check`` on,
    the projection ``|x| V_k P(dt h_k)^m e_1`` is accepted when its error
    estimate ``h[k, k-1] |y[k-1]|`` is at most ``_KRYLOV_TOL``; it is exact
    on a breakdown (h[k, k-1] = 0) and once the degree 4m is below k.
    Returns (the result or None when the basis cap is reached, the basis size).
    """
    scale = float(np.abs(x).max())
    if scale == 0.0 or not np.isfinite(scale):
        return x, 0  # zero stays zero; a non-finite state is left to _check_finite
    basis[0] = x / scale  # |x| itself may overflow while x does not
    beta = float(np.linalg.norm(basis[0]))
    basis[0] /= beta
    beta *= scale
    cap = basis.shape[0] - 1
    h = np.zeros((cap + 1, cap))
    for k in range(1, cap + 1):
        w = l_r @ basis[k - 1]
        for _ in range(2):
            c = basis[:k] @ w
            w -= c @ basis[:k]
            h[:k, k - 1] += c
        h[k, k - 1] = h_next = np.linalg.norm(w)
        exact = h_next == 0.0 or 4 * m < k
        if exact or k >= k_check:
            y = _rk4_power_e1(h[:k, :k], dt, m)
            if exact or h_next * abs(y[-1]) <= _KRYLOV_TOL:
                return beta * (y @ basis[:k]), k
        basis[k] = w / h_next
    return None, cap


def _evolve_krylov(
    g: Generator, v0: np.ndarray, n_intervals: int, steps_per_sample: int, dt: float
) -> np.ndarray:
    """RK4 samples with each interval's P(dt L_r)^steps applied in a Krylov basis.

    An interval is split evenly into chunks of at most ``_KRYLOV_CHUNK_NORM /
    (dt ||L_r||_inf)`` steps; a chunk whose estimate is not met within
    ``_KRYLOV_MAX_BASIS`` vectors is retried at half the steps, down to one
    step, which is exact in a basis of five.
    """
    rf = _checked_real_form(g)
    l_r = rf.l_r
    norm = float(abs(l_r).sum(axis=1).max())  # largest absolute row sum
    chunk = steps_per_sample
    if norm * dt * chunk > _KRYLOV_CHUNK_NORM:
        chunk = max(1, int(_KRYLOV_CHUNK_NORM / (norm * dt)))
    out = np.empty((n_intervals + 1,) + v0.shape, dtype=np.complex128)
    out[0] = v0
    cols = _to_real(rf, v0).T.copy()  # one contiguous row per real column
    basis = np.empty((_KRYLOV_MAX_BASIS + 1, g.dim))
    k_last = [1] * len(cols)  # basis size the column's last chunk needed
    for i in range(1, n_intervals + 1):
        for c in range(len(cols)):
            x = cols[c]
            done = 0
            while done < steps_per_sample:
                left = steps_per_sample - done
                pieces = (left + chunk - 1) // chunk
                m = (left + pieces - 1) // pieces  # even split of the steps left
                y, k = _krylov_chunk(l_r, x, m, dt, basis, max(1, k_last[c] - 1))
                if y is None:
                    chunk = max(1, m // 2)
                    continue
                x, done, k_last[c] = y, done + m, k
            cols[c] = x
        _check_finite(cols, i * steps_per_sample)
        _from_real(rf, cols.T, out[i])
    return out


def evolve_rk4(
    g: Generator,
    v0: np.ndarray,
    t_end: float,
    dt: float = DEFAULT_DT,
    sample_interval: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 trajectory sampled every ``sample_interval`` time units.

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
    times = np.arange(n_intervals + 1) * (steps_per_sample * dt)
    if n_intervals == 0:
        return Trajectory(times, v0[np.newaxis].copy())
    if g.dim > _KRYLOV_MIN_DIM:
        run = _evolve_krylov
    elif n_intervals * steps_per_sample <= _STEPWISE_CUTOFF:
        run = _evolve_stepwise
    else:
        run = _evolve_propagator
    return Trajectory(times, run(g, v0, n_intervals, steps_per_sample, dt))


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
    return la.expm(g.as_dense() * t) @ v0
