"""Initial qubit states: four-qubit decoherence-free vectors, two-qubit Bell
vectors, and user-supplied amplitude lists.

Amplitude vectors are indexed by the integer configuration index (qubit 1 is
bit 0; a 0 bit is spin down).  The logical ``|0>`` of the decoherence-free
construction is identified with spin down.
"""

from __future__ import annotations

import numpy as np

from .liouvillian import SectorDM

_NORM_TOL = 1e-12

DF4_NAMES = ("psi1", "psi2", "psi3")

# Every named state as coefficients over logical bit strings (qubit 1 first,
# |0> = spin down); the length of its bit strings is its qubit count.
_SQ2 = float(np.sqrt(2.0))
_SQ3 = float(np.sqrt(3.0))
_NAMED_COEFFS = {
    # four-qubit decoherence-free states; psi1 = singlet(1,2) x singlet(3,4)
    "psi1": {"0101": 0.5, "0110": -0.5, "1001": -0.5, "1010": 0.5},
    "psi2": {
        "0011": 1.0 / _SQ3,
        "0101": -0.5 / _SQ3,
        "0110": -0.5 / _SQ3,
        "1001": -0.5 / _SQ3,
        "1010": -0.5 / _SQ3,
        "1100": 1.0 / _SQ3,
    },
    # psi1 with qubit positions relabeled (1,2,3,4) -> (1,4,3,2):
    # singlet(1,4) x singlet(3,2)
    "psi3": {"0101": 0.5, "0011": -0.5, "1100": -0.5, "1010": 0.5},
    # two-qubit Bell states; bell-d is the singlet
    "bell-a": {"00": 1 / _SQ2, "11": 1 / _SQ2},
    "bell-b": {"00": 1 / _SQ2, "11": -1 / _SQ2},
    "bell-c": {"01": 1 / _SQ2, "10": 1 / _SQ2},
    "bell-d": {"01": 1 / _SQ2, "10": -1 / _SQ2},
}


def _amplitude_fields(spec: str) -> list[str]:
    """The comma-separated amplitude fields of 'custom:<amplitudes>'."""
    body = spec.split(":", 1)[1] if ":" in spec else spec
    return [s.strip() for s in body.split(",")]


def parse_custom(spec: str, n_qubits: int) -> np.ndarray:
    """Parse 'custom:<2^N comma-separated complex amplitudes>' and normalize a finite norm."""
    parts = _amplitude_fields(spec)
    d = 2**n_qubits
    if len(parts) != d:
        raise ValueError(f"custom state needs {d} amplitudes, got {len(parts)}")
    try:
        amps = np.array([complex(s) for s in parts], dtype=np.complex128)
    except ValueError as exc:
        raise ValueError(f"bad complex amplitude in custom state: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(amps))
    if len(bad):
        raise ValueError(f"custom state has a non-finite amplitude {parts[bad[0]]!r}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if not np.isfinite(norm):
        raise ValueError("custom state has a norm past the float range")
    if norm < 1e-12:
        raise ValueError("custom state has zero norm")
    return amps / norm


def qubit_count(name: str) -> int:
    """Qubit count of a named state, or N of a 'custom:' state of 2^N amplitudes (N >= 1)."""
    if name.startswith("custom"):
        count = len(_amplitude_fields(name))
        n = count.bit_length() - 1
        if count < 2 or count != 1 << n:
            raise ValueError(f"custom state needs 2^N amplitudes with N >= 1, got {count}")
        return n
    if name not in _NAMED_COEFFS:
        raise ValueError(f"unknown state {name!r}")
    return len(next(iter(_NAMED_COEFFS[name])))


def state_by_name(name: str, n_qubits: int) -> np.ndarray:
    """Amplitudes of psi1..psi3, bell-a..bell-d or custom:<amps>, checked
    against ``n_qubits``; the one constructor of a state by name."""
    n = qubit_count(name)
    if n != n_qubits:
        shown = "custom state" if name.startswith("custom") else f"state {name!r}"
        raise ValueError(f"{shown} requires n_qubits={n}, got {n_qubits}")
    if name not in _NAMED_COEFFS:
        return parse_custom(name, n)
    amps = np.zeros(2**n, dtype=np.complex128)
    for bits, c in _NAMED_COEFFS[name].items():
        amps[int(bits[::-1], 2)] = c  # qubit 1 is bit 0
    return amps


def to_density(amps: np.ndarray) -> SectorDM:
    """Initial sector-resolved density matrix: |psi><psi| with an empty island.

    All weight starts in the no-electron sector; the detector occupations
    relax onto their quasi-steady values on the fast detector timescale.
    The matrix is exactly hermitian: the outer product of complex amplitudes
    rounds its mirrored entries differently, and its hermitian part removes
    that.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > _NORM_TOL:
        raise ValueError(f"state must be normalized: |amps|^2 = {norm2}")
    rho = np.outer(amps, amps.conj())
    return SectorDM(0.5 * (rho + rho.conj().T))
