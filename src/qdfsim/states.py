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
BELL_NAMES = ("bell-a", "bell-b", "bell-c", "bell-d")


def _index(bits: str) -> int:
    """Configuration index of a logical bit string written qubit-1-first."""
    z = 0
    for j, b in enumerate(bits):
        if b == "1":
            z |= 1 << j
    return z


# Coefficient tables over logical bit strings (qubit 1 first, |0> = spin down).
_SQ3 = float(np.sqrt(3.0))
_DF4_COEFFS = {
    # singlet(1,2) x singlet(3,4)
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
}

_SQ2 = float(np.sqrt(2.0))
_BELL_COEFFS = {
    "bell-a": {"00": 1 / _SQ2, "11": 1 / _SQ2},
    "bell-b": {"00": 1 / _SQ2, "11": -1 / _SQ2},
    "bell-c": {"01": 1 / _SQ2, "10": 1 / _SQ2},
    "bell-d": {"01": 1 / _SQ2, "10": -1 / _SQ2},
}


def _from_coeffs(coeffs: dict[str, float], n_qubits: int) -> np.ndarray:
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    for bits, c in coeffs.items():
        amps[_index(bits)] = c
    return amps


def make_df4(which: str) -> np.ndarray:
    """One of the three four-qubit decoherence-free vectors (psi1, psi2, psi3)."""
    key = which.lower()
    if key not in _DF4_COEFFS:
        raise ValueError(f"unknown four-qubit state {which!r}; expected psi1|psi2|psi3")
    return _from_coeffs(_DF4_COEFFS[key], 4)


def make_bell(which: str) -> np.ndarray:
    """One of the four two-qubit Bell vectors; 'd' (or 'bell-d') is the singlet."""
    key = which.lower()
    if not key.startswith("bell-"):
        key = f"bell-{key}"
    if key not in _BELL_COEFFS:
        raise ValueError(f"unknown Bell state {which!r}; expected a|b|c|d")
    return _from_coeffs(_BELL_COEFFS[key], 2)


def _amplitude_fields(spec: str) -> list[str]:
    """The comma-separated amplitude fields of 'custom:<amplitudes>'."""
    body = spec.split(":", 1)[1] if ":" in spec else spec
    return [s.strip() for s in body.split(",")]


def parse_custom(spec: str, n_qubits: int) -> np.ndarray:
    """Parse 'custom:<2^N comma-separated complex amplitudes>' and normalize."""
    parts = _amplitude_fields(spec)
    d = 2**n_qubits
    if len(parts) != d:
        raise ValueError(f"custom state needs {d} amplitudes, got {len(parts)}")
    try:
        amps = np.array([complex(s) for s in parts], dtype=np.complex128)
    except ValueError as exc:
        raise ValueError(f"bad complex amplitude in custom state: {exc}") from exc
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("custom state has zero norm")
    return amps / norm


def state_by_name(name: str, n_qubits: int) -> np.ndarray:
    """CLI-facing dispatcher: psi1..psi3, bell-a..bell-d, or custom:<amps>."""
    if name.startswith("custom"):
        return parse_custom(name, n_qubits)
    if name in DF4_NAMES:
        if n_qubits != 4:
            raise ValueError(f"state {name!r} requires n_qubits=4, got {n_qubits}")
        return make_df4(name)
    if name in BELL_NAMES:
        if n_qubits != 2:
            raise ValueError(f"state {name!r} requires n_qubits=2, got {n_qubits}")
        return make_bell(name)
    raise ValueError(f"unknown state {name!r}")


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
    rho = 0.5 * (rho + rho.conj().T)
    zero = np.zeros_like(rho)
    return SectorDM(rho, zero, zero.copy(), zero.copy())
