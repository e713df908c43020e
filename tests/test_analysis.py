import numpy as np
import pytest

from qdfsim.analysis import (
    fidelity_series,
    qubit_dm_from_flat,
    rotation_frequencies,
)
from qdfsim.integrator import Collect, evolve_rk4
from qdfsim.liouvillian import SECTORS_REDUCED, assemble
from qdfsim.model import ModelParams, apply_scenario
from qdfsim.states import state_by_name, to_density

from conftest import I2, SX, fidelity_series_loop, kron_chain


class TestReduce:
    def test_initial_state_is_projector(self):
        amps = state_by_name("psi2", 4)
        assert np.allclose(to_density(amps).rho_a, np.outer(amps, amps.conj()), atol=1e-15)

    def test_from_flat_reduced_counts_b_once(self):
        sdm = to_density(state_by_name("bell-c", 2))
        flat = sdm.flatten(SECTORS_REDUCED)
        assert np.allclose(qubit_dm_from_flat(flat, 4), sdm.rho_a, atol=1e-15)

    def test_trace_one_along_trajectory(self):
        p = ModelParams.uniform(2, zeta=0.6)
        g = assemble(p, SECTORS_REDUCED)
        v0 = to_density(state_by_name("bell-b", 2)).flatten(SECTORS_REDUCED)
        traj = Collect()
        evolve_rk4(g, v0, 10.0, 1e-3, 1.0, traj)
        for vec in traj.states:
            rq = qubit_dm_from_flat(vec, 4)
            assert np.trace(rq).real == pytest.approx(1.0, abs=1e-9)


def unit_dm(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random full-rank density matrix of size d."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def frame_fidelities(times, rho: np.ndarray, psi: np.ndarray, om) -> np.ndarray:
    """F of one qubit DM (or one per time) at each time, through fidelity_series."""
    times = np.asarray(times, dtype=float)
    flats = np.broadcast_to(rho, (len(times),) + rho.shape[-2:]).reshape(len(times), -1)
    return fidelity_series(times, flats, psi, np.asarray(om, dtype=float))


class TestRotatingFrame:
    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(1)
        rho, psi = unit_dm(rng, 4), unit_vector(rng, 4)
        f = frame_fidelities([0.0], rho, psi, [2.0, 2.0])
        assert np.allclose(f, (psi.conj() @ rho @ psi).real, atol=1e-15)

    def test_frequencies_reduce_to_omega_without_bias(self):
        p = ModelParams.uniform(4, omega=2.0)
        assert np.allclose(rotation_frequencies(p), 2.0, atol=1e-15)

    def test_frequencies_with_bias(self):
        p = ModelParams.uniform(2, omega=2.0, epsilon=1.0)
        assert np.allclose(rotation_frequencies(p), np.sqrt(4.25), atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frequencies_past_the_squares_float_range(self):
        # omega^2 and epsilon^2 overflow; the frequencies themselves do not
        p = ModelParams.uniform(2, omega=1e200, epsilon=[0.0, 4e200])
        assert np.allclose(rotation_frequencies(p), [1e200, np.sqrt(5.0) * 1e200], rtol=1e-15)

    def test_single_qubit_free_evolution_is_frozen(self):
        # closed-form 2x2 oracle: U = cos(w t) I - i sin(w t) sigma_x
        w = 1.7
        sx = np.array([[0, 1], [1, 0]], complex)
        rho0 = np.array([[1, 0], [0, 0]], complex)
        times = np.array([0.3, 1.1, 2.9, 7.7])
        u = [np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) * sx for t in times]
        rho_t = np.array([m @ rho0 @ m.conj().T for m in u])
        f = frame_fidelities(times, rho_t, np.array([1.0, 0.0]), [w])
        assert np.allclose(f, 1.0, atol=1e-12)

    def test_time_stack_matches_kron_chain(self):
        # a different frequency on each qubit, so a flip of the wrong qubit shows
        rng = np.random.default_rng(5)
        om = np.array([2.0, 1.3, 0.7])
        times = np.array([0.0, 0.77, 3.1])
        rho, psi = unit_dm(rng, 8), unit_vector(rng, 8)
        f = frame_fidelities(times, rho, psi, om)
        for t, got in zip(times, f):
            r = kron_chain([np.cos(w * t) * I2 + 1j * np.sin(w * t) * SX for w in om])
            assert got == pytest.approx((psi.conj() @ r @ rho @ r.conj().T @ psi).real, abs=1e-14)

    def test_unitarity(self):
        # against the maximally mixed state F = |R(t)^dag psi|^2 / D
        psi = unit_vector(np.random.default_rng(6), 4)
        f = frame_fidelities([0.0, 0.77, 5.3], np.eye(4) / 4, psi, [2.0, 1.3])
        assert np.allclose(f, 0.25, atol=1e-14)

    def test_spectrum_preserved(self):
        # F over an orthonormal basis of references sums to Tr rho, and each
        # lies within the spectrum of rho
        rng = np.random.default_rng(2)
        rho = unit_dm(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        f = np.array([frame_fidelities([1.23], rho, col, [2.0, 0.5])[0] for col in q.T])
        lam = np.linalg.eigvalsh(rho)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((lam[0] - 1e-12 <= f) & (f <= lam[-1] + 1e-12))


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """F of one sample through fidelity_series: t = 0, omega' = 0, one sector."""
    n = len(psi).bit_length() - 1
    return fidelity_series([0.0], rho.reshape(1, -1), psi, np.zeros(n))[0]


class TestFidelity:
    def test_initial_overlap_is_one(self):
        amps = state_by_name("psi1", 4)
        assert fidelity(amps, np.outer(amps, amps.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_unitary_invariant(self):
        rng = np.random.default_rng(3)
        psi1, psi2 = unit_vector(rng, 4), unit_vector(rng, 4)
        f12 = fidelity(psi1, np.outer(psi2, psi2.conj()))
        assert f12 == pytest.approx(fidelity(psi2, np.outer(psi1, psi1.conj())), abs=1e-14)
        rho = unit_dm(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        f_rot = fidelity(q @ psi1, q @ rho @ q.conj().T)
        assert f_rot == pytest.approx(fidelity(psi1, rho), abs=1e-12)

    def test_bounds_for_pure_reference(self):
        rng = np.random.default_rng(4)
        psi = unit_vector(rng, 4)
        f = fidelity(psi, unit_dm(rng, 4))
        assert -1e-12 <= f <= 1.0 + 1e-12

    def test_trace_mismatch_rejected(self):
        psi = np.full(4, 0.5, dtype=complex)
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            fidelity(np.sqrt(2) * psi, rho)
        with pytest.raises(ValueError):
            fidelity(psi, 0.5 * rho)

    def test_non_real_overlap_rejected(self):
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2)
        rho = np.array([[1.0, 0.0], [1.0j, 0.0]], complex)  # not hermitian: F = (1 + i) / 2
        with pytest.raises(ValueError):
            fidelity(psi, rho)


def oracle_case(name: str) -> tuple[ModelParams, np.ndarray]:
    """Parameters and initial amplitudes of one fidelity-oracle input."""
    if name == "n2":
        return ModelParams.uniform(2, zeta=0.6, epsilon=0.3), state_by_name("bell-b", 2)
    if name == "n4":
        return ModelParams.uniform(4, zeta=0.6, epsilon=0.3), state_by_name("psi2", 4)
    if name == "n3_distinct_frequencies":
        p = ModelParams.uniform(3, zeta=0.6, epsilon=[0.3, -0.7, 1.1], j_coupling=[0.2, -0.1])
        return p, unit_vector(np.random.default_rng(11), 8)
    base = ModelParams.uniform(4, zeta=0.6, epsilon=0.3)
    return apply_scenario(base, "case_ii", 0.05), state_by_name("psi3", 4)


class TestFidelitySeries:
    @staticmethod
    def trajectory(name="n2"):
        p, amps = oracle_case(name)
        g = assemble(p, SECTORS_REDUCED)
        traj = Collect()
        evolve_rk4(g, to_density(amps).flatten(SECTORS_REDUCED), 5.0, 1e-3, 0.1, traj)
        return traj, amps, rotation_frequencies(p)

    @pytest.mark.parametrize("name", ["n2", "n4", "n3_distinct_frequencies", "psi3_case_ii"])
    def test_matches_per_sample_oracle(self, name):
        traj, amps, om = self.trajectory(name)
        got = fidelity_series(traj.times, traj.states, amps, om)
        ref = fidelity_series_loop(traj.times, traj.states, np.outer(amps, amps.conj()), om)
        assert got.shape == (51,)
        assert np.abs(got - ref).max() <= 1e-14

    def test_trace_breach_rejected(self):
        traj, amps, om = self.trajectory()
        states = traj.states.copy()
        states[7] *= 1.1
        with pytest.raises(ValueError, match="unit-trace.*t=0.7"):
            fidelity_series(traj.times, states, amps, om)
        with pytest.raises(ValueError, match="unit-trace"):
            fidelity_series(traj.times, traj.states, np.sqrt(2) * amps, om)

    def test_partial_sector_rejected(self):
        # the sector count is read from the flat length, which must hold whole D x D blocks
        traj, amps, om = self.trajectory()
        with pytest.raises(ValueError, match="flat length 47 is not a whole number of 4x4 sectors"):
            fidelity_series(traj.times, traj.states[:, :-1], amps, om)
        with pytest.raises(ValueError, match="flat length 0 is not"):
            qubit_dm_from_flat(np.zeros(0), 4)

    def test_non_real_overlap_rejected(self):
        traj, amps, om = self.trajectory()
        states = traj.states.copy()
        states[0, 3] += 0.5j  # rho_a[0, 3] only: no longer hermitian, F(0) gains -0.25j
        with pytest.raises(ValueError, match=r"non-real value \(\S+-0\.2\d*j\) at t=0;"):
            fidelity_series(traj.times, states, amps, om)


class TestUnitaryLimit:
    def test_decoupled_detector_preserves_purity_and_fidelity(self):
        p = ModelParams.uniform(2, zeta=0.0)
        g = assemble(p, SECTORS_REDUCED)
        amps = state_by_name("bell-b", 2)
        v0 = to_density(amps).flatten(SECTORS_REDUCED)
        traj = Collect()
        evolve_rk4(g, v0, 20.0, 1e-3, 1.0, traj)
        fids = fidelity_series(traj.times, traj.states, amps, rotation_frequencies(p))
        assert np.abs(fids - 1.0).max() < 1e-8
        for vec in traj.states:
            rq = qubit_dm_from_flat(vec, 4)
            purity = np.trace(rq @ rq).real
            assert purity == pytest.approx(1.0, abs=1e-8)
