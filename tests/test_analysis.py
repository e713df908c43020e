import numpy as np
import pytest

from qdfsim.analysis import (
    fidelity_series,
    frame_rotation,
    qubit_dm_from_flat,
    rotating_frame,
    rotation_frequencies,
)
from qdfsim.integrator import evolve_rk4
from qdfsim.liouvillian import SECTORS_REDUCED, assemble, reduce_spin_symmetric
from qdfsim.model import ModelParams
from qdfsim.states import make_bell, make_df4, to_density

from conftest import I2, SX, fidelity_series_loop, kron_chain


def sector_sum(sdm) -> np.ndarray:
    """Qubit DM of a SectorDM: the sum of its four island-sector matrices."""
    return sdm.rho_a + sdm.rho_b_up + sdm.rho_b_dn + sdm.rho_c


class TestReduce:
    def test_initial_state_is_projector(self):
        amps = make_df4("psi2")
        assert np.allclose(sector_sum(to_density(amps)), np.outer(amps, amps.conj()), atol=1e-15)

    def test_from_flat_reduced_counts_b_once(self):
        sdm = to_density(make_bell("c"))
        flat = sdm.flatten(SECTORS_REDUCED)
        assert np.allclose(qubit_dm_from_flat(flat, 2, 3), sector_sum(sdm), atol=1e-15)

    def test_trace_one_along_trajectory(self):
        p = ModelParams.uniform(2, zeta=0.6)
        g = reduce_spin_symmetric(assemble(p))
        v0 = to_density(make_bell("b")).flatten(SECTORS_REDUCED)
        traj = evolve_rk4(g, v0, 10.0, 1e-3, 1.0)
        for vec in traj.states:
            rq = qubit_dm_from_flat(vec, 2, 3)
            assert np.trace(rq).real == pytest.approx(1.0, abs=1e-9)


class TestRotatingFrame:
    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(1)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rho + rho.conj().T
        out = rotating_frame(rho, np.array([2.0, 2.0]), 0.0)
        assert np.allclose(out, rho, atol=1e-15)

    def test_frequencies_reduce_to_omega_without_bias(self):
        p = ModelParams.uniform(4, omega=2.0)
        assert np.allclose(rotation_frequencies(p), 2.0, atol=1e-15)

    def test_frequencies_with_bias(self):
        p = ModelParams.uniform(2, omega=2.0, epsilon=1.0)
        assert np.allclose(rotation_frequencies(p), np.sqrt(4.25), atol=1e-15)

    def test_single_qubit_free_evolution_is_frozen(self):
        # closed-form 2x2 oracle: U = cos(w t) I - i sin(w t) sigma_x
        w = 1.7
        sx = np.array([[0, 1], [1, 0]], complex)
        rho0 = np.array([[1, 0], [0, 0]], complex)
        for t in (0.3, 1.1, 2.9, 7.7):
            u = np.cos(w * t) * np.eye(2) - 1j * np.sin(w * t) * sx
            rho_t = u @ rho0 @ u.conj().T
            rotated = rotating_frame(rho_t, np.array([w]), t)
            assert np.allclose(rotated, rho0, atol=1e-12)

    def test_time_stack_matches_kron_chain(self):
        om = np.array([2.0, 1.3, 0.7])
        times = np.array([0.0, 0.77, 3.1])
        stack = frame_rotation(om, times)
        assert stack.shape == (3, 8, 8)
        for t, r in zip(times, stack):
            ref = kron_chain([np.cos(w * t) * I2 + 1j * np.sin(w * t) * SX for w in om])
            assert np.array_equal(r, ref)

    def test_unitarity(self):
        r = frame_rotation(np.array([2.0, 1.3]), 0.77)
        assert np.allclose(r @ r.conj().T, np.eye(4), atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(2)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho).real
        out = rotating_frame(rho, np.array([2.0, 0.5]), 1.23)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
        )


def fidelity(rho0: np.ndarray, rho: np.ndarray) -> float:
    """F of one sample through fidelity_series: t = 0, omega' = 0, one sector."""
    n = len(rho0).bit_length() - 1
    return fidelity_series([0.0], rho.reshape(1, -1), rho0, np.zeros(n), n, 1)[0]


class TestFidelity:
    def test_initial_overlap_is_one(self):
        amps = make_df4("psi1")
        rho0 = np.outer(amps, amps.conj())
        assert fidelity(rho0, rho0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_unitary_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho1 = a @ a.conj().T
        rho1 /= np.trace(rho1).real
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho2 = b @ b.conj().T
        rho2 /= np.trace(rho2).real
        assert fidelity(rho1, rho2) == pytest.approx(fidelity(rho2, rho1), abs=1e-14)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        f_rot = fidelity(q @ rho1 @ q.conj().T, q @ rho2 @ q.conj().T)
        assert f_rot == pytest.approx(fidelity(rho1, rho2), abs=1e-12)

    def test_bounds_for_pure_reference(self):
        rng = np.random.default_rng(4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        f = fidelity(rho0, rho)
        assert -1e-12 <= f <= 1.0 + 1e-12

    def test_trace_mismatch_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            fidelity(2 * rho, rho)
        with pytest.raises(ValueError):
            fidelity(rho, 0.5 * rho)

    def test_non_real_overlap_rejected(self):
        rho0 = np.array([[1.0, 1.0], [0.0, 0.0]], complex)  # not hermitian
        rho1 = np.array([[1.0, 0.0], [1.0j, 0.0]], complex)
        with pytest.raises(ValueError):
            fidelity(rho0, rho1)


class TestFidelitySeries:
    @staticmethod
    def trajectory(n, amps, zeta=0.6):
        p = ModelParams.uniform(n, zeta=zeta, epsilon=0.3)
        g = reduce_spin_symmetric(assemble(p))
        traj = evolve_rk4(g, to_density(amps).flatten(SECTORS_REDUCED), 5.0, 1e-3, 0.1)
        return traj, np.outer(amps, amps.conj()), rotation_frequencies(p)

    @pytest.mark.parametrize("n, amps", [(2, make_bell("b")), (4, make_df4("psi2"))], ids=["n2", "n4"])
    def test_matches_per_sample_oracle(self, n, amps):
        traj, rho0, om = self.trajectory(n, amps)
        got = fidelity_series(traj.times, traj.states, rho0, om, n, 3)
        ref = fidelity_series_loop(traj.times, traj.states, rho0, om, n, 3)
        assert got.shape == (51,)
        assert np.abs(got - ref).max() <= 1e-14

    def test_trace_breach_rejected(self):
        traj, rho0, om = self.trajectory(2, make_bell("b"))
        states = traj.states.copy()
        states[7] *= 1.1
        with pytest.raises(ValueError, match="unit-trace.*t=0.7"):
            fidelity_series(traj.times, states, rho0, om, 2, 3)
        with pytest.raises(ValueError, match="unit-trace"):
            fidelity_series(traj.times, traj.states, 2 * rho0, om, 2, 3)

    def test_non_real_overlap_rejected(self):
        traj, rho0, om = self.trajectory(2, make_bell("b"))
        states = traj.states.copy()
        states[0, 3] += 0.5j  # rho_a[0, 3] only: no longer hermitian, F(0) gains -0.25j
        with pytest.raises(ValueError, match=r"non-real value \(\S+-0\.2\d*j\) at t=0;"):
            fidelity_series(traj.times, states, rho0, om, 2, 3)


class TestUnitaryLimit:
    def test_decoupled_detector_preserves_purity_and_fidelity(self):
        p = ModelParams.uniform(2, zeta=0.0)
        g = reduce_spin_symmetric(assemble(p))
        amps = make_bell("b")
        v0 = to_density(amps).flatten(SECTORS_REDUCED)
        traj = evolve_rk4(g, v0, 20.0, 1e-3, 1.0)
        rho0 = np.outer(amps, amps.conj())
        fids = fidelity_series(
            traj.times, traj.states, rho0, rotation_frequencies(p), 2, 3
        )
        assert np.abs(fids - 1.0).max() < 1e-8
        for vec in traj.states:
            rq = qubit_dm_from_flat(vec, 2, 3)
            purity = np.trace(rq @ rq).real
            assert purity == pytest.approx(1.0, abs=1e-8)
