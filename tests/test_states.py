import numpy as np
import pytest

from qdfsim.states import (
    make_bell,
    make_df4,
    parse_custom,
    state_by_name,
    to_density,
)


def idx(bits: str) -> int:
    """Configuration index of a bit string written qubit-1-first."""
    return sum(1 << j for j, b in enumerate(bits) if b == "1")


# label order (A, B, C, D) corresponds to indices (0, 2, 1, 3)
LABEL_ORDER = (0, 2, 1, 3)


class TestDF4:
    def test_psi1_coefficients(self):
        v = make_df4("psi1")
        assert v[idx("0101")] == pytest.approx(0.5)
        assert v[idx("0110")] == pytest.approx(-0.5)
        assert v[idx("1001")] == pytest.approx(-0.5)
        assert v[idx("1010")] == pytest.approx(0.5)
        assert np.count_nonzero(v) == 4

    def test_psi1_is_singlet_product(self):
        # oracle: expand (|01>-|10>)x(|01>-|10>)/2 by direct vector arithmetic
        singlet = np.zeros(4, complex)
        singlet[idx("01")] = 1 / np.sqrt(2)
        singlet[idx("10")] = -1 / np.sqrt(2)
        product = np.kron(singlet, singlet)  # qubits (1,2) innermost
        assert np.allclose(make_df4("psi1"), product, atol=1e-15)

    def test_psi2_coefficients(self):
        v = make_df4("psi2")
        assert v[idx("0011")] == pytest.approx(1 / np.sqrt(3))
        assert v[idx("1100")] == pytest.approx(1 / np.sqrt(3))
        for bits in ("0101", "0110", "1001", "1010"):
            assert v[idx(bits)] == pytest.approx(-0.5 / np.sqrt(3))

    def test_psi3_relabeled_psi1(self):
        v = make_df4("psi3")
        assert v[idx("0101")] == pytest.approx(0.5)
        assert v[idx("0011")] == pytest.approx(-0.5)
        assert v[idx("1100")] == pytest.approx(-0.5)
        assert v[idx("1010")] == pytest.approx(0.5)

    def test_norms_and_overlaps(self):
        # oracle: plain 16-dim vector arithmetic
        p1, p2, p3 = (make_df4(k) for k in ("psi1", "psi2", "psi3"))
        for v in (p1, p2, p3):
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(p1, p2) == pytest.approx(0.0, abs=1e-15)
        assert np.vdot(p1, p3).real == pytest.approx(0.5, abs=1e-15)

    def test_overlap_is_deterministic(self):
        a = np.vdot(make_df4("psi1"), make_df4("psi3"))
        b = np.vdot(make_df4("psi1"), make_df4("psi3"))
        assert a == b

    @pytest.mark.parametrize("name", ["psi1", "psi2", "psi3"])
    def test_total_sigma_z_annihilates(self, name):
        v = make_df4(name)
        total_sz = np.array([2 * bin(z).count("1") - 4 for z in range(16)])
        assert np.all(total_sz * v == 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_df4("psi4")


class TestBell:
    def test_bell_b_amplitudes_in_label_order(self):
        v = make_bell("b")
        over_labels = [v[i] for i in LABEL_ORDER]
        assert over_labels == pytest.approx([1 / np.sqrt(2), 0, 0, -1 / np.sqrt(2)])

    def test_bell_c_amplitudes_in_label_order(self):
        v = make_bell("c")
        over_labels = [v[i] for i in LABEL_ORDER]
        assert over_labels == pytest.approx([0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_pairwise_orthonormal(self):
        vs = [make_bell(k) for k in "abcd"]
        gram = np.array([[np.vdot(u, v) for v in vs] for u in vs])
        assert np.allclose(gram, np.eye(4), atol=1e-15)

    def test_singlet_is_d(self):
        v = make_bell("d")
        total_sz = np.array([2 * bin(z).count("1") - 2 for z in range(4)])
        assert np.all(total_sz * v == 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_bell("e")


class TestToDensity:
    def test_singlet_projector_entries(self):
        # |d> has support on B (index 2) and C (index 1)
        sdm = to_density(make_bell("d"))
        rho = sdm.rho_a
        assert rho[2, 2].real == pytest.approx(0.5)
        assert rho[1, 1].real == pytest.approx(0.5)
        assert rho[2, 1].real == pytest.approx(-0.5)
        assert rho[1, 2].real == pytest.approx(-0.5)
        mask = np.ones((4, 4), bool)
        mask[np.ix_((1, 2), (1, 2))] = False
        assert np.all(rho[mask] == 0.0)

    def test_island_starts_empty(self):
        sdm = to_density(make_df4("psi1"))
        assert np.all(sdm.rho_b_up == 0.0)
        assert np.all(sdm.rho_b_dn == 0.0)
        assert np.all(sdm.rho_c == 0.0)

    def test_unit_trace(self):
        sdm = to_density(make_df4("psi2"))
        total = sum(np.trace(m) for m in (sdm.rho_a, sdm.rho_b_up, sdm.rho_b_dn, sdm.rho_c))
        assert total.real == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_rank_one(self):
        sdm = to_density(make_df4("psi3"))
        rho = sdm.rho_a
        assert np.allclose(rho, rho.conj().T, atol=1e-15)
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(evals[:-1]) < 1e-12)

    def test_exactly_hermitian_for_complex_amplitudes(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        rho = to_density(amps).rho_a
        assert np.array_equal(rho, rho.conj().T)
        assert np.abs(rho - np.outer(amps, amps.conj())).max() < 1e-16

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            to_density(np.ones(4, complex))


class TestStateByName:
    def test_dispatch(self):
        assert np.allclose(state_by_name("psi1", 4), make_df4("psi1"))
        assert np.allclose(state_by_name("bell-d", 2), make_bell("d"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            state_by_name("psi1", 2)
        with pytest.raises(ValueError):
            state_by_name("bell-a", 4)

    def test_custom_parse_and_normalize(self):
        v = parse_custom("custom:1, 0, 0, 1", 2)
        assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        v2 = state_by_name("custom:0,0.5j,-0.5j,0", 2)
        assert np.vdot(v2, v2).real == pytest.approx(1.0, abs=1e-12)
        assert v2[1] == pytest.approx(0.5j * np.sqrt(2))

    def test_custom_errors(self):
        with pytest.raises(ValueError):
            parse_custom("custom:1,0", 2)
        with pytest.raises(ValueError):
            parse_custom("custom:1,0,zzz,0", 2)
        with pytest.raises(ValueError):
            parse_custom("custom:0,0,0,0", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            state_by_name("ghz", 4)
