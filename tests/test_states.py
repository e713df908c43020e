import numpy as np
import pytest

from qdfsim.states import (
    DF4_NAMES,
    parse_custom,
    qubit_count,
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
        v = state_by_name("psi1", 4)
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
        assert np.allclose(state_by_name("psi1", 4), product, atol=1e-15)

    def test_psi2_coefficients(self):
        v = state_by_name("psi2", 4)
        assert v[idx("0011")] == pytest.approx(1 / np.sqrt(3))
        assert v[idx("1100")] == pytest.approx(1 / np.sqrt(3))
        for bits in ("0101", "0110", "1001", "1010"):
            assert v[idx(bits)] == pytest.approx(-0.5 / np.sqrt(3))

    def test_psi3_relabeled_psi1(self):
        v = state_by_name("psi3", 4)
        assert v[idx("0101")] == pytest.approx(0.5)
        assert v[idx("0011")] == pytest.approx(-0.5)
        assert v[idx("1100")] == pytest.approx(-0.5)
        assert v[idx("1010")] == pytest.approx(0.5)

    def test_norms_and_overlaps(self):
        # oracle: plain 16-dim vector arithmetic
        p1, p2, p3 = (state_by_name(k, 4) for k in ("psi1", "psi2", "psi3"))
        for v in (p1, p2, p3):
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(p1, p2) == pytest.approx(0.0, abs=1e-15)
        assert np.vdot(p1, p3).real == pytest.approx(0.5, abs=1e-15)

    def test_overlap_is_deterministic(self):
        a = np.vdot(state_by_name("psi1", 4), state_by_name("psi3", 4))
        b = np.vdot(state_by_name("psi1", 4), state_by_name("psi3", 4))
        assert a == b

    @pytest.mark.parametrize("name", ["psi1", "psi2", "psi3"])
    def test_total_sigma_z_annihilates(self, name):
        v = state_by_name(name, 4)
        total_sz = np.array([2 * bin(z).count("1") - 4 for z in range(16)])
        assert np.all(total_sz * v == 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            state_by_name("psi4", 4)


class TestBell:
    def test_bell_b_amplitudes_in_label_order(self):
        v = state_by_name("bell-b", 2)
        over_labels = [v[i] for i in LABEL_ORDER]
        assert over_labels == pytest.approx([1 / np.sqrt(2), 0, 0, -1 / np.sqrt(2)])

    def test_bell_c_amplitudes_in_label_order(self):
        v = state_by_name("bell-c", 2)
        over_labels = [v[i] for i in LABEL_ORDER]
        assert over_labels == pytest.approx([0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_pairwise_orthonormal(self):
        vs = [state_by_name(f"bell-{k}", 2) for k in "abcd"]
        gram = np.array([[np.vdot(u, v) for v in vs] for u in vs])
        assert np.allclose(gram, np.eye(4), atol=1e-15)

    def test_singlet_is_d(self):
        v = state_by_name("bell-d", 2)
        total_sz = np.array([2 * bin(z).count("1") - 2 for z in range(4)])
        assert np.all(total_sz * v == 0.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            state_by_name("bell-e", 2)


class TestToDensity:
    def test_singlet_projector_entries(self):
        # |d> has support on B (index 2) and C (index 1)
        sdm = to_density(state_by_name("bell-d", 2))
        rho = sdm.rho_a
        assert rho[2, 2].real == pytest.approx(0.5)
        assert rho[1, 1].real == pytest.approx(0.5)
        assert rho[2, 1].real == pytest.approx(-0.5)
        assert rho[1, 2].real == pytest.approx(-0.5)
        mask = np.ones((4, 4), bool)
        mask[np.ix_((1, 2), (1, 2))] = False
        assert np.all(rho[mask] == 0.0)

    def test_island_starts_empty(self):
        sectors = to_density(state_by_name("psi1", 4)).flatten().reshape(4, 16, 16)
        assert np.all(sectors[1:] == 0.0)  # b_up, b_dn and c

    def test_unit_trace(self):
        sectors = to_density(state_by_name("psi2", 4)).flatten().reshape(4, 16, 16)
        total = sum(np.trace(m) for m in sectors)
        assert total.real == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_rank_one(self):
        sdm = to_density(state_by_name("psi3", 4))
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
        # oracle: the vectors written out by configuration index
        psi1 = np.zeros(16, complex)
        psi1[[idx("0101"), idx("1010")]] = 0.5
        psi1[[idx("0110"), idx("1001")]] = -0.5
        singlet = np.zeros(4, complex)
        singlet[[idx("01"), idx("10")]] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        for name, n, want in (("psi1", 4, psi1), ("bell-d", 2, singlet)):
            got = state_by_name(name, n)
            assert got.dtype == np.complex128
            assert np.allclose(got, want, atol=1e-15)

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

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("custom:inf,0,0,0", "non-finite amplitude 'inf'"),
            ("custom:nan,1,0,0", "non-finite amplitude 'nan'"),
            ("custom:1,0,1+infj,0", r"non-finite amplitude '1\+infj'"),
            ("custom:1e308,1e308,1e308,1e308", "norm past the float range"),
            ("custom:1e200,0,0,0", "norm past the float range"),
        ],
        ids=["inf", "nan", "complex_inf", "norm_overflow", "square_overflow"],
    )
    def test_custom_non_finite_refused(self, spec, reason):
        with pytest.raises(ValueError, match=reason):
            parse_custom(spec, 2)
        with pytest.raises(ValueError, match=reason):
            state_by_name(spec, 2)

    def test_custom_finite_norm_normalizes_as_before(self):
        # large amplitudes whose norm stays finite divide by that norm exactly
        raw = np.array([1e154, -2e153j, 3e150, 0.5])
        got = parse_custom("custom:1e154,-2e153j,3e150,0.5", 2)
        assert np.array_equal(got, raw / np.linalg.norm(raw))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            state_by_name("ghz", 4)


class TestQubitCount:
    def test_named_states_from_their_tables(self):
        for name in DF4_NAMES:
            assert qubit_count(name) == 4
            assert len(state_by_name(name, 4)) == 2 ** qubit_count(name)
        for name in ("bell-a", "bell-b", "bell-c", "bell-d"):
            assert qubit_count(name) == 2
            assert len(state_by_name(name, 2)) == 2 ** qubit_count(name)

    @pytest.mark.parametrize("count, n", [(2, 1), (4, 2), (32, 5)])
    def test_custom_from_amplitude_count(self, count, n):
        assert qubit_count("custom:" + ",".join(["1"] + ["0"] * (count - 1))) == n

    @pytest.mark.parametrize("amps", ["1", "1,0,0", "1,0,0,0,0,0"])
    def test_custom_count_not_a_power_of_two(self, amps):
        count = len(amps.split(","))
        reason = rf"custom state needs 2\^N amplitudes with N >= 1, got {count}$"
        with pytest.raises(ValueError, match=reason):
            qubit_count(f"custom:{amps}")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown state 'ghz'"):
            qubit_count("ghz")

    @pytest.mark.parametrize("name", ["customX:1,0,0,1", "custom1,0,0,1", "custom"])
    def test_custom_needs_the_exact_prefix(self, name):
        for call in (lambda: qubit_count(name), lambda: state_by_name(name, 2)):
            with pytest.raises(ValueError, match=rf"^unknown state '{name}'$"):
                call()

    def test_state_by_name_checks_the_count(self):
        with pytest.raises(ValueError, match="custom state requires n_qubits=2, got 3"):
            state_by_name("custom:1,0,0,0", 3)
        with pytest.raises(ValueError, match="state 'bell-a' requires n_qubits=2, got 4"):
            state_by_name("bell-a", 4)
