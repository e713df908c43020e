import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdfsim.model import (
    CASE_AFFECTED,
    ModelParams,
    apply_scenario,
    config_energies,
    config_spins,
)

from conftest import dense_hamiltonian, flip_index


class TestFlip:
    def test_two_qubit_examples(self):
        # from down/down, flipping qubit 1 or 2 sets bit 0 or bit 1
        assert flip_index(0b00, 1, 2) == 0b01
        assert flip_index(0b00, 2, 2) == 0b10

    def test_four_qubit_example(self):
        # flipping qubit 3 of all-down leaves the (1,2) pair down/down
        assert flip_index(0b0000, 3, 4) == 0b0100
        assert flip_index(0b0101, 3, 4) == 0b0001

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_involution(self, j):
        for idx in range(16):
            assert flip_index(flip_index(idx, j, 4), j, 4) == idx

    def test_hypercube_reachability(self):
        reached = {0}
        frontier = [0]
        while frontier:
            z = frontier.pop()
            for j in range(1, 5):
                w = flip_index(z, j, 4)
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        assert reached == set(range(16))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            flip_index(0, 0, 2)
        with pytest.raises(ValueError):
            flip_index(0, 3, 2)
        with pytest.raises(ValueError):
            flip_index(0, 5, 4)


class TestConfigSpins:
    def test_spin_is_bit(self):
        # qubit i up <=> bit i-1 set: 0b0110 has qubits 2 and 3 up
        s = config_spins(4)
        assert s.shape == (16, 4)
        assert s[0b0110].tolist() == [-1.0, 1.0, 1.0, -1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_total_spin(self, n):
        # oracle: the total spin as twice the up count minus N, from the bits
        total = [2 * bin(z).count("1") - n for z in range(2**n)]
        assert config_spins(n).sum(axis=1).tolist() == total


class TestConfigEnergy:
    def test_all_zero_parameters(self):
        p = ModelParams.uniform(4, zeta=0.2)
        assert np.all(config_energies(p) == 0.0)

    def test_two_qubit_example(self):
        p = ModelParams.uniform(2, epsilon=[1.0, 2.0], j_coupling=[0.5])
        z = 0b01  # qubit 1 up, qubit 2 down
        assert config_energies(p)[z] == pytest.approx(-1.5, abs=1e-15)

    def test_spin_is_bit(self):
        # qubit i up <=> bit i-1 set: 0b1010 has qubits 2 and 4 up
        p = ModelParams.uniform(4, epsilon=[1.0, 2.0, 4.0, 8.0])
        assert config_energies(p)[0b1010] == -1.0 + 2.0 - 4.0 + 8.0

    def test_uniform_coupling_all_down(self):
        j = 0.7
        p = ModelParams.uniform(4, j_coupling=[j, j, j])
        assert config_energies(p)[0] == pytest.approx(3 * j, abs=1e-15)

    def test_matches_hamiltonian_diagonal(self, rng):
        # oracle: brute-force 16-dim H_qb; its diagonal must equal config_energies
        eps = rng.normal(size=4)
        jc = rng.normal(size=3)
        p = ModelParams.uniform(4, epsilon=eps, j_coupling=jc, zeta=0.1)
        h = dense_hamiltonian(p.omega, eps, jc)
        assert config_energies(p) == pytest.approx(h.diagonal().real, abs=1e-12)

    def test_matches_per_configuration_sums(self, rng):
        # reference: one configuration at a time, bias terms then couplings,
        # each summed over ascending i and added last; equal bit for bit
        for n in (2, 3, 5, 8):
            eps, jc = rng.normal(size=n), rng.normal(size=n - 1)
            p = ModelParams.uniform(n, epsilon=eps, j_coupling=jc)
            want = []
            for z in range(2**n):
                s = [1.0 if (z >> i) & 1 else -1.0 for i in range(n)]
                e = sum(p.epsilon[i] * s[i] for i in range(n))
                e += sum(p.j_coupling[i] * s[i] * s[i + 1] for i in range(n - 1))
                want.append(e)
            assert np.array_equal(config_energies(p), want)

    @given(
        jc=st.tuples(*[st.floats(-3, 3) for _ in range(3)]),
        z=st.integers(0, 15),
    )
    def test_global_flip_invariance_without_bias(self, jc, z):
        e = config_energies(ModelParams.uniform(4, j_coupling=jc))
        assert e[z] == pytest.approx(e[z ^ 0xF], abs=1e-12)

    def test_global_flip_negates_bias_terms(self):
        eps = (0.3, -0.2, 0.5, 0.1)
        e = config_energies(ModelParams.uniform(4, epsilon=eps))
        for z in range(16):
            assert e[z] == pytest.approx(-e[z ^ 0xF], abs=1e-12)


class TestModelParams:
    def test_default_barrier_split(self):
        p = ModelParams.uniform(4)
        assert p.left_barrier == frozenset({1, 2})
        assert p.right_barrier == frozenset({3, 4})
        p2 = ModelParams.uniform(2)
        assert p2.left_barrier == frozenset({1})
        assert p2.right_barrier == frozenset({2})

    def test_barrier_partition_enforced(self):
        with pytest.raises(ValueError):
            ModelParams.uniform(4, left_barrier=[1, 2], right_barrier=[2, 3, 4])
        with pytest.raises(ValueError):
            ModelParams.uniform(4, left_barrier=[1, 2, 3, 4], right_barrier=[])
        with pytest.raises(ValueError):
            ModelParams.uniform(4, left_barrier=[1], right_barrier=[2, 3])

    def test_rates_must_stay_positive(self):
        with pytest.raises(ValueError):
            ModelParams.uniform(2, zeta=1.0)

    def test_list_lengths(self):
        with pytest.raises(ValueError, match=r"^epsilon: expected length 4, got 2$"):
            ModelParams.uniform(4, epsilon=[0.0, 0.0])
        with pytest.raises(ValueError, match=r"^j_coupling: expected length 3, got 1$"):
            ModelParams.uniform(4, j_coupling=[0.0])

    @pytest.mark.parametrize("n", [1, 0, -(10**300)])
    def test_at_least_two_qubits(self, n):
        # a count too negative to size a tuple gets the same refusal
        with pytest.raises(ValueError, match=r"^n_qubits: must be >= 2$"):
            ModelParams.uniform(n)

    def test_primed_scale_positive(self):
        with pytest.raises(ValueError):
            ModelParams.uniform(2, primed_scale=0.0)


class TestScenario:
    def test_named_cases(self):
        assert CASE_AFFECTED["case_i"] == frozenset({3})
        assert CASE_AFFECTED["case_ii"] == frozenset({2, 3})
        assert CASE_AFFECTED["case_iii"] == frozenset({4})
        assert CASE_AFFECTED["uniform"] == frozenset()
        base = ModelParams.uniform(4, zeta=0.2)
        for name, affected in CASE_AFFECTED.items():
            out = apply_scenario(base, name, 0.05)
            assert {i + 1 for i in range(4) if out.omega[i] != base.omega[i]} == affected

    def test_eta_range(self):
        base = ModelParams.uniform(4, zeta=0.2)
        with pytest.raises(ValueError):
            apply_scenario(base, "case_i", 1.0)
        with pytest.raises(ValueError):
            apply_scenario(base, "case_i", -0.1)

    def test_unknown_name(self):
        base = ModelParams.uniform(4, zeta=0.2)
        with pytest.raises(ValueError, match="unknown scenario"):
            apply_scenario(base, "case_iv", 0.01)
        with pytest.raises(ValueError, match="unknown scenario"):
            apply_scenario(base, "custom", 0.0)

    def test_case_i_example(self):
        base = ModelParams.uniform(4, omega=2.0, zeta=0.2)
        out = apply_scenario(base, "case_i", 0.05)
        assert out.omega[2] == pytest.approx(1.9, abs=1e-15)
        assert out.epsilon[2] == pytest.approx(0.05, abs=1e-15)
        assert out.gamma0[2] == pytest.approx(0.95, abs=1e-15)
        assert out.delta_gamma[2] == pytest.approx(0.19, abs=1e-15)
        # branch rates scale by (1 - eta) together
        assert out.gamma0[2] + out.delta_gamma[2] == pytest.approx(0.95 * 1.2, abs=1e-14)

    def test_eta_zero_is_identity(self):
        base = ModelParams.uniform(4, epsilon=0.4, zeta=0.3)
        for name in ("uniform", "case_i", "case_ii", "case_iii"):
            assert apply_scenario(base, name, 0.0) is base

    def test_uniform_scenario_is_identity_for_any_eta(self):
        base = ModelParams.uniform(4, zeta=0.3)
        assert apply_scenario(base, "uniform", 0.05) is base

    def test_case_ii_touches_only_qubits_2_and_3(self):
        base = ModelParams.uniform(4, omega=2.0, zeta=0.2)
        out = apply_scenario(base, "case_ii", 0.05)
        for i in (0, 3):
            assert out.omega[i] == base.omega[i]
            assert out.epsilon[i] == base.epsilon[i]
            assert out.gamma0[i] == base.gamma0[i]
            assert out.delta_gamma[i] == base.delta_gamma[i]
        for i in (1, 2):
            assert out.omega[i] == pytest.approx(1.9, abs=1e-15)
            assert out.epsilon[i] == pytest.approx(0.05, abs=1e-15)

    def test_affected_out_of_range(self):
        base = ModelParams.uniform(2, zeta=0.2)
        with pytest.raises(ValueError):
            apply_scenario(base, "case_iii", 0.05)
