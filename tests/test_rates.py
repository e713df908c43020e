import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdfsim.model import ModelParams, apply_scenario
from qdfsim.rates import rate_table


def index(spins: tuple[int, ...]) -> int:
    """Configuration index of a spin tuple written qubit-1-first."""
    return sum(1 << i for i, s in enumerate(spins) if s == 1)


def series_oracle(z: int, qubits: frozenset[int], p: ModelParams) -> float:
    """Barrier rate at configuration z: harmonic sum of the branch rates."""
    inv = 0.0
    for i in sorted(qubits):
        s = 1 if (z >> (i - 1)) & 1 else -1
        inv += 1.0 / (p.gamma0[i - 1] + s * p.delta_gamma[i - 1])
    return 1.0 / inv


class TestBranchRate:
    # N=2 puts one qubit on each barrier, so the barrier rate is its branch rate

    def test_weak_measurement_down(self):
        t = rate_table(ModelParams.uniform(2, zeta=0.2))
        assert t.gamma_L[index((-1, -1))] == pytest.approx(0.8, abs=1e-15)

    def test_decoupled(self):
        t = rate_table(ModelParams.uniform(2, zeta=0.0))
        assert np.all(t.gamma_L == 1.0)
        assert np.all(t.gamma_R == 1.0)

    def test_strong_measurement_up(self):
        t = rate_table(ModelParams.uniform(2, zeta=0.6))
        assert t.gamma_R[index((-1, 1))] == pytest.approx(1.6, abs=1e-15)


class TestBarrierRates:
    def test_all_down_series(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.2))
        assert t.gamma_L[0] == pytest.approx(0.4, abs=1e-15)
        assert t.gamma_R[0] == pytest.approx(0.4, abs=1e-15)

    def test_opposite_spins_on_one_barrier(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.2))
        z = index((-1, 1, -1, -1))  # left barrier mixed
        assert t.gamma_L[z] == pytest.approx(0.5 * (1 - 0.2**2), abs=1e-15)

    def test_decoupled_all_configs(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.0))
        assert t.gamma_L == pytest.approx(np.full(16, 0.5), abs=1e-15)
        assert t.gamma_R == pytest.approx(np.full(16, 0.5), abs=1e-15)

    def test_single_qubit_barrier_passthrough(self):
        t = rate_table(ModelParams.uniform(2, zeta=0.2))
        z = index((-1, 1))
        assert t.gamma_L[z] == pytest.approx(0.8, abs=1e-14)
        assert t.gamma_R[z] == pytest.approx(1.2, abs=1e-14)

    def test_exactly_three_distinct_values_per_barrier(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.2))
        values = {round(v, 12) for v in t.gamma_L.tolist()}
        expected = {round(v, 12) for v in (0.4, 0.5 * (1 - 0.04), 0.6)}
        assert values == expected

    def test_primed_rates_scale(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.2, primed_scale=1.5))
        for z in (0, 5, 15):
            assert t.gamma_L_primed[z] == pytest.approx(1.5 * t.gamma_L[z], abs=1e-14)
            assert t.gamma_R_primed[z] == pytest.approx(1.5 * t.gamma_R[z], abs=1e-14)

    @given(z=st.integers(0, 15), i=st.integers(1, 4))
    def test_monotone_in_each_spin(self, z, i):
        p = ModelParams.uniform(4, zeta=0.3)
        t = rate_table(p)
        lo = z & ~(1 << (i - 1))  # spin i down
        hi = z | (1 << (i - 1))  # spin i up
        if i in p.left_barrier:
            assert t.gamma_L[hi] > t.gamma_L[lo]
            assert t.gamma_R[hi] == t.gamma_R[lo]
        else:
            assert t.gamma_R[hi] > t.gamma_R[lo]
            assert t.gamma_L[hi] == t.gamma_L[lo]

    def test_symmetry_under_swap_within_barrier(self):
        t = rate_table(ModelParams.uniform(4, zeta=0.35))
        for s1, s2 in ((-1, 1), (1, -1)):
            za = index((s1, s2, -1, 1))
            zb = index((s2, s1, 1, -1))
            assert t.gamma_L[za] == pytest.approx(t.gamma_L[zb], abs=1e-15)

    def test_positive_enforced(self):
        # a zero branch rate would make the harmonic sum divide by zero;
        # ModelParams rejects it before any rate is tabulated
        with pytest.raises(ValueError, match="positive"):
            ModelParams(
                n_qubits=2,
                omega=(2.0, 2.0),
                epsilon=(0.0, 0.0),
                j_coupling=(0.0,),
                gamma0=(1.0, 1.0),
                delta_gamma=(0.2, 1.0),
                primed_scale=1.0,
                left_barrier=frozenset({1}),
                right_barrier=frozenset({2}),
            )


class TestRateTable:
    def test_matches_pointwise(self):
        base = ModelParams.uniform(4, zeta=0.45, primed_scale=1.2)
        for p in (base, apply_scenario(base, "case_ii", 0.05)):
            table = rate_table(p)
            for z in range(16):
                gl = series_oracle(z, p.left_barrier, p)
                gr = series_oracle(z, p.right_barrier, p)
                assert table.gamma_L[z] == gl
                assert table.gamma_R[z] == gr
                assert table.gamma_L_primed[z] == p.primed_scale * gl
                assert table.gamma_R_primed[z] == p.primed_scale * gr

    def test_all_positive(self):
        p = ModelParams.uniform(4, zeta=0.6)
        t = rate_table(p)
        for arr in (t.gamma_L, t.gamma_R, t.gamma_L_primed, t.gamma_R_primed):
            assert np.all(arr > 0)
