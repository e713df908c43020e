import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from qdfsim.baseline import baseline_fidelity
from qdfsim.cli import main
from qdfsim.model import config_spins
from qdfsim.states import state_by_name

TIMES = np.linspace(0.0, 12.0, 25)


def channel_oracle(rho0: np.ndarray, gamma_d: float, t: float) -> np.ndarray:
    """Independent elementwise channel arithmetic on explicit spin sums."""
    d = rho0.shape[0]
    n = d.bit_length() - 1
    out = np.empty_like(rho0)
    for z1 in range(d):
        for z2 in range(d):
            s1 = 2 * bin(z1).count("1") - n
            s2 = 2 * bin(z2).count("1") - n
            out[z1, z2] = rho0[z1, z2] * np.exp(-0.5 * gamma_d * t * (s1 - s2) ** 2)
    return out


def fidelity_oracle(amps: np.ndarray, gamma_d: float, times: np.ndarray) -> np.ndarray:
    """F(t) = Tr[rho(0) rho(t)] sample by sample: the channel applied to rho(0),
    then the trace of the product."""
    rho0 = np.outer(amps, amps.conj())
    return np.array([np.trace(rho0 @ channel_oracle(rho0, gamma_d, t)).real for t in times])


def coherence_weights_oracle(amps: np.ndarray, gamma_d: float, times: np.ndarray) -> np.ndarray:
    """F(t) from the weights W_m summed over all 4^N coherences |rho(0)[z1, z2]|^2,
    grouped by the half-difference m of their total spins."""
    n = len(amps).bit_length() - 1
    s = 2 * np.array([bin(z).count("1") for z in range(2**n)]) - n
    m = np.abs(s[:, None] - s[None, :]) // 2
    w = np.bincount(m.ravel(), weights=np.abs(np.outer(amps, amps.conj())).ravel() ** 2)
    return sum(w[k] * np.exp(-0.5 * gamma_d * times * (2 * k) ** 2) for k in range(len(w)))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


class TestChannel:
    def test_total_spin(self):
        assert config_spins(2).sum(axis=1)[0] == -2
        assert config_spins(2).sum(axis=1)[3] == 2
        assert config_spins(4).sum(axis=1)[0b0101] == 0

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            for gamma in (0.4, 3.0):
                amps = random_state(rng, n)
                got = baseline_fidelity(amps, gamma, TIMES)
                assert np.abs(got - fidelity_oracle(amps, gamma, TIMES)).max() < 1e-14

    def test_matches_coherence_weights(self):
        # the total-spin populations give the weights the coherences give
        rng = np.random.default_rng(29)
        for n in range(1, 10):
            for gamma in (0.3, 2.5):
                for _ in range(3):
                    amps = random_state(rng, n)
                    got = baseline_fidelity(amps, gamma, TIMES)
                    assert np.abs(got - coherence_weights_oracle(amps, gamma, TIMES)).max() < 1e-14

    def test_memory_grows_with_the_amplitudes_only(self):
        # at 12 qubits the 4^N coherences alone would take 256 MiB
        amps = random_state(np.random.default_rng(12), 12)
        tracemalloc.start()
        try:
            baseline_fidelity(amps, 0.3, TIMES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_fifteen_qubit_ghz_command(self):
        # (|0...0> + |1...1>)/sqrt(2): only the coherence between total spins
        # -15 and +15 decays, at gamma (2N)^2 / 2
        n, gamma = 15, 0.001
        spec = "custom:" + ",".join(["1"] + ["0"] * (2**n - 2) + ["1"])
        args = ["baseline", "--state", spec, "--gamma-d", str(gamma), "--t-end", "1"]
        result = CliRunner().invoke(main, [*args, "--sample-interval", "0.5"])
        assert result.exit_code == 0, result.output
        rows = np.array([row.split(",") for row in result.stdout.splitlines()[1:]], float)
        closed = 0.5 * (1.0 + np.exp(-0.5 * gamma * rows[:, 0] * (2 * n) ** 2))
        assert len(rows) == 3 and np.abs(rows[:, 1] - closed).max() < 1e-12

    def test_damping_factors_in_unit_interval(self):
        # every factor lies in (0, 1] and the diagonal's is 1, so F stays
        # between the populations' share sum_z |a_z|^4 and F(0) = 1
        amps = random_state(np.random.default_rng(3), 4)
        f = baseline_fidelity(amps, 0.7, np.linspace(0.0, 3.0, 31))
        assert f[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(f <= 1.0 + 1e-14)
        assert np.all(f >= np.sum(np.abs(amps) ** 4) - 1e-14)
        assert np.all(np.diff(f) <= 1e-14)

    def test_negative_rate_rejected(self):
        for gamma in (-0.1, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="dephasing rate must be finite and non-negative"):
                baseline_fidelity(state_by_name("bell-b", 2), gamma, TIMES)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_overflowing_rate_gives_the_long_time_limit(self, n):
        # gamma t past the float range: only the equal-spin coherences remain
        amps = random_state(np.random.default_rng(n), n)
        s = 2 * np.array([bin(z).count("1") for z in range(2**n)]) - n
        same = s[:, None] == s[None, :]
        limit = float(np.sum(np.abs(np.outer(amps, amps.conj()))[same] ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = baseline_fidelity(amps, 1e300, np.array([0.0, 1e9, 1e10]))
        assert f[0] == pytest.approx(1.0, abs=1e-14)
        assert f[1:] == pytest.approx([limit, limit], abs=1e-14)


class TestDecoherenceFreeCertification:
    @pytest.mark.parametrize("name", ["psi1", "psi2", "psi3"])
    def test_df4_states_are_untouched(self, name):
        amps = state_by_name(name, 4)
        rho0 = np.outer(amps, amps.conj())
        # supported entirely on total-spin zero: the state is bitwise invariant
        assert np.array_equal(channel_oracle(rho0, 0.9, 5.0), rho0)
        fids = baseline_fidelity(amps, 0.9, TIMES)
        assert np.abs(fids - 1.0).max() < 1e-12

    @pytest.mark.parametrize("name", ["c", "d"])
    def test_zero_spin_bell_states_are_untouched(self, name):
        amps = state_by_name(f"bell-{name}", 2)
        rho0 = np.outer(amps, amps.conj())
        assert np.array_equal(channel_oracle(rho0, 0.9, 5.0), rho0)
        fids = baseline_fidelity(amps, 0.9, TIMES)
        assert np.abs(fids - 1.0).max() < 1e-12

    def test_bell_b_closed_form(self):
        # coherence between total spin -2 and +2 decays as exp(-8 gamma t)
        gamma = 0.35
        fids = baseline_fidelity(state_by_name("bell-b", 2), gamma, TIMES)
        closed = 0.5 * (1.0 + np.exp(-8.0 * gamma * TIMES))
        assert np.abs(fids - closed).max() < 1e-10

    def test_bell_a_matches_bell_b(self):
        # same support, phase-insensitive channel
        gamma = 0.2
        fa = baseline_fidelity(state_by_name("bell-a", 2), gamma, TIMES)
        fb = baseline_fidelity(state_by_name("bell-b", 2), gamma, TIMES)
        assert np.abs(fa - fb).max() < 1e-14


class TestHugeRates:
    """gamma_d t past the float range prints the t -> infinity limit of F,
    with no warning: bell-b keeps its equal-spin half, F = 0.5."""

    @pytest.mark.parametrize(
        "args, times",
        [
            (["--gamma-d", "1e300", "--t-end", "1e10", "--sample-interval", "1e9"], 11),
            (["--gamma-d", "1e308", "--t-end", "0.2"], 3),
            (["--gamma-d", "1e308", "--t-end", "1"], 11),
        ],
        ids=["t_1e10", "gamma_1e308", "gamma_1e308_t1"],
    )
    def test_limit_rows_and_empty_stderr(self, args, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, ["baseline", "--state", "bell-b", *args])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        header, *rows = result.stdout.splitlines()
        assert header == "t,F"
        assert [r.split(",")[1] for r in rows] == ["1"] + ["0.5"] * (times - 1)
