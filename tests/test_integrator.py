import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qdfsim.analysis import fidelity_series, rotation_frequencies
from qdfsim import integrator
from qdfsim.cli import RunConfig, execute_run
from qdfsim.integrator import (
    REAL_FORM_TOL,
    Collect,
    _evolve_krylov,
    _evolve_propagator,
    _evolve_stepwise,
    _sample_grid,
    evolve_expm,
    evolve_rk4,
    hermitian_maps,
    real_form,
)
from qdfsim.liouvillian import (
    SECTORS_REDUCED,
    Generator,
    assemble,
)
from qdfsim.model import ModelParams, apply_scenario
from qdfsim.states import DF4_NAMES, parse_custom, state_by_name, to_density

from conftest import complex_rk4, complex_rk4_sparse, eig_propagate


def collect(run, *args, **kwargs) -> Collect:
    """The samples that ``run`` (evolve_rk4 or a route) hands to its sink."""
    out = Collect()
    run(*args, **kwargs, sink=out)
    return out


def fig_style_n5_state() -> str:
    """The seeded ``custom:`` state of the fig-style N = 5 runs below."""
    amps = np.random.default_rng(5).normal(size=(32, 2)) @ [1.0, 1j]
    return "custom:" + ",".join(repr(complex(a)) for a in amps)


def bell_setup(zeta=0.2):
    p = ModelParams.uniform(2, zeta=zeta)
    g = assemble(p, SECTORS_REDUCED)
    amps = state_by_name("bell-d", 2)
    v0 = to_density(amps).flatten(SECTORS_REDUCED)
    return p, g, amps, v0


class TestSampling:
    def test_zero_horizon_returns_initial(self):
        _, g, _, v0 = bell_setup()
        traj = collect(evolve_rk4, g, v0, 0.0, 1e-3, 1e-3)
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states[0], v0)

    def test_sample_times(self):
        _, g, _, v0 = bell_setup()
        traj = collect(evolve_rk4, g, v0, 1.0, 1e-3, sample_interval=0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
        assert traj.states.shape == (5, 48)

    def test_collect_joins_blocks(self, monkeypatch):
        # one-sample blocks arrive in one reused buffer; Collect keeps copies
        _, g, _, v0 = bell_setup()
        whole = collect(evolve_rk4, g, v0, 1.0, 1e-3, 0.25)
        monkeypatch.setattr(integrator, "_BLOCK_BYTES", 1)
        blocks = collect(evolve_rk4, g, v0, 1.0, 1e-3, 0.25)
        assert np.array_equal(blocks.times, whole.times)
        assert np.array_equal(blocks.states, whole.states)

    @pytest.mark.parametrize("run", ["fig_style_n5", "fig3b_case_ii"])
    def test_runs_arrive_in_bounded_blocks(self, run, monkeypatch):
        # a fig-style N = 5 run to t 10 (101 samples, 4.96 MB) and a fig3b
        # group to t 20 (201 samples of 3 columns, 7.4 MB) each pass the
        # sink more than one block, none above the bound, and the joined
        # blocks are the samples a 32 MiB block holds whole
        if run == "fig_style_n5":
            p = ModelParams.uniform(5, zeta=0.2, epsilon=0.1, j_coupling=0.05)
            amps = parse_custom(fig_style_n5_state(), 5)
            v0, t_end = to_density(amps).flatten(SECTORS_REDUCED), 10.0
        else:
            p = apply_scenario(ModelParams.uniform(4, zeta=0.2), "case_ii", 0.05)
            v0 = np.stack(
                [to_density(state_by_name(s, 4)).flatten(SECTORS_REDUCED) for s in DF4_NAMES],
                axis=1,
            )
            t_end = 20.0
        g = assemble(p, SECTORS_REDUCED)
        sizes, blocks = [], Collect()

        def record(times, block):
            sizes.append(block.nbytes)
            blocks(times, block)

        evolve_rk4(g, v0, t_end, 1e-3, 0.1, record)
        assert len(sizes) > 1
        assert max(sizes) <= integrator._BLOCK_BYTES
        monkeypatch.setattr(integrator, "_BLOCK_BYTES", 32 * 2**20)
        whole = collect(evolve_rk4, g, v0, t_end, 1e-3, 0.1)
        assert np.array_equal(blocks.times, whole.times)
        assert np.array_equal(blocks.states, whole.states)

    def test_run_memory_is_bounded(self):
        # the fig-style N = 5 run above, through execute_run, traces at most
        # 7 MiB: the build, the Krylov loop, one sample block and the
        # reduction's block-sized temporaries (4.8 MiB; 8.9 MiB with 4 MiB
        # blocks).  A run that kept its samples or copies of its generator
        # would fail it.
        cfg = RunConfig(
            n_qubits=5, state=fig_style_n5_state(), epsilon=[0.1] * 5, j_coupling=[0.05] * 4,
            t_end=10.0,
        )
        tracemalloc.start()
        try:
            execute_run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_grid_validation(self):
        _, g, _, v0 = bell_setup()
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0, 1.0, dt=0.0, sample_interval=1.0)
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0, 1.0, dt=-1e-3, sample_interval=1.0)
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0, -1.0, dt=1e-3, sample_interval=1.0)
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0, 1.0, dt=0.1, sample_interval=0.25)
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0, 1.0, dt=1e-3, sample_interval=0.3)
        with pytest.raises(ValueError, match="1e\\+301 samples"):
            collect(evolve_rk4, g, v0, 1e300, dt=1e-3, sample_interval=0.1)

    def test_sample_count_bound(self):
        # checked before anything is allocated: 100,000 samples pass, 100,001 do not
        assert _sample_grid(9999.9, 1e-3, 0.1) == (99_999, 100)
        with pytest.raises(ValueError, match="100001 samples, more than 100,000"):
            _sample_grid(10000.0, 1e-3, 0.1)

    def test_ratios_past_float_range(self):
        # an infinite ratio is refused before int() would overflow on it
        with pytest.raises(ValueError, match="the grid holds inf samples, more than 100,000"):
            _sample_grid(1e300, 1e-10, 1e-10)
        with pytest.raises(ValueError, match="over dt=1e-10 is past the float range"):
            _sample_grid(1e300, 1e-10, 1e300)

    def test_dimension_mismatch(self):
        _, g, _, v0 = bell_setup()
        with pytest.raises(ValueError):
            collect(evolve_rk4, g, v0[:-1], 1.0, 1e-3, 1.0)


class TestAgainstClosedForm:
    def test_population_chain_matches_eigen_oracle(self):
        # omega = 0 decouples configurations; the z=0 cell is the plain
        # 4-state occupation chain a -> b_up/b_dn -> c and back
        p = ModelParams.uniform(2, omega=0.0, zeta=0.2)
        g = assemble(p)
        rho_a = np.zeros((4, 4), complex)
        rho_a[0, 0] = 1.0
        from qdfsim.liouvillian import SectorDM

        v0 = SectorDM(rho_a).flatten()
        t = 2.5
        traj = collect(evolve_rk4, g, v0, t, 1e-3, sample_interval=t)
        final = traj.states[-1].reshape(4, 4, 4)

        gl = gr = 0.8  # both qubits down, zeta = 0.2
        chain = np.array(
            [
                [-2 * gl, gr, gr, 0.0],
                [gl, -(gl + gr), 0.0, gr],
                [gl, 0.0, -(gl + gr), gr],
                [0.0, gl, gl, -2 * gr],
            ]
        )
        expected = eig_propagate(chain, np.array([1.0, 0.0, 0.0, 0.0]), t)
        got = np.array([final[s][0, 0] for s in range(4)])
        assert np.abs(got - expected).max() < 1e-9
        # nothing leaks into other configuration cells
        mask = np.ones((4, 4), bool)
        mask[0, 0] = False
        assert np.abs(final[:, mask]).max() < 1e-12

    def test_self_convergence_halving_dt(self):
        p, g, amps, v0 = bell_setup()
        om = rotation_frequencies(p)
        fids = []
        for dt in (1e-3, 5e-4):
            traj = collect(evolve_rk4, g, v0, 50.0, dt, sample_interval=50.0)
            fids.append(
                fidelity_series(traj.times, traj.states, amps, om)[-1]
            )
        assert abs(fids[0] - fids[1]) < 1e-9


class TestInternalRoutes:
    def test_propagator_equals_stepwise(self):
        _, g, _, v0 = bell_setup()
        # t_end 2.0, dt 1e-3, sample interval 0.5: 4 intervals of 500 steps
        a = collect(_evolve_stepwise, g, v0, 4, 500, 1e-3).states
        b = collect(_evolve_propagator, g, v0, 4, 500, 1e-3).states
        assert np.abs(a - b).max() < 1e-10

    def test_batch_matches_single_columns(self):
        _, g, _, v0 = bell_setup()
        w0 = to_density(state_by_name("bell-b", 2)).flatten(SECTORS_REDUCED)
        batch = collect(evolve_rk4, g, np.stack([v0, w0], axis=1), 5.0, 1e-3, 1.0)
        single_v = collect(evolve_rk4, g, v0, 5.0, 1e-3, 1.0)
        single_w = collect(evolve_rk4, g, w0, 5.0, 1e-3, 1.0)
        assert np.abs(batch.states[:, :, 0] - single_v.states).max() < 1e-12
        assert np.abs(batch.states[:, :, 1] - single_w.states).max() < 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_detection_reports_step(self):
        # a growing mode overflows quickly at this step size; a real rate on a
        # diagonal entry keeps the generator hermiticity preserving
        m = sp.csr_matrix((np.array([1e4], dtype=complex), ([0], [0])), shape=(12, 12))
        g = Generator(1, ("a", "b", "c"), m)
        v0 = np.zeros(g.dim, complex)
        v0[0] = 1.0
        with pytest.raises(FloatingPointError, match="step"):
            collect(_evolve_stepwise, g, v0, 10, 100, 1e-3)


def n4_generator():
    p = ModelParams.uniform(4, zeta=0.2, epsilon=[0.1, -0.3, 0.2, 0.4], j_coupling=[0.05, -0.1, 0.2])
    return assemble(apply_scenario(p, "case_ii", 0.05), SECTORS_REDUCED)


class TestRealForm:
    @pytest.mark.parametrize("n_sectors, d", [(3, 4), (4, 8), (3, 16)])
    def test_inverse_is_exact(self, n_sectors, d):
        s, s_inv = hermitian_maps(n_sectors, d)
        assert np.array_equal((s_inv @ s).toarray(), np.eye(n_sectors * d * d))

    def test_hermitian_blocks_have_real_coordinates(self, rng):
        mats = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        v = (mats + mats.conj().transpose(0, 2, 1)).reshape(-1)
        s, _ = hermitian_maps(3, 4)
        x = s @ v
        assert not x.imag.any()
        assert x[1] == v[1].real and x[4] == v[1].imag  # rho_01 -> (Re at 01, Im at 10)

    @pytest.mark.parametrize("n", [2, 4])
    def test_imag_residual_within_bound(self, n):
        g = bell_setup()[1] if n == 2 else n4_generator()
        rf = real_form(g)
        assert rf.imag_residual <= REAL_FORM_TOL
        assert rf.l_r.dtype == np.float64
        # sparse products would copy values read at a stride on every call
        assert rf.l_r.data.flags.c_contiguous
        # L_r reproduces L through the maps: S^-1 L_r S = L to rounding
        back = (rf.s_inv @ rf.l_r @ rf.s).toarray()
        assert np.abs(back - g.csr.toarray()).max() <= 1e-14 * np.abs(g.csr.data).max()

    @pytest.mark.parametrize("hermitian", [False, True], ids=["non_hermitian", "hermitian"])
    @pytest.mark.parametrize("route", [_evolve_stepwise, _evolve_propagator, _evolve_krylov])
    def test_routes_match_complex_oracle(self, route, hermitian, rng):
        # a hermitian batch has real coordinates; any other input is refused
        _, g, _, _ = bell_setup(zeta=0.6)
        mats = rng.normal(size=(3, 4, 4, 3)) + 1j * rng.normal(size=(3, 4, 4, 3))
        if not hermitian:
            v0 = mats.reshape(g.dim, 3)
            for stack in (v0, v0[:, 1]):
                with pytest.raises(ValueError, match="hermiticity"):
                    collect(route, g, stack, 4, 500, 1e-3)
            return
        v0 = (mats + mats.conj().transpose(0, 2, 1, 3)).reshape(g.dim, 3)
        ref = complex_rk4(g.csr, v0, 4, 500, 1e-3)
        assert np.abs(collect(route, g, v0, 4, 500, 1e-3).states - ref).max() <= 1e-12
        single = collect(route, g, v0[:, 1], 4, 500, 1e-3).states
        assert single.shape == (5, g.dim)
        assert np.abs(single - ref[:, :, 1]).max() <= 1e-12

    def test_rk4_matches_expm_four_qubits(self):
        g = n4_generator()
        v0 = to_density(state_by_name("psi2", 4)).flatten(SECTORS_REDUCED)
        rk4 = collect(evolve_rk4, g, v0, 50.0, 1e-3, sample_interval=50.0).states[-1]
        ref = evolve_expm(g, v0, 50.0)
        assert np.abs(rk4 - ref).max() < 1e-8

    @pytest.mark.parametrize("t_end", [0.5, 5.0], ids=["stepwise", "propagator"])
    def test_non_hermitian_generator_rejected(self, t_end):
        # couples rho_00 to rho_01 but not to rho_10
        m = sp.csr_matrix(
            (np.array([-1.0, 1.0], dtype=complex), ([0, 0], [0, 1])), shape=(12, 12)
        )
        g = Generator(1, ("a", "b", "c"), m)
        assert real_form(g).imag_residual > REAL_FORM_TOL
        v0 = np.zeros(g.dim, complex)
        v0[0] = 1.0
        with pytest.raises(ValueError, match="hermiticity"):
            collect(evolve_rk4, g, v0, t_end, 1e-3, 0.5)


def n5_setup():
    p = ModelParams.uniform(
        5, zeta=0.2, epsilon=[0.2, -0.4, 0.1, 0.3, -0.1], j_coupling=[0.1, -0.25, 0.05, 0.2]
    )
    g = assemble(p, SECTORS_REDUCED)
    amps = np.cos(np.arange(32) * 0.7) + 1j * np.sin(np.arange(32) * 1.3)
    spec = "custom:" + ",".join(repr(complex(a)) for a in amps)
    return g, to_density(parse_custom(spec, 5)).flatten(SECTORS_REDUCED)


@functools.cache
def _small_generators():
    """(g, v0) at N = 2 and N = 3, built once for the property test."""
    p3 = ModelParams.uniform(3, zeta=0.6, epsilon=[0.2, -0.1, 0.3], j_coupling=[0.1, -0.2])
    amps3 = np.cos(np.arange(8) * 0.9) + 1j * np.sin(np.arange(8) * 0.4)
    spec3 = "custom:" + ",".join(repr(complex(a)) for a in amps3)
    v3 = to_density(parse_custom(spec3, 3)).flatten(SECTORS_REDUCED)
    return {2: bell_setup(zeta=0.6)[1::2], 3: (assemble(p3, SECTORS_REDUCED), v3)}


class TestKrylovRoute:
    def test_long_interval_is_chunked_and_matches_propagator(self):
        _, g, _, v0 = bell_setup(zeta=0.6)
        # one 50,000-step interval spans many chunks of the Krylov route
        assert 50.0 * np.abs(real_form(g).l_r).sum(axis=1).max() > 10 * integrator._KRYLOV_CHUNK_NORM
        a = collect(_evolve_krylov, g, v0, 1, 50_000, 1e-3).states
        assert np.abs(a - complex_rk4(g.csr, v0, 1, 50_000, 1e-3)).max() <= 1e-12

    def test_five_qubits_match_stepwise(self):
        g, v0 = n5_setup()
        assert g.dim == 3072
        a = collect(_evolve_krylov, g, v0, 20, 100, 1e-3).states
        assert np.abs(a - complex_rk4_sparse(g.csr, v0, 20, 100, 1e-3)).max() <= 1e-12

    def test_fig_grid_four_qubits_matches_propagator(self):
        # a fig3b group on the Krylov route, which every figure takes: t 50,
        # interval 0.1, psi1-psi3 as one batch
        p = apply_scenario(ModelParams.uniform(4, zeta=0.2), "case_ii", 0.05)
        g = assemble(p, SECTORS_REDUCED)
        v0 = np.stack(
            [to_density(state_by_name(s, 4)).flatten(SECTORS_REDUCED) for s in DF4_NAMES],
            axis=1,
        )
        a = collect(_evolve_krylov, g, v0, 500, 100, 1e-3).states
        assert np.abs(a - complex_rk4(g.csr, v0, 500, 100, 1e-3)).max() <= 1e-11

    @staticmethod
    def _spy(monkeypatch, name, log, entry):
        real = getattr(integrator, name)

        def spy(*args):
            log.append(entry(*args))
            return real(*args)

        monkeypatch.setattr(integrator, name, spy)

    def test_one_basis_serves_many_samples(self, monkeypatch):
        g, v0 = n5_setup()
        bases = []
        self._spy(monkeypatch, "_arnoldi", bases, lambda *args: "basis")
        collect(_evolve_krylov, g, v0, 20, 100, 1e-3)
        assert 1 <= len(bases) <= 4  # 2 at this writing

    def test_halving_when_one_sample_exceeds_the_basis(self, monkeypatch):
        _, g, _, v0 = bell_setup(zeta=0.6)
        monkeypatch.setattr(integrator, "_KRYLOV_MAX_BASIS", 8)
        pieces = []
        self._spy(monkeypatch, "_rk4_power", pieces, lambda h, dt, m: m)
        a = collect(_evolve_krylov, g, v0, 4, 500, 1e-3).states
        assert min(pieces) < 500
        assert np.abs(a - complex_rk4(g.csr, v0, 4, 500, 1e-3)).max() <= 1e-12

    def test_halving_is_local_to_the_failed_basis(self, monkeypatch):
        # the first basis is cut to six vectors, too few for one sample of 100
        # steps; every later basis serves whole samples again
        g, v0 = n5_setup()
        real_arnoldi = integrator._arnoldi
        log = []

        def arnoldi(l_r, x, basis):
            log.append("basis")
            return real_arnoldi(l_r, x, basis[:6] if len(log) == 1 else basis)

        monkeypatch.setattr(integrator, "_arnoldi", arnoldi)
        self._spy(monkeypatch, "_rk4_power", log, lambda h, dt, m: m)
        a = collect(_evolve_krylov, g, v0, 20, 100, 1e-3).states
        pieces = []  # the pieces tried in each basis
        for event in log:
            if event == "basis":
                pieces.append([])
            else:
                pieces[-1].append(event)
        assert len(pieces) >= 3
        assert pieces[0][0] == 100 and min(pieces[0]) < 100
        assert all(max(tried) == 100 for tried in pieces[2:])
        assert np.abs(a - complex_rk4_sparse(g.csr, v0, 20, 100, 1e-3)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        n_intervals=st.integers(1, 30),
        steps_per_sample=st.integers(1, 500),
    )
    def test_random_grids_match_propagator(self, n, n_intervals, steps_per_sample):
        # N = 2 spans the whole space (dim 48 < 60 vectors); N = 3 (dim 192)
        # walks real projections, long samples in several pieces
        g, v0 = _small_generators()[n]
        a = collect(_evolve_krylov, g, v0, n_intervals, steps_per_sample, 1e-3).states
        b = complex_rk4(g.csr, v0, n_intervals, steps_per_sample, 1e-3)
        assert np.abs(a - b).max() <= 1e-11

    def test_zero_column_and_happy_breakdown(self):
        # rho_00 -> rho_11 at rate 1: from rho_00 the Krylov space closes at
        # dimension 2, so the projection is exact
        m = sp.csr_matrix((np.array([-1.0, 1.0], dtype=complex), ([0, 3], [0, 0])), shape=(12, 12))
        g = Generator(1, ("a", "b", "c"), m)
        v0 = np.zeros((g.dim, 2), complex)
        v0[0, 0] = 1.0
        got = collect(_evolve_krylov, g, v0, 3, 500, 1e-3).states
        assert not got[:, :, 1].any()
        assert np.abs(got - complex_rk4(g.csr, v0, 3, 500, 1e-3)).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_detection_reports_step(self):
        m = sp.csr_matrix((np.array([1e4], dtype=complex), ([0], [0])), shape=(12, 12))
        g = Generator(1, ("a", "b", "c"), m)
        v0 = np.zeros(g.dim, complex)
        v0[0] = 1.0
        with pytest.raises(FloatingPointError, match="step 200"):
            collect(_evolve_krylov, g, v0, 10, 100, 1e-3)

    def test_non_hermitian_generator_rejected(self):
        m = sp.csr_matrix(
            (np.array([-1.0, 1.0], dtype=complex), ([0, 0], [0, 1])), shape=(12, 12)
        )
        g = Generator(1, ("a", "b", "c"), m)
        v0 = np.zeros(g.dim, complex)
        v0[0] = 1.0
        with pytest.raises(ValueError, match="hermiticity"):
            collect(_evolve_krylov, g, v0, 2, 100, 1e-3)

    @staticmethod
    def _forbid(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("route not expected here")

        for name in names:
            monkeypatch.setattr(integrator, name, refuse)

    @pytest.mark.parametrize("t_end, interval", [(0.2, 0.1), (3.0, 1.0)], ids=["short", "long"])
    def test_five_qubits_never_build_dense_matrices(self, monkeypatch, t_end, interval):
        g, v0 = n5_setup()
        self._forbid(monkeypatch, "_evolve_propagator", "_rk4_step_matrix", "_evolve_stepwise")
        traj = collect(evolve_rk4, g, v0, t_end, 1e-3, interval)
        assert traj.states.shape == (round(t_end / interval) + 1, g.dim)
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("t_end", [0.5, 5.0], ids=["short", "long"])
    def test_four_qubits_never_build_dense_matrices(self, monkeypatch, t_end):
        g = n4_generator()
        assert g.dim == integrator._KRYLOV_MIN_DIM
        self._forbid(monkeypatch, "_evolve_propagator", "_rk4_step_matrix", "_evolve_stepwise")
        v0 = to_density(state_by_name("psi2", 4)).flatten(SECTORS_REDUCED)
        traj = collect(evolve_rk4, g, v0, t_end, 1e-3, 0.5)
        assert traj.states.shape == (round(t_end / 0.5) + 1, g.dim)
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("t_end", [0.5, 5.0], ids=["stepwise", "propagator"])
    def test_three_qubits_keep_their_routes(self, monkeypatch, t_end):
        g, v0 = _small_generators()[3]
        assert g.dim < integrator._KRYLOV_MIN_DIM
        self._forbid(monkeypatch, "_evolve_krylov")
        assert np.isfinite(collect(evolve_rk4, g, v0, t_end, 1e-3, 0.5).states).all()


class TestTimeUnit:
    """RK4 depends on dt and L only through dt L: L scaled by 2^600 with the
    grid divided by 2^600 is the same scheme, exactly.  At that scale
    |L_r v| passes 1e154, where (L_r v)^2 overflows."""

    SCALE = 2.0**600

    def _scaled(self, g, v0, t_end, dt, interval):
        s = self.SCALE
        big = Generator(g.n_qubits, g.sectors, g.csr * s)
        with np.errstate(over="ignore"):
            return collect(evolve_rk4, big, v0, t_end / s, dt / s, interval / s).states

    @pytest.mark.parametrize("t_end", [1.0, 5.0], ids=["stepwise", "dense"])
    def test_small_routes_bit_for_bit(self, t_end):
        _, g, _, v0 = bell_setup()
        unscaled = collect(evolve_rk4, g, v0, t_end, 1e-3, 0.5).states
        assert np.array_equal(self._scaled(g, v0, t_end, 1e-3, 0.5), unscaled)

    def test_krylov_route(self):
        # fig3b's case-ii group over 3 samples of 100 steps; the walk's
        # acceptance estimate grows with the scale of L, so it restarts more
        # often and is not bit for bit
        p = apply_scenario(ModelParams.uniform(4, zeta=0.2), "case_ii", 0.05)
        g = assemble(p, SECTORS_REDUCED)
        v0 = np.stack(
            [to_density(state_by_name(s, 4)).flatten(SECTORS_REDUCED) for s in DF4_NAMES],
            axis=1,
        )
        unscaled = collect(evolve_rk4, g, v0, 0.3, 1e-3, 0.1).states
        assert np.abs(self._scaled(g, v0, 0.3, 1e-3, 0.1) - unscaled).max() <= 1e-12


def _arnoldi_defects(l_r: sp.csr_matrix, x: np.ndarray, cap: int) -> tuple[int, float, float]:
    """(k, max|V V^T - I|, relative defect of L_r V^T = V^T H) of a fresh
    basis of at most ``cap`` vectors from x; the relation is checked on the
    first k - 1 columns, which involve no vector beyond the basis."""
    basis = np.empty((cap, l_r.shape[0]))
    beta, h, _ = integrator._arnoldi(l_r, x, basis)
    k = len(h)
    v = basis[:k]
    assert np.abs(beta * v[0] - x).max() <= 1e-15 * np.abs(x).max()
    lv = l_r @ v[: k - 1].T
    relation = np.abs(lv - v.T @ h[:, : k - 1]).max() / np.abs(lv).max()
    return k, float(np.abs(v @ v.T - np.eye(k)).max()), float(relation)


class TestArnoldi:
    @pytest.mark.parametrize("n", [4, 5])
    def test_fresh_basis_is_orthonormal(self, n):
        if n == 4:
            g, v0 = n4_generator(), to_density(state_by_name("psi2", 4)).flatten(SECTORS_REDUCED)
        else:
            g, v0 = n5_setup()
        rf = real_form(g)
        x = integrator._to_real(rf, v0)[:, 0].copy()
        k, orthogonality, relation = _arnoldi_defects(rf.l_r, x, 60)
        assert k == 60
        assert orthogonality <= 1e-13
        assert relation <= 1e-13

    def test_cancellation_takes_a_second_pass(self):
        # eigenvalues 1, 1.001, ..., 1.005: each L v_k lies almost in the span
        # of the basis so far, so one pass of classical Gram-Schmidt cancels
        # nearly all of it and leaves a vector far from orthogonal to the basis
        l_r = sp.diags(1.0 + 1e-3 * np.arange(6)).tocsr()
        x = np.ones(6)
        one_pass = np.empty((6, 6))
        one_pass[0] = x / np.linalg.norm(x)
        for k in range(1, 6):
            w = l_r @ one_pass[k - 1]
            w -= (one_pass[:k] @ w) @ one_pass[:k]
            one_pass[k] = w / np.linalg.norm(w)
        assert np.abs(one_pass @ one_pass.T - np.eye(6)).max() > 1e-3
        k, orthogonality, relation = _arnoldi_defects(l_r, x, 6)
        assert k == 6
        assert orthogonality <= 1e-13
        assert relation <= 1e-13


class TestExpmOracle:
    def test_t_zero_identity(self):
        _, g, _, v0 = bell_setup()
        assert np.array_equal(evolve_expm(g, v0, 0.0), v0)

    def test_semigroup_property(self):
        _, g, _, v0 = bell_setup()
        once = evolve_expm(g, v0, 7.0)
        comp = evolve_expm(g, evolve_expm(g, v0, 3.0), 4.0)
        assert np.abs(once - comp).max() < 1e-10

    def test_rk4_matches_expm_two_qubits(self):
        _, g, _, v0 = bell_setup()
        rk4 = collect(evolve_rk4, g, v0, 50.0, 1e-3, sample_interval=50.0).states[-1]
        ref = evolve_expm(g, v0, 50.0)
        assert np.abs(rk4 - ref).max() < 1e-8

    def test_dimension_guard(self):
        g = Generator(6, ("a", "b_up", "b_dn", "c"), sp.csr_matrix((16384, 16384), dtype=complex))
        assert g.dim == 16384
        with pytest.raises(ValueError):
            evolve_expm(g, np.zeros(g.dim, complex), 1.0)


class TestConservationAlongTrajectory:
    def test_trace_and_positivity(self):
        _, g, amps, v0 = bell_setup(zeta=0.6)
        traj = collect(evolve_rk4, g, v0, 50.0, 1e-3, 0.5)
        mats = traj.states.reshape(-1, 3, 4, 4)
        pops = np.einsum("tsii->ts", mats).real
        total = pops.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-9
        assert pops.min() > -1e-9
        assert pops.max() < 1 + 1e-9
        diag = np.einsum("tsii->tsi", mats)
        assert diag.real.min() > -1e-9
        assert np.abs(diag.imag).max() < 1e-9
