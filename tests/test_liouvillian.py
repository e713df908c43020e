import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdfsim.liouvillian import (
    SECTORS_FULL,
    SECTORS_REDUCED,
    Generator,
    SectorDM,
    _canonical,
    assemble,
    reduce_spin_symmetric,
    trace_violation,
)
from qdfsim.model import ModelParams, apply_scenario
from qdfsim.states import state_by_name, to_density

from conftest import dense_hamiltonian, flat_index, flip_index


def nonuniform_params() -> ModelParams:
    """N=2 parameters exercising every term: bias, coupling, asymmetric omega."""
    return ModelParams(
        n_qubits=2,
        omega=(2.0, 1.5),
        epsilon=(0.3, 0.1),
        j_coupling=(0.2,),
        gamma0=(1.0, 1.0),
        delta_gamma=(0.2, 0.45),
        primed_scale=1.1,
        left_barrier=frozenset({1}),
        right_barrier=frozenset({2}),
    )


def case_ii_params() -> ModelParams:
    """N=4 case ii (eta=0.05) with bias, coupling and primed rates != 1."""
    base = ModelParams.uniform(
        4,
        zeta=0.2,
        epsilon=[0.1, 0.2, -0.3, 0.05],
        j_coupling=[0.1, -0.2, 0.15],
        primed_scale=1.3,
    )
    return apply_scenario(base, "case_ii", 0.05)


def dense_oracle(g: Generator) -> np.ndarray:
    """Independent dense matrix built entry-by-entry from the entry list."""
    m = np.zeros((g.dim, g.dim), dtype=complex)
    coo = g.csr.tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        m[r, c] += v
    return m


def hermitian_stack(n_qubits: int, n_sectors: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    mats = rng.normal(size=(n_sectors, d, d)) + 1j * rng.normal(size=(n_sectors, d, d))
    mats = mats + mats.conj().transpose(0, 2, 1)
    return mats.reshape(-1)


def stack_defect(vec: np.ndarray, n_qubits: int, n_sectors: int) -> float:
    d = 2**n_qubits
    mats = vec.reshape(n_sectors, d, d)
    return float(np.abs(mats - mats.conj().transpose(0, 2, 1)).max())


class TestDimensions:
    def test_four_qubits(self):
        g = assemble(ModelParams.uniform(4, zeta=0.2))
        assert g.dim == 1024
        assert reduce_spin_symmetric(g).dim == 768

    def test_two_qubits(self):
        g = assemble(ModelParams.uniform(2, zeta=0.2))
        assert g.dim == 64
        assert reduce_spin_symmetric(g).dim == 48

    def test_entry_count(self):
        # 4 * 4^N * (2N + 3): a diagonal, 2N flips and two gains per row, the
        # count the CLI's generator-size bound rests on
        for n in (2, 3, 4):
            p = ModelParams.uniform(n, zeta=0.2, epsilon=0.1, j_coupling=0.05)
            assert assemble(p).nnz == 4 * 4**n * (2 * n + 3)

    def test_flat_layout(self):
        # sector-major, z1-major, z2-minor
        assert flat_index(0, 0, 0, 2) == 0
        assert flat_index(0, 0, 3, 2) == 3
        assert flat_index(0, 1, 0, 2) == 4
        assert flat_index(1, 0, 0, 2) == 16
        assert flat_index(3, 3, 3, 2) == 63


class TestSectorDM:
    def test_flatten_roundtrip_full(self):
        sdm = to_density(state_by_name("bell-c", 2))
        back = sdm.flatten().reshape(len(SECTORS_FULL), 4, 4)
        assert np.array_equal(back[0], sdm.rho_a)
        assert not back[1:].any()

    def test_flatten_pads_each_layout_with_zeros(self):
        rng = np.random.default_rng(3)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for sectors in (SECTORS_FULL, SECTORS_REDUCED):
            flat = SectorDM(rho).flatten(sectors)
            assert flat.dtype == np.complex128 and flat.shape == (16 * len(sectors),)
            assert np.array_equal(flat[:16], rho.ravel()) and not flat[16:].any()
        with pytest.raises(ValueError, match="unknown sector layout"):
            SectorDM(rho).flatten(("a", "b"))

    def test_shape_validation(self):
        for bad in (np.zeros((3, 3), complex), np.zeros((4, 2), complex)):
            with pytest.raises(ValueError, match="power-of-two"):
                SectorDM(bad)


class TestAssembly:
    def test_deterministic_and_sorted(self):
        p = ModelParams.uniform(2, zeta=0.2)
        m1, m2 = assemble(p).matrix(), assemble(p).matrix()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(m1, attr), getattr(m2, attr))
        assert m1.has_sorted_indices
        rows = np.repeat(np.arange(m1.shape[0]), np.diff(m1.indptr))
        order = np.lexsort((m1.indices, rows))
        assert np.array_equal(order, np.arange(m1.nnz))
        assert m1.dtype == np.complex128
        assert np.all(m1.data != 0.0)

    def test_no_duplicate_positions(self):
        g = assemble(nonuniform_params())
        coo = g.csr.tocoo()
        keys = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert len(keys) == g.nnz

    def test_trace_preservation_identity(self):
        for p in (
            ModelParams.uniform(2, zeta=0.0),
            ModelParams.uniform(2, zeta=0.6),
            nonuniform_params(),
            ModelParams.uniform(4, zeta=0.2),
            ModelParams.uniform(4, zeta=0.6, epsilon=0.4, j_coupling=0.1),
        ):
            full = assemble(p)
            assert trace_violation(full) < 1e-12
            assert trace_violation(reduce_spin_symmetric(full)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        zeta=st.floats(0.0, 0.9),
        eps=st.floats(-1.0, 1.0),
        jc=st.floats(-1.0, 1.0),
        omega=st.floats(0.0, 4.0),
        scale=st.floats(0.2, 3.0),
    )
    def test_invariants_hold_for_random_parameters(self, zeta, eps, jc, omega, scale):
        p = ModelParams.uniform(
            2, omega=omega, zeta=zeta, epsilon=eps, j_coupling=jc, primed_scale=scale
        )
        g = assemble(p)  # raises internally if the trace identity breaks
        v = hermitian_stack(2, 4, seed=1)
        assert stack_defect(g.csr @ v, 2, 4) < 1e-11

    @pytest.mark.parametrize("primed_scale", [1.0, 1e4])
    def test_trace_check_scales_with_rates(self, primed_scale):
        # rounding leaves about 1e-16 of max|L|; a planted defect of 1e-10 of
        # max(1, max|L|) in a trace row is still refused, full and reduced
        full = assemble(ModelParams.uniform(2, zeta=0.2, primed_scale=primed_scale))
        for g in (full, reduce_spin_symmetric(full)):
            peak = max(1.0, np.abs(g.csr.data).max())
            assert trace_violation(g) <= 1e-15 * peak
            m = g.csr.copy()
            m[0, 0] += 1e-10 * peak
            with pytest.raises(ValueError, match="not trace preserving"):
                _canonical(g.n_qubits, g.sectors, m)

    def test_fault_injection_breaks_trace_identity(self):
        g = assemble(ModelParams.uniform(2, zeta=0.2))
        m = g.matrix().copy()
        m.data[0] += 1e-3
        broken = Generator(g.n_qubits, g.sectors, m)
        assert trace_violation(broken) > 1e-4

    def test_hermiticity_preservation(self):
        for p in (nonuniform_params(), ModelParams.uniform(4, zeta=0.6)):
            g = assemble(p)
            v = hermitian_stack(p.n_qubits, len(SECTORS_FULL), seed=11)
            assert stack_defect(g.csr @ v, p.n_qubits, len(SECTORS_FULL)) < 1e-12

    def test_hermiticity_preservation_reduced(self):
        p = nonuniform_params()
        g = reduce_spin_symmetric(assemble(p))
        v = hermitian_stack(2, 3, seed=5)
        assert stack_defect(g.csr @ v, 2, 3) < 1e-12

    def test_conjugation_symmetry_of_entries(self):
        g = assemble(nonuniform_params())
        d = 2**g.n_qubits
        coo = g.csr.tocoo()
        lookup = {(r, c): v for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data)}
        for (r, c), v in lookup.items():
            s1, z1, z2 = r // (d * d), (r // d) % d, r % d
            s2, w1, w2 = c // (d * d), (c // d) % d, c % d
            mirror = (
                flat_index(s1, z2, z1, g.n_qubits),
                flat_index(s2, w2, w1, g.n_qubits),
            )
            assert mirror in lookup
            assert lookup[mirror] == pytest.approx(np.conj(v), abs=1e-15)


class TestEquationTranscription:
    def test_dense_generator_matches_independent_transcription(self):
        # rebuild the full equations entry by entry from the rate table and
        # config_energies only, structured differently from assemble()
        from qdfsim.model import config_energies
        from qdfsim.rates import rate_table

        p = nonuniform_params()
        n, d = p.n_qubits, 2**p.n_qubits
        t = rate_table(p)
        energy = config_energies(p)
        dim = 4 * d * d
        ref = np.zeros((dim, dim), complex)

        def fi(s, z1, z2):
            return (s * d + z1) * d + z2

        for z1 in range(d):
            for z2 in range(d):
                ph = 1j * (energy[z2] - energy[z1])
                gl1, gl2 = t.gamma_L[z1], t.gamma_L[z2]
                gr1, gr2 = t.gamma_R[z1], t.gamma_R[z2]
                glp1, glp2 = t.gamma_L_primed[z1], t.gamma_L_primed[z2]
                grp1, grp2 = t.gamma_R_primed[z1], t.gamma_R_primed[z2]
                ref[fi(0, z1, z2), fi(0, z1, z2)] = ph - (gl1 + gl2)
                ref[fi(0, z1, z2), fi(1, z1, z2)] = np.sqrt(gr1 * gr2)
                ref[fi(0, z1, z2), fi(2, z1, z2)] = np.sqrt(gr1 * gr2)
                for s in (1, 2):
                    ref[fi(s, z1, z2), fi(s, z1, z2)] = ph - 0.5 * (
                        glp1 + glp2 + gr1 + gr2
                    )
                    ref[fi(s, z1, z2), fi(0, z1, z2)] = np.sqrt(gl1 * gl2)
                    ref[fi(s, z1, z2), fi(3, z1, z2)] = np.sqrt(grp1 * grp2)
                ref[fi(3, z1, z2), fi(3, z1, z2)] = ph - (grp1 + grp2)
                ref[fi(3, z1, z2), fi(1, z1, z2)] = np.sqrt(glp1 * glp2)
                ref[fi(3, z1, z2), fi(2, z1, z2)] = np.sqrt(glp1 * glp2)
                for s in range(4):
                    for j in range(1, n + 1):
                        w = p.omega[j - 1]
                        ref[fi(s, z1, z2), fi(s, flip_index(z1, j, n), z2)] += -1j * w
                        ref[fi(s, z1, z2), fi(s, z1, flip_index(z2, j, n))] += 1j * w

        got = dense_oracle(assemble(p))
        assert np.abs(got - ref).max() < 1e-14


def three_qubit_params() -> ModelParams:
    """N=3 with bias, coupling and primed rates != 1 on an uneven barrier split."""
    return ModelParams.uniform(3, zeta=0.2, epsilon=0.1, j_coupling=0.05, primed_scale=1.3)


def dense_lindbladian(p: ModelParams) -> np.ndarray:
    """Dense Lindblad generator on the row-major (island (x) qubits) Liouville
    space, written from the rate table: per spin sector b the jumps
    sqrt(GL)|b><a|, sqrt(GR)|a><b|, sqrt(GL')|c><b| and sqrt(GR')|b><c|."""
    from qdfsim.rates import rate_table

    t = rate_table(p)

    def jump(to, frm, rate):
        island = np.zeros((4, 4))
        island[to, frm] = 1.0
        return np.kron(island, np.diag(np.sqrt(rate)))

    jumps = []
    for b in (1, 2):
        jumps += [
            jump(b, 0, t.gamma_L),
            jump(0, b, t.gamma_R),
            jump(3, b, t.gamma_L_primed),
            jump(b, 3, t.gamma_R_primed),
        ]
    h = np.kron(np.eye(4), dense_hamiltonian(p.omega, p.epsilon, p.j_coupling))
    eye = np.eye(len(h))
    # row-major vec(A rho B) = (A (x) B^T) vec(rho)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for jmp in jumps:
        jj = jmp.conj().T @ jmp
        out += np.kron(jmp, jmp.conj()) - 0.5 * np.kron(jj, eye) - 0.5 * np.kron(eye, jj.T)
    return out


class TestLindblad:
    @pytest.mark.parametrize("params", [nonuniform_params, three_qubit_params], ids=["n2", "n3"])
    def test_island_diagonal_block_matches_assemble(self, params):
        p = params()
        d = 2**p.n_qubits
        lind = dense_lindbladian(p)
        # Liouville index of rho[(s, z1), (s, z2)], in the flat (s, z1, z2) order
        s, z1, z2 = np.meshgrid(np.arange(4), np.arange(d), np.arange(d), indexing="ij")
        diag = ((s * d + z1) * 4 * d + s * d + z2).ravel()
        coherence = np.setdiff1d(np.arange(len(lind)), diag)
        got = assemble(p).csr.toarray()
        err = np.abs(lind[np.ix_(diag, diag)] - got).max() / np.abs(got).max()
        assert err <= 1e-15
        # closed: island-diagonal states never feed the island coherences
        assert np.all(lind[np.ix_(coherence, diag)] == 0.0)

    @staticmethod
    def assert_left_half_plane(p: ModelParams) -> None:
        full = assemble(p)
        for g in (full, reduce_spin_symmetric(full)):
            dense = g.csr.toarray()
            assert np.linalg.eigvals(dense).real.max() <= 1e-12 * np.abs(dense).max()

    @settings(max_examples=25, deadline=None)
    @given(
        omega=st.floats(0.0, 4.0),
        zeta=st.floats(0.0, 0.9),
        eps=st.floats(-1.0, 1.0),
        jc=st.floats(-1.0, 1.0),
        scale=st.floats(0.2, 3.0),
    )
    def test_spectrum_in_closed_left_half_plane(self, omega, zeta, eps, jc, scale):
        self.assert_left_half_plane(
            ModelParams.uniform(
                2, omega=omega, zeta=zeta, epsilon=eps, j_coupling=jc, primed_scale=scale
            )
        )

    def test_spectrum_in_closed_left_half_plane_three_qubits(self):
        self.assert_left_half_plane(three_qubit_params())


class TestApply:
    def test_zero_vector(self):
        g = assemble(ModelParams.uniform(2, zeta=0.2))
        assert np.all(g.csr @ np.zeros(g.dim, complex) == 0.0)

    def test_linearity(self):
        g = assemble(nonuniform_params())
        rng = np.random.default_rng(17)
        u = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        v = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lhs = g.csr @ (a * u + b * v)
        rhs = a * (g.csr @ u) + b * (g.csr @ v)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_matches_dense_oracle(self):
        g = assemble(nonuniform_params())
        m = dense_oracle(g)
        rng = np.random.default_rng(23)
        v = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
        assert np.abs(g.csr @ v - m @ v).max() < 1e-13

    def test_dimension_mismatch(self):
        g = assemble(ModelParams.uniform(2, zeta=0.2))
        with pytest.raises(ValueError):
            g.csr @ np.zeros(10, complex)


class TestStructure:
    def test_omega_zero_block_diagonal(self):
        p = ModelParams.uniform(2, omega=0.0, zeta=0.2)
        g = assemble(p)
        d = 4
        dense = dense_oracle(g).reshape(4, d, d, 4, d, d)
        for z1 in range(d):
            for z2 in range(d):
                block_mask = np.zeros((d, d), bool)
                block_mask[z1, z2] = True
                coupling = dense[:, z1, z2][:, :, ~block_mask]
                assert np.all(coupling == 0.0)

    def test_omega_zero_diagonal_blocks_have_zero_eigenvalue(self):
        # eigensolver oracle on each 4x4 sector block
        p = ModelParams.uniform(2, omega=0.0, zeta=0.2)
        dense = dense_oracle(assemble(p)).reshape(4, 4, 4, 4, 4, 4)
        for z in range(4):
            block = dense[:, z, z, :, z, z]
            evals = np.linalg.eigvals(block)
            assert np.abs(evals).min() < 1e-12
            assert evals.real.max() < 1e-12

    def test_omega_zero_all_blocks_stable(self):
        p = ModelParams.uniform(2, omega=0.0, zeta=0.6)
        dense = dense_oracle(assemble(p)).reshape(4, 4, 4, 4, 4, 4)
        for z1 in range(4):
            for z2 in range(4):
                evals = np.linalg.eigvals(dense[:, z1, z2, :, z1, z2])
                assert evals.real.max() < 1e-12

    def test_zeta_zero_population_blocks_identical(self):
        p = ModelParams.uniform(2, zeta=0.0)
        dense = dense_oracle(assemble(p)).reshape(4, 4, 4, 4, 4, 4)
        ref = dense[:, 0, 0, :, 0, 0]
        for z in range(1, 4):
            assert np.array_equal(dense[:, z, z, :, z, z], ref)


class TestReduction:
    def test_projection_intertwines(self):
        # pi(L_full v) == L_red pi(v) for arbitrary v, not just symmetric ones
        p = ModelParams.uniform(4, zeta=0.6)
        full = assemble(p)
        red = reduce_spin_symmetric(full)
        rng = np.random.default_rng(29)
        v = rng.normal(size=full.dim) + 1j * rng.normal(size=full.dim)

        def project(vec):
            mats = vec.reshape(4, 256)
            return np.concatenate([mats[0], mats[1] + mats[2], mats[3]])

        lhs = project(full.csr @ v)
        rhs = red.csr @ project(v)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_reduced_gain_doubling(self):
        # the b row gains 2 sqrt(GL GL) from a after summing the spin sectors;
        # N=2 single-qubit barriers at zeta=0 give GL = GR = 1
        p = ModelParams.uniform(2, omega=0.0, zeta=0.0)
        red = reduce_spin_symmetric(assemble(p))
        coo = red.csr.tocoo()
        lookup = {(r, c): v for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data)}
        b_from_a = lookup[(flat_index(1, 0, 0, 2), flat_index(0, 0, 0, 2))]
        assert b_from_a == pytest.approx(2.0, abs=1e-14)
        a_from_b = lookup[(flat_index(0, 0, 0, 2), flat_index(1, 0, 0, 2))]
        assert a_from_b == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_direct_build_matches_projection_bit_for_bit(self, seed):
        # assemble(p, SECTORS_REDUCED) writes P L E without building L: each
        # doubled gain is g + g and each P L E entry 0.5 x + 0.5 x, both exact
        rng = np.random.default_rng(seed)
        n = 2 + seed % 5
        split = int(rng.integers(1, n))
        order = rng.permutation(np.arange(1, n + 1)).tolist()
        p = ModelParams.uniform(
            n,
            omega=float(rng.uniform(0.5, 3.0)),
            zeta=float(rng.uniform(0.0, 0.9)),
            epsilon=rng.uniform(-1.0, 1.0, n).tolist(),
            j_coupling=rng.uniform(-1.0, 1.0, n - 1).tolist(),
            primed_scale=float(rng.uniform(0.2, 3.0)),
            left_barrier=order[:split],
            right_barrier=order[split:],
        )
        if n >= 4:
            case = ("case_ii", "case_iii")[seed % 2]
            p = apply_scenario(p, case, float(rng.uniform(0.01, 0.1)))
        direct = assemble(p, SECTORS_REDUCED)
        folded = reduce_spin_symmetric(assemble(p))
        assert direct.sectors == folded.sectors == SECTORS_REDUCED
        assert np.array_equal(direct.csr.indptr, folded.csr.indptr)
        assert np.array_equal(direct.csr.indices, folded.csr.indices)
        assert np.array_equal(direct.csr.data.view(np.int64), folded.csr.data.view(np.int64))

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            assemble(ModelParams.uniform(2, zeta=0.2), ("a", "b"))

    def test_cannot_reduce_twice(self):
        g = reduce_spin_symmetric(assemble(ModelParams.uniform(2, zeta=0.2)))
        with pytest.raises(ValueError):
            reduce_spin_symmetric(g)


class TestDump:
    LINE_RE = re.compile(
        r"^(a|b_up|b_dn|c),\d{3},\d{3} <- (a|b_up|b_dn|c),\d{3},\d{3} : [^,]+,[^,]+$"
    )

    def test_format_and_sorted(self):
        g = assemble(ModelParams.uniform(2, omega=0.0, zeta=0.2))
        lines = g.dump().splitlines()
        assert len(lines) == g.nnz == 192
        assert lines == sorted(lines)
        assert all(self.LINE_RE.match(line) for line in lines)

    def test_hand_computed_entries(self):
        # omega = 0, zeta = 0.2: branch rates 0.8 / 1.2 on each barrier
        g = assemble(ModelParams.uniform(2, omega=0.0, zeta=0.2))
        lines = g.dump().splitlines()
        assert "a,000,000 <- a,000,000 : -1.6,0.0" in lines
        assert "a,000,003 <- a,000,003 : -2.0,0.0" in lines

        def value(prefix):
            matches = [l for l in lines if l.startswith(prefix)]
            assert len(matches) == 1
            re_part, im_part = matches[0].split(" : ")[1].split(",")
            return complex(float(re_part), float(im_part))

        # gain into the empty sector from either one-electron sector
        assert value("a,000,000 <- b_up,000,000") == pytest.approx(0.8, abs=1e-14)
        assert value("a,000,000 <- b_dn,000,000") == pytest.approx(0.8, abs=1e-14)
        # off-diagonal pair (A, D): sqrt(0.8 * 1.2)
        assert value("a,000,003 <- b_up,000,003") == pytest.approx(
            np.sqrt(0.96), abs=1e-14
        )
        # doubly occupied island decays through the right barrier (primed = 1)
        assert value("c,003,003 <- c,003,003") == pytest.approx(-2.4, abs=1e-14)

    def test_imaginary_parts_present_with_bias(self):
        g = assemble(nonuniform_params())
        lines = g.dump().splitlines()

        def value(prefix):
            matches = [l for l in lines if l.startswith(prefix)]
            re_part, im_part = matches[0].split(" : ")[1].split(",")
            return complex(float(re_part), float(im_part))

        # diagonal carries i (E_z2 - E_z1): z1=0 (E=-0.4+0.2), z2=3 (E=0.4+0.2)
        v = value("a,000,003 <- a,000,003")
        assert v.imag == pytest.approx(0.8, abs=1e-12)

    def test_dump_deterministic(self):
        p = ModelParams.uniform(2, zeta=0.2)
        assert assemble(p).dump() == assemble(p).dump()

    # SHA-256 of dump(), frozen from the entry-list assembly: any changed bit
    # of any entry (signed zeros included) changes the text.
    DIGESTS = {
        ("nonuniform", "full"): "62607f03ed2881dd6fdb9a45a1f19c52e7dd1b8b2991d0adace159efe9c037de",
        ("nonuniform", "reduced"): "e86fbc6f3c6745da2f2b19e1a4f3faaead5f72251e1324175034fa8086891b0e",
        ("case_ii", "full"): "cadad30a93d37e187ec8c1a30207ecba0cb71d6d56be4e5523249e832f0fb41a",
        ("case_ii", "reduced"): "c920508a8586884d6fd7a9fba6daad4775f17b0bbfc66d5efff86e5b045f920b",
    }

    @pytest.mark.parametrize("params", ["nonuniform", "case_ii"])
    @pytest.mark.parametrize("layout", ["full", "reduced"])
    def test_dump_digest_pinned(self, params, layout):
        # the reduced digest holds for the direct build and for P L E alike
        p = nonuniform_params() if params == "nonuniform" else case_ii_params()
        if layout == "full":
            built = [assemble(p)]
        else:
            built = [assemble(p, SECTORS_REDUCED), reduce_spin_symmetric(assemble(p))]
        for g in built:
            digest = hashlib.sha256(g.dump().encode()).hexdigest()
            assert digest == self.DIGESTS[(params, layout)]
