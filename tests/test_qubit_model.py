"""The qubit-only model: the island eliminated to zeroth order.

At zeta 0.2 the island relaxes at rates near 1 while the qubit coherences
decay at rates of order 1e-3, so the reduced generator splits into 4^N slow
eigenvalues and a fast rest.  Dropping the fast part leaves
``L_q = -i[H, .] - Gamma o .`` on the qubit matrices (``conftest``), where
Gamma(z1, z2) is the slowest decay of the pair's 3 x 3 island block.  These
tests check its spectrum against the full generator, and the rule that says
where Gamma vanishes.  F against the figures is checked in the acceptance
module, beside criterion 8.
"""

import numpy as np
import pytest
from conftest import island_dephasing, qubit_only_generator

from qdfsim.integrator import real_form
from qdfsim.liouvillian import SECTORS_REDUCED, assemble
from qdfsim.model import CASE_AFFECTED, ModelParams, apply_scenario
from qdfsim.rates import rate_table


@pytest.mark.parametrize(
    "scenario, eta", [("uniform", 0.0), ("case_ii", 0.02), ("case_ii", 0.05)]
)
def test_slow_eigenvalues_match_the_full_generator(scenario, eta):
    # L_r = S L S^-1 has L's spectrum, and its real dense form solves in a third of the time
    p = apply_scenario(ModelParams.uniform(4, zeta=0.2), scenario, eta)
    full = np.sort(np.linalg.eigvals(real_form(assemble(p, SECTORS_REDUCED)).l_r.toarray()).real)
    slow = np.sort(np.linalg.eigvals(qubit_only_generator(p)).real)
    assert len(slow) == 256
    assert np.abs(full[-256:] - slow).max() <= 2e-4
    assert full[-257] < -0.9  # the island's gap


def _parameter_sets(count: int):
    """fig4's uniform qubits and its two cases at eta 0.05, then seeded model
    parameters with random barrier splits, zeta, primed scale and, at N = 4,
    a random case and eta."""
    fig4 = ModelParams.uniform(4, zeta=0.2)
    yield fig4
    yield from (apply_scenario(fig4, case, 0.05) for case in ("case_ii", "case_iii"))
    rng = np.random.default_rng(1306)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        qubits = rng.permutation(np.arange(1, n + 1))
        split = int(rng.integers(1, n))
        p = ModelParams.uniform(
            n,
            zeta=rng.uniform(0.05, 0.6),
            primed_scale=rng.uniform(0.5, 2.0),
            left_barrier=qubits[:split].tolist(),
            right_barrier=qubits[split:].tolist(),
        )
        if n == 4:
            p = apply_scenario(p, str(rng.choice(list(CASE_AFFECTED))), rng.uniform(0.0, 0.05))
        yield p


@pytest.mark.parametrize("p", list(_parameter_sets(12)))
def test_dephasing_vanishes_where_both_barriers_agree(p):
    # a pair (z1, z2) keeps its coherence exactly where neither barrier can
    # tell z1 from z2: r_L(z1) = r_L(z2) and r_R(z1) = r_R(z2)
    t = rate_table(p)
    agree = np.ones((2**p.n_qubits,) * 2, dtype=bool)
    for r in (t.gamma_L, t.gamma_R):
        agree &= np.isclose(r[:, None], r[None, :], rtol=1e-12, atol=0.0)
    gamma = island_dephasing(p)
    bound = 1e-13 * max(r.max() for r in (t.gamma_L, t.gamma_R, t.gamma_L_primed, t.gamma_R_primed))
    assert np.abs(gamma[agree]).max() <= bound
    assert (gamma[~agree] > bound).all()

