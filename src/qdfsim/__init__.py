"""qdfsim: robustness of decoherence-free charge-qubit states measured by a
two-barrier detector with an internal island."""

from .analysis import (
    fidelity_series,
    frame_rotation,
    qubit_dm_from_flat,
    rotating_frame,
    rotation_frequencies,
)
from .baseline import baseline_fidelity, collective_dephasing_step
from .integrator import DEFAULT_DT, Trajectory, evolve_expm, evolve_rk4
from .liouvillian import (
    SECTORS_FULL,
    SECTORS_REDUCED,
    Generator,
    SectorDM,
    assemble,
    reduce_spin_symmetric,
    trace_violation,
)
from .model import (
    GAMMA0_UNIT,
    ModelParams,
    apply_scenario,
    config_energy,
)
from .rates import RateTable, rate_table
from .states import make_bell, make_df4, parse_custom, state_by_name, to_density

__version__ = "0.1.0"

__all__ = [
    "GAMMA0_UNIT",
    "DEFAULT_DT",
    "SECTORS_FULL",
    "SECTORS_REDUCED",
    "Generator",
    "ModelParams",
    "RateTable",
    "SectorDM",
    "Trajectory",
    "apply_scenario",
    "assemble",
    "baseline_fidelity",
    "collective_dephasing_step",
    "config_energy",
    "evolve_expm",
    "evolve_rk4",
    "fidelity_series",
    "frame_rotation",
    "make_bell",
    "make_df4",
    "parse_custom",
    "qubit_dm_from_flat",
    "rate_table",
    "reduce_spin_symmetric",
    "rotating_frame",
    "rotation_frequencies",
    "state_by_name",
    "to_density",
    "trace_violation",
]
