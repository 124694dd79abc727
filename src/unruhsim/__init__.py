"""Acceleration-induced decoherence as a noisy quantum channel.

A uniformly accelerated observer sees the inertial vacuum as a thermal
bath; on a truncated Fock space that physics becomes a completely positive
map with an explicit operator-sum representation.  This package builds the
Kraus family, checks complete positivity and trace preservation against
closed forms, and computes entanglement fidelity, entropy exchange, mutual
information and sub-additivity along the acceleration axis, with every
quantity cross-validated by an independent brute-force route.
"""

from .channel import (
    KrausSet,
    apply_channel,
    bell_input_density,
    trace_preservation_defect,
)
from .errors import (
    ConfigError,
    LayoutMismatchError,
    NotSymmetricError,
    PositivityError,
    UnruhSimError,
)
from .fock import (
    DensityMatrix,
    FactorLayout,
    StateVector,
    TruncationConfig,
    partial_trace,
    sym_eigenvalues,
)
from .measures import (
    MeasureRecord,
    adaptive_n_max,
    entanglement_fidelity_closed,
    entanglement_fidelity_kraus,
    entropy_exchange,
    joint_entropy_series,
    measure_record,
    measure_records,
    rob_entropy_series,
    von_neumann_entropy,
)
from .rindler import (
    one_particle_mode_weights,
    rho_alice_rob,
    tripartite_state,
    vacuum_mode_weights,
)
from .sweep import SweepConfig, run_sweep, to_csv, to_json
from .verify import CheckResult, KrausScalarFault, run_verify

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigError",
    "DensityMatrix",
    "FactorLayout",
    "KrausScalarFault",
    "KrausSet",
    "LayoutMismatchError",
    "MeasureRecord",
    "NotSymmetricError",
    "PositivityError",
    "StateVector",
    "SweepConfig",
    "TruncationConfig",
    "UnruhSimError",
    "adaptive_n_max",
    "apply_channel",
    "bell_input_density",
    "entanglement_fidelity_closed",
    "entanglement_fidelity_kraus",
    "entropy_exchange",
    "joint_entropy_series",
    "measure_record",
    "measure_records",
    "one_particle_mode_weights",
    "partial_trace",
    "rho_alice_rob",
    "rob_entropy_series",
    "run_sweep",
    "run_verify",
    "sym_eigenvalues",
    "to_csv",
    "to_json",
    "trace_preservation_defect",
    "tripartite_state",
    "vacuum_mode_weights",
    "von_neumann_entropy",
]
