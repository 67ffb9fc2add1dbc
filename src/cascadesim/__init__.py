"""Simulator of a laser source one-way coupled to a target qubit."""

from .hilbert import (
    EXCITED,
    GROUND,
    SOURCE,
    TARGET,
    DensityOperator,
    FockSpec,
    PureState,
    adequate_n_max,
    coherent_state,
    fock_state,
    partial_trace,
    product_state,
    qubit_lowering,
    qubit_state,
)
from .liouvillian import (
    CouplingConfig,
    Superoperator,
    SuperoperatorTerm,
    apply,
    build_H_ST,
    build_H_T,
    build_jump_ops,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
    regroup,
    to_matrix,
)
from .sources import (
    BirthDeathLaser,
    ClassicalPath,
    CoherentDrive,
    FreeDecayMixture,
    JumpChannel,
    build_L_S,
    classical_paths,
    source_jump_channels,
    steady_amplitude,
)
from .evolve import (
    Record,
    TimeGrid,
    evolve_master,
    expectation,
    run_ensemble,
)
from .analysis import (
    PhaseAveragedSpec,
    negativity,
    phase_averaged_state,
    schmidt_entropy,
    support_pattern_check,
    trace_distance,
)
from .ansatz import (
    build_ansatz_state,
    drive_hamiltonian,
    solve_separated_target,
)

__version__ = "0.1.0"
