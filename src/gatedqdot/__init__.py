"""Spectral simulation and controllability certification for a gated 2-D quantum device."""

__version__ = "0.1.0"

from .chains import (
    ChainCertificate,
    build_graph,
    certify,
    certify_nonresonant_chain,
    coupling_path,
)
from .config import ConfigValidationError, RunConfig, load_config, validate_config
from .coupling import (
    CouplingMatrix,
    assemble_coupling_matrix,
    coupling_block,
    coupling_x1_closed,
    coupling_x2_closed,
)
from .dynamics import (
    ControlSignal,
    NonlinearConfig,
    alpha_scaling_study,
    galerkin_mode_state,
    grid_mode_state,
    propagate_bilinear,
    propagate_nonlinear,
    synthesize_chain_transfer,
    transfer_fidelity,
)
from .errors import (
    DegenerateEigenvalueError,
    DurationCapError,
    InstabilityError,
    NumericalError,
    SolverFailureError,
)
from .poisson import (
    GateSegment,
    GridField,
    SpectralField,
    StaggeredGrid,
    fourier_term,
    gate_convergence_sweep,
    segment_trace,
    solve_full_gate,
    solve_partial_gate_fd,
)
from .spectral import (
    NonresonanceScan,
    Spectrum,
    check_simplicity,
    check_weak_nonresonance,
    enumerate_modes,
    eigenvalue_shape_derivative,
    shifted_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
