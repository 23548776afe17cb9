"""Amplitude-based quantum Poisson solver for the 1D Dirichlet problem."""

from .builder import (
    QpsConfig,
    QpsSolution,
    build_bc,
    build_flag,
    build_inversion_parallel,
    build_inversion_serial,
    build_qps,
    solve,
    standard_registers,
)
from .circuit import (
    Circuit,
    Gate,
    QubitRegister,
    ResourceReport,
    count_resources,
)
from .identities import (
    inversion_angles,
    inversion_value,
    odd_factor,
    odd_layer_residual,
    sine_formula_residual,
)
from .poisson import (
    TridiagonalSystem,
    eigenpair,
    eigenvalue,
    solve_classical,
    spectral_solve,
    truncation_study,
)
from .simulator import (
    PostselectResult,
    StateVector,
    apply,
    extract_register,
    fidelity,
    inject_register,
    postselect,
)

__version__ = "0.1.0"
