"""Semiclassical Pauli/Schrodinger operators with self-generated magnetic fields.

Pseudospectral periodic-box discretization, negative-spectrum sums and their
Weyl-term comparison, energy minimization over divergence-free vector
potentials, and executable forms of the supporting analysis toolkit
(partitions of unity, dyadic momentum cutoffs, mollification, trace and
field-energy inequalities).
"""

from .grid import (
    GridSpec,
    ScalarField,
    SpinorField,
    VectorField,
    ball_mask,
    curl,
    divergence,
    field_energy_curl,
    field_energy_grad,
    gradient,
    leray_project,
    mean_zero_normalize,
)
from .operators import (
    DENSE_LIMIT,
    PAULI,
    SCHRODINGER,
    HamiltonianSpec,
    dense_matrix,
)
from .spectral import (
    EigenFailure,
    NegativeSpectrum,
    current,
    negative_spectrum,
)
from .weyl import WeylReport, convergence_study, fit_error_exponent, momentum_constant, weyl_term

__version__ = "0.1.0"
