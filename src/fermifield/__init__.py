"""Semiclassical Pauli/Schrodinger operators with self-generated magnetic fields.

Pseudospectral periodic-box discretization (grid, operators), negative-spectrum
sums (spectral) and their Weyl-term comparison (weyl), energy minimization over
divergence-free vector potentials (field_opt), and executable forms of the
supporting analysis toolkit (multiscale, inequalities).  Every public name is
imported from the module that defines it; the package itself holds only its
version.
"""

__version__ = "0.1.0"
