"""Nodal-domain census for Dirichlet eigenfunctions of the cube (0, pi)^3.

The pipeline enumerates the box spectrum, screens Courant-sharp candidates
with a Faber-Krahn threshold and a lattice-count cutoff, halves the Courant
bound on parity subspaces of the antipodal map, analyzes the eigenvalue-11
eigenspace through its reduced quadric, and counts nodal domains of arbitrary
eigenspace combinations on refining grids.
"""

__version__ = "0.1.0"

from . import bounds, nodal, quadric, spectrum, symmetry
from .bounds import *  # noqa: F401,F403
from .nodal import *  # noqa: F401,F403
from .quadric import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .symmetry import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *spectrum.__all__,
    *bounds.__all__,
    *symmetry.__all__,
    *quadric.__all__,
    *nodal.__all__,
]
