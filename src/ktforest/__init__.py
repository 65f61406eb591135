"""Exact symbolic engine for tree-based Koszul-Tate resolutions.

Builds decorated-tree resolutions of polynomial quotient rings from a
finite free resolution, solves their hook maps by exact lifting, extends
positively graded square-zero derivations to the whole graded algebra, and
verifies every homological identity symbolically over the rationals.
"""

from importlib import resources

from .extension import (ExtensionData, PositivePart, check_ideal_preserved, higher_product,
                        koszul_hook, koszul_mode, solve_general_extension,
                        solve_residues_explicit, verify_extension, verify_incl_proj,
                        verify_product_defect)
from .forest import AlgebraElement
from .kt import (HookMap, TreeDifferential, hook_product, solve_hook, verify_hook,
                 verify_retract, verify_square_zero)
from .poly import Poly, RingSpec, slice_basis, solve_lift
from .resolution import (FreeResolution, GeneratorId, KoszulComplex, ModuleElement,
                         build_koszul_complex, ideal_member, quotient_dims)

__version__ = "1.0.0"


def example_path(name: str) -> str:
    """Filesystem path of a bundled example spec (e.g. 'quadratic.kt')."""
    return str(resources.files(__name__).joinpath("examples", name))
