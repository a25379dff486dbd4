"""Exact tree calculus for generating-function operads and formal symplectic groupoids."""

from gfoperad.deformation import (
    CochainReport,
    ProductPreconditionError,
    bracket,
    circ,
    coboundary,
    obstruction,
    verify_product,
)
from gfoperad.elementary import Expansion, elementary_function
from gfoperad.groupoid import (
    SgsError,
    SgsReport,
    StructureMaps,
    check_sgs,
    extract_poisson,
    invert_morphism,
    is_odd_in_p,
    psi_numeric,
    structure_maps,
    transform_product,
)
from gfoperad.operad import (
    DEFAULT_ORDER_CAP,
    GenFunction,
    NonConvergenceError,
    compose,
    identity,
    numeric_phi,
)
from gfoperad.poisson import (
    PoissonReport,
    PoissonStructure,
    poisson_dumps,
    poisson_loads,
    validate_poisson,
)
from gfoperad.solver import (
    InfeasibleOrderError,
    bch_generating_function,
    bch_words,
    first_order_deformation,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import (
    FormalSeries,
    GradingReport,
    PackedLayout,
    PolySymbol,
    ShapeError,
    check_grading,
    contracted_gradient,
    directional_contract,
    p_key,
    packed_layout,
    random_graded_series,
    series_dumps,
    series_eval,
    series_loads,
    x_key,
)
from gfoperad.trees import (
    BLACK,
    WHITE,
    RootedTree,
    TopTree,
    automorphism_count,
    butcher_product,
    enumerate_rooted,
    enumerate_unrooted,
    forget_root,
    graft,
    leaf,
    symmetry_coefficient,
)

__all__ = [name for name in dir() if not name.startswith("_")]
