"""Exact continued fractions of quadratic irrationals, with the unit,
matrix-order, lattice, and form-class machinery needed to study digit
statistics along arithmetic sequences of multiples.
"""

from .arith import Factorization, InvariantError, factorize
from .surd import (
    CFExpansion,
    Surd,
    cf_expand,
    compare_to_fraction,
    convergents,
    make_surd,
    mobius,
    periodic_tail,
    scale,
)
from .gauss_kuzmin import Cylinder, GaussMeasure, Pattern, c_w, cylinder, pattern_frequency
from .quad_orders import (
    AlgInt,
    FieldData,
    OrderSpec,
    R_of,
    alg_pow,
    alg_value,
    conductor_of_surd,
    field_data,
    phi,
    regulator_of_order,
    unit_group_index,
)
from .matrix_orders import Mat2, mat_order_mod
from .hecke import (
    HeckeChain,
    are_neighbors,
    chain_between,
    conductor_bounds_check,
    scale_chain,
    unit_index_check,
)
from .class_geodesics import (
    IndefForm,
    TotalLength,
    class_number,
    reduced_forms,
    rho,
    total_length,
)
from .experiments import (
    DeviationRow,
    OrderRecord,
    ScanConfig,
    UsageError,
    artin_scan,
    artin_stats,
    artin_summary_lines,
    converge_scan,
    converge_stats,
    converge_summary_lines,
    duke_scan,
    duke_stats,
    duke_summary_lines,
    render_table,
)

__version__ = "0.1.0"
