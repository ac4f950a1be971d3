"""Exact continued fractions of quadratic irrationals, with the unit,
matrix-order, lattice, and form-class machinery needed to study digit
statistics along arithmetic sequences of multiples.
"""

from .arith import Factorization, InvariantError, factorize, is_prime, is_square, kronecker
from .surd import (
    CFExpansion,
    Surd,
    cf_expand,
    compare_to_fraction,
    convergents,
    eval_approx,
    floor_of,
    is_reduced,
    make_surd,
    mobius,
    periodic_tail,
    scale,
)
from .gauss_kuzmin import Cylinder, GaussMeasure, Pattern, c_w, cylinder, deviation, pattern_frequency
from .quad_orders import (
    AlgInt,
    FieldData,
    Mat2,
    OrderSpec,
    R_of,
    alg_conj,
    alg_log,
    alg_mul,
    alg_norm,
    alg_pow,
    alg_trace,
    alg_value,
    conductor_of_surd,
    disc_of_suborder,
    field_data,
    in_suborder,
    phi,
    regulator_of_order,
    surd_coords,
    unit_from_period,
    unit_group_index,
)
from .matrix_orders import (
    OrderRecord,
    mat_order_mod,
    max_element_order,
    ring_order_mod,
)
from .hecke import (
    HeckeChain,
    are_neighbors,
    chain_between,
    chain_to_generator,
    conductor_bounds_check,
    same_lattice,
    scale_chain,
    unit_index_check,
)
from .class_geodesics import (
    IndefForm,
    TotalLength,
    class_number,
    fundamental_decomposition,
    reduce_form,
    reduced_forms,
    rho,
    total_length,
)
from .experiments import (
    DeviationRow,
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
    emit,
    render_table,
)

__version__ = "0.1.0"
