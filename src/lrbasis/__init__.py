"""Exact construction of determinantal highest weight vectors indexed by
Littlewood-Richardson tableaux, with independent combinatorial oracles."""

from .shapes import (LRTriple, Partition, SkewShape, format_partition,
                     parse_partition, validate_triple)
from .tableaux import (ExponentMatrix, LRTableau, PeelingTrace, check_lr1,
                       check_lr2, enumerate_lr, is_lr, monomial_M,
                       monomial_bigE, monomial_e, recover_from_M,
                       recover_from_e, standard_peeling)
from .polyring import (Polynomial, determinant, leading_monomial, poly_text,
                       poly_to_json)
from .hwv import (build_Ztilde, delta, delta_eval, delta_MT, delta_MT_eval,
                  delta_MT_values, delta_TY)
from .verify import (BasisReport, WeightProfile, check_basis, check_hwv,
                     check_leading_term, raising_operator_cols,
                     raising_operator_rows, weight_profile)
from .oracle import expand_in_schur, lr_coefficient, schur_polynomial
from .bz4 import (BZAssignment, bz_grading, hexagon_condition, load_table,
                  reproduce_sl4_table)

__version__ = "0.1.0"
