"""Exact symbolic structural-controllability toolkit over F(z).

System matrices live over the field of rational functions in declared
parameters; controllability is decided exactly (pencil and Kalman tests) or
certified sufficiently (disjoint unimodular bases of partitioned pencil-row
matroids).  Everything is computed in exact rational arithmetic — no floats,
no genericity assumptions smuggled in numerically.
"""

from .checker import (
    Certificate,
    ColumnLimitError,
    RowPartition,
    Status,
    SystemDef,
    Verdict,
    certificate_failures,
    certificate_search,
    composite_certificate_check,
    compose_parallel,
    controllability_matrix,
    kalman_check,
    pbh_check,
    verify_certificate,
)
from .expr import ExprSource, ParseError, parse_expr, render
from .field import (
    ParamSpace,
    PoleError,
    Polynomial,
    RationalFunction,
    SpaceMismatchError,
    gcd_in_s,
    poly_gcd,
)
from .linalg import (
    SymMatrix,
    build_pencil,
    det,
    det_cofactor,
    minors_gcd_in_s,
    rank,
)
from .matroid import UnimodularBase, VectorMatroid, max_union_of_bases, union_rank
from .systemfile import (
    SystemFileError,
    load_certificate,
    load_system,
    save_certificate,
    save_system,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ColumnLimitError",
    "ExprSource",
    "ParamSpace",
    "ParseError",
    "PoleError",
    "Polynomial",
    "RationalFunction",
    "RowPartition",
    "SpaceMismatchError",
    "Status",
    "SymMatrix",
    "SystemDef",
    "SystemFileError",
    "UnimodularBase",
    "VectorMatroid",
    "Verdict",
    "build_pencil",
    "certificate_failures",
    "certificate_search",
    "compose_parallel",
    "composite_certificate_check",
    "controllability_matrix",
    "det",
    "det_cofactor",
    "gcd_in_s",
    "kalman_check",
    "load_certificate",
    "load_system",
    "max_union_of_bases",
    "minors_gcd_in_s",
    "parse_expr",
    "pbh_check",
    "poly_gcd",
    "rank",
    "render",
    "save_certificate",
    "save_system",
    "union_rank",
    "verify_certificate",
]
