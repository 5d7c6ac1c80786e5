"""Exact-arithmetic alternant codes with PGZ-family decoders.

The package builds Reed-Solomon, generalized RS, primitive RS, BCH and
classical Goppa codes over small finite fields, and decodes them with a
Peterson-Gorenstein-Zierler decoder that reads the error count and the
locator polynomial straight off a Gauss-Jordan reduction of the syndrome
Hankel matrix.  All arithmetic is exact; there are no tolerances anywhere.
"""

from .galois import (
    Field,
    FieldElement,
    Poly,
    prime_field,
    extension,
    get_irreducible_polynomial,
    element_order,
    pull,
    poly_gcd,
)
from .linalg import (
    Vec,
    Mat,
    SingularSystem,
    MalformedSyndromeStructure,
    gauss_jordan,
    rank,
    gj_locator,
    expand,
    null_space,
    solve_square,
)
from .codes import (
    AlternantCode,
    CodeError,
    rs,
    grs,
    prs,
    bch,
    goppa,
)
from .pgz import (
    Status,
    FailureReason,
    DecodeReport,
    pgz,
    pgzm,
    error_evaluator,
    alt_error_evaluator,
    forney,
    forney_alt,
    locate,
    random_error_vector,
)
from .oracle import (
    OracleBudget,
    BudgetExceeded,
    NOT_FOUND,
    AMBIGUOUS,
    brute_force_decode,
    min_distance,
    verify_structure,
    predicted_decode_checks,
)
from .codespec import (
    CodeSpecError,
    build_field,
    code_from_dict,
    parse_code,
    load_code,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "Poly",
    "prime_field", "extension", "get_irreducible_polynomial",
    "element_order", "pull", "poly_gcd",
    "Vec", "Mat", "SingularSystem", "MalformedSyndromeStructure",
    "gauss_jordan", "rank", "gj_locator", "expand", "null_space", "solve_square",
    "AlternantCode", "CodeError", "rs", "grs", "prs", "bch", "goppa",
    "Status", "FailureReason", "DecodeReport", "pgz", "pgzm",
    "error_evaluator", "alt_error_evaluator", "forney", "forney_alt",
    "locate", "random_error_vector",
    "OracleBudget", "BudgetExceeded", "NOT_FOUND", "AMBIGUOUS",
    "brute_force_decode", "min_distance", "verify_structure",
    "predicted_decode_checks",
    "CodeSpecError", "build_field", "code_from_dict", "parse_code", "load_code",
    "__version__",
]
