"""Character sums and permutation tests over binary extension towers.

Work in GF(2^(m*n)) viewed as a degree-n extension of GF(2^m).  Field
elements are plain ints whose bit i is the coefficient of x^i modulo the
field's irreducible polynomial.
"""

from .charsum import (
    QuadraticFormReport,
    bilinear_psi_closed,
    bilinear_psi_sum,
    classify_form,
    polar_poly,
    quad_value,
    s_bruteforce,
    s_fast,
    s_zero_binomial,
    s_zero_quadratic_ext,
)
from .errors import (
    BadParameters,
    CharpermError,
    DivisionByZero,
    InvalidModulus,
    InvalidSubfield,
    InvariantViolation,
    NotInSubfield,
    NotQLinear,
    SizeGuard,
    UnknownTheorem,
    WrongDegree,
)
from .field import (
    DEFAULT_SIZE_CAP,
    FieldContext,
    build_context,
    walsh_hadamard,
)
# The general pair-list factory shares its name with the module and stays
# there: charperm.linearized.linearized(ctx, pairs).
from .linearized import (
    Kernel,
    LinearizedPoly,
    adjoint,
    format_linearized,
    kernel,
    parse_linearized,
    q_linearized,
)
from .permtest import (
    FAMILIES,
    MonomialPoly,
    PermReport,
    QuadFamilySpec,
    TraceFormSpec,
    evaluate_poly_all,
    expand_quadspec,
    expand_traceform,
    family_polynomial,
    family_predicate,
    format_monomial,
    gold_poly,
    is_perm_bruteforce,
    is_perm_charsum,
    is_perm_quadspec,
    monomial,
    monomial_trace_poly,
    parse_monomial,
    perm_gold_linearized,
    perm_monomial_trace,
    perm_quad_ext,
    perm_trace_form,
    quad_family,
    trace_form_spec,
)
from .verify import (
    SWEEPS,
    TEMPLATES,
    CampaignReport,
    VerifyCampaign,
    family_agreement,
    run_search,
    run_verify,
)

__version__ = "0.1.0"
