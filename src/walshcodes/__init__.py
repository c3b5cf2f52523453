"""Exact-arithmetic linear codes from p-ary functions and defining sets.

Everything numerical here is exact: finite-field elements are canonical
indices with one table-driven arithmetic (their coefficient vectors over
F_p are a view), Walsh coefficients and character values
live in Z[zeta_p], and every identity is checked as an equality of
canonical forms with zero tolerance.
"""

from .algebra import (
    CyclotomicInt,
    Field,
    FieldElement,
    cyclo_canonicalize,
    format_field_spec,
    gauss_sum_power,
    legendre,
    make_field,
    p_star,
    parse_field_spec,
    quadratic_gauss_sum,
    subfield,
    trace,
    trace_kernel,
    zeta,
)
from .codes import (
    CompleteWeightEnumerator,
    LinearCode,
    WeightDistribution,
    complete_weight_enumerator,
    dual,
    from_rows,
    full_code,
    hull,
    hull_dim,
    intersect,
    is_lcd,
    is_mds,
    min_distance,
    restrict_to_prime_subfield,
    sum_code,
    weight_distribution,
    zero_code,
)
from .conditions import (
    CodeCharacter,
    MembershipVerdict,
    apn_ab_dual_diagnostics,
    bent_codeword_weight,
    dual_character_first,
    dual_character_second,
    dual_membership_defining_set,
    dual_membership_first,
    dual_membership_second,
    hull_membership_defining_set,
    hull_membership_first,
    hull_membership_second,
    pn_bounds_check,
    respects_prime_scalars,
    support_code_weight_multiset,
    weight_from_walsh_even,
    weight_via_character_sum,
    weight_via_walsh_sum,
)
from .constructions import (
    DefiningSet,
    code_to_defining_set,
    defining_set,
    dimension_via_span,
    dual_first_closed_form,
    dual_second_closed_form,
    first_codeword,
    first_generic,
    hull_first_kernel,
    hull_second_kernel,
    make_cyclotomic_set,
    make_fixed_hull_set,
    make_image_set,
    make_lcd_set,
    make_mds_set,
    make_preimage_set,
    make_skew_set,
    make_trace_zero_set,
    second_codeword,
    second_generic,
    standard_form_generator,
)
from .functions import (
    BentClass,
    BentKind,
    ParyFunction,
    WalshSpectrum,
    classify_bent,
    differential_uniformity,
    parse_function,
    verify_dual_relation,
    walsh_transform,
)
from .verify import SUITES, run_suite
