import random
from collections import Counter

import pytest

from walshcodes.algebra import CyclotomicInt, gauss_sum_power, is_prime, make_field
from walshcodes.codes import dual, from_rows, hull, min_distance, weight_distribution
from walshcodes.conditions import (
    FIRST_VARIANTS,
    SECOND_VARIANTS,
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
    plain_trace_form,
    pn_bounds_check,
    respects_prime_scalars,
    shifted_trace_form,
    support_code_weight_multiset,
    weight_from_walsh_even,
    weight_via_character_sum,
    weight_via_walsh_sum,
)
from walshcodes.constructions import (
    defining_set,
    first_codeword,
    first_generic,
    first_points,
    image_set_points,
    make_fixed_hull_set,
    make_image_set,
    make_preimage_set,
    make_skew_set,
    second_codeword,
    second_generic,
)
from walshcodes.errors import (
    AffineFunction,
    AlphaOutsidePrimeField,
    EvenCharacteristicOnly,
    HypothesisFailed,
    NotBent,
    NotInDual,
    NotPN,
    OddCharacteristic,
    TooLarge,
)
from walshcodes.functions import ParyFunction, classify_bent, parse_function, walsh_transform

F3 = make_field(3, 1)
F9 = make_field(3, 2)
F16 = make_field(2, 4)
F25 = make_field(5, 2)


def monomial(field, e):
    return ParyFunction.from_callable(field, lambda x: x ** e, field.m)


def boolean_quadratic(field):
    m = field.m

    def fn(x):
        return field.scalar(sum(x.coeffs[i] * x.coeffs[i + 1] for i in range(0, m - 1, 2)))

    return ParyFunction.from_callable(field, fn, 1)


def prime_words(code):
    return [list(w) for w in code.codewords()]


# --- weight via the Walsh sum ---------------------------------------------------


def test_walsh_sum_weight_zero_params():
    psi = monomial(F9, 2)
    assert weight_via_walsh_sum(psi, F9.zero, F9.zero) == 0


def test_walsh_sum_weight_b_only():
    psi = monomial(F9, 2)
    for b in F9.elements[1:]:
        assert weight_via_walsh_sum(psi, F9.zero, b) == 9 - 3


def test_walsh_sum_weight_matches_brute_force():
    psi = monomial(F9, 2)
    for a in F9.elements:
        for b in F9.elements:
            brute = sum(
                1
                for x in F9.elements
                if (F9.trace_bilinear(a, psi(x)) - F9.trace_bilinear(b, x)) % 3
            )
            assert weight_via_walsh_sum(psi, a, b) == brute


def test_walsh_sum_requires_vanishing_at_zero():
    psi = ParyFunction.from_callable(F9, lambda x: x ** 2 + F9.one, F9.m)
    with pytest.raises(HypothesisFailed):
        weight_via_walsh_sum(psi, F9.one, F9.one)


def test_walsh_sum_weight_binary():
    psi = parse_function(F16, "x^3").with_codomain(4)
    for a in (F16.zero, F16.one, F16.elements[7]):
        for b in (F16.zero, F16.elements[3], F16.elements[11]):
            brute = sum(
                1
                for x in F16.elements
                if (F16.trace_bilinear(a, psi(x)) - F16.trace_bilinear(b, x)) % 2
            )
            assert weight_via_walsh_sum(psi, a, b) == brute


def test_walsh_sum_weight_random_functions():
    rng = random.Random(35)
    for field in (F9, F25):
        for _ in range(8):
            table = [field.elements[rng.randrange(field.q)] for _ in range(field.q)]
            table[0] = field.zero
            psi = ParyFunction(field, table, field.m)
            a = field.elements[rng.randrange(field.q)]
            b = field.elements[rng.randrange(field.q)]
            brute = sum(
                1
                for x in field.elements
                if (field.trace_bilinear(a, psi(x)) - field.trace_bilinear(b, x)) % field.p
            )
            assert weight_via_walsh_sum(psi, a, b) == brute


# --- weight via the character sum ------------------------------------------------


def test_character_sum_zero_word():
    ds = make_skew_set(F9)
    assert weight_via_character_sum(ds, F9.zero) == 0


def test_character_sum_skew_one_weight():
    ds = make_skew_set(F9)
    for x in F9.elements[1:]:
        assert weight_via_character_sum(ds, x) == 3  # (p-1) q / (2p)


def test_character_sum_random_matches_exhaustive():
    rng = random.Random(31)
    f27 = make_field(3, 3)
    for _ in range(40):
        els = [f27.elements[rng.randrange(27)] for _ in range(rng.randrange(1, 8))]
        ds = defining_set(f27, els)
        x = f27.elements[rng.randrange(27)]
        brute = sum(1 for c in second_codeword(ds, x) if c)
        assert weight_via_character_sum(ds, x) == brute


def test_character_sum_subfield_alphabet():
    from walshcodes.constructions import DefiningSet

    ds = DefiningSet(F16, 2, (F16.elements[1], F16.elements[2], F16.elements[3]))
    for x in F16.elements:
        brute = sum(1 for c in second_codeword(ds, x) if c)
        assert weight_via_character_sum(ds, x) == brute


# --- closed-form bent weights ------------------------------------------------------


def test_bent_weight_closed_form_even_degree():
    psi = monomial(F9, 2)
    cls = classify_bent(walsh_transform(plain_trace_form(psi)))
    for ai in range(3):
        alpha = F9.scalar(ai)
        for beta in F9.elements:
            brute = sum(
                1
                for x in F9.elements[1:]
                if (F9.trace_bilinear(alpha, psi(x)) - F9.trace_bilinear(beta, x)) % 3
            )
            assert bent_codeword_weight(psi, alpha, beta, cls) == brute


def test_bent_weight_closed_form_odd_degree():
    f27 = make_field(3, 3)
    psi = monomial(f27, 4)
    cls = classify_bent(walsh_transform(plain_trace_form(psi)))
    for ai in range(3):
        alpha = f27.scalar(ai)
        for beta in f27.elements:
            brute = sum(
                1
                for x in f27.elements[1:]
                if (f27.trace_bilinear(alpha, psi(x)) - f27.trace_bilinear(beta, x)) % 3
            )
            assert bent_codeword_weight(psi, alpha, beta, cls) == brute


def test_bent_weight_closed_form_binary():
    f = parse_function(F16, "g*x^3").with_codomain(4)
    cls = classify_bent(walsh_transform(plain_trace_form(f)))
    for ai in range(2):
        alpha = F16.scalar(ai)
        for beta in F16.elements:
            brute = sum(
                1
                for x in F16.elements[1:]
                if (F16.trace_bilinear(alpha, f(x)) - F16.trace_bilinear(beta, x)) % 2
            )
            assert bent_codeword_weight(f, alpha, beta, cls) == brute


def test_bent_weight_errors():
    psi = monomial(F9, 2)
    cls = classify_bent(walsh_transform(plain_trace_form(psi)))
    with pytest.raises(AlphaOutsidePrimeField):
        bent_codeword_weight(psi, F9.element([0, 1]), F9.one, cls)
    lin = monomial(F9, 1)
    with pytest.raises(NotBent):
        bent_codeword_weight(lin, F9.one, F9.one)


# --- the binary support-code weight multiset -----------------------------------------


def test_support_multiset_quadratic():
    f = boolean_quadratic(F16)
    ms = support_code_weight_multiset(f)
    assert ms == sorted([0] + [2] * 6 + [4] * 9)
    code = second_generic(make_preimage_set(f, F16.one))
    assert (code.n, code.k) == (6, 4)
    assert sorted(weight_distribution(code).multiset()) == ms
    assert len(ms) == 16


def test_support_multiset_affine_rejected():
    aff = parse_function(F16, "tr(x)")
    with pytest.raises(AffineFunction):
        support_code_weight_multiset(aff)


def test_support_multiset_odd_characteristic_rejected():
    with pytest.raises(EvenCharacteristicOnly):
        support_code_weight_multiset(parse_function(F9, "tr(x^2)"))


def test_support_multiset_non_bent_function():
    # also holds for non-bent examples, e.g. a cubic-monomial trace form
    f = parse_function(F16, "tr(x^7)")
    if f.is_affine():
        pytest.skip("unexpectedly affine")
    ms = support_code_weight_multiset(f)
    code = second_generic(make_preimage_set(f, F16.one))
    assert sorted(weight_distribution(code).multiset()) == ms


# --- membership conditions -------------------------------------------------------------


def test_first_conditions_no_false_negatives_f9():
    for e in (2, 6):
        f = monomial(F9, e)
        dl = dual(first_generic(f))
        words = prime_words(dl)
        for variant in ("wrb-shifted-generic", "wrb-plain-generic", "delta-diff", "delta-value", "delta-point"):
            for w in words:
                v = dual_membership_first(f, w, variant)
                assert v.holds and v.imaginary_zero


def test_first_conditions_no_false_negatives_f16_all_variants():
    f = parse_function(F16, "g*x^3").with_codomain(4)
    dl = dual(first_generic(f))
    for w in prime_words(dl):
        for variant in FIRST_VARIANTS:
            assert dual_membership_first(f, w, variant).holds


def test_zero_word_holds_trivially():
    f = monomial(F9, 2)
    for variant in ("wrb-shifted-generic", "delta-diff"):
        v = dual_membership_first(f, [0] * 9, variant)
        assert v.holds and v.lhs == v.rhs


def test_single_support_word_fails_value_variant():
    # a word supported on one coordinate with nonzero Tr(f(x_i)) fails
    f = monomial(F9, 2)
    exps = [F9.trace_int(f(x)) for x in F9.elements]
    i = next(i for i, t in enumerate(exps) if t)
    word = [0] * 9
    word[i] = 1
    assert not dual_membership_first(f, word, "delta-value").holds


BAD_WORDS = {
    "3": lambda n, p: [3] * n,
    "-3": lambda n, p: [-3] * n,
    "True": lambda n, p: [True] * n,
    "1.0": lambda n, p: [1.0] * n,
    "str": lambda n, p: ["1"] * n,
    "p": lambda n, p: [p] * n,
    "one-entry": lambda n, p: [0],
    "short": lambda n, p: [0] * (n - 1),
    "long": lambda n, p: [0] * 20,
}


@pytest.mark.parametrize("bad_word", list(BAD_WORDS.values()), ids=list(BAD_WORDS))
def test_word_entries_must_be_prime_field_indices(bad_word):
    """A word over F_p has one int in [0, p) per coordinate: 3 and -3 are
    not read as 0 mod 3, True not as 1, an entry of 2 not as even at p = 2,
    and a word of the wrong length is not truncated or padded, as at the
    edge of codes."""
    f = monomial(F9, 2)
    ds = make_image_set(f)
    ch = dual_character_first(f, "delta-value")
    quad = boolean_quadratic(F16)
    support = list(make_preimage_set(quad, F16.one).elements)
    calls = [
        (9, 3, lambda w: dual_membership_first(f, w, "delta-value")),
        (9, 3, lambda w: dual_membership_first(f, w, "wrb-plain-generic")),
        (4, 3, lambda w: dual_membership_second(f, w, "delta-value")),
        (4, 3, lambda w: dual_membership_defining_set(ds, w)),
        (9, 3, ch.evaluate),
        (9, 3, ch.in_kernel),
        (6, 2, lambda w: weight_from_walsh_even(quad, support, w)),
    ]
    for n, p, call in calls:
        call([0] * n)
        with pytest.raises(ValueError):
            call(bad_word(n, p))


def test_scalar_variants_unsatisfiable_in_odd_characteristic():
    # prime-scalar homogeneity forces an odd trace form, which cannot be
    # bent, so the hypothesis check must always trip for odd p
    for e in (2, 5, 6):
        with pytest.raises(HypothesisFailed):
            dual_membership_first(monomial(F9, e), [0] * 9, "wrb-shifted-scalar")


def test_scalar_variant_nonvacuous_in_characteristic_two():
    f = parse_function(F16, "g*x^3").with_codomain(4)
    assert respects_prime_scalars(f)
    dl = dual(first_generic(f))
    words = prime_words(dl)
    assert any(sum(w) for w in words)
    for w in words:
        assert dual_membership_first(f, w, "wrb-shifted-scalar").holds


def test_wrb_context_is_built_once_per_function_and_trace_form(monkeypatch):
    """Two transforms (the trace form and its dual) per function and trace
    form, however many words are checked; the plain form is shared by the
    first and the second construction, and a new function builds its own."""
    import walshcodes.conditions as conditions

    transformed = []
    real = conditions.walsh_transform
    monkeypatch.setattr(conditions, "walsh_transform", lambda g: transformed.append(g) or real(g))
    f = parse_function(F16, "g*x^3").with_codomain(4)
    n_second = len(make_image_set(f))
    for w in ([0] * 16, [1] * 16, [1, 0] * 8):
        for variant in ("wrb-plain-generic", "wrb-plain-scalar", "wrb-shifted-generic", "wrb-shifted-scalar"):
            dual_membership_first(f, w, variant)
        for variant in ("wrb-generic", "wrb-scalar"):
            dual_membership_second(f, w[:n_second], variant)
    assert len(transformed) == 4
    dual_membership_first(parse_function(F16, "g*x^3").with_codomain(4), [0] * 16, "wrb-plain-generic")
    assert len(transformed) == 6
    # a failed hypothesis is not kept: each call transforms and raises afresh
    linear = monomial(F9, 3)
    for n in (7, 8):
        with pytest.raises(HypothesisFailed):
            dual_membership_first(linear, [0] * 9, "wrb-plain-generic")
        assert len(transformed) == n


def test_second_conditions_and_witness():
    rng = random.Random(33)
    f = monomial(F9, 2)
    ds = make_image_set(f)
    code = second_generic(ds)
    dl = dual(code)
    for w in prime_words(dl):
        for variant in ("wrb-generic", "delta-value"):
            assert dual_membership_second(f, w, variant).holds
    witness = 0
    for _ in range(300):
        w = [rng.randrange(3) for _ in range(code.n)]
        if dl.contains([code.base.scalar(c) for c in w]):
            continue
        if not dual_membership_second(f, w, "delta-value").holds:
            witness += 1
    assert witness > 0


def test_defining_set_condition_plain():
    ds = make_skew_set(F9)
    code = second_generic(ds)
    dl = dual(code)
    for w in prime_words(dl):
        assert dual_membership_defining_set(ds, w).holds


def test_hull_conditions_first():
    f = monomial(F9, 2)
    code = first_generic(f)
    h = hull(code)
    prime = code.base
    in_hull = 0
    fail_outside = 0
    variants = ("wrb-shifted-generic", "wrb-plain-generic", "delta-diff", "delta-value", "delta-point")
    for a in F9.elements:
        for b in F9.elements:
            word = first_codeword(f, a, b)
            if h.contains([prime.scalar(c) for c in word]):
                in_hull += 1
                for variant in variants:
                    assert hull_membership_first(f, a, b, variant).holds
            else:
                if not all(hull_membership_first(f, a, b, v).holds for v in variants):
                    fail_outside += 1
    assert in_hull == 9  # parameter pairs mapping into the hull
    assert fail_outside > 0


def test_hull_condition_fixed_hull_instance():
    ds = make_fixed_hull_set(F25, [F25.one, F25.elements[5]], 1, alpha=2, beta=4)
    code = second_generic(ds)
    h = hull(code)
    hull_params = 0
    for x in F25.elements:
        if h.contains(second_codeword(ds, x)):
            hull_params += 1
            assert hull_membership_defining_set(ds, x).holds
    assert hull_params > 1


# --- characters -----------------------------------------------------------------------


def test_character_multiplicativity():
    rng = random.Random(34)
    ch = dual_character_first(monomial(F9, 2), "delta-diff")
    for _ in range(30):
        u = [rng.randrange(3) for _ in range(9)]
        v = [rng.randrange(3) for _ in range(9)]
        uv = [(a + b) % 3 for a, b in zip(u, v)]
        assert ch.evaluate(uv) == ch.evaluate(u) * ch.evaluate(v)


def test_character_kernel_contains_dual():
    for e in (2, 6):
        f = monomial(F9, e)
        dl = dual(first_generic(f))
        for variant in ("delta-diff", "delta-value", "delta-point"):
            ch = dual_character_first(f, variant)
            for w in prime_words(dl):
                assert ch.in_kernel(w)
                assert ch.evaluate(w) == ch.evaluate([0] * 9)


def test_character_x6_parity_check_multiset():
    ch = dual_character_first(monomial(F9, 6), "delta-value")
    t = ch.kernel_hyperplane()
    assert Counter(t) == Counter({0: 5, 1: 2, 2: 2})
    assert not ch.is_trivial()


def test_character_second_construction():
    f = monomial(F9, 2)
    ch = dual_character_second(f)
    dl = dual(second_generic(make_image_set(f)))
    for w in prime_words(dl):
        assert ch.in_kernel(w)


def test_character_dim_one_equality():
    f5 = make_field(5, 1)
    lin = ParyFunction.from_callable(f5, lambda x: x * 2, 1)
    code = first_generic(lin)
    assert code.k == 1
    ch = dual_character_first(lin, "delta-value")
    dl = dual(code)
    kernel = [
        w
        for w in _all_int_words(5, 5)
        if ch.in_kernel(w)
    ]
    assert len(kernel) == dl.size()
    for w in prime_words(dl):
        assert ch.in_kernel(w)


def _all_int_words(p, n):
    out = [[]]
    for _ in range(n):
        out = [w + [c] for w in out for c in range(p)]
    return out


# --- even-characteristic weight from the Walsh product ---------------------------------


def test_even_weight_zero_word():
    f = boolean_quadratic(F16)
    ds = make_preimage_set(f, F16.one)
    assert weight_from_walsh_even(f, list(ds.elements), [0] * len(ds)) == 0


def test_even_weight_every_dual_word():
    f = boolean_quadratic(F16)
    ds = make_preimage_set(f, F16.one)
    code = second_generic(ds)
    dl = dual(code)
    points = list(ds.elements)
    seen = set()
    for w in prime_words(dl):
        wt = sum(1 for c in w if c)
        assert weight_from_walsh_even(f, points, w) == wt
        seen.add(wt)
    assert seen == {0, 3, 6}


def test_even_weight_positive_product_on_image_instance():
    gold = parse_function(F16, "g*x^3").with_codomain(4)
    ds = make_image_set(gold)
    dl = dual(second_generic(ds))
    pts = image_set_points(gold)
    g = plain_trace_form(gold)
    for w in prime_words(dl):
        wt = sum(1 for c in w if c)
        assert weight_from_walsh_even(g, pts, w, require_positive=True) == wt


def test_even_weight_odd_characteristic_rejected():
    with pytest.raises(OddCharacteristic):
        weight_from_walsh_even(parse_function(F9, "tr(x^2)"), [F9.one], [1])


def test_even_weight_not_bent_rejected():
    with pytest.raises(NotBent):
        weight_from_walsh_even(parse_function(F16, "tr(x)"), [F16.one], [1])


# --- APN / AB / PN diagnostics -----------------------------------------------------------


def test_apn_x3_f16():
    rep = apn_ab_dual_diagnostics(parse_function(F16, "x^3"))
    assert rep["d_perp"] == 5
    assert rep["is_apn"] and rep["differential_uniformity"] == 2
    assert rep["hypothesis_ok"]


def test_ab_x3_f32():
    rep = apn_ab_dual_diagnostics(parse_function(make_field(2, 5), "x^3"))
    assert rep["characteristic_set"] == {12, 16, 20}
    assert rep["is_ab"]


def test_apn_diagnostics_degenerate_linear():
    rep = apn_ab_dual_diagnostics(parse_function(F16, "x^2"))  # Frobenius
    assert not rep["hypothesis_ok"]


def test_apn_odd_characteristic_rejected():
    with pytest.raises(OddCharacteristic):
        apn_ab_dual_diagnostics(parse_function(F9, "x^2"))


def test_apn_nonzero_at_zero_rejected():
    with pytest.raises(HypothesisFailed):
        apn_ab_dual_diagnostics(parse_function(F16, "x^3+1"))


def test_apn_x3_f8_dual_distance_seven():
    rep = apn_ab_dual_diagnostics(parse_function(make_field(2, 3), "x^3"))
    assert rep["d_perp"] == 7
    assert rep["is_apn"] and rep["differential_uniformity"] == 2
    assert rep["hypothesis_ok"] and rep["is_ab"]


def dual_distance_oracle(code):
    """min_distance(dual(code)) of a binary code, as the least number of
    generator columns XOR-ing to zero: searched directly up to 5, by dual
    enumeration beyond (only small duals get there)."""
    cols = [sum(1 << i for i, row in enumerate(code.generator) if row[j]) for j in range(code.n)]
    n = len(cols)
    if 0 in cols:
        return 1
    if len(set(cols)) < n:
        return 2
    pair_xor = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_xor.setdefault(cols[i] ^ cols[j], []).append((i, j))
    if any(cols[k] in pair_xor and any(k not in pair for pair in pair_xor[cols[k]]) for k in range(n)):
        return 3
    if any(not set(a) & set(b) for pairs in pair_xor.values() for a in pairs for b in pairs):
        return 4
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if any(not set(pair) & {i, j, k} for pair in pair_xor.get(cols[i] ^ cols[j] ^ cols[k], ())):
                    return 5
    return min_distance(dual(code))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_apn_dual_distance_matches_column_search(m):
    field = make_field(2, m)
    for spec in ("x^3", "x^5", "x^7", "g*x^3+x", f"x^{field.q - 2}"):
        f = parse_function(field, spec).with_codomain(m)
        rep = apn_ab_dual_diagnostics(f)
        assert rep["d_perp"] == dual_distance_oracle(first_generic(f, include_zero=False)), spec
        assert rep["is_apn"] == (rep["differential_uniformity"] == 2), spec


def test_pn_bounds_f9_f25():
    for p, lo, hi in ((3, 4, 8), (5, 16, 24)):
        field = make_field(p, 2)
        rep = pn_bounds_check(parse_function(field, "x^2"))
        assert rep["all_in_band"]
        assert all(lo <= w <= hi for w in rep["weights"])
        assert rep["band"] == (float(lo), float(hi))


def test_pn_rejects_non_planar():
    with pytest.raises(NotPN):
        pn_bounds_check(parse_function(F9, "x^3"))


def test_pn_bounds_refuses_over_guard_before_planarity(monkeypatch):
    """An over-guard request exits on the guard without the q^2 planarity
    test; within the guard the planarity test still comes first."""
    import walshcodes.conditions as cd

    def refuse(f, guard=None):
        raise AssertionError("differential_uniformity ran on an over-guard request")

    monkeypatch.setattr(cd, "differential_uniformity", refuse)
    for field, spec in ((make_field(3, 4), "x^2"), (F25, "x^3"), (F25, "x^2+1")):
        f = parse_function(field, spec).with_codomain(field.m)
        with pytest.raises(TooLarge, match=f"^{field.p ** (2 * field.m)} codewords exceed the guard 100$"):
            pn_bounds_check(f, guard=100)
    monkeypatch.undo()
    with pytest.raises(NotPN, match="not planar"):
        pn_bounds_check(parse_function(F25, "x^3").with_codomain(2), guard=10 ** 6)
    with pytest.raises(NotPN, match="f\\(0\\) = 0"):
        pn_bounds_check(parse_function(F25, "x^2+1").with_codomain(2), guard=10 ** 6)


# --- structural checks on the shifted/plain trace forms ---------------------------------


def test_trace_forms():
    f = monomial(F9, 6)
    g1 = shifted_trace_form(f)
    g2 = plain_trace_form(f)
    for x in F9.elements:
        assert g1(x) == (f(x) - x).trace()
        assert g2(x) == f(x).trace()
    # the index passes against the element loops they replaced
    for pm in ((3, 2), (2, 4), (5, 2), (3, 3), (7, 1)):
        field = make_field(*pm)
        maps = _differential_functions(field, random.Random(sum(pm))) + [
            monomial(field, 1),
            ParyFunction.from_callable(field, lambda x: x + field.one, field.m),
        ]
        for f in maps:
            assert shifted_trace_form(f) == trace_form_oracle(f, True)
            assert plain_trace_form(f) == trace_form_oracle(f, False)
            assert respects_prime_scalars(f) == respects_prime_scalars_oracle(f)


def test_verdict_imaginary_zero_tracks_conjugation():
    f = monomial(F9, 2)
    v = dual_membership_first(f, [0] * 9, "delta-diff")
    assert v.imaginary_zero == (v.lhs == v.lhs.conjugate())


# --- the literal route, kept as the oracle of the exponent route -------------------------


def delta_factor_oracle(field, special_point, special_value):
    """chi_hat_{g_i}(1) + 1 - q for the function equal to Tr(x) everywhere
    except g_i(special_point) = special_value, computed literally."""
    p = field.p
    counts = [0] * p
    for y in field.elements:
        g = special_value if y == special_point else field.trace_int(y)
        counts[(g - field.trace_int(y)) % p] += 1
    return CyclotomicInt(p, counts) + CyclotomicInt.from_int(p, 1 - field.q)


def first_delta_factors_oracle(f, variant, include_zero):
    field = f.field
    factors = []
    for x in first_points(field, include_zero):
        if variant == "delta-diff":
            special = field.trace_int(f(x))
        elif variant == "delta-value":
            special = (field.trace_int(f(x)) + field.trace_int(x)) % field.p
        elif variant == "delta-point":
            special = (2 * field.trace_int(x)) % field.p
        else:
            raise ValueError(f"unknown delta variant {variant!r}")
        factors.append(delta_factor_oracle(field, x, special))
    return factors


def second_delta_factors_oracle(ds):
    field = ds.field
    return [delta_factor_oracle(field, d, (2 * field.trace_int(d)) % field.p) for d in ds.elements]


def product_oracle(factors, word, p):
    lhs = CyclotomicInt.from_int(p, 1)
    for fac, c in zip(factors, word):
        if c:
            lhs = lhs * fac ** c
    return lhs, CyclotomicInt.from_int(p, 1)


def factor_exponents_oracle(factors, p):
    """The e with factor == zeta^e, for factors that must be roots of unity."""
    exps = []
    for fac in factors:
        (e,) = [i for i in range(p) if fac == CyclotomicInt.zeta_power(p, i)]
        exps.append(e)
    return tuple(exps)


def trace_form_oracle(f, shifted):
    field = f.field
    return ParyFunction(
        field, [field.scalar(field.trace_int(f(x) - x if shifted else f(x))) for x in field.elements], 1
    )


def respects_prime_scalars_oracle(f):
    field = f.field
    return all(f(field.scalar(a) * x) == field.scalar(a) * f(x) for a in range(field.p) for x in field.elements)


class WrbOracle:
    """The dual spectrum of the classified trace form and the products over
    it in Z[zeta_p], with the exact G^m of gauss_sum_power."""

    def __init__(self, g, label):
        field = g.field
        cls = classify_bent(walsh_transform(g))
        if not cls.is_weakly_regular():
            raise HypothesisFailed(f"{label} is not weakly regular bent ({cls.kind.value})")
        self.field = field
        self.dual_spectrum = walsh_transform(cls.dual)
        p, m = field.p, field.m
        gm = CyclotomicInt.from_int(2, 1 << (m // 2)) if p == 2 else gauss_sum_power(p, m)
        self.eps_gm = gm if cls.epsilon == 1 else -gm

    def scalar_product(self, points, word):
        """Cleared sides of prod_i chi_dual(c_i x_i) = (p^m/(eps G^m))^n."""
        p, q = self.field.p, self.field.q
        lhs = CyclotomicInt.from_int(p, 1)
        for c, x in zip(word, points):
            lhs = lhs * self.dual_spectrum[x * c]
        return lhs * self.eps_gm ** len(points), CyclotomicInt.from_int(p, q) ** len(points)

    def generic_product(self, points, word):
        """Cleared sides of prod_i chi_dual(x_i)^(c_i) = (p^m/(eps G^m))^sum(c)."""
        p, q = self.field.p, self.field.q
        lhs = CyclotomicInt.from_int(p, 1)
        for c, x in zip(word, points):
            if c:
                lhs = lhs * self.dual_spectrum[x] ** c
        return lhs * self.eps_gm ** sum(word), CyclotomicInt.from_int(p, q) ** sum(word)


def verdict_oracle(variant, sides):
    lhs, rhs = sides
    return MembershipVerdict(variant, lhs == rhs, lhs, rhs, lhs == lhs.conjugate())


def wrb_oracle(f, shifted):
    """The oracle context, or the HypothesisFailed its construction raises."""
    try:
        return WrbOracle(trace_form_oracle(f, shifted), "Tr(f(x) - x)" if shifted else "Tr(f(x))")
    except HypothesisFailed as ex:
        return ex


def wrb_sides_oracle(ctx, f, variant, points, word):
    if isinstance(ctx, HypothesisFailed):
        raise ctx
    if variant.endswith("scalar"):
        if not respects_prime_scalars_oracle(f):
            raise HypothesisFailed("f does not respect prime-field scalar multiplication")
        return ctx.scalar_product(points, word)
    return ctx.generic_product(points, word)


def outcome(call):
    """A verdict, or the type and message of the HypothesisFailed raised."""
    try:
        return call()
    except HypothesisFailed as ex:
        return type(ex), str(ex)


def _random_self_map(field, rng):
    table = [field.elements[rng.randrange(field.q)] for _ in range(field.q)]
    table[0] = field.zero
    return ParyFunction(field, table, field.m)


def _words(code, rng, count=4):
    """The zero word, dual rows, random dual words and random non-members."""
    dl = dual(code)
    p, n = code.base.p, code.n
    words = [[0] * n] + [list(r) for r in rng.sample(dl.rows, min(count, len(dl.rows)))]
    for _ in range(count):
        w = [0] * n
        for row in dl.rows:
            c = rng.randrange(p)
            w = [(a + c * b) % p for a, b in zip(w, row)]
        words.append(w)
    while len(words) < 3 * count + 1:
        w = [rng.randrange(p) for _ in range(n)]
        if not dl.contains(w):
            words.append(w)
    return words


def _differential_functions(field, rng):
    """A weakly regular bent trace form where the field has one, a map whose
    trace form is not bent, and a random map with f(0) = 0."""
    if field.p == 2:
        maps = [parse_function(field, "g*x^3"), parse_function(field, "x^3")]
    else:
        maps = [parse_function(field, "x^2"), parse_function(field, "x^4")]
    return [fn.with_codomain(field.m) for fn in maps] + [_random_self_map(field, rng)]


DIFFERENTIAL_FIELDS = [(3, 2), (2, 4), (5, 2), (3, 3), (7, 1), (2, 6)]


@pytest.mark.parametrize("pm", DIFFERENTIAL_FIELDS, ids=[f"GF({p}^{m})" for p, m in DIFFERENTIAL_FIELDS])
def test_membership_verdicts_match_the_cyclotomic_oracle(pm):
    """Every MembershipVerdict field, every variant, against the literal
    q-term delta factors and the products over the dual spectrum."""
    field = make_field(*pm)
    rng = random.Random(1000 * pm[0] + pm[1])
    wrb_held = 0
    for f in _differential_functions(field, rng):
        contexts = {shifted: wrb_oracle(f, shifted) for shifted in (True, False)}
        for include_zero in (True, False):
            points = first_points(field, include_zero)
            words = _words(first_generic(f, include_zero), rng)
            for variant in FIRST_VARIANTS:
                if variant.startswith("delta"):
                    factors = first_delta_factors_oracle(f, variant, include_zero)
                    assert dual_character_first(f, variant, include_zero).exponents == factor_exponents_oracle(
                        factors, field.p
                    )
                for w in words:
                    got = outcome(lambda: dual_membership_first(f, w, variant, include_zero))
                    if variant.startswith("delta"):
                        want = verdict_oracle(f"first:{variant}", product_oracle(factors, w, field.p))
                    else:
                        ctx = contexts["shifted" in variant]
                        want = outcome(lambda: verdict_oracle(
                            f"first:{variant}", wrb_sides_oracle(ctx, f, variant, points, w)
                        ))
                        wrb_held += isinstance(got, MembershipVerdict) and got.holds
                    assert got == want, (f, variant, include_zero, w)

        ds = make_image_set(f)
        points = image_set_points(f)
        factors = second_delta_factors_oracle(ds)
        assert dual_character_second(f).exponents == factor_exponents_oracle(factors, field.p)
        for w in _words(second_generic(ds), rng):
            for variant in SECOND_VARIANTS:
                got = outcome(lambda: dual_membership_second(f, w, variant))
                if variant == "delta-value":
                    want = verdict_oracle("second:delta-value", product_oracle(factors, w, field.p))
                else:
                    want = outcome(lambda: verdict_oracle(
                        f"second:{variant}", wrb_sides_oracle(contexts[False], f, variant, points, w)
                    ))
                assert got == want, (f, variant, w)
            want = verdict_oracle("defining-set:delta", product_oracle(factors, w, field.p))
            assert dual_membership_defining_set(ds, w) == want

    others = [field.elements[i] for i in rng.sample(range(1, field.q), min(6, field.q - 1))]
    ds = defining_set(field, others)
    factors = second_delta_factors_oracle(ds)
    for w in _words(second_generic(ds), rng):
        want = verdict_oracle("defining-set:delta", product_oracle(factors, w, field.p))
        assert dual_membership_defining_set(ds, w) == want
    assert wrb_held > 0


SMALL_FIELDS = [(p, m) for p in range(2, 28) if is_prime(p) for m in range(1, 5) if p ** m <= 27]


@pytest.mark.parametrize("pm", SMALL_FIELDS, ids=[f"GF({p}^{m})" for p, m in SMALL_FIELDS])
def test_delta_factor_is_zeta_to_special_minus_trace(pm):
    """The literal q-term factor is zeta^(special - Tr(point)) at every point
    and for every special value: the identity behind the exponent route."""
    field = make_field(*pm)
    p = field.p
    for x in field.elements:
        for special in range(p):
            want = CyclotomicInt.zeta_power(p, special - field.trace_int(x))
            assert delta_factor_oracle(field, x, special) == want
