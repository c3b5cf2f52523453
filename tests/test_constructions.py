import random
from math import comb

import pytest

from walshcodes.algebra import make_field, subfield, trace
from walshcodes.codes import (
    dual,
    from_rows,
    hull,
    hull_dim,
    is_mds,
    matrix_rank,
    min_distance,
    weight_distribution,
)
from walshcodes.constructions import (
    DefiningSet,
    code_to_defining_set,
    defining_set,
    dimension_via_span,
    dual_first_closed_form,
    dual_second_closed_form,
    first_codeword,
    first_generic,
    first_hull_map_matrix,
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
    second_hull_map_matrix,
    standard_form_generator,
)
from walshcodes.errors import (
    AlphaZero,
    BadAlpha,
    BadBeta,
    BadDegree,
    BadL,
    BadParameters,
    CannotFrontLoad,
    DimensionTooLarge,
    EmptySet,
    EvenCharacteristic,
    MinusOneNotSquare,
    NeedDistinctAlphas,
    NotIndependent,
    OddCharacteristic,
    OddK,
    WrongCodomain,
)
from walshcodes.functions import ParyFunction, parse_function

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2)
F16 = make_field(2, 4)
F25 = make_field(5, 2)
F27 = make_field(3, 3)


def monomial(field, e):
    return ParyFunction.from_callable(field, lambda x: x ** e, field.m)


def random_ds(field, rng, max_len=8):
    n = rng.randrange(1, max_len)
    return defining_set(field, [field.elements[rng.randrange(field.q)] for _ in range(n)])


# --- the first generic construction -----------------------------------------


def test_first_generic_identity_function_dim():
    assert first_generic(monomial(F3, 1)).k == 1


def test_first_generic_quadratic_reaches_2m():
    code = first_generic(monomial(F9, 2))
    assert (code.n, code.k) == (9, 4)


def test_punctured_weights_match_full():
    f = monomial(F9, 2)
    full = first_generic(f, include_zero=True)
    punct = first_generic(f, include_zero=False)
    assert punct.n == 8
    assert weight_distribution(full).counts == weight_distribution(punct).counts


def test_first_generic_needs_self_map():
    with pytest.raises(WrongCodomain):
        first_generic(parse_function(F9, "tr(x)"))


def test_first_codeword_spans_code():
    f = monomial(F9, 2)
    code = first_generic(f)
    for a, b in ((F9.one, F9.zero), (F9.elements[3], F9.elements[7])):
        word = [code.base.scalar(c) for c in first_codeword(f, a, b)]
        assert code.contains(word)


# --- closed-form duals --------------------------------------------------------


@pytest.mark.parametrize("field", [F9, F16])
def test_dual_first_closed_form_equals_nullspace(field):
    for e in range(1, field.q - 1, 2):
        f = monomial(field, e)
        assert dual_first_closed_form(f) == dual(first_generic(f))


def test_dual_first_closed_form_zero_function():
    f = ParyFunction.from_callable(F9, lambda x: F9.zero, F9.m)
    assert dual_first_closed_form(f) == dual(first_generic(f))


def test_dual_second_closed_form_example():
    ds = defining_set(F3, [F3.one, F3.scalar(2)])
    d = dual_second_closed_form(ds)
    assert [[x.index for x in r] for r in d.generator] == [[1, 1]]


def test_dual_second_closed_form_basis_gives_zero_dual():
    ds = defining_set(F27, [F27.elements[3 ** i] for i in range(3)])
    assert dual_second_closed_form(ds).k == 0
    assert second_generic(ds).k == 3


def test_dual_second_closed_form_random_and_frobenius():
    # the Frobenius-power agreement is asserted inside the closed form
    rng = random.Random(21)
    for field in (F9, F16, F27):
        for _ in range(30):
            ds = random_ds(field, rng)
            assert dual_second_closed_form(ds) == dual(second_generic(ds))


def test_dual_second_closed_form_subfield_alphabet():
    rng = random.Random(28)
    f81 = make_field(3, 4)
    for field, s in ((F16, 2), (f81, 2)):
        for _ in range(15):
            els = tuple(field.elements[rng.randrange(field.q)] for _ in range(rng.randrange(1, 6)))
            ds = DefiningSet(field, s, els)
            assert dual_second_closed_form(ds) == dual(second_generic(ds))
            assert dimension_via_span(ds) == second_generic(ds).k
            assert hull_second_kernel(ds) == hull(second_generic(ds))


def test_closed_forms_on_random_functions():
    # stronger than the monomial grid: arbitrary truth tables
    rng = random.Random(30)
    for field in (F9, F16, make_field(2, 3)):
        for _ in range(10):
            table = [field.elements[rng.randrange(field.q)] for _ in range(field.q)]
            f = ParyFunction(field, table, field.m)
            assert dual_first_closed_form(f) == dual(first_generic(f))
            assert hull_first_kernel(f) == hull(first_generic(f))


def test_degree_six_tower_base_eight():
    f64 = make_field(2, 6)
    sub, _, _ = subfield(f64, 3)
    assert sub.q == 8
    rng = random.Random(31)
    for _ in range(8):
        els = tuple(f64.elements[rng.randrange(64)] for _ in range(rng.randrange(1, 5)))
        ds = DefiningSet(f64, 3, els)
        code = second_generic(ds)
        assert code.base is sub
        assert dual_second_closed_form(ds) == dual(code)
        assert dimension_via_span(ds) == code.k
        assert hull_second_kernel(ds) == hull(code)


def test_second_generic_subfield_alphabet():
    sub, embed, _ = subfield(F16, 2)
    ds = DefiningSet(F16, 2, (F16.elements[1], F16.elements[2]))
    code = second_generic(ds)
    assert code.base is sub
    words = set(code.codewords())
    brute = {second_codeword(ds, x) for x in F16.elements}
    assert words == brute


def test_second_generic_zero_set():
    ds = defining_set(F3, [F3.zero, F3.zero, F3.zero])
    code = second_generic(ds)
    assert (code.n, code.k) == (3, 0)


# --- dimension lemma and standard form ----------------------------------------


def test_dimension_via_span_examples():
    assert dimension_via_span(defining_set(F27, [F27.elements[3 ** i] for i in range(3)])) == 3
    assert dimension_via_span(defining_set(F3, [F3.one, F3.scalar(2)])) == 1
    assert dimension_via_span(defining_set(F3, [F3.zero])) == 0


def test_dimension_via_span_matches_code_dim():
    rng = random.Random(22)
    for field in (F9, F16, F25, F27):
        for _ in range(40):
            ds = random_ds(field, rng)
            assert dimension_via_span(ds) == second_generic(ds).k


def test_standard_form_example():
    w = F9.element([0, 1])
    mat, order = standard_form_generator(defining_set(F9, [F9.one, w, F9.one + w]))
    assert order == [0, 1, 2]
    assert [[x.index for x in row] for row in mat] == [[1, 0, 1], [0, 1, 1]]


def test_standard_form_generates_the_code():
    rng = random.Random(23)
    for _ in range(20):
        ds = random_ds(F27, rng)
        if dimension_via_span(ds) == 0:
            continue
        mat, order = standard_form_generator(ds)
        reordered = defining_set(ds.field, [ds.elements[i] for i in order])
        sub, _, _ = subfield(ds.field, 1)
        assert from_rows(sub, mat) == second_generic(reordered)
        k = len(mat)
        for r in range(k):
            assert [mat[r][c].as_prime_int() for c in range(k)] == [
                1 if c == r else 0 for c in range(k)
            ]


def test_standard_form_zero_span():
    with pytest.raises(CannotFrontLoad):
        standard_form_generator(defining_set(F9, [F9.zero]))


# --- realization of arbitrary codes --------------------------------------------


def test_code_realization_round_trip():
    rng = random.Random(24)
    for _ in range(20):
        rows = [[F3.scalar(rng.randrange(3)) for _ in range(6)] for _ in range(3)]
        code = from_rows(F3, rows)
        if code.k > 3:
            continue
        ds = code_to_defining_set(code, F27)
        assert second_generic(ds) == code


def test_code_realization_boundary():
    code = from_rows(F3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(DimensionTooLarge):
        code_to_defining_set(code, F9)
    ds = code_to_defining_set(code, F27)
    assert second_generic(ds) == code


def test_full_space_realization_uses_basis():
    code = from_rows(F3, [[1, 0], [0, 1]])
    ds = code_to_defining_set(code, F9)
    assert dimension_via_span(ds) == 2


def test_dual_realization_threshold():
    # the dual of a defining-set code is realizable exactly when m >= n - k
    rng = random.Random(29)
    for _ in range(15):
        ds = random_ds(F9, rng, max_len=6)
        code = second_generic(ds)
        d = dual(code)
        need = d.k
        if need == 0:
            continue
        big = make_field(3, max(need, 1))
        assert second_generic(code_to_defining_set(d, big)) == d
        if need > 1:
            small = make_field(3, need - 1)
            with pytest.raises(DimensionTooLarge):
                code_to_defining_set(d, small)


# --- hull kernels ---------------------------------------------------------------


@pytest.mark.parametrize("field,e", [(F9, 2), (F9, 6), (F16, 3), (F16, 5)])
def test_hull_first_kernel_matches(field, e):
    f = monomial(field, e)
    code = first_generic(f)
    h = hull(code)
    assert hull_first_kernel(f) == h
    rows, prime = first_hull_map_matrix(f)
    assert h.k == code.k - matrix_rank(rows, prime)


def test_hull_second_kernel_matches_random():
    rng = random.Random(25)
    for field in (F9, F16, F25):
        prime = make_field(field.p, 1)
        for _ in range(25):
            ds = random_ds(field, rng)
            code = second_generic(ds)
            h = hull(code)
            assert hull_second_kernel(ds) == h
            rows, _ = second_hull_map_matrix(ds)
            assert h.k == code.k - matrix_rank(rows, prime)


def test_hull_kernel_lcd_example():
    ds = defining_set(F3, [F3.one, F3.scalar(2)])
    assert hull_second_kernel(ds).k == 0


# --- defining-set generators -----------------------------------------------------


def test_skew_set_properties():
    for field in (F3, F9, make_field(5, 1), make_field(7, 1), F25, F27, make_field(7, 2)):
        ds = make_skew_set(field)
        assert len(ds) == (field.q - 1) // 2
        chosen = set(ds.elements)
        negated = {-d for d in chosen}
        assert chosen.isdisjoint(negated)
        assert chosen | negated | {field.zero} == set(field.elements)
        # scaling a skew set by any nonzero element yields a skew set
        if field.q <= 49:
            for x in field.elements[1:]:
                scaled = {x * d for d in chosen}
                assert scaled.isdisjoint({-s for s in scaled})


def test_skew_code_parameters():
    code = second_generic(make_skew_set(F9))
    assert (code.n, code.k) == (4, 2)
    assert weight_distribution(code).counts == {0: 1, 3: 8}
    code3 = second_generic(make_skew_set(F3))
    assert (code3.n, code3.k, min_distance(code3)) == (1, 1, 1)


def test_skew_set_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        make_skew_set(F16)


def test_preimage_set():
    f = parse_function(F16, "tr(x)")
    ds = make_preimage_set(f, F16.one)
    assert len(ds) == 8
    with pytest.raises(EmptySet):
        make_preimage_set(parse_function(F16, "0"), F16.one)


def test_image_set():
    ds = make_image_set(monomial(F9, 2))
    assert len(ds) == 4  # the nonzero squares
    assert [d.index for d in ds.elements] == sorted(d.index for d in ds.elements)
    with pytest.raises(EmptySet):
        make_image_set(ParyFunction.from_callable(F9, lambda x: F9.zero, 2))


def test_trace_zero_set_sizes():
    assert len(make_trace_zero_set(make_field(3, 4))) == 10 * 2
    assert len(make_trace_zero_set(F16)) == 5
    code = second_generic(make_trace_zero_set(make_field(3, 4)))
    assert (code.n, code.k) == (20, 4)
    with pytest.raises(BadDegree):
        make_trace_zero_set(F9)  # s = 1 is excluded


def test_cyclotomic_first_class():
    ds = make_cyclotomic_set(F16, 1)
    code = second_generic(ds)
    assert (code.n, code.k, min_distance(code)) == (5, 4, 2)
    assert weight_distribution(code).counts == {0: 1, 2: 10, 4: 5}
    d = dual(code)
    assert (d.n, d.k) == (5, 1)
    assert min_distance(d) >= 3


def test_cyclotomic_second_class():
    ds = make_cyclotomic_set(F16, 1, second_class=True)
    code = second_generic(ds)
    assert (code.n, code.k) == (10, 4)
    assert weight_distribution(code).counts == {0: 1, 4: 5, 6: 10}


def test_cyclotomic_bad_parameters():
    with pytest.raises(BadParameters):
        make_cyclotomic_set(F9, 1)  # q = 3 = 0 mod 3


def test_fixed_hull_construction():
    w = F25.element([0, 1])
    for l in range(3):
        ds = make_fixed_hull_set(F25, [F25.one, w], l, alpha=2, beta=4)
        code = second_generic(ds)
        assert (code.n, code.k, min_distance(code)) == (4, 2, 2)
        assert hull_dim(code) == l
        expected = {0: 1, 2: 4 * comb(2, 1), 4: 16 * comb(2, 2)}
        assert weight_distribution(code).counts == expected


def test_fixed_hull_rejections():
    w = F25.element([0, 1])
    with pytest.raises(MinusOneNotSquare):
        make_fixed_hull_set(F9, [F9.one], 0, alpha=2, beta=4)
    with pytest.raises(BadAlpha):
        make_fixed_hull_set(F25, [F25.one], 0, alpha=1, beta=4)
    with pytest.raises(BadBeta):
        make_fixed_hull_set(F25, [F25.one], 0, alpha=2, beta=1)
    with pytest.raises(BadBeta):
        make_fixed_hull_set(F25, [F25.one], 0, alpha=2, beta=3)
    with pytest.raises(BadL):
        make_fixed_hull_set(F25, [F25.one, w], 3, alpha=2, beta=4)
    with pytest.raises(NotIndependent):
        make_fixed_hull_set(F25, [F25.one, F25.scalar(2)], 0, alpha=2, beta=4)


def test_lcd_construction():
    basis = [F16.elements[2 ** i] for i in range(4)]
    ds = make_lcd_set(F16, basis)
    code = second_generic(ds)
    assert (code.n, code.k) == (6, 4)
    assert hull_dim(code) == 0
    d = dual(code)
    assert (d.n, d.k, min_distance(d)) == (6, 2, 3)
    assert weight_distribution(d).counts == {0: 1, 3: 2, 6: 1}


def test_lcd_subfield_alphabet():
    ds = make_lcd_set(F16, [F16.elements[1], F16.elements[2]], base_degree=2)
    code = second_generic(ds)
    assert code.base.q == 4 and (code.n, code.k) == (3, 2)
    assert hull_dim(code) == 0
    assert weight_distribution(dual(code)).counts == {0: 1, 3: 3}


def test_lcd_rejections():
    with pytest.raises(OddK):
        make_lcd_set(F16, [F16.elements[1]])
    with pytest.raises(OddCharacteristic):
        make_lcd_set(F9, [F9.one, F9.element([0, 1])])
    with pytest.raises(NotIndependent):
        make_lcd_set(F16, [F16.one, F16.one])


def test_mds_construction():
    f125 = make_field(5, 3)
    basis = [f125.elements[5 ** i] for i in range(3)]
    c1 = second_generic(make_mds_set(f125, basis, "k+1", [1, 1, 1]))
    assert (c1.n, c1.k, min_distance(c1)) == (4, 3, 2) and is_mds(c1)
    d1 = dual(c1)
    assert (d1.n, d1.k, min_distance(d1)) == (4, 1, 4) and is_mds(d1)
    c2 = second_generic(make_mds_set(f125, basis, "k+2", [1, 2, 3]))
    assert (c2.n, c2.k, min_distance(c2)) == (5, 3, 3) and is_mds(c2)
    d2 = dual(c2)
    assert (d2.n, d2.k, min_distance(d2)) == (5, 2, 4) and is_mds(d2)


def test_mds_rejections():
    f27 = F27
    basis = [f27.elements[3 ** i] for i in range(3)]
    with pytest.raises(NeedDistinctAlphas):
        make_mds_set(f27, basis, "k+2", [1, 2, 1])
    with pytest.raises(AlphaZero):
        make_mds_set(f27, basis, "k+1", [1, 0, 1])


def test_mds_dual_of_mds_is_mds():
    # asserted on the constructed families only
    for p in (5, 7):
        field = make_field(p, 2)
        basis = [field.one, field.elements[p]]
        for variant, alphas in (("k+1", [1, 1]), ("k+2", [1, 2])):
            code = second_generic(make_mds_set(field, basis, variant, alphas))
            assert is_mds(code) and is_mds(dual(code))


# --- structural invariants ------------------------------------------------------


def test_dual_dim_lower_bound_and_non_realizability():
    rng = random.Random(26)
    for _ in range(20):
        ds = random_ds(F9, rng, max_len=8)
        n, m = len(ds), F9.m
        d = dual(second_generic(ds))
        assert d.k >= n - m
        if n > 2 * m:
            assert d.k > m  # cannot itself come from this construction


def test_dual_distance_dictionary():
    # d >= 3 for the dual exactly when no element is a prime-field multiple
    # of another (zero-free defining sets)
    rng = random.Random(27)
    for _ in range(60):
        n = rng.randrange(2, 6)
        els = [F9.elements[rng.randrange(1, 9)] for _ in range(n)]
        ds = defining_set(F9, els)
        multiples = any(
            els[i] * c == els[j]
            for i in range(n)
            for j in range(n)
            for c in range(1, 3)
            if i != j
        )
        d = dual(second_generic(ds))
        if d.k == 0:
            assert not multiples
            continue
        dd = min_distance(d)
        assert (dd >= 3) == (not multiples)


def test_skew_code_one_weight_via_character_formula():
    # (p-1) q / (2 p) for every nonzero codeword
    for field in (F9, make_field(5, 1), make_field(7, 1)):
        code = second_generic(make_skew_set(field))
        wd = weight_distribution(code)
        expected = (field.p - 1) * field.q // (2 * field.p)
        assert set(wd.counts) == {0, expected}
