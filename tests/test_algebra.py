import itertools
import random

import pytest

import walshcodes.algebra as algebra
from walshcodes.algebra import (
    CyclotomicInt,
    cyclo_canonicalize,
    gauss_sum_power,
    make_field,
    p_star,
    parse_field_spec,
    quadratic_gauss_sum,
    subfield,
    trace,
    trace_kernel,
    zeta,
)
from walshcodes.errors import (
    DegreeMismatch,
    EvenCharacteristic,
    FieldTooLarge,
    InvariantViolated,
    NotASubfield,
    NotPrime,
    ReducibleModulus,
)


def test_prime_field_elements():
    f3 = make_field(3, 1)
    assert [e.index for e in f3.elements] == [0, 1, 2]


def test_default_modulus_f9_is_x2_plus_1():
    # -1 is a non-square mod 3, so x^2 + 1 is the first irreducible
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(3, 2, [1, 0, 1]) is make_field(3, 2)


def test_default_modulus_is_searched_once(monkeypatch):
    from walshcodes import algebra

    calls = []
    check = algebra._modulus_is_irreducible

    def counted(modulus, p, m):
        calls.append(modulus)
        return check(modulus, p, m)

    monkeypatch.setattr(algebra, "_modulus_is_irreducible", counted)
    first = make_field(7, 3)
    calls.clear()
    assert make_field(7, 3) is first
    assert calls == []
    # an explicit modulus is still validated on every call
    assert make_field(7, 3, first.modulus) is first
    assert calls
    with pytest.raises(ReducibleModulus):
        make_field(7, 3, [0, 0, 0, 1])


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [2, 0, 1])  # x^2 + 2 has the root 1


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(DegreeMismatch):
        make_field(3, 0)
    with pytest.raises(DegreeMismatch):
        make_field(3, 2, [1, 1])
    with pytest.raises(FieldTooLarge):
        make_field(2, 21)


def test_field_spec_roundtrip():
    f = parse_field_spec("p=3,m=2,poly=1,0,1")
    assert f is make_field(3, 2)
    assert parse_field_spec("p=5,m=1") is make_field(5, 1)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 1), (2, 9), (3, 5)])
def test_field_axioms_exhaustive(p, m):
    field = make_field(p, m)
    els = field.elements
    rng = random.Random(p * 100 + m)
    triples = (
        itertools.product(els, repeat=3)
        if field.q ** 3 <= 512 ** 1.5
        else [(rng.choice(els), rng.choice(els), rng.choice(els)) for _ in range(300)]
    )
    for a, b, c in triples:
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els[1:]:
        assert a * a ** (-1) == field.one


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (3, 3), (5, 2)])
def test_trace_linearity_and_frobenius_invariance(p, m):
    field = make_field(p, m)
    for x in field.elements:
        for y in field.elements:
            assert trace(field, x) + trace(field, y) == trace(field, x + y)
        assert trace(field, x ** p) == trace(field, x)


def test_trace_examples_f9():
    f9 = make_field(3, 2)
    w = f9.element([0, 1])
    assert trace(f9, f9.one) == f9.scalar(2)
    assert trace(f9, w) == f9.zero
    assert sum(1 for x in f9.elements if trace(f9, x).is_zero()) == 3


def test_relative_trace_lands_in_subfield():
    f16 = make_field(2, 4)
    for x in f16.elements:
        t = trace(f16, x, 2)
        assert t ** 4 == t
    with pytest.raises(NotASubfield):
        trace(f16, f16.one, 3)


@pytest.mark.parametrize("p,m", [(3, 2), (2, 3), (5, 2), (3, 3), (2, 4), (3, 6), (2, 9)])
def test_trace_kernel_size_and_shape(p, m):
    field = make_field(p, m)
    kernel = trace_kernel(field)  # cross-checks {a^p - a} internally
    assert len(kernel) == p ** (m - 1)


def test_trace_kernel_f9_explicit():
    f9 = make_field(3, 2)
    w = f9.element([0, 1])
    assert set(trace_kernel(f9)) == {f9.zero, w, w * 2}


def test_subfield_embedding_is_field_morphism():
    f16 = make_field(2, 4)
    sub, embed, project = subfield(f16, 2)
    assert sub.q == 4 and len(project) == 4
    for a in sub.elements:
        for b in sub.elements:
            assert embed[a] + embed[b] == embed[a + b]
            assert embed[a] * embed[b] == embed[a * b]


# --- cyclotomic integers ----------------------------------------------------


def test_canonicalization_kills_full_orbit():
    assert cyclo_canonicalize(3, [1, 1, 1]).is_zero()
    assert cyclo_canonicalize(5, [2, 2, 2, 2, 2]).is_zero()


def test_canonical_form_idempotent_and_unique():
    a = CyclotomicInt(5, [3, 1, 4, 1, 5])
    b = CyclotomicInt(5, list(a.coeffs))
    assert a == b and a.coeffs[4] == 0


def test_product_example_p3():
    a = CyclotomicInt(3, [1, 2, 0])
    b = CyclotomicInt(3, [1, 0, 2])
    assert a * b == CyclotomicInt.from_int(3, 3)


def test_conjugation():
    a = CyclotomicInt(3, [1, 2, 0])
    assert a.conjugate() == CyclotomicInt(3, [1, 0, 2])
    assert a.conjugate().conjugate() == a


def test_gauss_sum_p3():
    g = quadratic_gauss_sum(3)
    assert g == CyclotomicInt(3, [1, 2, 0])  # 1 + 2*zeta
    assert g * g == CyclotomicInt.from_int(3, -3)


def test_gauss_sum_p5():
    g = quadratic_gauss_sum(5)
    assert g == cyclo_canonicalize(5, [1, 2, 0, 0, 2])  # 1 + 2z + 2z^4
    assert g * g == CyclotomicInt.from_int(5, 5)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_squares_to_p_star(p):
    g = gauss_sum_power(p, 1)
    assert g * g == CyclotomicInt.from_int(p, p_star(p))


def test_gauss_sum_power_consistency():
    for p in (3, 5, 7):
        g = gauss_sum_power(p, 1)
        assert gauss_sum_power(p, 3) == g * g * g


def test_gauss_sum_power_is_computed_and_checked_once_per_field(monkeypatch):
    gauss_sum_power.cache_clear()
    monkeypatch.setattr(algebra, "p_star", lambda p: p + 1)
    with pytest.raises(InvariantViolated):  # the first computation squares G
        gauss_sum_power(5, 2)
    monkeypatch.undo()
    g = gauss_sum_power(5, 2)
    assert gauss_sum_power(5, 2) is g
    assert g == cyclo_canonicalize(5, [1, 2, 0, 0, 2]) ** 2  # test_gauss_sum_p5's G, squared
    assert gauss_sum_power(3, 1) is gauss_sum_power(3, 1) == CyclotomicInt(3, [1, 2, 0])


def test_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        gauss_sum_power(2, 1)


def test_abs_squared_of_character_sums_is_rational():
    rng = random.Random(9)
    for p in (3, 5, 7):
        for _ in range(40):
            a = CyclotomicInt(p, [rng.randrange(-4, 5) for _ in range(p)])
            sq = a.abs_squared()
            assert sq == sq.conjugate()
    # Walsh-style sums of roots of unity have rational integer |a|^2
    for p in (3, 5):
        for _ in range(40):
            exps = [rng.randrange(p) for _ in range(6)]
            a = CyclotomicInt.zero(p)
            for e in exps:
                a = a + zeta(p, e)
            prod = a.abs_squared()
            assert prod == prod.conjugate()


def test_pow_and_zero():
    z = zeta(7, 3)
    assert z ** 7 == CyclotomicInt.from_int(7, 1)
    assert CyclotomicInt.zero(7).is_zero()
