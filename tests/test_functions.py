import random
import time

import pytest

from walshcodes.algebra import CyclotomicInt, gauss_sum_power, make_field, zeta
from walshcodes.codes import DEFAULT_GUARD
from walshcodes.errors import (
    ExponentOverflow,
    NotWeaklyRegular,
    ParseError,
    TooLarge,
    UndefinedSymbol,
    WrongCodomain,
)
from walshcodes.functions import (
    BentKind,
    ParyFunction,
    classify_bent,
    differential_uniformity,
    parse_function,
    verify_dual_relation,
    walsh_transform,
)

F3 = make_field(3, 1)
F9 = make_field(3, 2)
F16 = make_field(2, 4)
F25 = make_field(5, 2)


def boolean_quadratic(field):
    m = field.m

    def fn(x):
        return field.scalar(sum(x.coeffs[i] * x.coeffs[i + 1] for i in range(0, m - 1, 2)))

    return ParyFunction.from_callable(field, fn, 1)


# --- parsing -----------------------------------------------------------------


def test_parse_monomial():
    f = parse_function(F9, "x^6")
    assert f.codomain_degree == 2
    assert all(f(x) == x ** 6 for x in F9.elements)


def test_parse_trace_wrapped():
    g = parse_function(F9, "tr(x^2)")
    assert g.codomain_degree == 1
    assert g.exponents() == (0, 2, 2, 1, 0, 0, 1, 0, 0)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_function(F9, "x^")
    with pytest.raises(ParseError):
        parse_function(F9, "")
    with pytest.raises(UndefinedSymbol):
        parse_function(F9, "y + 1")
    with pytest.raises(ExponentOverflow):
        parse_function(F9, "x^10000000")


def test_parse_arithmetic_and_generator():
    f = parse_function(F9, "2*x^2 + g*x + 1")
    g = F9.generator()
    assert all(f(x) == x * x * 2 + g * x + F9.one for x in F9.elements)


def test_named_families():
    q = parse_function(F9, "quadratic(1,1)")
    ref = parse_function(F9, "tr(x^4)")
    assert q.table == ref.table
    t = parse_function(F9, "ternary_half(1,3)")
    ref2 = parse_function(F9, "tr(x^14)")
    assert t.table == ref2.table
    with pytest.raises(ParseError):
        parse_function(F16, "ternary_half(1,1)")


def test_from_callable_codomain_detection():
    f = ParyFunction.from_callable(F9, lambda x: x ** 4)
    assert f.codomain_degree == 1  # fourth powers of GF(9) are 0, 1, 2


# --- Walsh transform ---------------------------------------------------------


def test_walsh_of_zero_function():
    sp = walsh_transform(parse_function(F9, "0"))
    assert sp.coefficients[0] == CyclotomicInt.from_int(3, 9)
    assert all(sp.coefficients[i].is_zero() for i in range(1, 9))


def test_walsh_of_quadratic_on_prime_field():
    sp = walsh_transform(parse_function(F3, "tr(x^2)"))
    assert sp.coefficients[0] == CyclotomicInt(3, [1, 2, 0])
    assert sp.coefficients[0].abs_squared() == CyclotomicInt.from_int(3, 3)


def test_walsh_needs_prime_values():
    with pytest.raises(WrongCodomain):
        walsh_transform(parse_function(F9, "x^2"))


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2)])
def test_parseval_random_tables(p, m):
    field = make_field(p, m)
    rng = random.Random(p * m)
    for _ in range(20):
        table = [field.scalar(rng.randrange(p)) for _ in range(field.q)]
        sp = walsh_transform(ParyFunction(field, table, 1))
        total = sp.parseval_sum()
        assert total == CyclotomicInt.from_int(p, field.q ** 2)


def test_character_orthogonality_exhaustive():
    # chi_hat of the zero function is q at 0 and 0 elsewhere
    for p, m in ((2, 2), (3, 2), (5, 2), (2, 4), (5, 1), (3, 3)):
        field = make_field(p, m)
        sp = walsh_transform(ParyFunction(field, [field.zero] * field.q, 1))
        assert sp.coefficients[0] == CyclotomicInt.from_int(p, field.q)
        assert all(c.is_zero() for c in sp.coefficients[1:])


def test_spectrum_translation_under_linear_shift():
    # adding Tr(cx) translates the spectrum: chi_{f + Tr(cx)}(b) = chi_f(b - c)
    rng = random.Random(12)
    for field in (F9, F16):
        table = [field.scalar(rng.randrange(field.p)) for _ in range(field.q)]
        f = ParyFunction(field, table, 1)
        base = walsh_transform(f)
        for c in field.elements[1:3]:
            shifted_table = [
                field.scalar((f(x).as_prime_int() + field.trace_bilinear(c, x)) % field.p)
                for x in field.elements
            ]
            shifted = walsh_transform(ParyFunction(field, shifted_table, 1))
            for b in field.elements:
                assert shifted[b] == base[b - c]


# --- bent classification -----------------------------------------------------


def test_classify_quadratic_f9():
    cls = classify_bent(walsh_transform(parse_function(F9, "tr(x^2)")))
    assert cls.is_weakly_regular()
    assert cls.epsilon == -1 and cls.unit == "1"
    gm = gauss_sum_power(3, 2)
    sp = walsh_transform(parse_function(F9, "tr(x^2)"))
    for b in F9.elements:
        expected = gm * zeta(3, cls.dual(b).as_prime_int())
        assert sp[b] == (expected if cls.epsilon == 1 else -expected)


def test_classify_linear_not_bent():
    cls = classify_bent(walsh_transform(parse_function(F9, "tr(g*x)")))
    assert cls.kind is BentKind.NOT_BENT
    assert cls.dual is None and cls.epsilon is None


def test_classify_boolean_quadratic():
    sp = walsh_transform(boolean_quadratic(F16))
    assert {c.as_int() for c in sp.coefficients} == {4, -4}
    cls = classify_bent(sp)
    assert cls.kind is BentKind.REGULAR and cls.epsilon == 1


def test_classify_odd_degree_unit():
    # units for odd degree over p = 3 mod 4 are imaginary
    f27 = make_field(3, 3)
    cls = classify_bent(walsh_transform(parse_function(f27, "tr(x^4)")))
    assert cls.is_weakly_regular()
    assert cls.unit in ("i", "-i")


def test_classify_f25_quadratic():
    cls = classify_bent(walsh_transform(parse_function(F25, "tr(x^2)")))
    assert cls.is_weakly_regular()
    assert cls.unit in ("1", "-1")


@pytest.mark.parametrize(
    "p,m,real_unit",
    [(5, 3, True), (7, 2, True), (13, 1, True), (3, 5, False), (3, 3, False), (3, 2, True)],
)
def test_unit_case_table(p, m, real_unit):
    # real units for even m or p = 1 mod 4, imaginary for odd m and p = 3 mod 4
    field = make_field(p, m)
    cls = classify_bent(walsh_transform(parse_function(field, "tr(x^2)")))
    assert cls.is_weakly_regular()
    assert (cls.unit in ("1", "-1")) == real_unit
    assert (cls.unit in ("i", "-i")) == (m % 2 == 1 and p % 4 == 3)


def test_reconstruction_exact_for_weakly_regular():
    for field, spec in ((F9, "tr(x^2)"), (F25, "tr(x^2)"), (make_field(3, 3), "tr(x^4)")):
        sp = walsh_transform(parse_function(field, spec))
        cls = classify_bent(sp)
        gm = gauss_sum_power(field.p, field.m)
        for b in field.elements:
            expected = gm * zeta(field.p, cls.dual(b).as_prime_int())
            if cls.epsilon == -1:
                expected = -expected
            assert sp[b] == expected


def test_squared_unit_relation_for_imaginary_units():
    # when the unit is imaginary, -chi^2 = p^m * zeta^(2 dual)
    f27 = make_field(3, 3)
    sp = walsh_transform(parse_function(f27, "tr(x^4)"))
    cls = classify_bent(sp)
    assert cls.unit in ("i", "-i")
    for b in f27.elements:
        lhs = -(sp[b] * sp[b])
        rhs = CyclotomicInt.from_int(3, 27) * zeta(3, 2 * cls.dual(b).as_prime_int())
        assert lhs == rhs


def test_verify_dual_relation_f9_f25():
    for field in (F9, F25):
        g = parse_function(field, "tr(x^2)")
        cls = classify_bent(walsh_transform(g))
        rep = verify_dual_relation(g, cls)
        assert rep["all_pass"] and len(rep["per_point"]) == field.q


def test_verify_dual_relation_requires_weak_regularity():
    g = parse_function(F9, "0")
    cls = classify_bent(walsh_transform(g))
    with pytest.raises(NotWeaklyRegular):
        verify_dual_relation(g, cls)


def test_spectrum_and_truth_table_take_only_their_own_elements():
    f = parse_function(F16, "tr(g*x^3)")
    spectrum = walsh_transform(f)
    x = F16.elements[7]
    assert f(x) == f.table[7] and spectrum[x] == spectrum.coefficients[7]
    assert ParyFunction(F16, f.table) == f
    for bad in (make_field(2, 3).elements[7], make_field(2, 5).one, 7, 0, True, None, "x"):
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            spectrum[bad]
        # the constructor would otherwise read the index of any entry
        with pytest.raises(ValueError):
            ParyFunction(F16, f.table[:7] + (bad,) + f.table[8:])
        with pytest.raises(ValueError):
            ParyFunction(F16, [bad] * 16, 4)


# --- differential uniformity -------------------------------------------------


def test_uniformity_examples():
    assert differential_uniformity(parse_function(F16, "x^3")) == 2
    assert differential_uniformity(parse_function(F9, "x^2")) == 1
    assert differential_uniformity(parse_function(F9, "x^3")) == 9  # Frobenius


def test_odd_uniformity_refuses_past_the_guard():
    """Odd p counts q^2 additions and refuses more than the guard before
    the first; p = 2 runs on packed words and takes no guard."""
    with pytest.raises(TooLarge, match="^81 additions exceed the guard 80$"):
        differential_uniformity(parse_function(F9, "x^2"), guard=80)
    assert differential_uniformity(parse_function(F9, "x^2"), guard=81) == 1
    assert differential_uniformity(parse_function(F16, "x^3"), guard=1) == 2
    field = make_field(3, 7)  # q^2 = 4 782 969 > 2^22, the default guard
    f = parse_function(field, "x^2")
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"^{field.q ** 2} additions exceed the guard {2 ** 22}$"):
        differential_uniformity(f, guard=DEFAULT_GUARD)
    assert time.perf_counter() - start < 1  # the loop would take seconds


def test_uniformity_needs_self_map():
    with pytest.raises(WrongCodomain):
        differential_uniformity(parse_function(F9, "tr(x)"))


def test_pn_derivatives_are_bijections():
    f = parse_function(F9, "x^2")
    assert differential_uniformity(f) == 1
    for a in F9.elements[1:]:
        image = {(f(x + a) - f(x)).index for x in F9.elements}
        assert len(image) == 9
