"""Differential tests of the table-driven arithmetic and spectral path.

Each fast route is compared with the reference it replaced, which lives
here as a test oracle: the coefficient arithmetic of F_{p^m} (the product
is the polynomial convolution reduced by the modulus), the O(q^2) Walsh
loop, the list passes of the FWHT (layered, and the binary butterflies)
that the packed-int kernel replaced, the fixed-width packed passes that the
widening transform replaced, the per-point loop that wrote its input planes
before they were translated, the per-coefficient bent classification,
the per-layer list route of the Walsh transform that packing straight from
the truth table replaced, the p^2-product Parseval sum, the pairwise
additivity check of affine functions, the closure evaluator of the function
mini-language, square-and-multiply powers, the Frobenius-sum trace and the
order-counting generator search.
The element operators and the elimination kernel share one set of index
tables, so this file is also what makes the oracle of
tests/test_elimination.py independent.
"""

import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul, sub, xor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walshcodes import _packed
from walshcodes._packed import bias_word, digit_steps, field_width, pack, transform, unpack
from walshcodes.algebra import CyclotomicInt, IndexArith, gauss_sum_power, is_prime, make_field, trace
from walshcodes.errors import ExponentOverflow, InvariantViolated, ParseError, UndefinedSymbol
from walshcodes.functions import (
    EXPONENT_CAP,
    BentClass,
    BentKind,
    ParyFunction,
    WalshSpectrum,
    _tokenize,
    _unit_tag,
    classify_bent,
    differential_uniformity,
    parse_function,
    walsh_transform,
)


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if is_prime(p):
            m = 1
            while p ** m <= limit:
                out.append((p, m))
                m += 1
    return sorted(out, key=lambda pm: pm[0] ** pm[1])


SMALL = _prime_powers(27)
WIDE = [(2, 8), (3, 5), (5, 3)]
UP_TO_1024 = _prime_powers(2 ** 10)


def _ids(fields):
    return [f"GF({p}^{m})" for p, m in fields]


# -- oracles --------------------------------------------------------------------


def walsh_oracle(f):
    """The O(q^2) loop: chi_hat(b) = sum over x of zeta^(f(x) - Tr(bx))."""
    field = f.field
    p = field.p
    fints = f.exponents()
    coeffs = []
    for b in field.elements:
        counts = [0] * p
        for x in field.elements:
            counts[(fints[x.index] - field.trace_bilinear(b, x)) % p] += 1
        coeffs.append(CyclotomicInt(p, counts))
    return coeffs


def walsh_list_route(f):
    """The route that walsh_transform replaced: p indicator lists (one +/-1
    list at p = 2) through the list interface of the FWHT, each canonical
    layer read at the Gram contraction of every b."""
    field = f.field
    p = field.p
    fints = f.exponents()
    dual = field.trace_dual_indices()
    if p == 2:
        (w,) = packed_fwht([[1 - 2 * v for v in fints]], 2, field.m)
        return (list(map(w.__getitem__, dual)),)
    *layers, last = packed_fwht([[int(v == e) for v in fints] for e in range(p)], p, field.m)
    return tuple([layer[u] - last[u] for u in dual] for layer in layers)


def parseval_oracle(layers, p):
    """All the products: coefficient d of the sum of |c|^2 sums
    <layer i, layer j> over every i, j in [0, p) with i - j = d mod p, the
    layer p - 1 being zero."""
    q = len(layers[0])
    full = list(layers) + [[0] * q]
    coeffs = [0] * p
    for i in range(p):
        for j in range(p):
            coeffs[(i - j) % p] += sum(map(mul, full[i], full[j]))
    return CyclotomicInt(p, coeffs)


def fwht_oracle(layers, p, m):
    """The layered p-ary FWHT for every p, p = 2 included, where it moves the
    two layers of zeta^0 and zeta^1 through every pass."""
    q = p ** m
    n = q // p
    for _ in range(m):
        blocks = [[layer[x * n:(x + 1) * n] for x in range(p)] for layer in layers]
        new = [[0] * q for _ in range(p)]
        for u in range(p):
            for e in range(p):
                acc = blocks[e][0]
                for x in range(1, p):
                    acc = list(map(add, acc, blocks[(e + u * x) % p][x]))
                new[e][u::p] = acc
        layers = new
    return layers


def binary_fwht_oracle(w, m):
    """The (a + b, a - b) butterflies of the binary Walsh-Hadamard transform
    on one integer list, one list pass per digit (constant geometry)."""
    q = 2 ** m
    n = q // 2
    for _ in range(m):
        lo, hi = w[:n], w[n:]
        w = [0] * q
        w[0::2] = map(add, lo, hi)
        w[1::2] = map(sub, lo, hi)
    return w


def binary_passes(word, width, m):
    """The m (a + b, a - b) butterfly passes on 2^m fields of ``width``
    bytes, each holding its value plus the bias B = 2^(8 width - 1), every
    pass at that one width: the fixed-width passes that
    _packed.transform replaced.

    Field v of pass i pairs with field v + 2^i: with t and M that digit's
    step, lo + d and lo - d, for lo = word & M and d = ((word >> t) & M) - B
    per field, are (a + B) + (b + B) - B and (a + B) - (b + B) + B."""
    bias = bias_word(width, 1 << m)
    for t, mask in digit_steps(width, 2, m):
        d = ((word >> t) & mask) - (bias & mask)
        word &= mask
        word = (word + d) | ((word - d) << t)
    return word


def odd_passes(words, width, p, m):
    """The m passes on p layers of p^m unsigned fields of ``width`` bytes,
    ``words[e]`` holding the coefficient of zeta^e at vector v in field v,
    every pass at that one width, which holds the total mass of the input:
    the fixed-width passes that _packed.transform replaced."""
    for t, mask in digit_steps(width, p, m):
        blocks = [[(word >> x * t) & mask for x in range(p)] for word in words]
        words = []
        for e in range(p):
            word = 0
            for u in range(p):
                acc = blocks[e][0]
                for x in range(1, p):
                    acc += blocks[(e + u * x) % p][x]
                word |= acc << u * t
            words.append(word)
    return words


def fixed_width_transform(layers, width, p, m):
    """What _packed.transform returns, for the same input given as lists
    (at p = 2 the one list N, at odd p the p unsigned layers), with every
    pass at ``width``, the width of the output: the canonical layers of
    the fixed-width passes, formed on the packed words."""
    q = p ** m
    bias = bias_word(width, q)
    if p == 2:
        (word,) = pack(layers, width, signed=True)
        return [binary_passes(word ^ bias, width, m) ^ bias]
    *words, last = odd_passes(pack(layers, width), width, p, m)
    return [(word + bias - last) ^ bias for word in words]


def packed_fwht(layers, p, m):
    """F(u) = sum over v of N(v) zeta^(-<v, u>) for every u in F_p^m, for
    N(v) in Z[zeta_p] given as ``layers[e][v]``, through the packed passes.
    At odd p fewer than p layers may be given, the missing ones being zero.

    The result has p layers in the same layout; nothing is canonicalised, so
    ``F[e][u]`` sums N over the v with -<v, u> = e, layer by layer.  The
    tests run the passes through this list interface: the field width is
    the fewest bytes that hold the input's total mass, the sum of every
    |entry|, which bounds every partial sum, so no field carries.
    Negative entries at odd p are shifted up by one constant first, which
    adds that constant times q to every output; a missing layer is then
    that constant in every field.  At p = 2, Z[zeta_2] = Z: ``layers`` is
    the one integer list N, and one more bit goes into the width for the
    bias of ``binary_passes``."""
    q = p ** m
    if p == 2:
        (w,) = layers
        mass = sum(map(abs, w))
    else:
        low = min(0, *map(min, layers))
        if low:
            layers = [[v - low for v in layer] for layer in layers]
        missing = p - len(layers)
        mass = sum(map(sum, layers)) - missing * low * q
    width = field_width(mass.bit_length() + (p == 2))
    if p == 2:
        bias = bias_word(width, q)
        (word,) = pack([w], width, signed=True)
        return unpack([binary_passes(word ^ bias, width, m) ^ bias], width, q, signed=True)
    pad = int.from_bytes((-low).to_bytes(width, "little") * q, "little") if low else 0
    words = odd_passes(pack(layers, width) + [pad] * missing, width, p, m)
    out = list(map(list, unpack(words, width, q)))
    return [[v + low * q for v in layer] for layer in out] if low else out


def classify_oracle(spectrum, gauss=gauss_sum_power):
    """The per-coefficient loops: |c|^2 = q for every c, then a search of
    the 2p values +/- G^m zeta^e for each c in turn."""
    field = spectrum.field
    p, m, q = field.p, field.m, field.q
    target = CyclotomicInt.from_int(p, q)
    for c in spectrum.coefficients:
        if c.abs_squared() != target:
            return BentClass(BentKind.NOT_BENT)
    if p == 2:
        exps = [0 if c.as_int() > 0 else 1 for c in spectrum.coefficients]
        dual = ParyFunction(field, [field.scalar(e) for e in exps], 1)
        return BentClass(BentKind.REGULAR, 1, "1", dual)
    gm = gauss(p, m)
    candidates = [gm * CyclotomicInt.zeta_power(p, e) for e in range(p)]
    signs, exps = [], []
    for c in spectrum.coefficients:
        found = None
        for e, cand in enumerate(candidates):
            if c == cand:
                found = (1, e)
                break
            if c == -cand:
                found = (-1, e)
                break
        if found is None:
            raise InvariantViolated(f"bent coefficient {c!r} is not +/- G^m * zeta^e")
        signs.append(found[0])
        exps.append(found[1])
    if len(set(signs)) != 1:
        return BentClass(BentKind.NON_WEAKLY_REGULAR)
    unit = _unit_tag(p, m, signs[0])
    kind = BentKind.REGULAR if unit == "1" else BentKind.WEAKLY_REGULAR
    return BentClass(kind, signs[0], unit, ParyFunction(field, [field.scalar(e) for e in exps], 1))


def _combine(a, b, op):
    if op == "+":
        return lambda x: a(x) + b(x)
    if op == "-":
        return lambda x: a(x) - b(x)
    return lambda x: a(x) * b(x)


class ClosureParser:
    """The per-point evaluator: each node of the mini-language becomes a
    closure over field elements, called once per point."""

    def __init__(self, field, tokens):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of function spec")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = _combine(node, self.term(), op)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = _combine(node, self.factor(), "*")
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            inner = self.factor()
            return lambda x: -inner(x)
        node = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.integer()
            node = (lambda a, ee: lambda x: a(x) ** ee)(node, e)
        return node

    def integer(self):
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}")
        val = int(tok)
        if val > EXPONENT_CAP:
            raise ExponentOverflow(f"exponent {val} exceeds cap {EXPONENT_CAP}")
        return val

    def atom(self):
        field = self.field
        tok = self.take()
        if tok.isdigit():
            val = field.scalar(int(tok))
            return lambda x: val
        if tok == "x":
            return lambda x: x
        if tok == "g":
            gen = field.generator()
            return lambda x: gen
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "tr":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return self._trace_of(inner)
        if tok == "quadratic":
            c, i = self._family_args()
            e = field.p ** i + 1
            return self._trace_of(lambda x: c * x ** e)
        if tok == "ternary_half":
            if field.p != 3:
                raise ParseError("ternary_half needs characteristic 3")
            c, i = self._family_args()
            e = (3 ** i + 1) // 2
            return self._trace_of(lambda x: c * x ** e)
        if tok.isidentifier():
            raise UndefinedSymbol(f"unknown symbol {tok!r}")
        raise ParseError(f"unexpected token {tok!r}")

    def _trace_of(self, inner):
        elements, trace_int = self.field.elements, self.field.trace_int
        return lambda x: elements[trace_int(inner(x))]

    def _family_args(self):
        self.take("(")
        c_node = self.expr()
        self.take(",")
        i = self.integer()
        self.take(")")
        c = c_node(self.field.zero)
        if c != c_node(self.field.one):
            raise ParseError("family coefficient must be a constant")
        return c, i


def parse_oracle(field, spec):
    """(truth table, codomain degree) from the closure evaluator, the
    degree being the least s dividing m with v^(p^s) = v for every value."""
    tokens = _tokenize(spec)
    if not tokens:
        raise ParseError("empty function spec")
    node = ClosureParser(field, tokens).parse()
    table = tuple(node(x) for x in field.elements)
    degree = next(
        s for s in range(1, field.m + 1)
        if field.m % s == 0 and all(field._pow(v, field.p ** s) == v for v in table)
    )
    return table, degree


@lru_cache(maxsize=None)
def _reduction(field):
    """x^k mod the modulus, as coefficient vectors, for k in [m, 2m-2]."""
    p, m = field.p, field.m
    red = []
    cur = tuple((-c) % p for c in field.modulus[:m])  # x^m
    for _ in range(m, 2 * m - 1):
        red.append(cur)
        nxt = [0] * m
        for i, c in enumerate(cur):
            if c == 0:
                continue
            if i + 1 < m:
                nxt[i + 1] = (nxt[i + 1] + c) % p
            else:
                hi = red[0]
                for j in range(m):
                    nxt[j] = (nxt[j] + c * hi[j]) % p
        cur = tuple(nxt)
    return red


def mul_oracle(field, a, b):
    """The coefficient convolution, reduced by the modulus."""
    p, m = field.p, field.m
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    out = [c % p for c in conv[:m]]
    for k in range(m, 2 * m - 1):
        c = conv[k] % p
        if c == 0:
            continue
        row = _reduction(field)[k - m]
        for j in range(m):
            out[j] = (out[j] + c * row[j]) % p
    return field.element(out)


def add_oracle(field, a, b):
    return field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])


def neg_oracle(field, a):
    return field.element([-x for x in a.coeffs])


def pow_oracle(field, a, e):
    """Square-and-multiply over the coefficient convolution."""
    if e < 0:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        a = pow_oracle(field, a, field.q - 2)
        e = -e
    result = field.one
    while e:
        if e & 1:
            result = mul_oracle(field, result, a)
        a = mul_oracle(field, a, a)
        e >>= 1
    return result


def generator_oracle(field):
    """First element, in index order, whose multiplicative order is q - 1."""
    for e in field.elements[1:]:
        x, order = e, 1
        while x != field.one:
            x = mul_oracle(field, x, e)
            order += 1
        if order == field.q - 1:
            return e


# -- element arithmetic -----------------------------------------------------------


def _assert_same_arithmetic(field, a, b, k):
    """Every operator on the pair (a, b) and on a with the int k."""
    assert a + b == add_oracle(field, a, b), (a, b)
    assert a - b == add_oracle(field, a, neg_oracle(field, b)), (a, b)
    assert -a == neg_oracle(field, a), a
    assert a * b == mul_oracle(field, a, b), (a, b)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert a / b == mul_oracle(field, a, pow_oracle(field, b, -1)), (a, b)
    kk = field.scalar(k)
    assert a + k == k + a == add_oracle(field, a, kk), (a, k)
    assert a - k == add_oracle(field, a, neg_oracle(field, kk)), (a, k)
    assert a * k == k * a == mul_oracle(field, a, kk), (a, k)
    if k % field.p:
        assert a / k == mul_oracle(field, a, pow_oracle(field, kk, -1)), (a, k)
    for e in (-1, 0, 1, 2, field.p, field.q):
        if not (a.is_zero() and e < 0):
            assert a ** e == pow_oracle(field, a, e), (a, e)


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_operators_match_coefficient_arithmetic(pm):
    field = make_field(*pm)
    for a in field.elements:
        for b in field.elements:
            _assert_same_arithmetic(field, a, b, a.index - b.index)


@pytest.mark.parametrize("pm", WIDE, ids=_ids(WIDE))
def test_operators_match_coefficient_arithmetic_hypothesis(pm):
    field = make_field(*pm)
    index = st.integers(0, field.q - 1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(index, index, st.integers(-3 * field.p, 3 * field.p))
    def check(i, j, k):
        _assert_same_arithmetic(field, field.elements[i], field.elements[j], k)

    check()


def test_operators_reject_foreign_operands():
    a, b = make_field(2, 2).one, make_field(2, 3).one
    for op in (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y,
    ):
        with pytest.raises(ValueError):
            op(a, b)
        for junk in (1.5, "x", None):
            with pytest.raises(TypeError):
                op(a, junk)


# -- Walsh transform --------------------------------------------------------------


def _assert_same_spectrum(f):
    spectrum = walsh_transform(f)
    oracle = walsh_oracle(f)
    # the layers are the canonical coefficients without c_{p-1}
    assert spectrum.layers == tuple([c.coeffs[e] for c in oracle] for e in range(f.field.p - 1))
    assert spectrum.coefficients == tuple(oracle)
    return spectrum


# every field with q <= 3^5, GF(11^2) and GF(13^2) included, but the primes
# past 40 (at m = 1 a transform is about p^3 additions), and larger fields
LIST_ROUTE_FIELDS = [(p, m) for p, m in _prime_powers(3 ** 5) if m > 1 or p < 40]
LIST_ROUTE_FIELDS += [(2, 10), (2, 12), (3, 7)]
# a field holds q and a sign bit: one byte up to q = 127, two up to 32767
WIDTH_SWITCH_FIELDS = [(2, 6), (2, 7), (5, 3), (3, 5), (2, 14), (2, 15), (3, 9), (3, 10)]


def _random_function(field, rng):
    return ParyFunction.from_indices(field, [rng.randrange(field.p) for _ in range(field.q)], 1)


def _assert_same_as_list_route(f):
    spectrum = walsh_transform(f)
    assert spectrum.layers == walsh_list_route(f)
    assert all(type(layer) is list for layer in spectrum.layers)
    return spectrum


@pytest.mark.parametrize("pm", LIST_ROUTE_FIELDS, ids=_ids(LIST_ROUTE_FIELDS))
def test_walsh_transform_matches_list_route(pm):
    field = make_field(*pm)
    rng = random.Random(field.q + 1)
    for _ in range(3):
        _assert_same_as_list_route(_random_function(field, rng))
    # a function taking one value: the spectrum is q or -q at 0, else 0
    for v in (0, field.p - 1):
        _assert_same_as_list_route(ParyFunction.from_indices(field, [v] * field.q, 1))


@pytest.mark.parametrize("pm", WIDTH_SWITCH_FIELDS, ids=_ids(WIDTH_SWITCH_FIELDS))
def test_walsh_transform_on_both_sides_of_each_width_switch(pm):
    """The constant functions reach the extreme coefficients q and -q, which
    a field one bit too narrow would wrap or carry into its neighbour."""
    field = make_field(*pm)
    p, q = field.p, field.q
    for v in (0, p - 1):
        spectrum = _assert_same_as_list_route(ParyFunction.from_indices(field, [v] * q, 1))
        top = [-q] * (p - 1) if v == p - 1 else [q if e == v else 0 for e in range(p - 1)]
        assert [layer[0] for layer in spectrum.layers] == top
    _assert_same_as_list_route(_random_function(field, random.Random(q)))


# the primes past 40 at m <= 2 where the list route takes about a second at
# most (GF(101^2) would take minutes); fwht_oracle too while p <= 101
LARGE_P_FIELDS = [(31, 2), (101, 1), (211, 1)]


@pytest.mark.parametrize("pm", LARGE_P_FIELDS, ids=_ids(LARGE_P_FIELDS))
def test_walsh_transform_at_large_p_matches_list_route(pm):
    field = make_field(*pm)
    p, m, q = field.p, field.m, field.q
    f = _random_function(field, random.Random(q))
    spectrum = _assert_same_as_list_route(f)
    if p <= 101:
        *layers, last = fwht_oracle([[int(v == e) for v in f.exponents()] for e in range(p)], p, m)
        dual = field.trace_dual_indices()
        assert spectrum.layers == tuple([layer[u] - last[u] for u in dual] for layer in layers)


def test_walsh_transform_past_one_byte_values():
    """p = 257 at m = 1: the values of f do not fit a byte."""
    field = make_field(257, 1)
    rng = random.Random(257)
    f = ParyFunction.from_indices(field, [rng.choice((0, 1, 128, 255, 256)) for _ in range(257)], 1)
    spectrum = walsh_transform(f)
    oracle = walsh_oracle(f)
    assert spectrum.layers == tuple([c.coeffs[e] for c in oracle] for e in range(256))


HYPOTHESIS_FIELDS = [(2, 7), (3, 4), (5, 3), (7, 2), (13, 2)]


@pytest.mark.parametrize("pm", HYPOTHESIS_FIELDS, ids=_ids(HYPOTHESIS_FIELDS))
def test_walsh_transform_matches_list_route_hypothesis(pm):
    field = make_field(*pm)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.lists(st.integers(0, field.p - 1), min_size=field.q, max_size=field.q))
    def check(values):
        _assert_same_as_list_route(ParyFunction.from_indices(field, values, 1))

    check()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_parseval_sum_matches_every_product(p):
    """S_d = S_{p-d} holds for any integer layers, not only for spectra."""
    field = make_field(p, 1)
    rng = random.Random(p)
    for bound in (1, 1000, 10 ** 12):
        for n in (1, 3, 40):
            layers = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(p - 1)]
            assert WalshSpectrum(field, layers, None).parseval_sum() == parseval_oracle(layers, p)


def test_parseval_sum_matches_every_product_hypothesis():
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(
            st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4), min_size=p - 1, max_size=p - 1))))
    def check(case):
        p, layers = case
        assert WalshSpectrum(make_field(p, 1), layers, None).parseval_sum() == parseval_oracle(layers, p)

    check()


VALUE_TABLE_FIELDS = [(3, 5), (5, 3), (7, 3)]


@pytest.mark.parametrize("pm", VALUE_TABLE_FIELDS, ids=_ids(VALUE_TABLE_FIELDS))
def test_distinct_values_give_the_per_point_parseval_sum_and_classification(pm):
    """A bent spectrum takes at most 2p values, a random one nearly q: both
    ends of the distinct-value count, against the per-point oracles."""
    field = make_field(*pm)
    p, q = field.p, field.q
    rng = random.Random(q)
    functions = [parse_function(field, "tr(x^2)"), parse_function(field, "tr(g*x^2) + tr(g^5*x)")]
    functions += [_random_function(field, rng) for _ in range(3)]
    for k, f in enumerate(functions):
        spectrum = walsh_transform(f)
        distinct = len(set(zip(*spectrum.layers)))
        assert distinct <= 2 * p if k < 2 else distinct > q // 2
        assert spectrum.parseval_sum() == parseval_oracle(spectrum.layers, p) == CyclotomicInt.from_int(p, q * q)
        assert classify_bent(spectrum) == classify_oracle(spectrum)
        broken = _flip_signs(spectrum, [rng.randrange(q)])
        assert classify_bent(broken) == classify_oracle(broken)


@pytest.mark.parametrize("pm", [(3, 3), (5, 2), (7, 2)], ids=_ids([(3, 3), (5, 2), (7, 2)]))
def test_parseval_catches_one_point_of_a_shared_value(monkeypatch, pm):
    """A coefficient changed at one of the many points that share its value
    moves that point to a value class of its own, and Parseval fails."""
    from walshcodes import functions

    field = make_field(*pm)
    f = parse_function(field, "tr(x^2)")
    layers = walsh_transform(f).layers
    shared = Counter(zip(*layers))
    b = next(b for b, c in enumerate(zip(*layers)) if shared[c] > 1)
    good = functions._character_fwht

    def corrupted(*args):
        out = good(*args)
        out[-1][b] += 1
        return out

    monkeypatch.setattr(functions, "_character_fwht", corrupted)
    with pytest.raises(InvariantViolated, match="Parseval"):
        walsh_transform(f)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_malformed_layers_are_refused(p):
    field = make_field(p, 1)
    k = max(p - 1, 1)
    last = [[1, 2], [1, 2, 3, 4]] if k > 1 else []  # ragged
    last += [(1, 2, 3), [1, 2.0, 3], [1, "2", 3], [1, None, 3]]  # not integer lists
    for layers in [[[1, 2, 3]] * (k + 1), [[1, 2, 3]] * (k - 1), [[]] * k] + [[[1, 2, 3]] * (k - 1) + [v] for v in last]:
        with pytest.raises(ValueError):
            WalshSpectrum(field, layers, None)
    # p - 1 lists of one length and any number of points are a spectrum
    assert len(WalshSpectrum(field, [[1, 2, 3]] * k, None).coefficients) == 3


def test_coefficients_share_one_object_per_distinct_value():
    for pm, spec in (((2, 6), "tr(g*x^3)"), ((3, 4), "tr(x^2) + tr(g*x)"), ((7, 2), "tr(g^3*x^4)")):
        spectrum = walsh_transform(parse_function(make_field(*pm), spec))
        coefficients = spectrum.coefficients
        assert len({id(c) for c in coefficients}) == len(set(zip(*spectrum.layers))) < len(coefficients)
        assert coefficients == tuple(CyclotomicInt(pm[0], c) for c in zip(*spectrum.layers))


def test_from_indices_reads_no_element_until_the_table_is_read(monkeypatch):
    """A function given by indices is compared, hashed, copied, transformed
    and classified, with its dual, without one read of field.elements."""
    field = make_field(3, 3)
    elements = field.elements
    f = parse_function(field, "tr(x^2) + tr(g*x)")
    walsh_transform(f)  # the field's tables are built now, not below

    class Recorder:
        def __init__(self):
            self.reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return elements[i]

    recorder = Recorder()
    monkeypatch.setattr(field, "elements", recorder)
    g = ParyFunction.from_indices(field, f.indices)
    h = g.with_codomain(3)
    assert g == f == h and hash(g) == hash(f) and g.exponents() == f.indices
    assert classify_bent(walsh_transform(g)).dual.indices
    assert recorder.reads == 0
    assert g(elements[5]) is elements[f.indices[5]] and recorder.reads == 1
    assert g.table == tuple(elements[v] for v in f.indices) and recorder.reads == 1 + field.q
    assert h.table is g.table and recorder.reads == 1 + field.q


@pytest.mark.parametrize("m", range(1, 11))
def test_binary_fwht_is_the_difference_of_the_two_layer_transform(m):
    rng = random.Random(m)
    q = 2 ** m
    signs = [rng.choice((1, -1)) for _ in range(q)]
    counts = [rng.randrange(5) for _ in range(q)]
    for values in (signs, counts):
        even, odd = fwht_oracle([values, [0] * q], 2, m)
        assert packed_fwht([list(values)], 2, m) == [[a - b for a, b in zip(even, odd)]]


# at m = 1 a transform is about p^3 additions, so the large primes are left out
KERNEL = [(p, m) for p, m in _prime_powers(3 ** 5) if m > 1 or p < 40]
KERNEL += [(p, 0) for p in (2, 3, 5, 7)]
EDGE_FIELDS = [(2, 3), (2, 6), (3, 3), (5, 2)]
SIGNED_FIELDS = [(2, 1), (2, 4), (2, 9), (3, 1), (3, 4), (5, 2), (7, 2)]


def _assert_kernel_matches_oracles(layers, p, m):
    got = packed_fwht([list(layer) for layer in layers], p, m)
    if p == 2:
        (w,) = layers
        assert got == [binary_fwht_oracle(list(w), m)]
        even, odd = fwht_oracle([list(w), [0] * len(w)], 2, m)
        assert got == [[a - b for a, b in zip(even, odd)]]
    else:
        assert got == fwht_oracle([list(layer) for layer in layers], p, m)


def _spread(rng, total, q):
    """q non-negative ints that sum to total, at random points."""
    cuts = sorted(rng.randrange(total + 1) for _ in range(q - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@pytest.mark.parametrize("pm", KERNEL, ids=_ids(KERNEL))
def test_packed_fwht_matches_list_passes(pm):
    p, m = pm
    q = p ** m
    rng = random.Random(q * p)
    for bound in (1, 3, 1000):
        if p == 2:
            layers = [[rng.randint(-bound, bound) for _ in range(q)]]
        else:
            layers = [[rng.randint(0, bound) for _ in range(q)] for _ in range(p)]
        _assert_kernel_matches_oracles(layers, p, m)


@pytest.mark.parametrize("pm", EDGE_FIELDS, ids=_ids(EDGE_FIELDS))
@pytest.mark.parametrize("bits", [8, 16, 32])
def test_packed_fwht_on_both_sides_of_each_width_switch(pm, bits):
    """The width holds the total mass (one more bit at p = 2 for the bias),
    so a total one below a power of two fits fields that one more cannot;
    spreading the mass over one layer makes the extreme output field the
    total itself, where a too narrow field would carry into its neighbour."""
    p, m = pm
    q = p ** m
    rng = random.Random(bits * q)
    edge = 2 ** (bits - 1 if p == 2 else bits)
    for total in (edge - 1, edge):
        w = _spread(rng, total, q)
        if p == 2:
            _assert_kernel_matches_oracles([w], p, m)
            _assert_kernel_matches_oracles([[-v for v in w]], p, m)
            _assert_kernel_matches_oracles([[rng.choice((1, -1)) * v for v in w]], p, m)
        else:
            for e in (0, p - 1):
                layers = [[0] * q for _ in range(p)]
                layers[e] = w
                _assert_kernel_matches_oracles(layers, p, m)


def test_packed_fwht_refuses_masses_past_eight_byte_fields():
    _assert_kernel_matches_oracles([[2 ** 63 - 1, 0]], 2, 1)
    _assert_kernel_matches_oracles([[2 ** 64 - 1, 0, 0], [0] * 3, [0] * 3], 3, 1)
    with pytest.raises(OverflowError):
        packed_fwht([[2 ** 62, -(2 ** 62)]], 2, 1)
    with pytest.raises(OverflowError):
        packed_fwht([[2 ** 63, 2 ** 63, 0], [0] * 3, [0] * 3], 3, 1)


# -- the widening transform against the fixed-width passes -----------------------------


def _assert_widening_matches_fixed_width(layers, p, m, bound):
    """_packed.transform, given the input at the width of its bound, against
    the fixed-width passes at the width of the mass and a sign bit."""
    mass = sum(abs(v) for layer in layers for v in layer)
    width = field_width(mass.bit_length() + 1)
    words = pack(layers, field_width(bound.bit_length() + (p == 2)), signed=p == 2)
    assert transform(words, width, p, m, bound, mass) == fixed_width_transform(layers, width, p, m)


def _extreme_inputs(p, m, bound, rng):
    """Input layers with fields at most bound: every field at the bound (at
    p = 2 also at -bound), which takes pass k to bound p^k at vector 0;
    random fields; and one spike, whose mass keeps every pass narrow."""
    q = p ** m
    fulls = [[bound] * q, [-bound] * q] if p == 2 else [[bound] * q]
    randoms = [rng.randint(-bound, bound) if p == 2 else rng.randint(0, bound) for _ in range(q)]
    spike = [0] * q
    spike[rng.randrange(q)] = -bound if p == 2 else bound
    for layer in fulls + [randoms, spike]:
        yield [layer] if p == 2 else [layer] + [[0] * q for _ in range(p - 1)]
    if p > 2:
        yield [[rng.randint(0, bound) for _ in range(q)] for _ in range(p)]


# the fields of pass k hold bound p^k: the widths switch where it passes 2^8 and
# 2^16 (2^7 and 2^15 with the sign bit at p = 2)
WIDENING_CASES = [
    (p, k, limit >> (p == 2), side)
    for p in (2, 3, 5, 7)
    for k in (1, 2)
    for limit in (1 << 8, 1 << 16)
    for side in ("below", "at")
]


@pytest.mark.parametrize(
    "p,k,limit,side", WIDENING_CASES, ids=[f"p{p}-pass{k}-{limit}-{side}" for p, k, limit, side in WIDENING_CASES]
)
def test_widening_transform_on_both_sides_of_each_width_switch(p, k, limit, side):
    """Weight counts with b > 1: pass k's bound b p^k lies just below the
    limit of its width, or reaches it and widens the words, and one more
    pass follows the switch."""
    m = k + 1
    bound = (limit - 1) // p ** k if side == "below" else -(-limit // p ** k)
    rng = random.Random(p * limit + k)
    for layers in _extreme_inputs(p, m, bound, rng):
        _assert_widening_matches_fixed_width(layers, p, m, bound)


INDICATOR_FIELDS = [(2, 6), (2, 7), (2, 8), (2, 14), (2, 15), (2, 16), (3, 5), (3, 6), (5, 3), (5, 4), (7, 2), (7, 3)]


@pytest.mark.parametrize("pm", INDICATOR_FIELDS, ids=_ids(INDICATOR_FIELDS))
def test_widening_transform_of_indicators(pm):
    """Indicator inputs, b = 1 and mass q, as walsh_transform gives them:
    pass k holds p^k, which passes 2^7 (with the sign bit) at k = 7 and 2^15
    at k = 15 at p = 2, 2^8 at k = 6 at p = 3 and k = 4 at p = 5, and 2^8
    at k = 3 at p = 7; the constant input reaches q and -q."""
    p, m = pm
    q = p ** m
    rng = random.Random(q)
    values = [rng.randrange(p) for _ in range(q)]
    for vals in (values, [0] * q, [p - 1] * q):
        if p == 2:
            layers = [[1 - 2 * v for v in vals]]
        else:
            layers = [[int(v == e) for v in vals] for e in range(p)]
        _assert_widening_matches_fixed_width(layers, p, m, 1)


def test_widening_transform_of_zero_passes():
    for p in (2, 3, 5, 7):
        _assert_widening_matches_fixed_width([[5]] if p == 2 else [[5]] + [[0]] * (p - 1), p, 0, 5)


# -- the compact passes against the strided passes ------------------------------------


def _assert_compact_matches_strided(monkeypatch, layers, p, m, bound):
    """_packed.transform at p >= 5, where it runs the compact passes, against
    the same call with the strided passes, word for word, and against the
    fixed-width passes."""
    assert p >= _packed.COMPACT_FROM
    mass = sum(map(sum, layers))
    width = field_width(mass.bit_length() + 1)
    words = pack(layers, field_width(bound.bit_length()))
    compact = transform(list(words), width, p, m, bound, mass)
    with monkeypatch.context() as patched:
        patched.setattr(_packed, "COMPACT_FROM", p + 1)
        strided = transform(list(words), width, p, m, bound, mass)
    assert compact == strided == fixed_width_transform(layers, width, p, m)


# _character_fwht's planes hold p^k after pass k, which passes 2^8 at k = 4 for
# p = 5, at k = 3 for p = 7, 11 and 13, and at k = 2 for p = 31: the last field
# below each switch, and the first past it
COMPACT_PLANE_FIELDS = [(5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (13, 3), (31, 1), (31, 2)]


@pytest.mark.parametrize("pm", COMPACT_PLANE_FIELDS, ids=_ids(COMPACT_PLANE_FIELDS))
def test_compact_passes_of_indicator_planes_match_the_strided_passes(monkeypatch, pm):
    """_character_fwht's call: p one-hot planes, bound 1 and mass q, for
    random values and for the constant ones, whose transform reaches q and
    -q."""
    p, m = pm
    q = p ** m
    rng = random.Random(q)
    for values in ([rng.randrange(p) for _ in range(q)], [0] * q, [p - 1] * q):
        layers = [[int(v == e) for v in values] for e in range(p)]
        _assert_compact_matches_strided(monkeypatch, layers, p, m, 1)


# _column_transform's call, one count word and p - 1 zero words, with b > 1:
# pass k's bound b p^k just below the limit of its width, or at it
COMPACT_COUNT_CASES = [
    (p, k, limit, side)
    for p in (5, 7, 11, 13, 31)
    for k in ((1, 2) if p < 31 else (1,))
    for limit in (1 << 8, 1 << 16)
    for side in ("below", "at")
]


@pytest.mark.parametrize(
    "p,k,limit,side", COMPACT_COUNT_CASES, ids=[f"p{p}-pass{k}-{limit}-{side}" for p, k, limit, side in COMPACT_COUNT_CASES]
)
def test_compact_passes_of_count_words_match_the_strided_passes(monkeypatch, p, k, limit, side):
    """Count words whose pass k lies on either side of a width switch, with
    one more pass after it (see _extreme_inputs)."""
    m = k + 1
    bound = (limit - 1) // p ** k if side == "below" else -(-limit // p ** k)
    rng = random.Random(p * limit + k)
    for layers in _extreme_inputs(p, m, bound, rng):
        _assert_compact_matches_strided(monkeypatch, layers, p, m, bound)


def character_fwht_loop(values, field):
    """The route the translate-built planes replaced: one pass writes a 1
    into field v_x of indicator word values[x], at the width of the output,
    and the passes run at that one width."""
    p, m, q = field.p, field.m, field.q
    width = field_width(q.bit_length() + 1)
    indicators = [bytearray(q * width) for _ in range(p)]
    for v, u in zip(values, map(width.__mul__, field.trace_dual_indices())):
        indicators[v][u] = 1
    words = [int.from_bytes(word, "little") for word in indicators]
    bias = bias_word(width, q)
    if p == 2:
        return unpack([binary_passes(words[0] - words[1] + bias, width, m) ^ bias], width, q, signed=True)
    *words, last = odd_passes(words, width, p, m)
    return unpack([(word + bias - last) ^ bias for word in words], width, q, signed=True)


# p = 257, where the planes are written point by point, is
# test_walsh_transform_past_one_byte_values
PLANE_FIELDS = [(2, 1), (3, 1), (2, 4), (5, 3), (3, 5), (2, 8), (2, 9), (7, 3), (3, 6), (2, 11), (17, 2), (2, 13)]


@pytest.mark.parametrize("pm", PLANE_FIELDS, ids=_ids(PLANE_FIELDS))
def test_translated_planes_match_the_per_point_loop(pm):
    """The input planes placed by translate through the inverse of the
    trace-dual table (q <= 4096) and by one pass over the points (above),
    against the per-point loop of indicator words at the output width."""
    from walshcodes.algebra import _character_fwht

    field = make_field(*pm)
    p, q = field.p, field.q
    if q <= 4096:
        lows, rows = field._dual_blocks
        highs = [sum(j for j, row in enumerate(rows) if row >> 8 * u & 255 == 255) for u in range(q)]
        assert all(row >> 8 * u & 255 in (0, 255) for row in rows for u in range(q))
        assert sum(row >> 8 * u & 255 == 255 for row in rows for u in range(q)) == q
        points = [h << 8 | low for h, low in zip(highs, lows)]
        assert [points[u] for u in field.trace_dual_indices()] == list(range(q))
    rng = random.Random(q)
    for values in ([rng.randrange(p) for _ in range(q)], [0] * q, [p - 1] * q, [x % p for x in range(q)]):
        assert _character_fwht(tuple(values), field) == character_fwht_loop(values, field)


@pytest.mark.parametrize("pm", SIGNED_FIELDS, ids=_ids(SIGNED_FIELDS))
def test_packed_fwht_on_signed_and_zero_layers(pm):
    """The all-(-1) list at p = 2, whose F(0) = -q is the most negative
    output its mass allows, all-zero layers at odd p, and negative entries
    at odd p, which the kernel shifts up by one constant before packing."""
    p, m = pm
    q = p ** m
    rng = random.Random(q)
    if p == 2:
        _assert_kernel_matches_oracles([[-1] * q], p, m)
        _assert_kernel_matches_oracles([[0] * q], p, m)
        _assert_kernel_matches_oracles([[rng.randint(-300, 300) for _ in range(q)]], p, m)
    else:
        assert packed_fwht([[0] * q for _ in range(p)], p, m) == [[0] * q for _ in range(p)]
        _assert_kernel_matches_oracles([[rng.randint(-300, 300) for _ in range(q)] for _ in range(p)], p, m)
        _assert_kernel_matches_oracles([[-1] * q for _ in range(p)], p, m)


PADDED_FIELDS = [(3, 1), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("pm", PADDED_FIELDS, ids=_ids(PADDED_FIELDS))
def test_fwht_of_fewer_layers_is_the_zero_padded_transform(pm):
    """The first j layers alone, for j = 1..p, give the transform of the p
    layers with the rest zero, with and without negative entries (which the
    kernel shifts up, so a missing layer is packed as the shift)."""
    p, m = pm
    q = p ** m
    rng = random.Random(q + p)
    for low in (0, -1, -300):
        layers = [[rng.randint(low, 300) for _ in range(q)] for _ in range(p)]
        layers[0][rng.randrange(q)] = low
        for j in range(1, p + 1):
            padded = [list(layer) for layer in layers[:j]] + [[0] * q for _ in range(p - j)]
            got = packed_fwht([list(layer) for layer in layers[:j]], p, m)
            assert got == packed_fwht(padded, p, m) == fwht_oracle(padded, p, m)


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_fwht_matches_quadratic_loop(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    for _ in range(6):
        table = [field.scalar(rng.randrange(field.p)) for _ in range(field.q)]
        _assert_same_spectrum(ParyFunction(field, table, 1))


@pytest.mark.parametrize("pm", WIDE, ids=_ids(WIDE))
def test_fwht_matches_quadratic_loop_hypothesis(pm):
    field = make_field(*pm)

    @settings(max_examples=4, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.lists(st.integers(0, field.p - 1), min_size=field.q, max_size=field.q))
    def check(values):
        _assert_same_spectrum(ParyFunction(field, [field.scalar(v) for v in values], 1))

    check()


@pytest.mark.parametrize(
    "pm,spec,bent",
    [
        ((2, 4), "tr(g*x^3)", True),
        ((2, 4), "tr(g^3*x^3)", False),
        ((3, 3), "tr(x^2)", True),
        ((3, 3), "ternary_half(g,1) + tr(g^4*x)", True),
        ((5, 3), "quadratic(g^3,1)", True),
        ((5, 2), "quadratic(g^3,1)", False),
        ((2, 5), "tr(x^3)", False),
    ],
)
def test_classification_from_fwht_spectrum(pm, spec, bent):
    field = make_field(*pm)
    spectrum = _assert_same_spectrum(parse_function(field, spec))
    q = CyclotomicInt.from_int(field.p, field.q)
    assert all(c.abs_squared() == q for c in walsh_oracle(spectrum.source)) == bent
    assert (classify_bent(spectrum).kind.value != "not_bent") == bent


def _flip_signs(spectrum, points):
    """The spectrum with the coefficients at the given indices negated."""
    layers = [list(layer) for layer in spectrum.layers]
    for layer in layers:
        for b in points:
            layer[b] = -layer[b]
    return WalshSpectrum(spectrum.field, layers, spectrum.source)


CLASSIFY_CASES = [
    ((2, 4), "tr(g*x^3)"),
    ((2, 4), "tr(g^3*x^3)"),
    ((2, 6), "tr(g*x^3) + tr(x)"),
    ((2, 5), "tr(x^3)"),
    ((3, 3), "tr(x^2)"),
    ((3, 3), "ternary_half(g,1) + tr(g^4*x)"),
    ((3, 3), "tr(x^4) + tr(g*x)"),
    ((3, 4), "tr(g*x^2) + tr(x^3)"),
    ((3, 6), "tr(g^7*x^98)"),
    ((5, 2), "tr(x^2)"),
    ((5, 2), "quadratic(g^3,1)"),
    ((5, 3), "quadratic(g^3,1)"),
    ((5, 2), "tr(x^3)"),
    ((7, 2), "tr(g*x^2) + tr(g^5*x)"),
    ((7, 1), "tr(3*x^2)"),
    ((7, 2), "tr(x^4)"),
]


@pytest.mark.parametrize(
    "pm,spec", CLASSIFY_CASES, ids=[f"GF({p}^{m})-{spec.replace(' ', '')}" for (p, m), spec in CLASSIFY_CASES]
)
def test_classification_matches_per_coefficient_loops(pm, spec):
    field = make_field(*pm)
    spectrum = walsh_transform(parse_function(field, spec))
    cls = classify_bent(spectrum)
    assert cls == classify_oracle(spectrum)
    # a sign flip at some b breaks weak regularity at odd p, and a wrong
    # absolute value anywhere makes the spectrum not bent
    variants = [_flip_signs(spectrum, range(0, field.q, 3)), _flip_signs(spectrum, [field.q - 1])]
    broken = [list(layer) for layer in spectrum.layers]
    broken[0][field.q // 2] += field.p
    variants.append(WalshSpectrum(field, broken, spectrum.source))
    for other in variants:
        assert classify_bent(other) == classify_oracle(other)
    if cls.kind is not BentKind.NOT_BENT and field.p > 2:
        assert classify_bent(variants[0]).kind is BentKind.NON_WEAKLY_REGULAR
    assert classify_bent(variants[2]).kind is BentKind.NOT_BENT


def test_non_weakly_regular_ternary_monomial():
    # Helleseth-Kholosha: Tr(xi^7 x^98) over GF(3^6) is bent, not weakly regular
    spectrum = walsh_transform(parse_function(make_field(3, 6), "tr(g^7*x^98)"))
    assert classify_bent(spectrum).kind is BentKind.NON_WEAKLY_REGULAR


def test_wrong_gauss_sum_keeps_not_bent_first(monkeypatch):
    """With a wrong G^m every bent coefficient misses the table: a bent
    spectrum breaks the invariant, and a not-bent one is still NOT_BENT."""
    from walshcodes import functions

    def unit_gauss(p, m):
        return CyclotomicInt.from_int(p, 1)

    monkeypatch.setattr(functions, "gauss_sum_power", unit_gauss)
    field = make_field(5, 2)
    for spec, bent in (("tr(x^2)", True), ("tr(x^3)", False)):
        spectrum = walsh_transform(parse_function(field, spec))
        if bent:
            for classify in (classify_bent, lambda s: classify_oracle(s, unit_gauss)):
                with pytest.raises(InvariantViolated):
                    classify(spectrum)
        else:
            assert classify_bent(spectrum) == classify_oracle(spectrum, unit_gauss)
            assert classify_bent(spectrum).kind is BentKind.NOT_BENT
    # bent everywhere but at the last b: NOT_BENT still wins
    layers = [list(layer) for layer in walsh_transform(parse_function(field, "tr(x^2)")).layers]
    layers[0][-1] += field.p
    late = WalshSpectrum(field, layers, None)
    assert classify_bent(late) == classify_oracle(late, unit_gauss) == BentClass(BentKind.NOT_BENT)


# -- powers, traces, generator ------------------------------------------------------


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_pow_tables_match_square_and_multiply(pm):
    field = make_field(*pm)
    q = field.q
    for a in field.elements:
        for e in range(-q, 2 * q + 1):
            if a.is_zero() and e < 0:
                with pytest.raises(ZeroDivisionError):
                    field._pow(a, e)
                with pytest.raises(ZeroDivisionError):
                    pow_oracle(field, a, e)
                continue
            assert field._pow(a, e) == pow_oracle(field, a, e), (a, e)
    assert field.zero ** 0 == field.one and field.zero ** 5 == field.zero
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero


def test_large_exponents_reduce_mod_q_minus_one():
    field = make_field(3, 5)
    g = field.generator()
    for e in (10 ** 6, 3 ** 40 + 7, -(2 ** 70) - 1):
        assert g ** e == pow_oracle(field, g, e)


@pytest.mark.parametrize("pm", UP_TO_1024, ids=_ids(UP_TO_1024))
def test_trace_table_matches_frobenius_sum(pm):
    field = make_field(*pm)
    assert [field.trace_int(e) for e in field.elements] == [
        trace(field, e).as_prime_int() for e in field.elements
    ]


@pytest.mark.parametrize("pm", UP_TO_1024, ids=_ids(UP_TO_1024))
def test_generator_matches_order_counting(pm):
    field = make_field(*pm)
    assert field.generator() == generator_oracle(field)


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_trace_bilinear_matches_trace_of_product(pm):
    field = make_field(*pm)
    for a in field.elements:
        for b in field.elements:
            assert field.trace_bilinear(a, b) == field.trace_int(a * b)
    assert sorted(field.trace_dual_indices()) == list(range(field.q))


# -- parser ---------------------------------------------------------------------------


def _oracle_table(field, fn):
    return [fn(x) for x in field.elements]


PARSE_FIELDS = [(2, 4), (2, 5), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("pm", PARSE_FIELDS, ids=_ids(PARSE_FIELDS))
def test_parsed_tables_match_frobenius_evaluation(pm):
    field = make_field(*pm)
    g = field.generator()
    q = field.q
    cases = {
        "x^3": lambda x: pow_oracle(field, x, 3),
        f"x^{q - 2}": lambda x: pow_oracle(field, x, q - 2),
        "tr(g*x^3) + tr(g^5*x)": lambda x: (g * pow_oracle(field, x, 3)).trace()
        + (pow_oracle(field, g, 5) * x).trace(),
        "tr(x^2 + 1)": lambda x: (pow_oracle(field, x, 2) + field.one).trace(),
    }
    if field.p > 2:
        cases["quadratic(g^3,1)"] = lambda x: (
            pow_oracle(field, g, 3) * pow_oracle(field, x, field.p + 1)
        ).trace()
    if field.p == 3:
        cases["ternary_half(g,1)"] = lambda x: (g * pow_oracle(field, x, 2)).trace()
    for spec, fn in cases.items():
        assert parse_function(field, spec).table == tuple(_oracle_table(field, fn)), spec


GRAMMAR_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3)]

GRAMMAR_SPECS = [
    # atoms, constants and powers, 0^0 = 1 included
    "x", "0", "1", "7", "g", "x^0", "0^0", "g^0", "x^1", "x^2", "x^5", "x^26", "x^1000000",
    "(x+1)^0", "2^3", "g^5", "g^5*g^3", "x^2^3",
    # unary and binary minus
    "-x", "--x", "-x^2", "x-1", "1-x-x", "x - -1", "x*-1", "-g*x", "x-x", "-(x+g)",
    # sums, products and parentheses
    "2*x^2 + g*x + 1", "((x))", "(x+1)^3", "(x+g)*(x-g)", "x*x*x - x^3", "(g^2*x + 1)*(x + g)",
    "g^5*x*g^3", "x*g^7*g^2", "3*x + 4*x", "(g + 1)^2 * x",
    # traces, nested and of constants
    "tr(x)", "tr(1)", "tr(g)", "tr(tr(x))", "tr(x*tr(g*x))", "tr(g*x^3) + tr(g^5*x)",
    "tr(x^2 + 1)", "tr(g^2*x^3 - x)", "tr(-x) - tr(x)", "tr((x+1)^2) * tr(x)",
    # the named families; the coefficient is read at x = 0 and x = 1
    "quadratic(1,1)", "quadratic(g^2,1)", "quadratic(g*g^3,2)", "quadratic(tr(g),0)",
    "quadratic(2,3) + tr(x)", "quadratic(x^2+x,1)", "ternary_half(g^2,1)", "ternary_half(1,3)",
    "ternary_half(g,1) - quadratic(g,1)",
    # monomials c*x^d kept symbolic: exponents reduced to [1, q - 1], so x^(q-1)
    # is 1 off 0 and x^q is x, coefficients multiplied, zero coefficients,
    # powers, negations, and monomials meeting a sum or a value list
    *dict.fromkeys(f"x^{p ** m + k}" for p, m in GRAMMAR_FIELDS for k in (-1, 0)),
    "(g^3*x^5)^4", "g*x^2*x^3*g^2", "0*x^3", "tr(0*x)", "(x^3)^0", "-g*x^3", "-(g*x^2)^3",
    "(x^1000000)^1000000", "2*x - x", "tr(g*x^3)^2",
    # errors; where a spec has several, the first one detected is reported
    "", "x^", "x +", "(x", "x)", "y", "x $", "3x", "tr x", "tr(x", "tr()", "x^-1", "x^g",
    "quadratic(1)", "quadratic(1,x)", "quadratic(x,1)", "quadratic(x,1", "quadratic(x,1000001)",
    "x^1000001", "ternary_half(x,1)", "ternary_half(1,1000001)", "foo(x)", "x + ^",
]


def _outcome(parse):
    try:
        return parse()
    except (ParseError, UndefinedSymbol, ExponentOverflow) as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("pm", GRAMMAR_FIELDS, ids=_ids(GRAMMAR_FIELDS))
def test_parse_matches_closure_evaluator(pm):
    field = make_field(*pm)
    for spec in GRAMMAR_SPECS:
        def new():
            f = parse_function(field, spec)
            return f.table, f.codomain_degree

        got, want = _outcome(new), _outcome(lambda: parse_oracle(field, spec))
        assert got == want, spec
    # prime values by index: an element of the prime subfield has its value as index
    f = parse_function(field, "tr(g*x^2) + x^0")
    assert f.exponents() == tuple(v.as_prime_int() for v in f.table)


def test_with_codomain_skips_only_implied_checks():
    field = make_field(2, 6)
    f = parse_function(field, "x^9")  # (x^9)^8 = x^72 = x^9: values in F_{2^3}
    assert f.codomain_degree == 3
    for s in (1, 2, 3, 6):
        if s % f.codomain_degree == 0:
            g = f.with_codomain(s)
            assert g.codomain_degree == s and g.table is f.table
            assert ParyFunction(field, f.table, s) == g
        else:
            with pytest.raises(ValueError):
                f.with_codomain(s)
    t = parse_function(field, "tr(x^3)")
    assert t.codomain_degree == 1
    assert t.with_codomain(6).codomain_degree == 6
    with pytest.raises(ValueError):
        parse_function(field, "x^3").with_codomain(2)


def test_binary_sums_and_negations_skip_the_index_arithmetic(monkeypatch):
    """At p = 2 a sum of nodes is the XOR of their indices and -a is a."""
    specs = ["x^3 - g*x + 1", "-(x^5 - tr(x)) + -x", "tr(g*x^3) + tr(g^5*x) - 1 - x^7"]
    for field in (make_field(2, 1), make_field(2, 5)):
        want = [parse_oracle(field, spec) for spec in specs]

        def refuse(*args):
            raise AssertionError("a binary sum went through IndexArith")

        monkeypatch.setattr(IndexArith, "add", refuse)
        monkeypatch.setattr(IndexArith, "neg", refuse)
        got = [parse_function(field, spec) for spec in specs]
        monkeypatch.undo()
        assert [(f.table, f.codomain_degree) for f in got] == want


def test_sums_of_prime_field_values_skip_the_zech_logarithms(monkeypatch):
    """At odd p a sum whose terms take values in F_p only, such as traces,
    adds indices mod p; a sum with any other value goes through
    IndexArith.add."""
    specs = ["tr(g*x^3) + tr(g^5*x)", "tr(x^2) + 1 + tr(x)", "2 - quadratic(g,1) + tr(x)"]
    for field in (make_field(7, 1), make_field(3, 3), make_field(5, 2)):
        want = [parse_oracle(field, spec) for spec in specs + ["x + 1"]]
        added = []
        monkeypatch.setattr(IndexArith, "add", lambda self, a, b: added.append(1))
        got = [parse_function(field, spec) for spec in specs]
        monkeypatch.undo()
        assert not added
        assert [(f.table, f.codomain_degree) for f in got + [parse_function(field, "x + 1")]] == want


MONOMIAL_FIELDS = [(2, 1), (2, 5), (3, 1), (7, 1), (3, 3), (5, 2)]


@pytest.mark.parametrize("pm", MONOMIAL_FIELDS, ids=_ids(MONOMIAL_FIELDS))
def test_monomials_skip_the_power_and_scale_passes(monkeypatch, pm):
    """c*x^d stays one node through products, powers and negations, and
    takes its values, or its traces, in one pass over the log table."""
    field = make_field(*pm)
    specs = ["tr(g*x^3)+tr(g^5*x)", "quadratic(g^3,1)", "g^7*x^5*g*x^2", "-x^3"]
    want = [parse_oracle(field, spec) for spec in specs]

    def refuse(*args):
        raise AssertionError("a monomial went through a value-list pass")

    monkeypatch.setattr(type(field), "power_indices", refuse)
    monkeypatch.setattr(IndexArith, "scale", refuse)
    got = [parse_function(field, spec) for spec in specs]
    monkeypatch.undo()
    assert [(f.table, f.codomain_degree) for f in got] == want


def traced_monomial_oracle(field, j, d):
    """Tr(g^j x^d) at every x, point by point: the route that the gathered
    traces replaced while q <= 4096, the trace of exp[j + d log x], with
    0^d = 0 for d >= 1 and 0^0 = 1."""
    (exp, log), tr, n1 = field._pow_tables(), field.trace_table(), field.q - 1
    return tuple(tr[exp[(j + d * log[x]) % n1]] if x or not d else 0 for x in range(field.q))


def _assert_traced_monomials_match(field, ds, rng):
    for d in ds:
        j = rng.randrange(field.q - 1)
        f = parse_function(field, f"tr(g^{j}*x^{d})")
        assert f.indices == traced_monomial_oracle(field, j, d), (j, d)


TRACED_FIELDS = [(2, 8), (2, 9), (3, 5), (7, 3)]


@pytest.mark.parametrize("pm", TRACED_FIELDS, ids=_ids(TRACED_FIELDS))
def test_traced_monomials_match_the_per_point_route_at_every_exponent(pm):
    """Every d < q, d = 0 and d = q - 1 (x^(q-1), read at stride 0)
    included: the least stride of each cyclotomic coset, forwards or
    backwards."""
    field = make_field(*pm)
    _assert_traced_monomials_match(field, range(field.q), random.Random(field.q))


@pytest.mark.parametrize("pm", [(2, 12), (2, 13)], ids=_ids([(2, 12), (2, 13)]))
def test_traced_monomials_match_the_per_point_route_on_a_sample(pm):
    """A seeded sample of d at GF(2^12), the largest field of the gathered
    traces, and at GF(2^13), past it, where the per-point route answers."""
    field = make_field(*pm)
    rng = random.Random(field.q)
    _assert_traced_monomials_match(field, rng.sample(range(field.q), 60), rng)


def test_traced_monomials_read_backwards_and_past_the_tile_limit(monkeypatch):
    """At GF(2^12): x^(q-2) has forward strides q - 1 - 2^i and backward
    strides 2^i, so it is read backwards at stride 1; the coset {1365, 2730}
    has least stride 1365, whose tiled copy would take 1365 (q - 1) bytes,
    past TILE_LIMIT q, and is read point by point; a conjugate exponent and
    coefficient give the same traces."""
    from walshcodes import functions

    field = make_field(2, 12)
    q = field.q
    assert 1365 * (q - 1) > functions.TILE_LIMIT * q
    per_point = []
    on_log = functions._Parser._on_log
    monkeypatch.setattr(functions._Parser, "_on_log", lambda self, *args: per_point.append(1) or on_log(self, *args))
    rng = random.Random(q)
    _assert_traced_monomials_match(field, [q - 2, 1, 2], rng)
    assert not per_point
    _assert_traced_monomials_match(field, [1365, 2730], rng)
    assert len(per_point) == 2
    assert parse_function(field, "tr(g^3*x^5)") == parse_function(field, "tr(g^6*x^10)")


@pytest.mark.parametrize("pm", [(2, 1), (2, 9), (2, 12)], ids=_ids([(2, 1), (2, 9), (2, 12)]))
def test_binary_sums_of_gathered_traces(pm):
    """At p = 2 two gathered traces add as one XOR of their byte strings,
    and a trace meets a value list or a constant point by point."""
    field = make_field(*pm)
    q = field.q
    rng = random.Random(q)
    (a, d), (b, e) = [(rng.randrange(q - 1), rng.randrange(1, q)) for _ in range(2)]
    one, two = traced_monomial_oracle(field, a, d), traced_monomial_oracle(field, b, e)
    cases = {
        f"tr(g^{a}*x^{d}) + tr(g^{b}*x^{e})": tuple(map(xor, one, two)),
        f"tr(g^{a}*x^{d}) + x^3": tuple(map(xor, one, field.power_indices(range(q), 3))),
        f"tr(g^{a}*x^{d}) + 1": tuple(v ^ 1 for v in one),
        f"tr(g^{a}*x^{d}) - tr(g^{a}*x^{d})": (0,) * q,
    }
    for spec, want in cases.items():
        assert parse_function(field, spec).indices == want, spec


@pytest.mark.parametrize("pm", [(3, 2), (2, 4), (5, 3)], ids=_ids([(3, 2), (2, 4), (5, 3)]))
def test_first_value_outside_the_prime_field_is_reported(pm):
    field = make_field(*pm)
    p = field.p
    for bad in (0, 5, field.q - 2):
        indices = [v % p for v in range(field.q)]
        indices[bad] = p
        indices[-1] = field.q - 1
        with pytest.raises(ValueError, match=re.escape(f"table value {field.elements[p]!r} outside")):
            ParyFunction.from_indices(field, indices, 1)


def is_affine_oracle(f):
    """The pairwise loop: f(x + y) - f(0) = (f(x) - f(0)) + (f(y) - f(0))
    for every x and y."""
    f0 = f.table[0]
    elements = f.field.elements
    return all(f(x + y) - f0 == (f(x) - f0) + (f(y) - f0) for x in elements for y in elements)


def _affine(field, rng, s):
    """c + L(x) with L the linear map to F_{p^s} taking x^j to a random value."""
    sub = [v for v in field.elements if v ** (field.p ** s) == v]
    images = [rng.choice(sub) for _ in range(field.m)]
    c = rng.choice(sub)
    linear = field._linear_indices([v.index for v in images])
    return ParyFunction(field, [field.elements[v] + c for v in linear], s)


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_is_affine_matches_pairwise_loop(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    subfields = [s for s in range(1, field.m + 1) if field.m % s == 0]
    for s in subfields:
        f = _affine(field, rng, s)
        assert f.is_affine() and is_affine_oracle(f)
        # one changed value breaks additivity unless the field is F_2
        g = list(f.table)
        at = rng.randrange(field.q)
        g[at] = g[at] + field.one
        g = ParyFunction(field, g)
        assert g.is_affine() == is_affine_oracle(g)
    for _ in range(5):
        f = ParyFunction(field, [rng.choice(field.elements) for _ in range(field.q)])
        assert f.is_affine() == is_affine_oracle(f)
    for spec in ("x^2", f"x^{field.p}", "tr(g*x) + g", "x^3 + x"):
        f = parse_function(field, spec)
        assert f.is_affine() == is_affine_oracle(f), spec


def test_is_affine_on_large_fields():
    """GF(2^12) and GF(3^7): q^2 pairs would take minutes."""
    for field in (make_field(2, 12), make_field(3, 7)):
        assert parse_function(field, f"tr(g*x) + x^{field.p ** 3} + g*x + 1").is_affine()
        assert not parse_function(field, "tr(g*x^5) + x").is_affine()


# -- differential uniformity ----------------------------------------------------------


@lru_cache(maxsize=None)
def element_tables(field):
    """((x + a).index by [a][x], (u - v).index by [u][v]): every sum and
    difference of two elements, taken by the FieldElement operators once
    per field in a session, which the element oracle reads q^2 times for
    each function."""
    elements = field.elements
    return [[(x + a).index for x in elements] for a in elements], [[(u - v).index for v in elements] for u in elements]


def differential_uniformity_oracle(f):
    """max over a != 0, b of #{x : f(x+a) - f(x) = b}, on the FieldElement
    table of f and the element sums and differences of element_tables."""
    sums, diffs = element_tables(f.field)
    values = [v.index for v in f.table]
    best = 0
    for shifted in sums[1:]:
        counts = Counter(diffs[values[y]][v] for y, v in zip(shifted, values))
        best = max(best, max(counts.values()))
    return best


def differential_uniformity_index_oracle(f):
    """The same maximum by index additions and one Counter per row a."""
    field = f.field
    add = field.arith.add
    table = f.indices
    negated = [field.arith.neg(v) for v in table]
    xs = range(field.q)
    best = 0
    for a in xs[1:]:
        shifted = [table[y] for y in map(add, xs, repeat(a))]
        best = max(best, *Counter(map(add, shifted, negated)).values())
    return best


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_differential_uniformity_matches_element_loop(pm):
    field = make_field(*pm)
    rng = random.Random(field.q + 1)
    tables = [[rng.choice(field.elements) for _ in range(field.q)] for _ in range(4)]
    tables += [[x ** e for x in field.elements] for e in (2, 3, field.q - 2)]
    for table in tables:
        f = ParyFunction(field, table, field.m)
        assert differential_uniformity(f) == differential_uniformity_oracle(f)
        assert differential_uniformity(f) == differential_uniformity_index_oracle(f)


def _differential_cases(p, m):
    """(name, value indices, known uniformity or None) over GF(p^m)."""
    field = make_field(p, m)
    q, add, mul = field.q, field.arith.add, field.arith.mul
    rng = random.Random(100 + m if p == 2 else 1000 * p + m)
    images = [rng.randrange(q) for _ in range(m)]
    linear = [0]  # the F_p-linear map with basis vector p^i -> images[i]
    for image in images:
        linear = [add(v, mul(d, image)) for d in range(p) for v in linear]
    c = rng.randrange(1, q)
    cases = [(f"random {i}", [rng.randrange(q) for _ in range(q)], None) for i in range(3)]
    cases += [
        ("permutation", rng.sample(range(q), q), None),
        ("random, f(0) = 0", [0] + [rng.randrange(q) for _ in range(q - 1)], None),
        ("constant", [c] * q, q),
        ("linear", linear, q),
        ("affine", [add(v, c) for v in linear], q),
    ]
    powers = {"frobenius": (p, q)}
    if p == 2:
        powers["inverse"] = (q - 2, 4 if m % 2 == 0 else 2)
        for i in range(1, m):
            if gcd(i, m) == 1:
                powers[f"gold {i}"] = ((1 << i) + 1, 2)
                powers[f"kasami {i}"] = ((1 << 2 * i) - (1 << i) + 1, 2)
    else:
        powers["square"] = (2, 1)
    for name, (e, uniformity) in powers.items():
        cases.append((name, [(x ** e).index for x in field.elements], uniformity))
    return cases


# p = 2 keeps the ids of m alone
DIFFERENTIAL_FIELDS = [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 6)]
DIFFERENTIAL_FIELDS += [(5, 1), (5, 2), (5, 3), (7, 2), (11, 1), (13, 1)]


@pytest.mark.parametrize(
    "pm", DIFFERENTIAL_FIELDS, ids=[str(m) if p == 2 else f"GF({p}^{m})" for p, m in DIFFERENTIAL_FIELDS]
)
def test_binary_differential_uniformity_matches_both_oracles(pm):
    """The packed Gray-walk route against the index loop and the
    FieldElement loop, with the values it must take where they are known;
    at p = 2 every row's counts are even, so the maximum is too."""
    p, m = pm
    field = make_field(p, m)
    for name, table, uniformity in _differential_cases(p, m):
        f = ParyFunction.from_indices(field, table, m)
        got = differential_uniformity(f)
        assert got == differential_uniformity_index_oracle(f) == differential_uniformity_oracle(f), name
        assert p > 2 or got % 2 == 0, name
        if uniformity is not None:
            assert got == uniformity, name


@pytest.mark.parametrize(
    "pm,spec,uniformity",
    [
        ((2, 4), "x^3", 2),
        ((2, 5), "x^3", 2),
        ((2, 5), "x^5", 2),
        ((2, 5), "x^7", 2),
        ((2, 5), "x^13", 2),
        ((2, 5), "x^30", 2),
        ((2, 5), "g^3*x^5+g^7*x", 2),
        ((2, 6), "x^3", 2),
        ((3, 2), "x^2", 1),
        ((3, 3), "x^2", 1),
        ((5, 2), "x^2", 1),
        ((2, 4), "x^3+1", 2),
        ((2, 4), "x^5", 4),
        ((2, 4), "x^2", 16),
    ],
)
def test_differential_uniformity_of_suite_maps(pm, spec, uniformity):
    field = make_field(*pm)
    f = parse_function(field, spec).with_codomain(field.m)
    assert differential_uniformity(f) == differential_uniformity_oracle(f) == uniformity


# -- invariants under python -O --------------------------------------------------------


def test_invariants_raise_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    script = textwrap.dedent(
        """
        assert False, "this line must vanish under -O"
        import walshcodes.functions as fn
        from walshcodes.algebra import CyclotomicInt, make_field
        from walshcodes.errors import InvariantViolated

        field = make_field(3, 3)
        f = fn.parse_function(field, "tr(x^2)")
        good = fn._character_fwht

        def corrupted(*args):
            layers = good(*args)
            layers[0][5] += 1
            return layers

        fn._character_fwht = corrupted
        try:
            fn.walsh_transform(f)
        except InvariantViolated as ex:
            print("parseval:", ex)
        fn._character_fwht = good

        spectrum = fn.walsh_transform(f)
        fn.gauss_sum_power = lambda p, m: CyclotomicInt.from_int(p, 1)
        try:
            fn.classify_bent(spectrum)
        except InvariantViolated as ex:
            print("gauss:", ex)

        import walshcodes.conditions as cd
        from walshcodes.codes import WeightDistribution

        cube = fn.parse_function(make_field(2, 4), "x^3")
        good_du = cd.differential_uniformity
        cd.differential_uniformity = lambda f: 4
        try:
            cd.apn_ab_dual_diagnostics(cube)
        except InvariantViolated as ex:
            print("apn:", ex)
        cd.differential_uniformity = good_du

        cd.weight_distribution = lambda code, guard=None: WeightDistribution(
            {0: 1, 3: code.size() - 1}, code.n, code.size()
        )
        try:
            cd.apn_ab_dual_diagnostics(cube)
        except InvariantViolated as ex:
            print("macwilliams:", ex)

        import walshcodes.codes as cs
        from walshcodes._packed import bias_word

        good_transform = cs.transform

        def raised(step):
            # the transform with step(width, m) added to its biased fields
            def patched(words, width, p, m, *bounds):
                bias = bias_word(width, 1 << m)
                return [((good_transform(words, width, p, m, *bounds)[0] ^ bias) + step(width, m)) ^ bias]
            return patched

        # field 0 of W drops by one, odd ...
        cs.transform = raised(lambda width, m: -1)
        try:
            cs.weight_distribution(cs.full_code(make_field(2, 1), 3))
        except InvariantViolated as ex:
            print("weights:", ex)
        # ... and every field of W rises by two, even but not 0 mod Q = 4
        cs.transform = raised(lambda width, m: int.from_bytes((2).to_bytes(width, "little") * (1 << m), "little"))
        try:
            cs.weight_distribution(cs.full_code(make_field(2, 2), 2))
        except InvariantViolated as ex:
            print("remainder:", ex)
        cs.transform = good_transform
        try:
            cs.CompleteWeightEnumerator({(1, 0): 1}, 2, 1)
        except InvariantViolated as ex:
            print("cwe:", ex)

        import walshcodes.algebra as al

        f16 = make_field(2, 4)
        f16.trace_table = lambda s=1: [0] * f16.q
        try:
            al.trace_kernel(f16)
        except InvariantViolated as ex:
            print("kernel:", ex)
        del f16.trace_table

        f4 = make_field(2, 2)
        good_modulus = f4.modulus
        f4.modulus = (1, 1, 0, 1)  # irreducible of degree 3: no root in GF(16)
        try:
            al.subfield(f16, 2)
        except InvariantViolated as ex:
            print("root:", ex)
        f4.modulus = (0, 1, 1)  # x^2 + x: the root 0 collapses the embedding
        try:
            al.subfield(f16, 2)
        except InvariantViolated as ex:
            print("embedding:", ex)
        f4.modulus = good_modulus

        good_classify = cd.classify_bent
        classified = []

        def dual_not_bent(spectrum):
            classified.append(spectrum)
            if len(classified) == 1:
                return good_classify(spectrum)
            return fn.BentClass(fn.BentKind.NOT_BENT)

        cd.classify_bent = dual_not_bent
        try:
            cd.dual_membership_first(fn.parse_function(make_field(3, 2), "x^2"), [0] * 9, "wrb-plain-generic")
        except InvariantViolated as ex:
            print("dual not wrb:", ex)
        cd.classify_bent = good_classify
        """
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "parseval", "gauss", "apn", "macwilliams", "weights", "remainder", "cwe",
        "kernel", "root", "embedding", "dual not wrb",
    ], proc.stdout
    assert "Parseval" in lines[0]
    assert "leaves remainder" in lines[5], lines[5]
