"""Differential tests of the weight queries.

Hamming weights come from one p-ary Walsh-Hadamard transform of the
multiset of generator columns (codes._column_transform).  The reference it
replaced lives here as the oracle: every codeword spanned from the
FieldElement view of the generator with the element operators
(codewords_oracle), its nonzero entries counted one by one.  The same
oracle checks LinearCode.codewords(), which adds index rows with the
field's IndexArith, and the complete weight enumerator built on it.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walshcodes.algebra import is_prime, make_field
from walshcodes.codes import (
    complete_weight_enumerator,
    dual,
    from_rows,
    full_code,
    hull,
    is_mds,
    min_distance,
    weight_distribution,
    zero_code,
)
from walshcodes.constructions import (
    defining_set,
    first_generic,
    make_cyclotomic_set,
    make_lcd_set,
    make_skew_set,
    second_generic,
)
from walshcodes.errors import TooLarge, ZeroCode
from walshcodes.functions import parse_function


def _prime_powers(limit):
    return [(p, m) for p in range(2, limit + 1) if is_prime(p) for m in range(1, 6) if p ** m <= limit]


SMALL = _prime_powers(27)
WIDE = [(2, 8), (3, 5), (5, 3)]


def _ids(fields):
    return [f"GF({p}^{m})" for p, m in fields]


# -- oracles --------------------------------------------------------------------


def codewords_oracle(code):
    """Every codeword as a tuple of FieldElements: the span of code.generator
    with the element operators, the first row's coefficient running fastest."""
    zero = tuple([code.base.zero] * code.n)

    def span(rows):
        if not rows:
            yield zero
            return
        head = rows[0]
        scaled = [tuple(c * x for x in head) for c in code.base.elements]
        for w in span(rows[1:]):
            for sv in scaled:
                yield tuple(a + b for a, b in zip(w, sv))

    return span(list(code.generator))


def weight_distribution_oracle(words):
    counts = {}
    for word in words:
        w = sum(1 for x in word if not x.is_zero())
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


def cwe_oracle(words, q):
    counts = Counter()
    for word in words:
        comp = [0] * q
        for x in word:
            comp[x.index] += 1
        counts[tuple(comp)] += 1
    return dict(counts)


def assert_matches_enumeration(code):
    words = list(codewords_oracle(code))
    # codewords() gives the oracle's words in the same order, so the same multiset
    assert list(code.codewords()) == [tuple(x.index for x in w) for w in words]
    if code.base.q <= 27:
        # a composition has Q entries, so at the wide alphabets this check alone
        # would take longer than the rest of the file
        assert complete_weight_enumerator(code).counts == cwe_oracle(words, code.base.q)
    weights = weight_distribution_oracle(words)
    assert weight_distribution(code).counts == weights
    if code.k:
        d = min(w for w in weights if w)
        assert min_distance(code) == d
        assert is_mds(code) == (d == code.n - code.k + 1)
    else:
        with pytest.raises(ZeroCode):
            min_distance(code)


def random_code(field, n, k, rng, zero_cols=0, repeats=0):
    """Span of k random rows of length n, with zero columns and repeated
    columns spliced in."""
    rows = [[field.elements[rng.randrange(field.q)] for _ in range(n)] for _ in range(k)]
    cols = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(n)]
    cols += [[field.zero] * k for _ in range(zero_cols)]
    cols += [list(rng.choice(cols)) for _ in range(repeats)] if cols else []
    rng.shuffle(cols)
    length = len(cols)
    if k == 0:
        return zero_code(field, length)
    return from_rows(field, [list(r) for r in zip(*cols)], n=length)


@pytest.mark.parametrize("pm", [(2, 2), (2, 3), (3, 2)], ids=_ids([(2, 2), (2, 3), (3, 2)]))
def test_codewords_are_members(pm):
    # over F_Q an index >= p is an element outside the prime field, not a scalar mod p
    field = make_field(*pm)
    rng = random.Random(field.q)
    for k in range(4):
        code = random_code(field, k + 2, k, rng, zero_cols=1)
        assert all(code.contains(w) for w in code.codewords())


# -- random codes over every small alphabet ---------------------------------------


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_random_codes_match_enumeration(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    kmax = 1
    while field.q ** (kmax + 1) <= 800:
        kmax += 1
    for trial in range(12):
        k = trial % (kmax + 1)
        n = rng.randrange(max(k, 1), k + 5)
        assert_matches_enumeration(random_code(field, n, k, rng, zero_cols=trial % 3, repeats=trial % 2 * 2))
    for n in range(1, kmax + 1):
        assert_matches_enumeration(full_code(field, n))
    assert_matches_enumeration(zero_code(field, 3))


@pytest.mark.parametrize("pm", WIDE, ids=_ids(WIDE))
def test_random_codes_match_enumeration_hypothesis(pm):
    field = make_field(*pm)

    @settings(max_examples=5, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2), st.integers(1, 3), st.randoms(use_true_random=False))
    def check(k, n, rng):
        assert_matches_enumeration(random_code(field, n, min(k, n), rng, zero_cols=rng.randrange(2), repeats=1))

    check()


@pytest.mark.parametrize(
    "p,n",
    [(2, 127), (2, 128), (2, 32767), (2, 32768), (3, 255), (3, 256), (3, 65535), (3, 65536)]
    + [(3, 63), (3, 64), (3, 16383), (3, 16384)],
)
def test_column_transform_on_both_sides_of_each_width_switch(p, n):
    """The packed fields hold the total mass n (p - 1) of the column counts
    and a sign bit, for the layer difference.  At x = 0 that difference is
    the mass itself, and the all-ones word of the row of ones puts -n into
    a field, which a field one bit too narrow would carry into its
    neighbour.  The switches at p = 3 are at n = 63 and 16383."""
    field = make_field(p, 1)
    rng = random.Random(n)
    code = from_rows(field, [[1] * n, [rng.randrange(p) for _ in range(n)]])
    assert weight_distribution(code).counts == Counter(n - w.count(0) for w in code.codewords())


# -- the paper's codes, duals and hulls -----------------------------------------------


@pytest.mark.parametrize(
    "pm,spec", [((2, 3), "x^3"), ((2, 4), "x^3"), ((3, 2), "x^2"), ((3, 3), "x^2"), ((5, 2), "g*x^2+x")]
)
@pytest.mark.parametrize("include_zero", [True, False])
def test_function_codes(pm, spec, include_zero):
    field = make_field(*pm)
    code = first_generic(parse_function(field, spec).with_codomain(field.m), include_zero)
    for c in (code, dual(code), hull(code)):
        if c.size() <= 4096:
            assert_matches_enumeration(c)


def test_defining_set_codes():
    f16, f81 = make_field(2, 4), make_field(3, 4)
    rng = random.Random(3)
    codes = [
        second_generic(make_skew_set(make_field(3, 3))),
        second_generic(make_cyclotomic_set(make_field(2, 4), 1)),
        second_generic(make_lcd_set(f16, f16.power_basis()[:2], 2)),
        second_generic(defining_set(f81, rng.sample(f81.elements, 7), base_degree=2)),
        second_generic(defining_set(f16, rng.sample(f16.elements, 6), base_degree=2)),
    ]
    assert [c.base.m for c in codes] == [1, 1, 2, 2, 2]
    for code in codes:
        for c in (code, dual(code), hull(code)):
            if c.size() <= 4096:
                assert_matches_enumeration(c)


# -- the guard -------------------------------------------------------------------------


def test_guard_refuses_before_the_transform():
    for field, k in ((make_field(2, 1), 12), (make_field(2, 2), 6), (make_field(3, 1), 8)):
        code = full_code(field, k)
        for query in (weight_distribution, min_distance, complete_weight_enumerator):
            with pytest.raises(TooLarge):
                query(code, guard=code.size() - 1)
        assert sum(weight_distribution(code, guard=code.size()).counts.values()) == code.size()
