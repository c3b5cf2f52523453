"""Differential tests of the weight queries.

Hamming weights come from one p-ary Walsh-Hadamard transform of the
multiset of generator columns (codes._column_transform), or for a function
code C(f) from the spectra of its components (codes._component_transform),
which is tested against the column transform.  The reference the column
transform replaced lives here as the oracle: every codeword spanned from the
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

from walshcodes import codes
from walshcodes.algebra import is_prime, make_field
from walshcodes.codes import (
    LinearCode,
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
from walshcodes.functions import ParyFunction, parse_function


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


FUNCTION_CASES = [((2, 3), "x^3"), ((2, 4), "x^3"), ((3, 2), "x^2"), ((3, 3), "x^2"), ((5, 2), "g*x^2+x")]


@pytest.mark.parametrize("pm,spec", FUNCTION_CASES)
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


# -- function codes from their component spectra --------------------------------------


@pytest.fixture
def routes(monkeypatch):
    """The names of the weight routes taken, in call order."""
    taken = []
    for name in ("_component_transform", "_column_transform"):

        def spy(code, width, name=name, route=getattr(codes, name)):
            taken.append(name)
            return route(code, width)

        monkeypatch.setattr(codes, name, spy)
    return taken


def column_oracle(code):
    """The column transform's distribution, read from a copy of the code
    that keeps no function."""
    return weight_distribution(LinearCode(code.base, code.n, code._rows)).counts


def assert_components_match_columns(f, routes):
    """The distribution of C(f), with and without x = 0, equals the column
    transform's, and came from the components exactly when k = 2m."""
    for include_zero in (True, False):
        code = first_generic(f, include_zero)
        routes.clear()
        got = weight_distribution(code).counts
        assert routes == ["_component_transform" if code.k == 2 * f.field.m else "_column_transform"]
        assert got == column_oracle(code)


@pytest.mark.parametrize("pm,spec", FUNCTION_CASES)
def test_component_route_of_the_function_codes(pm, spec, routes):
    field = make_field(*pm)
    assert_components_match_columns(parse_function(field, spec).with_codomain(field.m), routes)


POWER_FIELDS = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("pm", POWER_FIELDS, ids=_ids(POWER_FIELDS))
def test_component_route_of_power_functions(pm, routes):
    """x^d for every d <= 16, the linear x^p^i and the others of k < 2m
    among them."""
    field = make_field(*pm)
    for d in range(1, 17):
        f = ParyFunction.from_indices(field, field.power_indices(range(field.q), d), field.m)
        assert_components_match_columns(f, routes)


@pytest.mark.parametrize("pm", [(2, 8), (3, 5), (2, 10)], ids=_ids([(2, 8), (3, 5), (2, 10)]))
def test_component_route_of_random_tables(pm, routes):
    field = make_field(*pm)
    rng = random.Random(field.q)
    f = ParyFunction.from_indices(field, [rng.randrange(field.q) for _ in range(field.q)], field.m)
    assert_components_match_columns(f, routes)
    if field.q == 1024:
        assert_components_match_columns(parse_function(field, "x^3").with_codomain(field.m), routes)


def test_the_route_is_read_from_the_code(routes):
    """The components answer C(f) of dimension 2m over p <= 128; the column
    transform answers affine f (k < 2m), p > 128, and every code that
    first_generic did not build: duals, hulls and defining-set codes."""
    f16, f27, f131 = make_field(2, 4), make_field(3, 3), make_field(131, 1)

    def route(code):
        routes.clear()
        weight_distribution(code)
        return routes[0]

    f = parse_function(f16, "x^3").with_codomain(4)
    cube = first_generic(f)
    assert route(cube) == "_component_transform"
    # the code keeps the field, the values and the points, not the record, and
    # they take no part in equality or hashing
    assert cube._function == (f16, f.indices, range(16))
    assert first_generic(f, False)._function == (f16, f.indices, range(1, 16))
    untagged = LinearCode(cube.base, cube.n, cube._rows, cube.provenance)
    assert untagged == cube and hash(untagged) == hash(cube) and untagged._function is None
    for field, spec in ((f16, "x"), (f16, "x^2"), (f27, "x^3"), (f16, "x^4+x+1"), (f27, "g*x^9+x^3")):
        code = first_generic(parse_function(field, spec).with_codomain(field.m))
        assert code.k < 2 * field.m and route(code) == "_column_transform", spec
    square = first_generic(parse_function(f131, "x^2").with_codomain(1))
    assert square.k == 2 and route(square) == "_column_transform"
    for code in (dual(cube), hull(cube), second_generic(make_skew_set(f27)), second_generic(make_cyclotomic_set(f16, 1))):
        assert route(code) == "_column_transform"


def test_a_weight_transform_past_the_byte_guard_is_refused():
    """The [1009, 2] code of x^2 over GF(1009) passes the codeword guard,
    but its column transform would hold 1009 words of 1009^2 fields of 4
    bytes: refused before anything is built.  GF(31^2) holds 31 words of
    31^4 fields of 2 bytes, refused under a 2-MiB guard and answered by
    default."""
    import time

    start = time.perf_counter()
    big = first_generic(parse_function(make_field(1009, 1), "x^2").with_codomain(1))
    with pytest.raises(TooLarge, match="about 4108974916 bytes"):
        weight_distribution(big)
    with pytest.raises(TooLarge):
        min_distance(big)
    assert time.perf_counter() - start < 5
    field = make_field(31, 2)
    code = first_generic(parse_function(field, "x^2").with_codomain(2))
    with pytest.raises(TooLarge, match="about 57258302 bytes, past the byte guard 2097152"):
        weight_distribution(code, byte_guard=2 ** 21)
    want = {0: 1, 900: 29280, 929: 460800, 930: 960, 931: 432000, 960: 480}
    assert weight_distribution(code).counts == want


# -- the guard -------------------------------------------------------------------------


def test_guard_refuses_before_the_transform():
    for field, k in ((make_field(2, 1), 12), (make_field(2, 2), 6), (make_field(3, 1), 8)):
        code = full_code(field, k)
        for query in (weight_distribution, min_distance, complete_weight_enumerator):
            with pytest.raises(TooLarge):
                query(code, guard=code.size() - 1)
        assert sum(weight_distribution(code, guard=code.size()).counts.values()) == code.size()
