"""Differential tests of the elimination kernel on packed F_p rows.

Two oracles stand beside it.  The FieldElement `rref` that the index
kernels replaced lives here, unchanged, as `rref_oracle`, and
`dual_oracle` is the two-elimination dual: a left-to-right RREF, one
kernel vector per free column, and a second RREF of that basis.  The list
kernel that the packed one replaced lives here too (`list_rref`, with the
`prepare`/`axpy` row operations that `IndexArith` used to provide, and the
`list_*` kernels built on it): it reduced index lists entry by entry over
every alphabet, F_{p^s} included, with no expansion into F_p rows.  The
packed kernel must return the same rows and pivots as both, on every
field up to q = 27 and on prime fields on each side of every lane-width
switch.  The Gram pairing that read one byte an entry and every pair lives
here as `pairing_oracle`, for the one that reads one bit an entry and one
triangle.  The kernel's tuple transpose, which built each dual column by
column and turned it into rows with one `zip(*cols)`, lives here as
`kernel_oracle`, for the kernel that writes the rows into one buffer in
the stored row form.

The FieldElement operators that `rref_oracle` uses run on the same index
tables as `IndexArith`, so the oracles' independence rests on
tests/test_spectra_tables.py, which checks every operator against
coefficient arithmetic.
"""

import os
import random
import subprocess
import sys
import textwrap
from functools import reduce
from itertools import islice
from operator import itemgetter, mul
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import walshcodes.codes as codes_module
from walshcodes._packed import lanes_of, pack, unpack
from walshcodes.algebra import is_prime, make_field, subfield
from walshcodes.codes import (
    LinearCode,
    dual,
    from_rows,
    full_code,
    hull,
    hull_dim,
    intersect,
    is_lcd,
    matrix_rank,
    nullspace,
    restrict_to_prime_subfield,
    restrict_to_subfield,
    rref,
    sum_code,
    zero_code,
)
from walshcodes.constructions import (
    defining_set,
    dimension_via_span,
    dual_first_closed_form,
    dual_second_closed_form,
    first_codeword,
    first_generic,
    hull_first_kernel,
    hull_second_kernel,
    second_codeword,
    second_generic,
)
from walshcodes.errors import RaggedRows, TooLarge
from walshcodes.functions import ParyFunction, parse_function


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
HULL = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
WITH_SUBFIELDS = [(2, 4), (3, 2), (2, 6)]


def _ids(fields):
    return [f"GF({p}^{m})" for p, m in fields]


# -- oracle ---------------------------------------------------------------------


def rref_oracle(rows, field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not mat[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c] ** (-1)
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat[:r]], pivots


def dual_oracle(rows, field, n):
    """RREF basis of {v in F^n : rows @ v = 0} by two eliminations: one
    kernel vector per free column of the left-to-right RREF, reduced again."""
    red, pivots = rref_oracle(rows, field)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return rref_oracle(basis, field)[0]


# -- the list kernel ---------------------------------------------------------


def prepare(ar, row):
    """The pivot row as (column, value) pairs of its nonzero entries, the
    value a log over F_{p^m}."""
    if ar.prime:
        return [(j, x) for j, x in enumerate(row) if x]
    return [(j, ar.log[x]) for j, x in enumerate(row) if x]


def axpy(ar, row, f, prepared):
    """row += f * (the prepared row), in place; f != 0."""
    if ar.prime:
        for j, y in prepared:
            row[j] = (row[j] + f * y) % ar.p
        return
    exp, log, n1 = ar.exp, ar.log, ar.n1
    lf = log[f]
    if ar.even:
        for j, ly in prepared:
            row[j] ^= exp[(lf + ly) % n1]
        return
    for j, ly in prepared:
        lc = (lf + ly) % n1
        x = row[j]
        if x:
            z = ar.zech[(lc - log[x]) % n1]
            row[j] = exp[(log[x] + z) % n1] if z >= 0 else 0
        else:
            row[j] = exp[lc]


def list_rref(mat, ar):
    """Reduced row echelon form of an index matrix, in place; returns (the
    nonzero rows, pivot columns)."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if mat[i][c]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] != 1:
            mat[r] = ar.scale(mat[r], ar.inv(mat[r][c]))
        targets = [row for i, row in enumerate(mat) if row[c] and i != r]
        if targets:
            prepared = prepare(ar, mat[r])
            for row in targets:
                axpy(ar, row, ar.neg(row[c]), prepared)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def list_nullspace(mat, ar, n):
    """RREF basis of {v : mat @ v = 0}: list_rref from the right, one vector
    per free column."""
    red, pivots = list_rref([list(reversed(row)) for row in mat], ar)
    pivot_set = {n - 1 - c for c in pivots}
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [0] * n
        v[fc] = 1
        for row, c in zip(red, pivots):
            x = row[n - 1 - fc]
            if x:
                v[n - 1 - c] = ar.neg(x)
        basis.append(v)
    return basis


def list_pairing(rows, cols, ar):
    columns = [prepare(ar, col) for col in zip(*cols)]
    out = []
    for u in rows:
        row = [0] * len(cols)
        for x, col in zip(u, columns):
            if x:
                axpy(ar, row, x, col)
        out.append(row)
    return out


def list_hull(gens, ar, n):
    """The kernel of the Gram matrix mapped through gens."""
    rows = [prepare(ar, g) for g in gens]
    words = []
    for x in list_nullspace(list_pairing(gens, gens, ar), ar, len(gens)):
        word = [0] * n
        for xi, row in zip(x, rows):
            if xi:
                axpy(ar, word, xi, row)
        words.append(word)
    return words


def list_restrict(code, s):
    """The F_{p^s} RREF of V cap F_{p^s}^n: the m F_p constraints of each
    parity check on the n s unknowns c_it, solved, joined and reduced."""
    big = code.base
    sub, embed, _ = subfield(big, s)
    theta = [embed[b].index for b in sub.power_basis()]
    p, n, ar = big.p, code.n, big.arith
    expanded = []
    for row in list_nullspace([list(r) for r in code.rows], ar, n):
        prods = [x for hs in zip(*(ar.scale(row, t) for t in theta)) for x in hs]
        expanded.extend(map(list, zip(*(big.elements[x].coeffs for x in prods))))
    words = []
    for v in list_nullspace(expanded, make_field(p, 1).arith, n * s):
        word = v[s - 1 :: s]
        for t in range(s - 2, -1, -1):
            word = [w * p + c for w, c in zip(word, v[t::s])]
        words.append(word)
    return list_rref(words, sub.arith)[0]


def dot(u, v, field):
    acc = field.zero
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


# -- matrices -------------------------------------------------------------------


def random_matrix(field, nrows, ncols, rng):
    return [[field.elements[rng.randrange(field.q)] for _ in range(ncols)] for _ in range(nrows)]


def deficient_matrix(field, nrows, ncols, rank, rng):
    """nrows random combinations of `rank` random rows."""
    basis = random_matrix(field, rank, ncols, rng)
    out = []
    for _ in range(nrows):
        row = [field.zero] * ncols
        for b in basis:
            c = field.elements[rng.randrange(field.q)]
            row = [x + c * y for x, y in zip(row, b)]
        out.append(row)
    return out


def matrix_cases(field, rng):
    """Full-rank, rank-deficient, zero-row, zero-column, wide, tall, empty."""
    cases = [[], [[field.zero] * 3], [[field.one]]]
    for _ in range(6):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        cases.append(random_matrix(field, nrows, ncols, rng))
        cases.append(deficient_matrix(field, nrows, ncols, rng.randrange(0, min(nrows, ncols) + 1), rng))
    tall = random_matrix(field, 8, 4, rng)
    cases.append(tall)
    zero_rows = random_matrix(field, 5, 6, rng)
    zero_rows[1] = [field.zero] * 6
    zero_rows[3] = [field.zero] * 6
    cases.append(zero_rows)
    zero_cols = random_matrix(field, 4, 7, rng)
    for row in zero_cols:
        row[0] = row[4] = field.zero
    cases.append(zero_cols)
    return cases


def assert_nullspace(rows, field, n):
    basis = nullspace(rows, field, n)
    rank = len(rref_oracle(rows, field)[0])
    assert len(basis) == n - rank
    assert len(rref_oracle(basis, field)[0]) == len(basis)
    for v in basis:
        assert all(dot(r, v, field).is_zero() for r in rows)


# -- rref and nullspace against the oracle --------------------------------------


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_rref_matches_oracle(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    for rows in matrix_cases(field, rng):
        assert rref(rows, field) == rref_oracle(rows, field)
        assert matrix_rank(rows, field) == len(rref_oracle(rows, field)[1])
        n = len(rows[0]) if rows else 3
        assert_nullspace(rows, field, n)


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_dual_matches_oracle(pm):
    field = make_field(*pm)
    rng = random.Random(100 + field.q)
    for _ in range(8):
        n = rng.randrange(1, 9)
        rows = deficient_matrix(field, rng.randrange(1, 6), n, rng.randrange(0, n + 1), rng)
        code = from_rows(field, rows)
        assert list(code.generator) == rref_oracle(rows, field)[0]
        d = dual(code)
        assert code.k + d.k == n
        assert all(dot(g, h, field).is_zero() for g in code.generator for h in d.generator)
        assert list(d.generator) == rref_oracle(d.generator, field)[0]
        assert dual(d) == code


def _matrices(draw_field):
    @st.composite
    def strategy(draw):
        field = draw_field
        nrows = draw(st.integers(0, 6))
        ncols = draw(st.integers(1, 8))
        entry = st.integers(0, field.q - 1) | st.sampled_from([0, 1])
        rows = [[field.elements[draw(entry)] for _ in range(ncols)] for _ in range(nrows)]
        return rows, ncols

    return strategy()


@pytest.mark.parametrize("pm", WIDE, ids=_ids(WIDE))
def test_rref_matches_oracle_hypothesis(pm):
    field = make_field(*pm)

    @settings(
        max_examples=40,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_matrices(field))
    def check(case):
        rows, ncols = case
        assert rref(rows, field) == rref_oracle(rows, field)
        assert_nullspace(rows, field, ncols)

    check()


# -- the packed kernel against the list kernel ----------------------------------

# every field up to q = 27, and prime fields on both sides of each lane width:
# 61 is the last with 8-bit lanes, 251 and 16381 (the last) take 16 bits,
# 65521 takes 32
LANE_SWITCHES = [(61, 1), (251, 1), (16381, 1), (65521, 1)]
ORACLE = SMALL + LANE_SWITCHES


def _combinations(field, basis, count, rng):
    """count random combinations of the index rows in basis."""
    ar = field.arith
    out = []
    for _ in range(count):
        row = [0] * len(basis[0])
        for b in basis:
            row = list(map(ar.add, row, ar.scale(b, rng.randrange(field.q))))
        out.append(row)
    return out


def shape_cases(field, rng):
    """Index matrices: the zero matrix, one row, one column, more rows than
    columns, rows that all depend on one, length 1 (zero and nonzero), and
    random full-rank and rank-deficient ones."""

    def rand(nrows, ncols):
        return [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]

    cases = [
        [[0] * 5 for _ in range(3)],
        rand(1, 7),
        rand(5, 1),
        rand(7, 3),
        _combinations(field, rand(1, 6), 4, rng),
        [[rng.randrange(1, field.q)]],
        [[0]],
    ]
    for _ in range(4):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
        cases.append(rand(nrows, ncols))
        cases.append(_combinations(field, rand(rng.randrange(1, min(nrows, ncols) + 1), ncols), nrows, rng))
    return cases


def _assert_matches_list_kernel(rows, field, other):
    """rref, matrix_rank, nullspace, dual, hull, hull_dim, intersect (with
    the span of other) and every subfield restriction of the span of rows
    against the list kernel, and rref against the FieldElement oracle."""
    ar, n = field.arith, len(rows[0])
    red, pivots = list_rref([list(r) for r in rows], ar)
    assert rref(rows, field) == (_elements(red, field), pivots)
    assert rref(rows, field) == rref_oracle(_elements(rows, field), field)
    assert matrix_rank(rows, field) == len(red)
    assert nullspace(rows, field, n) == _elements(list_nullspace(rows, ar, n), field)
    code, b = from_rows(field, rows, n), from_rows(field, other, n)
    assert code.rows == _tuples(red)
    assert dual(code).rows == _tuples(list_nullspace(red, ar, n))
    assert hull(code).rows == _tuples(list_hull(red, ar, n))
    assert hull_dim(code) == code.k - len(list_rref(list_pairing(red, red, ar), ar)[0])
    perps = list_nullspace(code.rows, ar, n) + list_nullspace(b.rows, ar, n)
    assert intersect(code, b).rows == _tuples(list_nullspace(perps, ar, n))
    for s in range(1, field.m):
        if field.m % s == 0:
            assert restrict_to_subfield(code, s).rows == _tuples(list_restrict(code, s))


def _elements(rows, field):
    return [tuple(field.elements[x] for x in row) for row in rows]


def _tuples(rows):
    return tuple(map(tuple, rows))


def _stored_form(q):
    """The form of a code's stored row over an alphabet of q elements: bytes,
    one index a byte, while q <= 256, else a tuple."""
    return bytes if q <= 256 else tuple


@pytest.mark.parametrize("pm", ORACLE, ids=_ids(ORACLE))
def test_packed_kernel_matches_the_list_kernel(pm):
    field = make_field(*pm)
    rng = random.Random(500 + field.q)
    for rows in shape_cases(field, rng):
        n = len(rows[0])
        _assert_matches_list_kernel(rows, field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(2)])


HYPOTHESIS_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (251, 1), (65521, 1)]


@pytest.mark.parametrize("pm", HYPOTHESIS_FIELDS, ids=_ids(HYPOTHESIS_FIELDS))
def test_packed_kernel_matches_the_list_kernel_hypothesis(pm):
    field = make_field(*pm)
    entry = st.sampled_from([0, 1, field.q - 1]) | st.integers(0, field.q - 1)

    @settings(
        max_examples=40,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=7),
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3),
    )))
    def check(case):
        rows, other = case
        _assert_matches_list_kernel(rows, field, other)

    check()


# -- one elimination per dual and hull, against the two-elimination oracle ------


def _hull_oracle(generator, field, n):
    """C cap C^perp = (C^perp + C)^perp, by the oracle."""
    return dual_oracle(dual_oracle(generator, field, n) + list(generator), field, n)


def _assert_matches_dual_oracle(rows, field, n):
    """nullspace, dual and hull of rows (of length n) against the oracle; the
    hull's rows are their own RREF."""
    assert nullspace(rows, field, n) == dual_oracle(rows, field, n)
    code = from_rows(field, rows, n)
    assert list(dual(code).generator) == dual_oracle(code.generator, field, n)
    h = hull(code)
    assert list(h.generator) == _hull_oracle(code.generator, field, n)
    assert list(h.generator) == rref_oracle(h.generator, field)[0]


def _unitriangular(field, n, rng):
    """An n x n matrix of rank n: ones on the diagonal, random above it."""
    return [
        [field.one if j == i else field.elements[rng.randrange(field.q)] if j > i else field.zero for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_duals_and_hulls_match_the_dual_oracle(pm):
    """Zero rows and columns, k = 0 (no rows, or only zero rows), k = n, and
    random full-rank and rank-deficient matrices."""
    field = make_field(*pm)
    rng = random.Random(200 + field.q)
    for rows in matrix_cases(field, rng) + [_unitriangular(field, 5, rng), _unitriangular(field, 1, rng)]:
        _assert_matches_dual_oracle(rows, field, len(rows[0]) if rows else 3)
    for _ in range(6):
        n = rng.randrange(1, 8)
        a = from_rows(field, deficient_matrix(field, rng.randrange(1, 5), n, rng.randrange(0, n + 1), rng), n)
        for b in (
            from_rows(field, deficient_matrix(field, rng.randrange(1, 5), n, rng.randrange(0, n + 1), rng), n),
            dual(a),
            LinearCode(field, n, ()),
        ):
            expected = dual_oracle(dual_oracle(a.generator, field, n) + dual_oracle(b.generator, field, n), field, n)
            assert list(intersect(a, b).generator) == expected


@pytest.mark.parametrize("pm", WIDE, ids=_ids(WIDE))
def test_duals_and_hulls_match_the_dual_oracle_hypothesis(pm):
    field = make_field(*pm)

    @settings(
        max_examples=30,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_matrices(field))
    def check(case):
        rows, ncols = case
        _assert_matches_dual_oracle(rows, field, ncols)

    check()


@pytest.mark.parametrize("pm", SMALL, ids=_ids(SMALL))
def test_closed_form_duals_match_the_dual_oracle(pm):
    field = make_field(*pm)
    prime = make_field(field.p, 1)
    rng = random.Random(300 + field.q)
    tables = [[field.zero] * field.q, list(field.elements)]
    tables += [[field.elements[rng.randrange(field.q)] for _ in range(field.q)] for _ in range(2)]
    for table in tables:
        f = ParyFunction(field, table, field.m)
        for include_zero in (True, False):
            code = first_generic(f, include_zero)
            got = dual_first_closed_form(f, include_zero)
            assert got.base is prime
            assert list(got.generator) == dual_oracle(code.generator, prime, code.n)
    for s in [d for d in range(1, field.m + 1) if field.m % d == 0]:
        sub = subfield(field, s)[0]
        sets = [[field.zero] * 3, [field.one]]  # k = 0, and k = n = 1
        sets += [[field.elements[rng.randrange(field.q)] for _ in range(rng.randrange(1, 9))] for _ in range(4)]
        for elements in sets:
            ds = defining_set(field, elements, s)
            code = second_generic(ds)
            got = dual_second_closed_form(ds)
            assert got.base is sub
            assert list(got.generator) == dual_oracle(code.generator, sub, code.n)


@pytest.mark.parametrize("pm", [pm for pm in SMALL if pm[1] > 1], ids=_ids([pm for pm in SMALL if pm[1] > 1]))
def test_restriction_is_the_rref_of_the_set_intersection(pm):
    field = make_field(*pm)
    rng = random.Random(400 + field.q)
    for s in [d for d in range(1, field.m) if field.m % d == 0]:
        sub, _, project = subfield(field, s)
        for _ in range(3):
            n = rng.randrange(1, 4)
            rows = deficient_matrix(field, rng.randrange(1, 3), n, rng.randrange(0, min(n, 2) + 1), rng)
            code = from_rows(field, rows, n)
            inside = [
                [project[field.elements[x]] for x in w]
                for w in code.codewords()
                if all(field.elements[x] in project for x in w)
            ]
            assert list(restrict_to_subfield(code, s).generator) == rref_oracle(inside, sub)[0]


def test_one_rref_per_dual_and_none_after_the_gram_kernel(monkeypatch):
    """A dual is one elimination; the hull reduces only its k x k Gram
    matrix (over F_{p^s}, its s k x s k F_p constraints); the closed-form
    second dual reduces the coordinate matrix of Frobenius powers 0 and 1
    (none past 1, also where m/s >= 3) and assembles the basis from power 0.
    A set keeps that reduction, and a function its own: dimension_via_span
    then reduces nothing, a second second-construction closed form reduces
    only power 1, and a second first-construction one nothing."""
    shapes = []
    kernel = codes_module._reduce

    def counting(words, lanes):
        words = list(words)
        shapes.append((len(words), lanes.n))
        return kernel(words, lanes)

    monkeypatch.setattr(codes_module, "_reduce", counting)
    field = make_field(3, 2)
    rng = random.Random(5)
    f = ParyFunction(field, [field.elements[rng.randrange(field.q)] for _ in range(field.q)], field.m)
    ds = defining_set(field, [field.elements[rng.randrange(1, field.q)] for _ in range(7)])
    for code in (from_rows(field, random_matrix(field, 3, 7, rng)), first_generic(f), second_generic(ds)):
        s = code.base.m
        shapes.clear()
        dual(code)
        assert shapes == [(s * code.k, s * code.n)]
        shapes.clear()
        hull(code)
        assert shapes == [(s * code.k, s * code.k)]
    shapes.clear()
    dual_first_closed_form(f)
    assert len(shapes) == 1
    shapes.clear()
    dual_first_closed_form(f)
    assert shapes == []
    shapes.clear()
    dual_second_closed_form(ds)
    assert shapes == [(field.m, len(ds))] * field.m
    shapes.clear()
    dimension_via_span(ds)
    assert shapes == []
    dual_second_closed_form(ds)
    assert shapes == [(field.m, len(ds))] * (field.m - 1)
    # m/s = 3 over GF(2^6) with s = 2: powers 0 and 1 only
    big = make_field(2, 6)
    wide = defining_set(big, [big.elements[rng.randrange(1, big.q)] for _ in range(9)], base_degree=2)
    shapes.clear()
    dual_second_closed_form(wide)
    assert shapes == [(big.m, 2 * len(wide))] * 2
    shapes.clear()
    dual_second_closed_form(wide)
    assert shapes == [(big.m, 2 * len(wide))]
    shapes.clear()
    dimension_via_span(wide)
    assert shapes == []


def pairing_oracle(rows, cols, field):
    """The route the dense-bit pairing replaced: at p = 2 every row packed
    one byte an entry, and every pair of the matrix read, a Gram matrix's
    included."""
    if field.p == 2 and field.m == 1:
        packed = pack(cols, 1)
        return [[(u & v).bit_count() & 1 for v in packed] for u in pack(rows, 1)]
    if field.m == 1:
        p = field.p
        return [[sum(map(mul, u, v)) % p for v in cols] for u in rows]
    ar = field.arith
    return [[reduce(ar.add, map(ar.mul, u, v), 0) for v in cols] for u in rows]


PAIRING_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("pm", PAIRING_FIELDS, ids=_ids(PAIRING_FIELDS))
def test_pairing_matches_the_byte_route(pm):
    """Rows against other rows and Gram matrices (cols is rows, one triangle
    read), in the stored form of the field's rows (bytes), with zero and
    repeated rows, on lengths on both sides of a byte and past a 4300-digit
    int."""
    field = make_field(*pm)
    form = _stored_form(field.q)
    rng = random.Random(field.q)
    for n in (1, 7, 8, 9, 64, 5000):
        for k in (0, 1, 2, 5):
            rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
            if k > 2:
                rows[1], rows[2] = (0,) * n, rows[0]
            kept = [form(row) for row in rows]
            others = [form(rng.randrange(field.q) for _ in range(n)) for _ in range(3)]
            gram = codes_module._pairing(kept, kept, field)
            assert gram == pairing_oracle(kept, list(kept), field)
            assert all(gram[i][j] == gram[j][i] for i in range(k) for j in range(k))
            assert codes_module._pairing(kept, others, field) == pairing_oracle(kept, others, field)
            assert codes_module._pairing(others, kept, field) == pairing_oracle(others, kept, field)


def test_every_dual_route_refuses_past_the_byte_guard(monkeypatch):
    """The estimate, 8 bytes for each of the (n s - rank) x n s entries of
    the kernel's transpose, is checked before anything is built: the
    closed-form dual over GF(2^16), 65504 x 65536 entries, is refused at the
    default guard, and a guard one byte under a dual's estimate refuses
    each route to it while one at the estimate answers it as before.  No
    dual of at most 1 MiB is refused, whatever the guard."""
    big = parse_function(make_field(2, 16), "x^3").with_codomain(16)
    with pytest.raises(TooLarge, match="byte guard"):
        dual_first_closed_form(big)
    field = make_field(2, 9)
    f = parse_function(field, "x^3").with_codomain(9)
    code = first_generic(f)  # [512, 18]: duals of 494 x 512 entries
    big_field = make_field(2, 10)
    rng = random.Random(10)
    ds = defining_set(big_field, [big_field.elements[rng.randrange(1, 1024)] for _ in range(300)], base_degree=2)
    routes = [  # 8 bytes a pointer, (n s - rank) x n s
        (8 * 494 * 512, lambda: dual(code)),
        (8 * 494 * 512, lambda: dual_first_closed_form(f)),
        (8 * 494 * 512, lambda: nullspace(code.generator, code.base, 512)),
        (8 * 494 * 512, lambda: intersect(code, code)),  # the first of its three nullspaces
        (8 * 590 * 600, lambda: dual_second_closed_form(ds)),
        (8 * 590 * 600, lambda: dual(second_generic(ds))),
    ]
    for need, route in routes:
        answer = route()
        monkeypatch.setenv("WALSHCODES_BYTE_GUARD", str(need - 1))
        with pytest.raises(TooLarge, match=f"about {need} bytes"):
            route()
        monkeypatch.setenv("WALSHCODES_BYTE_GUARD", str(need))
        assert route() == answer
        monkeypatch.delenv("WALSHCODES_BYTE_GUARD")
    assert dual(code, byte_guard=8 * 494 * 512) == dual(code)
    with pytest.raises(TooLarge):
        dual(code, byte_guard=8 * 494 * 512 - 1)
    small = first_generic(ParyFunction.from_callable(make_field(2, 3), lambda x: x ** 3, 3))
    assert dual(small, byte_guard=1).k == 2


# -- one row form ------------------------------------------------------------


def kernel_oracle(reduced, field, n):
    """The route _kernel replaced: the F_p kernel vectors built column by
    column (a unit column at each free column, -R[i] at the free columns at
    pivot column P_i), turned into rows by one tuple transpose, and those
    that lead at digit 0 of a block joined into tuples of entries."""
    rows, pivots = reduced
    p, s = field.p, field.m
    width = n * s
    nf = width - len(pivots)
    if not nf:
        return []
    free = sorted(set(range(width)).difference([width - 1 - c for c in pivots]))
    lanes = lanes_of(p, width)
    eye = (0,) * (nf - 1) + (1,) + (0,) * (nf - 1)
    cols = [None] * width
    for a, f in enumerate(free):
        cols[f] = islice(eye, nf - 1 - a, None)
    at_free = itemgetter(*free)
    for row, c in zip(unpack([lanes.sub(0, row) for row in rows], lanes.width, width, order="big"), pivots):
        col = at_free(row)
        cols[width - 1 - c] = col if nf > 1 else (col,)
    vectors = list(zip(*cols))
    if s == 1:
        return vectors
    joined = []
    for v, f in zip(vectors, free):
        if f % s == 0:
            word = v[s - 1 :: s]
            for t in range(s - 2, -1, -1):
                word = [w * p + c for w, c in zip(word, v[t::s])]
            joined.append(tuple(word))
    return joined


KERNEL_FIELDS = ORACLE + [(3, 6)]


@pytest.mark.parametrize("pm", KERNEL_FIELDS, ids=_ids(KERNEL_FIELDS))
def test_kernel_matches_the_transpose_route(pm):
    """_kernel against kernel_oracle, its rows in the stored form of the
    field: nullity 0 (n x n of rank n), nullity 1 (the nf = 1 branch of the
    transpose), larger nullities, the zero matrix, and zero and repeated
    rows, over the index matrices of the list-kernel tests as well."""
    field = make_field(*pm)
    form = _stored_form(field.q)
    rng = random.Random(900 + field.q)
    cases = [(mat, len(mat[0])) for mat in shape_cases(field, rng)]
    for n in (1, 2, 5, 9):
        full = [[x.index for x in row] for row in _unitriangular(field, n, rng)]
        cases += [(full, n), (full[1:], n), (full[1:] + full[:1] + [[0] * n], n), (full[2:] + full[2:3] * 2, n)]
    nullities = set()
    for mat, n in cases:
        reduced = codes_module._reduced_checks(mat, field, n)
        got = codes_module._kernel(reduced, field, n)
        assert all(type(row) is form for row in got)
        assert list(map(tuple, got)) == kernel_oracle(reduced, field, n)
        nullities.add(len(got))
    assert {0, 1, 2} <= nullities


# one-byte prime fields on both sides of the lane switch at 61, alphabets
# F_{p^s} of at most 256 elements, and alphabets past one byte
ROW_FORM_FIELDS = [(2, 1), (3, 1), (61, 1), (67, 1), (251, 1), (2, 2), (3, 2), (2, 8), (257, 1), (3, 6)]
# (ambient field, base degree) of the constructions over each alphabet
ROW_FORM_AMBIENT = {
    (2, 1): ((2, 3), 1),
    (3, 1): ((3, 2), 1),
    (61, 1): ((61, 1), 1),
    (67, 1): ((67, 1), 1),
    (251, 1): ((251, 1), 1),
    (257, 1): ((257, 1), 1),
    (2, 2): ((2, 4), 2),
    (3, 2): ((3, 4), 2),
    (2, 8): ((2, 8), 8),
    (3, 6): ((3, 6), 6),
}


def _assert_one_row_form(code, expected):
    """The stored rows are in the form of the alphabet, the same objects
    after rows, generator, == and hash are read, and rows reads the index
    tuples the list kernels give."""
    form = _stored_form(code.base.q)
    stored = code._rows
    assert all(type(row) is form for row in stored)
    assert code.rows == _tuples(expected)
    assert [tuple(x.index for x in row) for row in code.generator] == list(code.rows)
    assert code == LinearCode(code.base, code.n, code.rows) and not code != code
    assert hash(code) == hash(LinearCode(code.base, code.n, [list(row) for row in code.rows]))
    assert code._rows is stored and all(type(row) is form for row in code._rows)


@pytest.mark.parametrize("pm", ROW_FORM_FIELDS, ids=_ids(ROW_FORM_FIELDS))
def test_every_producer_stores_one_row_form(pm):
    """Every producer of a code stores its rows as bytes over an alphabet of
    at most 256 elements and as tuples over a larger one, whatever form it
    was handed, and never changes them; rows reads the list kernels' tuples.
    The producers: from_rows, full_code, zero_code, dual, sum_code,
    intersect, hull, restrict_to_subfield, both generic constructions, both
    closed-form duals and both kernel hulls."""
    field = make_field(*pm)
    ar, rng = field.arith, random.Random(1000 + field.q)
    n = 7
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(3)]
    rows.append(list(map(ar.add, rows[0], rows[1])))
    other = [[rng.randrange(field.q) for _ in range(n)] for _ in range(2)]
    code, b = from_rows(field, rows, n), from_rows(field, other, n)
    red, red_b = list_rref([list(r) for r in rows], ar)[0], list_rref([list(r) for r in other], ar)[0]
    _assert_one_row_form(code, red)
    _assert_one_row_form(from_rows(field, list(map(_stored_form(field.q), rows)), n), red)
    _assert_one_row_form(full_code(field, n), [[int(i == j) for j in range(n)] for i in range(n)])
    _assert_one_row_form(zero_code(field, n), [])
    _assert_one_row_form(dual(code), list_nullspace(red, ar, n))
    _assert_one_row_form(sum_code(code, b), list_rref([list(r) for r in red + red_b], ar)[0])
    perps = list_nullspace(red, ar, n) + list_nullspace(red_b, ar, n)
    _assert_one_row_form(intersect(code, b), list_nullspace(perps, ar, n))
    _assert_one_row_form(hull(code), list_hull(red, ar, n))
    for s in range(1, field.m):
        if field.m % s == 0:
            _assert_one_row_form(restrict_to_subfield(code, s), list_restrict(code, s))
    (p, m), s = ROW_FORM_AMBIENT[pm]
    ambient = make_field(p, m)
    basis = [ambient.elements[p ** j] for j in range(m)]
    if s == 1:
        f = ParyFunction.from_callable(ambient, lambda x: x ** 3, m)
        words = [first_codeword(f, a, ambient.zero) for a in basis] + [first_codeword(f, ambient.zero, x) for x in basis]
        first = list_rref(list(map(list, words)), ar)[0]
        _assert_one_row_form(first_generic(f), first)
        _assert_one_row_form(dual_first_closed_form(f), list_nullspace(first, ar, ambient.q))
        _assert_one_row_form(hull_first_kernel(f), list_hull(first, ar, ambient.q))
    ds = defining_set(ambient, [ambient.elements[rng.randrange(1, ambient.q)] for _ in range(9)], base_degree=s)
    second = list_rref([list(second_codeword(ds, x)) for x in basis], ar)[0]
    _assert_one_row_form(second_generic(ds), second)
    _assert_one_row_form(dual_second_closed_form(ds), list_nullspace(second, ar, len(ds)))
    _assert_one_row_form(hull_second_kernel(ds), list_hull(second, ar, len(ds)))


def test_a_dual_is_stored_in_bytes():
    """The dual of the [2048, 22] code of x^3 over GF(2^11), 2026 x 2048
    entries, is built in one byte an entry: its traced peak stays under
    12 MiB (a dual of tuples, with its transpose, took 32.5 MiB)."""
    import tracemalloc

    code = first_generic(parse_function(make_field(2, 11), "x^3").with_codomain(11))
    tracemalloc.start()
    try:
        d = dual(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.k == 2026 and peak < 12 * 2 ** 20


def test_ragged_rows_raise_at_the_edge():
    field = make_field(3, 1)
    with pytest.raises(RaggedRows):
        nullspace([[1, 0, 1, 2, 2]], field, 3)
    with pytest.raises(RaggedRows):
        nullspace([[1, 0, 1]], field, 5)
    for rows in ([[1, 0], [1, 1, 1]], [[1, 1, 1], [1, 0]]):
        with pytest.raises(RaggedRows):
            rref(rows, field)
        with pytest.raises(RaggedRows):
            matrix_rank(rows, field)
        with pytest.raises(RaggedRows):
            nullspace(rows, field, 3)


# -- hull through the Gram matrix -----------------------------------------------


def _self_orthogonal_rows(field):
    """Rows of a self-orthogonal code over GF(2), GF(3), GF(4), GF(5) or GF(9)."""
    if field.q == 2:
        return [[1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]]
    if field.q == 3:
        return [[1, 1, 1, 0], [0, 1, 2, 1]]  # the tetracode, self-dual
    if field.q == 5:
        return [[1, 2, 0, 0], [0, 0, 1, 3]]
    # GF(4): 1 + w^2 + w^4 = 0; GF(9): 1 + i^2 = 0 for i = g^2
    w = field.generator() if field.p == 2 else field.generator() ** 2
    return [[field.one, w, w * w, field.zero]] if field.p == 2 else [[field.one, w, field.zero]]


@pytest.mark.parametrize("pm", HULL, ids=_ids(HULL))
def test_hull_is_intersection_with_dual(pm):
    field = make_field(*pm)
    rng = random.Random(7 * field.q)
    codes = [from_rows(field, _self_orthogonal_rows(field))]
    codes.append(from_rows(field, [[field.one if i == j else field.zero for j in range(4)] for i in range(2)]))
    for _ in range(25):
        n = rng.randrange(1, 8)
        codes.append(from_rows(field, random_matrix(field, rng.randrange(1, n + 1), n, rng)))
    kinds = set()
    for code in codes:
        h = hull(code)
        assert h == intersect(code, dual(code))
        assert hull_dim(code) == h.k
        gram = [[dot(u, v, field) for v in code.generator] for u in code.generator]
        assert h.k == code.k - len(rref_oracle(gram, field)[0])
        assert is_lcd(code) == (h.k == 0)
        assert hull(h) == h  # a hull is self-orthogonal
        kinds.add("lcd" if h.k == 0 else "self-orthogonal" if h == code else "other")
    assert {"lcd", "self-orthogonal"} <= kinds


def test_hull_of_zero_code():
    field = make_field(3, 2)
    zero = LinearCode(field, 4, ())
    assert hull(zero) == zero and hull_dim(zero) == 0


# -- scalar restriction ---------------------------------------------------------


@pytest.mark.parametrize("pm", WITH_SUBFIELDS, ids=_ids(WITH_SUBFIELDS))
def test_restriction_is_set_intersection(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    for s in [d for d in range(1, field.m) if field.m % d == 0]:
        sub, _, project = subfield(field, s)
        for _ in range(4):
            n = rng.randrange(1, 4)
            code = from_rows(field, random_matrix(field, rng.randrange(1, min(n, 2) + 1), n, rng))
            r = restrict_to_subfield(code, s)
            assert r.base is sub
            inside = {
                tuple(project[field.elements[x]].index for x in w)
                for w in code.codewords()
                if all(field.elements[x] in project for x in w)
            }
            assert set(r.codewords()) == inside
            if s == 1:
                assert restrict_to_prime_subfield(code) == r


# -- invariants under python -O -------------------------------------------------


def test_construction_invariants_raise_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    script = textwrap.dedent(
        """
        assert False, "this line must vanish under -O"
        import walshcodes.constructions as cs
        from walshcodes.algebra import make_field
        from walshcodes.errors import InvariantViolated

        field = make_field(2, 4)
        ds = cs.defining_set(field, [field.from_index(i) for i in (3, 5, 7, 9, 11)])
        good = field.power_indices

        def corrupted(indices, e):
            # the first element of every Frobenius power of the row becomes 0
            return [0] + good(indices, e)[1:]

        field.power_indices = corrupted
        try:
            cs.dual_second_closed_form(ds)
        except InvariantViolated as ex:
            print("frobenius:", ex)
        del field.power_indices

        # the same corruption once the set keeps the reduction of power 0
        kept = cs.defining_set(field, [field.from_index(i) for i in (3, 5, 7, 9, 11)])
        cs.dual_second_closed_form(kept)
        field.power_indices = corrupted
        try:
            cs.dual_second_closed_form(kept)
        except InvariantViolated as ex:
            print("frobenius kept:", ex)
        del field.power_indices

        other = make_field(3, 4)
        other._subfield = lambda s: (make_field(3, s), [1] * 3 ** s, None)  # theta^t = 1 for every t
        try:
            other.coordinate_table(2)
        except InvariantViolated as ex:
            print("basis:", ex)

        f16 = make_field(2, 4)
        f16.arith, f16._subfield(2)  # built before the exp/log tables are corrupted
        f16._pow_tables = [0] * 15, [0] * 16
        try:
            cs.make_trace_zero_set(f16)
        except InvariantViolated as ex:
            print("trace-zero:", ex)
        try:
            cs.make_cyclotomic_set(f16, 1)
        except InvariantViolated as ex:
            print("cyclotomic:", ex)
        del f16._pow_tables
        """
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "frobenius", "frobenius kept", "basis", "trace-zero", "cyclotomic"
    ], proc.stdout
