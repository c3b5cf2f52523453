"""Differential tests of the two generic constructions on index tables.

The FieldElement routes that the table-driven constructions replaced live
here as oracles: the Frobenius-sum trace of every entry, the closed-form
duals as span duals over F_q intersected and restricted to the alphabet
(once per Frobenius power of the defining row), the hull maps summed
element by element, the change-of-basis inversion behind the relative
coordinates, the one-element-at-a-time standard form, the search for the
first preimage of each image value and the defining-set generators'
Frobenius and coset loops.  Each is compared with the library over
GF(4) ... GF(125), base degrees 1, 2 and 3.  So are the element routes
behind the field's own tables: the linear-map builder that read the
coefficients of every element, and the subfield root search over every
element, against the exp/log, trace, trace-dual and coordinate tables
and the subfield maps built on indices; and counting tests show that the
table routes build no FieldElement at all.
"""

import random
from functools import cache

import pytest

import walshcodes.algebra as algebra
from walshcodes.algebra import FieldElement, IndexArith, _poly_mod, make_field, subfield, trace
from walshcodes.codes import (
    LinearCode,
    dual,
    from_rows,
    full_code,
    hull_dim,
    matrix_rank,
    nullspace,
    restrict_to_prime_subfield,
    restrict_to_subfield,
    rref,
)
from walshcodes.codes import _reduced_checks
from walshcodes.constructions import (
    DefiningSet,
    _Matrices,
    _matrices,
    defining_set,
    dimension_via_span,
    dual_first_closed_form,
    dual_second_closed_form,
    first_codeword,
    first_generic,
    first_hull_map_matrix,
    first_points,
    hull_first_kernel,
    hull_second_kernel,
    image_set_points,
    make_cyclotomic_set,
    make_image_set,
    make_lcd_set,
    make_skew_set,
    make_trace_zero_set,
    second_codeword,
    second_generic,
    second_hull_map_matrix,
    standard_form_generator,
)
from walshcodes.errors import BadParameters, CannotFrontLoad, NotASubfield
from walshcodes.functions import ParyFunction, classify_bent, parse_function, walsh_transform

FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 5), (3, 3), (7, 2), (2, 6), (3, 4), (5, 3), (67, 1)]
# (p, m, s) for every base degree s in {1, 2, 3} dividing m
TOWERS = [(p, m, s) for p, m in FIELDS for s in (1, 2, 3) if m % s == 0]


def _ids(items):
    return ["GF(%d^%d)" % item[:2] + (f"/s={item[2]}" if len(item) > 2 else "") for item in items]


# -- oracles --------------------------------------------------------------------


@cache
def trace_oracle(field, x, s=1):
    """Tr_{q/p^s}(x) = x + x^(p^s) + ... + x^(p^(s(m/s - 1))), element by
    element, once per element and degree in a session: the oracles below
    read the same traces many times over."""
    acc = field.zero
    power = x
    for _ in range(field.m // s):
        acc = acc + power
        power = power ** (field.p ** s)
    return acc


def trace_int_oracle(field, x):
    return trace_oracle(field, x).as_prime_int()


def first_generic_oracle(f, include_zero=True):
    ctx = f.field
    points = first_points(ctx, include_zero)
    prime = make_field(ctx.p, 1)
    basis = ctx.power_basis()
    rows = [[prime.scalar(trace_int_oracle(ctx, e * f(x))) for x in points] for e in basis]
    rows += [[prime.scalar(trace_int_oracle(ctx, e * x)) for x in points] for e in basis]
    return from_rows(prime, rows)


def first_codeword_oracle(f, a, b, include_zero=True, minus=False):
    ctx = f.field
    sign = -1 if minus else 1
    return tuple(
        (trace_int_oracle(ctx, a * f(x)) + sign * trace_int_oracle(ctx, b * x)) % ctx.p
        for x in first_points(ctx, include_zero)
    )


def dual_first_oracle(f, include_zero=True):
    """The span duals of (x_i) and (f(x_i)) over F_q intersected, as the
    span dual of both rows together, restricted to F_p."""
    ctx = f.field
    points = first_points(ctx, include_zero)
    return restrict_to_prime_subfield(dual(from_rows(ctx, [points, [f(x) for x in points]])))


def first_hull_map_oracle(f, include_zero=True):
    """Column (a, b) of the pairing map is (sum c_i x_i, sum c_i f(x_i)) for
    the codeword c of (a, b), summed as field elements."""
    ctx = f.field
    points = first_points(ctx, include_zero)
    columns = []
    for slot in range(2):
        for e in ctx.power_basis():
            a = e if slot == 0 else ctx.zero
            b = e if slot == 1 else ctx.zero
            s1 = s2 = ctx.zero
            for x, c in zip(points, first_codeword_oracle(f, a, b, include_zero)):
                if c:
                    s1 = s1 + x * c
                    s2 = s2 + f(x) * c
            columns.append(s1.coeffs + s2.coeffs)
    return [[col[r] for col in columns] for r in range(2 * ctx.m)]


def hull_first_oracle(f, include_zero=True):
    ctx = f.field
    prime = make_field(ctx.p, 1)
    rows = [[prime.scalar(v) for v in row] for row in first_hull_map_oracle(f, include_zero)]
    words = []
    for vec in nullspace(rows, prime, 2 * ctx.m):
        a = ctx.element([v.as_prime_int() for v in vec[: ctx.m]])
        b = ctx.element([v.as_prime_int() for v in vec[ctx.m :]])
        words.append([prime.scalar(c) for c in first_codeword_oracle(f, a, b, include_zero)])
    n = len(first_points(ctx, include_zero))
    return from_rows(prime, words) if words else LinearCode(prime, n, ())


def second_codeword_oracle(ds, x):
    _, _, project = subfield(ds.field, ds.base_degree)
    return tuple(project[trace_oracle(ds.field, x * d, ds.base_degree)] for d in ds.elements)


def second_generic_oracle(ds):
    sub = subfield(ds.field, ds.base_degree)[0]
    rows = [second_codeword_oracle(ds, e) for e in ds.field.power_basis()]
    return from_rows(sub, rows, n=len(ds.elements) or None)


def dual_second_oracle(ds):
    """The span dual of each Frobenius power of the defining row over F_q,
    restricted to F_{p^s}; every power must give the same code."""
    ctx, s = ds.field, ds.base_degree
    results = set()
    for j in range(ctx.m // s):
        row = [ctx.frobenius(d, s * j) for d in ds.elements]
        results.add(restrict_to_subfield(dual(from_rows(ctx, [row])), s))
    assert len(results) == 1
    return results.pop()


def second_hull_map_oracle(ds):
    """The m x m matrix over F_p of x -> sum_d Tr(x d) d, summed as elements."""
    ctx, s = ds.field, ds.base_degree
    columns = []
    for e in ctx.power_basis():
        acc = ctx.zero
        for d in ds.elements:
            acc = acc + trace_oracle(ctx, e * d, s) * d
        columns.append(acc.coeffs)
    return [[col[r] for col in columns] for r in range(ctx.m)]


def hull_second_oracle(ds):
    ctx = ds.field
    prime = make_field(ctx.p, 1)
    sub = subfield(ctx, ds.base_degree)[0]
    rows = [[prime.scalar(v) for v in row] for row in second_hull_map_oracle(ds)]
    words = [list(second_codeword_oracle(ds, ctx.element([v.as_prime_int() for v in vec])))
             for vec in nullspace(rows, prime, ctx.m)]
    return from_rows(sub, words) if words else LinearCode(sub, len(ds), ())


def relative_coords_oracle(ctx, s):
    """Coordinates over F_{p^s} in the basis 1, x, ..., x^(m/s-1), by inverting
    the m x m change of basis to theta^t x^j over F_p."""
    sub, embed, _ = subfield(ctx, s)
    b = ctx.m // s
    prime = make_field(ctx.p, 1)
    theta = [embed[e] for e in sub.power_basis()]
    x = ctx.power_basis()[min(1, ctx.m - 1)]
    basis_elems = [theta[t] * x ** j for j in range(b) for t in range(s)]
    aug = []
    for r in range(ctx.m):
        row = [prime.scalar(be.coeffs[r]) for be in basis_elems]
        row += [prime.one if r == c else prime.zero for c in range(ctx.m)]
        aug.append(row)
    red, pivots = rref(aug, prime)
    assert pivots == list(range(ctx.m))
    inv = [row[ctx.m :] for row in red]

    def coords(y):
        u = [sum(inv[r][c].as_prime_int() * y.coeffs[c] for c in range(ctx.m)) % ctx.p for r in range(ctx.m)]
        return tuple(sub.element(u[j * s : (j + 1) * s]) for j in range(b))

    return sub, coords


def solve_combination_oracle(basis_rows, target, field):
    k = len(basis_rows)
    aug = [[basis_rows[r][c] for r in range(k)] + [target[c]] for c in range(len(target))]
    red, pivots = rref(aug, field)
    combo = [field.zero] * k
    for row, pc in zip(red, pivots):
        assert pc != k, "target outside the span"
        combo[pc] = row[k]
    return combo


def standard_form_oracle(ds):
    """Greedy independent prefix by one rank per element, then every element
    solved over it."""
    sub, coords = relative_coords_oracle(ds.field, ds.base_degree)
    chosen, chosen_rows = [], []
    for i, d in enumerate(ds.elements):
        if matrix_rank(chosen_rows + [list(coords(d))], sub) > len(chosen_rows):
            chosen.append(i)
            chosen_rows.append(list(coords(d)))
    if not chosen:
        return None
    order = chosen + [i for i in range(len(ds)) if i not in chosen]
    cols = [solve_combination_oracle(chosen_rows, list(coords(ds.elements[i])), sub) for i in order]
    return [tuple(cols[c][r] for c in range(len(order))) for r in range(len(chosen))], order


def image_set_points_oracle(f):
    return [next(x for x in f.field.elements if f(x) == d) for d in make_image_set(f).elements]


def trace_zero_oracle(ctx):
    s = ctx.m // 2
    chosen = []
    for z in ctx.elements[1:]:
        t = ctx.zero
        power = z ** (ctx.p ** s + 1)
        for _ in range(s):
            t = t + power
            power = power ** ctx.p
        if t.is_zero():
            chosen.append(z)
    return tuple(chosen)


def cyclotomic_oracle(ctx, s, second_class):
    cubes = {x ** 3 for x in ctx.elements[1:]}
    pool = [x for x in ctx.elements[1:] if (x in cubes) != second_class]
    sub, embed, _ = subfield(ctx, s)
    scalars = [embed[e] for e in sub.elements[1:]]
    reps, seen = [], set()
    for x in sorted(pool, key=lambda e: e.index):
        if x not in seen:
            reps.append(x)
            seen.update(lam * x for lam in scalars)
    return tuple(reps)


# the element routes behind the field's own tables


def linear_indices_oracle(field, images):
    """Index of L(e) for every e of index below p^len(images), for the
    F_p-linear L with L(x^j) = images[j], an element: digit by digit, in q
    additions of coefficient vectors read from the elements."""
    p, elements = field.p, field.elements
    out = [0]
    for img in images:
        size = len(out)
        step = [0] * field.m
        for _ in range(1, p):
            step = [(s + y) % p for s, y in zip(step, img.coeffs)]
            moves = [(i, y, p ** i) for i, y in enumerate(step) if y]
            for v in out[:size]:
                co = elements[v].coeffs
                out.append(v + sum(((co[i] + y) % p - co[i]) * w for i, y, w in moves))
    return out


def pow_tables_oracle(field):
    """exp and log by walking x -> g x, the linear map with the reduced
    images x^j g, through linear_indices_oracle."""
    p, g = field.p, field.generator().coeffs
    times_g = linear_indices_oracle(
        field, [field.element(_poly_mod((0,) * j + g, field.modulus, p)) for j in range(field.m)]
    )
    exp, log, cur = [], [0] * field.q, 1
    for k in range(field.q - 1):
        exp.append(cur)
        log[cur] = k
        cur = times_g[cur]
    return exp, log


def subfield_oracle(ctx, s):
    """(sub, root, embed, project): root is the first element of ctx, in
    index order, at which the modulus of sub = F_{p^s} vanishes, summed
    element by element, and the maps are e -> sum c_i root^i and its
    inverse; at s = m, ctx and the identity."""
    if s == ctx.m:
        ident = {e: e for e in ctx.elements}
        return ctx, None, ident, dict(ident)
    sub = make_field(ctx.p, s)
    root = None
    for cand in ctx.elements:
        acc, power = ctx.zero, ctx.one
        for c in sub.modulus:
            if c:
                acc = acc + power * c
            power = power * cand
        if acc.is_zero():
            root = cand
            break
    embed = {}
    for e in sub.elements:
        img, power = ctx.zero, ctx.one
        for c in e.coeffs:
            if c:
                img = img + power * c
            power = power * root
        embed[e] = img
    return sub, root, embed, {img: e for e, img in embed.items()}


def trace_table_oracle(field, s):
    """The basis traces by the Frobenius sum, projected into the subfield
    of subfield_oracle, extended by linear_indices_oracle."""
    project = subfield_oracle(field, s)[3]
    values = [field.elements[project[trace_oracle(field, b, s)].index] for b in field.power_basis()]
    return linear_indices_oracle(field, values)


def trace_dual_oracle(field):
    basis = field.power_basis()
    gram = [[trace_int_oracle(field, ei * ej) for ei in basis] for ej in basis]
    return linear_indices_oracle(field, [field.element(col) for col in gram])


def coordinate_table_oracle(field, s):
    """The inverse of the linear map that takes digit j s + t to theta^t x^j."""
    sub, _, embed, _ = subfield_oracle(field, s)
    x = field.power_basis()[min(1, field.m - 1)]
    theta = [embed[t] for t in sub.power_basis()]
    table = [0] * field.q
    for k, a in enumerate(linear_indices_oracle(field, [t * x ** j for j in range(field.m // s) for t in theta])):
        table[a] = k
    return table


def trace_rows_oracle(ctx, s, indices):
    """Tr_{q/p^s}(x^j d) for j < m/s (down) and each index d (across): one
    pass of IndexArith.scale by x^j a row, then a trace-table read."""
    table, scale = ctx.trace_table(s), ctx.arith.scale
    return tuple(tuple([table[v] for v in scale(indices, ctx.p ** j)]) for j in range(ctx.m // s))


def coordinate_rows_oracle(ctx, s, indices):
    """The coordinates c_j(d) over F_{p^s}, j < m/s (down), of each index d
    (across), by division of its coordinate-table entry."""
    table, size = ctx.coordinate_table(s), ctx.p ** s
    packed = [table[v] for v in indices]
    return tuple(tuple([v // unit % size for v in packed]) for unit in (size ** j for j in range(ctx.m // s)))


# -- inputs ------------------------------------------------------------------------


def functions_of(field, rng):
    """Monomials, the zero map, a constant and random tables."""
    out = [ParyFunction.from_callable(field, lambda x, e=e: x ** e, field.m) for e in (1, 2, 3)]
    out.append(ParyFunction.from_callable(field, lambda x: field.zero, field.m))
    out.append(ParyFunction.from_callable(field, lambda x: field.one, field.m))
    for _ in range(2):
        out.append(ParyFunction(field, [field.elements[rng.randrange(field.q)] for _ in range(field.q)], field.m))
    return out


def defining_sets_of(field, s, rng):
    """Random sequences with repeated and zero elements, a relative basis
    (trivial dual), an LCD set (trivial hull) in characteristic 2, and a
    single zero."""
    b = field.m // s
    out = []
    for _ in range(6):
        n = rng.randrange(1, 2 * b + 3)
        els = [field.elements[rng.randrange(field.q)] for _ in range(n)]
        els += [els[0], field.zero]
        rng.shuffle(els)
        out.append(DefiningSet(field, s, tuple(els)))
    out.append(DefiningSet(field, s, tuple(field.power_basis()[:b])))
    out.append(DefiningSet(field, s, (field.zero,)))
    if field.p == 2 and b % 2 == 0:
        out.append(make_lcd_set(field, field.power_basis()[:b], s))
    return out


# -- tables -----------------------------------------------------------------------


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_trace_table_matches_frobenius_sum(pms):
    p, m, s = pms
    field = make_field(p, m)
    sub, _, project = subfield(field, s)
    table = field.trace_table(s)
    assert [sub.elements[t] for t in table] == [project[trace_oracle(field, x, s)] for x in field.elements]
    assert [sub.elements[t] for t in table] == [project[trace(field, x, s)] for x in field.elements]


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_coordinate_table_matches_change_of_basis(pms):
    p, m, s = pms
    field = make_field(p, m)
    sub, coords = relative_coords_oracle(field, s)
    size = p ** s
    table = field.coordinate_table(s)
    for x in field.elements:
        assert tuple(sub.elements[table[x.index] // size ** j % size] for j in range(m // s)) == coords(x)
    if s == 1:
        assert table == list(range(field.q))


# -- the first construction ---------------------------------------------------------


@pytest.mark.parametrize("pm", FIELDS, ids=_ids(FIELDS))
def test_first_construction_matches_oracles(pm):
    field = make_field(*pm)
    rng = random.Random(field.q)
    for f in functions_of(field, rng):
        for include_zero in (True, False):
            code = first_generic(f, include_zero)
            assert code == first_generic_oracle(f, include_zero)
            assert dual_first_closed_form(f, include_zero) == dual_first_oracle(f, include_zero)
            rows, prime = first_hull_map_matrix(f, include_zero)
            assert [[v.as_prime_int() for v in row] for row in rows] == first_hull_map_oracle(f, include_zero)
            assert prime is make_field(field.p, 1)
            assert hull_first_kernel(f, include_zero) == hull_first_oracle(f, include_zero)
            for a, b in ((field.zero, field.zero), (field.zero, field.one), (field.one, field.zero)) + tuple(
                (field.elements[rng.randrange(field.q)], field.elements[rng.randrange(field.q)]) for _ in range(3)
            ):
                for minus in (False, True):
                    assert first_codeword(f, a, -b if minus else b, include_zero) == first_codeword_oracle(
                        f, a, b, include_zero, minus
                    )


def test_first_construction_meets_empty_kernels():
    # the code of x^5 over GF(9) is LCD, with and without the zero point
    f9 = make_field(3, 2)
    f = ParyFunction.from_callable(f9, lambda x: x ** 5, 2)
    for include_zero in (True, False):
        kernel = hull_first_kernel(f, include_zero)
        assert kernel.k == 0 and kernel == hull_first_oracle(f, include_zero)
    # over GF(4) x^3 is 1 off zero, and its punctured code is the full space
    f4 = make_field(2, 2)
    g = ParyFunction.from_callable(f4, lambda x: x ** 3, 2)
    assert first_generic(g, include_zero=False) == full_code(make_field(2, 1), 3)
    assert dual_first_closed_form(g, include_zero=False).k == 0


# -- the second construction -------------------------------------------------------


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_second_construction_matches_oracles(pms):
    p, m, s = pms
    field = make_field(p, m)
    rng = random.Random(field.q * 10 + s)
    kinds = set()
    for ds in defining_sets_of(field, s, rng):
        code = second_generic(ds)
        assert code == second_generic_oracle(ds)
        closed = dual_second_closed_form(ds)
        assert closed == dual_second_oracle(ds) == dual(code)
        assert dimension_via_span(ds) == code.k
        hull_code = hull_second_kernel(ds)
        assert hull_code == hull_second_oracle(ds)
        kinds.update({"trivial dual" if closed.k == 0 else "dual", "trivial hull" if hull_code.k == 0 else "hull"})
        rows, sub = second_hull_map_matrix(ds)
        assert sub is code.base and len(rows) == m // s
        oracle_rows = second_hull_map_oracle(ds)
        if s == 1:
            assert [[v.index for v in row] for row in rows] == oracle_rows
        # the map is F_{p^s}-linear: its F_p-rank is s times its F_{p^s}-rank
        assert matrix_rank(oracle_rows, make_field(p, 1)) == s * matrix_rank(rows, sub)
        for x in [field.zero, field.one] + [field.elements[rng.randrange(field.q)] for _ in range(3)]:
            assert second_codeword(ds, x) == tuple(e.index for e in second_codeword_oracle(ds, x))
    assert {"trivial dual", "dual", "trivial hull"} <= kinds


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_standard_form_matches_greedy_solve(pms):
    p, m, s = pms
    field = make_field(p, m)
    rng = random.Random(field.q * 10 + s + 1)
    for ds in defining_sets_of(field, s, rng):
        expected = standard_form_oracle(ds)
        if expected is None:
            with pytest.raises(CannotFrontLoad):
                standard_form_generator(ds)
        else:
            assert standard_form_generator(ds) == expected


def test_empty_defining_set_has_no_span():
    field = make_field(2, 4)
    ds = defining_set(field, [])
    assert dimension_via_span(ds) == 0
    with pytest.raises(CannotFrontLoad):
        standard_form_generator(ds)


# -- the matrices a set or a function keeps ------------------------------------------


SECOND_CALLS = (second_generic, dual_second_closed_form, hull_second_kernel, dimension_via_span, second_hull_map_matrix)
FIRST_CALLS = (first_generic, dual_first_closed_form, hull_first_kernel, first_hull_map_matrix)


def kept_rebuilt(field, s, traced, coordinated):
    """The trace rows, coordinate rows and reduction a record keeps, rebuilt
    from the tables of field by the oracles, rows as tuples."""
    sub = subfield(field, s)[0]
    coordinates = tuple(row for seq in coordinated for row in coordinate_rows_oracle(field, s, seq))
    reduced = tuple(map(tuple, _reduced_checks(coordinates, sub, len(traced[0]))))
    return tuple(row for seq in traced for row in trace_rows_oracle(field, s, seq)), coordinates, reduced


def kept(record):
    return record.traces, record.coordinates, record.reduced


def kept_tuples(record):
    """kept(record) with the packed rows of the two matrices read as tuples."""
    traces, coordinates, reduced = kept(record)
    return tuple(map(tuple, traces)), tuple(map(tuple, coordinates)), reduced


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_kept_matrices_give_what_fresh_objects_give(pms):
    """Every construction on one object, in either order, equals the same
    call on a fresh equal object, and leaves each kept matrix as it would
    be rebuilt from the tables; the object keeps its equality and hash."""
    p, m, s = pms
    field = make_field(p, m)
    rng = random.Random(field.q * 10 + s + 2)
    sub = subfield(field, s)[0]
    for ds in defining_sets_of(field, s, rng):

        def fresh():
            return DefiningSet(field, s, ds.elements, ds.provenance)

        expected = [call(fresh()) for call in SECOND_CALLS]
        twin = fresh()
        assert [call(ds) for call in SECOND_CALLS] == expected
        assert [call(twin) for call in reversed(SECOND_CALLS)] == expected[::-1]
        assert dimension_via_span(ds) == matrix_rank(coordinate_rows_oracle(field, s, ds.indices()), sub)
        assert ds == fresh() and hash(ds) == hash(fresh()) and repr(ds) == repr(fresh())
        row = ds.indices()
        for obj in (ds, twin):
            assert kept_tuples(_matrices(obj)) == kept_rebuilt(field, s, (row,), (row,))
    if s == 1:
        for f in functions_of(field, rng):
            for include_zero in (True, False):

                def fresh():
                    return ParyFunction.from_indices(field, f.indices, m)

                expected = [call(fresh(), include_zero) for call in FIRST_CALLS]
                twin = fresh()
                assert [call(f, include_zero) for call in FIRST_CALLS] == expected
                assert [call(twin, include_zero) for call in reversed(FIRST_CALLS)] == expected[::-1]
                assert f == fresh() and hash(f) == hash(fresh())
                start = 0 if include_zero else 1
                points, values = list(range(start, field.q)), list(f.indices[start:])
                for obj in (f, twin):
                    assert kept_tuples(_matrices(obj, include_zero)) == kept_rebuilt(field, 1, (values, points), (points, values))


def test_kept_matrices_are_left_as_they_are():
    """The matrices a set and a function keep are tuples of immutable rows
    (packed rows as bytes, the reduction as tuples), and the same objects,
    unchanged, after every construction has read them; the code alone
    builds no coordinate rows."""
    field = make_field(3, 2)
    ds = defining_set(field, [field.elements[i] for i in (1, 4, 4, 0, 7, 2)])
    f = ParyFunction.from_callable(field, lambda x: x ** 5, field.m)
    second_generic(ds)
    for z in (True, False):
        first_generic(f, z)
    records = {"set": _matrices(ds), True: _matrices(f, True), False: _matrices(f, False)}
    for record in records.values():
        assert "traces" in vars(record) and "coordinates" not in vars(record) and "reduced" not in vars(record)
    before = {key: kept(record) for key, record in records.items()}
    copies = {key: kept_tuples(record) for key, record in records.items()}
    for z in (True, False):
        for call in FIRST_CALLS:
            call(f, z)
    for call in SECOND_CALLS:
        call(ds)
    after = {"set": _matrices(ds), True: _matrices(f, True), False: _matrices(f, False)}
    for key, record in after.items():
        assert record is records[key]
        for rows, old, copy in zip(kept(record), before[key], copies[key]):
            assert rows is old and tuple(map(tuple, rows)) == copy
            assert isinstance(rows, tuple) and all(isinstance(row, (bytes, tuple)) for row in rows)


def test_a_second_construction_runs_no_elimination(monkeypatch):
    """The record keeps the code it builds: first_generic and second_generic
    on the same object eliminate the trace rows once, counted at the kernel,
    and a set renamed since gets a code of its own on the kept rows."""
    import walshcodes.codes as codes

    calls = []
    good = codes._reduce
    monkeypatch.setattr(codes, "_reduce", lambda *args: calls.append(args) or good(*args))
    field = make_field(3, 4)
    f = parse_function(field, "x^2").with_codomain(field.m)
    ds = make_trace_zero_set(field)
    built = [first_generic(f, True), first_generic(f, False), second_generic(ds)]
    assert len(calls) == 3
    assert [first_generic(f, True), first_generic(f, False), second_generic(ds)] == built
    assert all(a is b for a, b in zip(built, [first_generic(f, True), first_generic(f, False), second_generic(ds)]))
    assert len(calls) == 3
    ds.provenance = "renamed"
    renamed = second_generic(ds)
    assert renamed.provenance == "defining-set:renamed" and renamed == built[2] and len(calls) == 3
    assert built[2].provenance == "defining-set:trace-zero"


# (p, m, s) past the one-translate tables (q > 256): at p = 2 digits within a
# byte (s | 8) and across two (s = 3, 6 at 2^12), alphabets past a byte
# (Q > 256), whose rows are tuples, and an odd alphabet F_25 of bytes rows
LARGE_TOWERS = [
    (2, 16, 1), (2, 16, 2), (2, 16, 4), (2, 12, 3), (2, 12, 6), (2, 9, 9), (3, 6, 1), (3, 6, 2), (3, 6, 3), (3, 6, 6),
    (5, 4, 2),
]


@pytest.mark.parametrize("pms", TOWERS + LARGE_TOWERS, ids=_ids(TOWERS + LARGE_TOWERS))
def test_kept_rows_match_the_scale_route(pms):
    """The trace and coordinate rows a record keeps, read as tuples, are the
    rows of the scale and division routes: of random sequences with zero
    and repeated indices, the empty one, and a run of consecutive points,
    the shape of a function's points."""
    p, m, s = pms
    field = make_field(p, m)
    rng = random.Random(field.q * 10 + s + 3)
    n = min(field.q, 300)
    sequences = [[rng.randrange(field.q) for _ in range(n)] + [0, 1, 0], [], range(field.q - n, field.q)]
    for seq in sequences:
        record = _Matrices(field, s, (seq, seq[::-1]), (seq[::-1], seq))
        traces = trace_rows_oracle(field, s, seq) + trace_rows_oracle(field, s, seq[::-1])
        coordinates = coordinate_rows_oracle(field, s, seq[::-1]) + coordinate_rows_oracle(field, s, seq)
        assert tuple(map(tuple, record.traces)) == traces
        assert tuple(map(tuple, record.coordinates)) == coordinates


def test_kept_rows_take_no_scale_pass(monkeypatch):
    """No construction builds a matrix through IndexArith.scale: the nine
    record reads and hull_dim of the function code at s = 1, and the trace
    and coordinate rows of a set at s = 2."""

    def refuse(*args):
        raise AssertionError("a construction matrix went through IndexArith.scale")

    monkeypatch.setattr(IndexArith, "scale", refuse)
    for pm in ((2, 6), (3, 4), (5, 2)):
        field = make_field(*pm)
        f = ParyFunction.from_indices(field, field.power_indices(range(field.q), 3), field.m)
        ds = DefiningSet._from_indices(field, 1, [1, 2, 0, field.q - 1, 2], "explicit")
        for include_zero in (True, False):
            for call in FIRST_CALLS:
                call(f, include_zero)
        for call in SECOND_CALLS:
            call(ds)
        standard_form_generator(ds)
        hull_dim(first_generic(f))
    record = _matrices(DefiningSet._from_indices(make_field(2, 6), 2, [1, 5, 9, 0, 63], "explicit"))
    assert len(record.traces) == len(record.coordinates) == 3


# -- generators ------------------------------------------------------------------------


@pytest.mark.parametrize("pm", FIELDS, ids=_ids(FIELDS))
def test_image_set_points_match_first_preimage_search(pm):
    field = make_field(*pm)
    for f in functions_of(field, random.Random(field.q + 2)):
        if any(f.indices):
            assert image_set_points(f) == image_set_points_oracle(f)


@pytest.mark.parametrize("pm", [(2, 4), (3, 4), (2, 6), (5, 4), (2, 8)], ids=_ids([(2, 4), (3, 4), (2, 6), (5, 4), (2, 8)]))
def test_trace_zero_set_matches_frobenius_loop(pm):
    field = make_field(*pm)
    assert make_trace_zero_set(field).elements == trace_zero_oracle(field)


CYCLOTOMIC = [(2, 4, 1), (5, 2, 1), (2, 6, 1), (2, 6, 3), (2, 8, 1), (11, 2, 1)]


@pytest.mark.parametrize("pms", CYCLOTOMIC, ids=_ids(CYCLOTOMIC))
def test_cyclotomic_sets_match_coset_loop(pms):
    p, m, s = pms
    field = make_field(p, m)
    for second_class in (False, True):
        ds = make_cyclotomic_set(field, s, second_class)
        assert ds.elements == cyclotomic_oracle(field, s, second_class)
        assert ds.base_degree == s


# -- subfield degrees ------------------------------------------------------------------


@pytest.mark.parametrize("s", [0, -1, 3])
def test_subfield_degree_must_be_a_positive_divisor(s):
    field = make_field(2, 4)
    code = from_rows(field, [[field.one, field.zero]])
    for call in (
        lambda: subfield(field, s),
        lambda: trace(field, field.one, s),
        lambda: restrict_to_subfield(code, s),
        lambda: DefiningSet(field, s, (field.one,)),
        lambda: make_cyclotomic_set(field, s),
        lambda: make_lcd_set(field, field.power_basis()[:2], s),
        lambda: field.trace_table(s),
        lambda: field.coordinate_table(s),
    ):
        with pytest.raises(NotASubfield):
            call()


def test_cyclotomic_rejects_small_fields_after_the_degree_check():
    with pytest.raises(BadParameters):
        make_cyclotomic_set(make_field(2, 2), 1)


# -- the field's tables on indices -------------------------------------------------

SMALL_TABLE_FIELDS = [(2, 1), (2, 4), (2, 6), (2, 9), (3, 1), (3, 4), (3, 6), (5, 1), (5, 3), (7, 1), (7, 3)]
# (p, m, subfield degrees): every degree on the small fields; at 2^16, where
# each oracle table takes about 0.2 s, two; and both at 257^2, whose digit
# planes are lists
TABLE_CASES = [(p, m, [s for s in range(1, m + 1) if m % s == 0]) for p, m in SMALL_TABLE_FIELDS]
TABLE_CASES += [(2, 16, [1, 2]), (257, 2, [1, 2])]


@pytest.mark.parametrize("pm,degrees", [(c[:2], c[2]) for c in TABLE_CASES], ids=_ids([c[:2] for c in TABLE_CASES]))
def test_tables_match_the_element_routes(pm, degrees):
    """exp/log, trace, trace-dual and coordinate tables, built on indices,
    against the element routes they replaced."""
    field = make_field(*pm)
    rng = random.Random(field.q)
    images = [field.elements[rng.randrange(field.q)] for _ in range(field.m)]
    if field.p < 256:  # an image past the degree; at 257^2 its table would take 17M entries
        images.append(field.zero)
    assert field._linear_indices([v.index for v in images]) == linear_indices_oracle(field, images)
    assert field._pow_tables() == pow_tables_oracle(field)
    assert field.trace_dual_indices() == trace_dual_oracle(field)
    for s in degrees:
        assert field.trace_table(s) == trace_table_oracle(field, s), s
        assert field.coordinate_table(s) == coordinate_table_oracle(field, s), s


@pytest.mark.parametrize("pms", TOWERS, ids=_ids(TOWERS))
def test_subfield_maps_match_the_element_root_search(pms):
    """The root, searched over the p^s subfield indices, is the first root
    over the whole field; embed and project are its maps."""
    p, m, s = pms
    field = make_field(p, m)
    sub, root, embed, project = subfield_oracle(field, s)
    assert field._subfield(s)[0] is sub
    _, embed_at, project_at = field._subfield(s)
    assert [embed_at[e.index] for e in sub.elements] == [embed[e].index for e in sub.elements]
    assert {v: project_at[v] for v in embed_at} == {img.index: e.index for img, e in project.items()}
    if 1 < s < m:
        assert embed_at[p] == root.index  # the image of the root x of sub's modulus
    assert subfield(field, s) == (sub, embed, project)


# -- no FieldElement on the table routes ---------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """The indices of the FieldElements constructed from here on, over
    fields made afresh: make_field starts with an empty cache."""
    indices = []
    init = FieldElement.__init__

    def counted(self, field, index):
        indices.append(index)
        init(self, field, index)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    monkeypatch.setattr(algebra, "_FIELD_CACHE", {})
    return indices


@pytest.mark.parametrize("pm", [(2, 6), (3, 4), (5, 2)], ids=_ids([(2, 6), (3, 4), (5, 2)]))
def test_spectrum_and_function_code_build_no_element(built, pm):
    field = make_field(*pm)
    f = parse_function(field, "tr(g*x^3)+tr(g^5*x)")
    classify_bent(walsh_transform(f))
    self_map = f.with_codomain(field.m)
    code = first_generic(self_map)
    dual_first_closed_form(self_map)
    hull_dim(code)
    assert built == []


@pytest.mark.parametrize(
    "pm,make",
    [
        ((2, 4), make_trace_zero_set),
        ((3, 4), make_trace_zero_set),
        ((2, 6), make_trace_zero_set),
        ((2, 4), lambda field: make_cyclotomic_set(field, 1)),
        ((5, 2), lambda field: make_cyclotomic_set(field, 1, second_class=True)),
        ((2, 6), lambda field: make_cyclotomic_set(field, 3)),
        ((3, 4), make_skew_set),
        ((5, 2), make_skew_set),
    ],
)
def test_generated_set_codes_build_no_element(built, pm, make):
    ds = make(make_field(*pm))
    second_generic(ds)
    dual_second_closed_form(ds)
    assert built == []


def test_the_largest_field_is_built_without_elements(built):
    field = make_field(2, 20)
    assert field.q == 2 ** 20 and built == []
    assert field.from_index(7) is field.from_index(7) and built == [7]


def test_element_arithmetic_builds_only_its_results(built):
    """The element operators and a function's value return their result
    through from_index, so on a fresh GF(2^20) they build the elements they
    return, each once, and never the list of all q."""
    field = make_field(2, 20)
    a, b = field.from_index(5), field.from_index(77)
    f = ParyFunction.from_indices(field, range(field.q), field.m)
    results = [a + b, a * b, -a, a / b, a ** 3, f(b), a - b]
    assert "elements" not in vars(field)
    assert sorted(built) == sorted({x.index for x in [a, b, *results]})
    assert field.from_index((a * b).index) is a * b


def test_an_element_read_alone_is_the_one_in_the_list(built):
    field = make_field(3, 4)
    one, x = field.one, field.from_index(3)
    assert field.elements[1] is one and field.elements[3] is x and field.power_basis()[1] is x
    assert sorted(built) == list(range(field.q))
