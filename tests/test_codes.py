import random

import pytest

from walshcodes.algebra import make_field
from walshcodes.codes import (
    complete_weight_enumerator,
    dual,
    from_rows,
    full_code,
    hull,
    hull_dim,
    intersect,
    is_lcd,
    is_mds,
    matrix_rank,
    min_distance,
    restrict_to_prime_subfield,
    sum_code,
    weight_distribution,
    zero_code,
)
from walshcodes.errors import EmptyLength, RaggedRows, TooLarge, ZeroCode

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2)


def int_rank_mod_p(rows, p):
    """Independent rank oracle: integer Gaussian elimination mod p."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_code(field, n, rows, rng, provenance=None):
    mat = [[field.scalar(rng.randrange(field.p)) for _ in range(n)] for _ in range(rows)]
    return from_rows(field, mat, provenance=provenance)


def test_from_rows_basic():
    c = from_rows(F3, [[1, 0], [0, 1]])
    assert (c.n, c.k) == (2, 2)


@pytest.mark.parametrize("field", [F3, F9], ids=["GF(3)", "GF(9)"])
def test_ints_at_the_edge_are_canonical_indices(field):
    code = from_rows(field, [[1, field.q - 1, 0]])
    assert code.rows == ((1, field.q - 1, 0),)
    assert code.contains(field.arith.scale(code.rows[0], 2))
    for bad in (-1, field.q, True, 1.0, "1"):
        with pytest.raises(ValueError):
            from_rows(field, [[1, bad, 0]])
        with pytest.raises(ValueError):
            code.contains([1, bad, 0])
    with pytest.raises(ValueError):
        code.contains([make_field(2, 1).one, 0, 0])


def test_from_rows_dependent_row_dropped():
    # (2,1) = 2*(1,2) mod 3
    c = from_rows(F3, [[1, 2], [2, 1]])
    assert (c.n, c.k) == (2, 1)
    assert int_rank_mod_p([[1, 2], [2, 1]], 3) == 1


def test_zero_code_and_errors():
    z = zero_code(F3, 4)
    assert (z.n, z.k) == (4, 0)
    with pytest.raises(RaggedRows):
        from_rows(F3, [[1, 2], [1, 2, 0]])
    with pytest.raises(EmptyLength):
        from_rows(F3, [])


def test_rref_rank_matches_integer_oracle():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(1, 7)
        rows = rng.randrange(1, 5)
        ints = [[rng.randrange(3) for _ in range(n)] for _ in range(rows)]
        c = from_rows(F3, ints)
        assert c.k == int_rank_mod_p(ints, 3)


def test_dual_examples():
    assert dual(full_code(F3, 2)).k == 0
    d = dual(from_rows(F3, [[1, 2]]))
    assert [[x.index for x in r] for r in d.generator] == [[1, 1]]


def test_dual_of_dual_random():
    rng = random.Random(1)
    for field in (F2, F3, F9):
        for _ in range(25):
            c = random_code(field, rng.randrange(1, 7), rng.randrange(0, 5) + 1, rng)
            assert dual(dual(c)) == c
            assert c.k + dual(c).k == c.n


def test_dual_against_exhaustive_orthogonality():
    rng = random.Random(2)
    for _ in range(10):
        c = random_code(F3, 4, 2, rng)
        d = dual(c)
        brute = [
            w
            for w in _all_words(F3, 4)
            if all(
                sum(a.index * b for a, b in zip(w, cw)) % 3 == 0
                for cw in c.codewords()
            )
        ]
        assert sorted(d.codewords()) == sorted(
            tuple(x.index for x in w) for w in brute
        )


def _all_words(field, n):
    words = [()]
    for _ in range(n):
        words = [w + (e,) for w in words for e in field.elements]
    return words


def test_hull_examples():
    self_orth = from_rows(F2, [[1, 1]])
    assert hull(self_orth) == self_orth
    lcd = from_rows(F3, [[1, 2]])
    assert hull(lcd).k == 0 and is_lcd(lcd)


def test_hull_symmetry_and_dimension_identity():
    rng = random.Random(3)
    for field in (F2, F3):
        for _ in range(30):
            c = random_code(field, rng.randrange(2, 7), rng.randrange(1, 4), rng)
            d = dual(c)
            assert hull(c) == hull(d)
            s = sum_code(c, d)
            assert hull_dim(c) == c.k + d.k - s.k


def test_sum_dual_is_intersection_of_duals():
    rng = random.Random(4)
    for _ in range(25):
        a = random_code(F3, 5, 2, rng)
        b = random_code(F3, 5, 2, rng)
        assert dual(sum_code(a, b)) == intersect(dual(a), dual(b))


def test_weight_distribution_zero_code():
    assert weight_distribution(zero_code(F3, 3)).counts == {0: 1}


def test_weight_distribution_line():
    wd = weight_distribution(from_rows(F3, [[1, 1]]))
    assert wd.counts == {0: 1, 2: 2}


def test_cwe_line_and_marginal():
    c = from_rows(F3, [[1, 1]])
    cwe = complete_weight_enumerator(c)
    assert cwe.counts == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    assert cwe.hamming_marginal() == weight_distribution(c).counts


def test_cwe_marginal_random():
    rng = random.Random(5)
    for _ in range(15):
        c = random_code(F3, rng.randrange(2, 6), 2, rng)
        assert complete_weight_enumerator(c).hamming_marginal() == weight_distribution(c).counts


def test_min_distance_and_singleton():
    rng = random.Random(6)
    with pytest.raises(ZeroCode):
        min_distance(zero_code(F3, 3))
    for _ in range(30):
        c = random_code(F3, rng.randrange(2, 7), rng.randrange(1, 4), rng)
        if c.k == 0:
            continue
        d = min_distance(c)
        assert d <= c.n - c.k + 1
        wd = weight_distribution(c)
        assert wd.counts.get(d, 0) > 0
        assert all(wd.counts.get(w, 0) == 0 for w in range(1, d))


def test_full_space_is_mds():
    assert is_mds(full_code(F3, 3))


def test_guard():
    c = full_code(F2, 24)
    with pytest.raises(TooLarge):
        weight_distribution(c, guard=1000)


def test_restrict_full_space():
    assert restrict_to_prime_subfield(full_code(F9, 3)).k == 3


def test_restrict_examples():
    w = F9.element([0, 1])
    independent = dual(from_rows(F9, [[F9.one, w]]))
    assert restrict_to_prime_subfield(independent).k == 0
    dependent = dual(from_rows(F9, [[F9.one, F9.scalar(2)]]))
    r = restrict_to_prime_subfield(dependent)
    assert r.k == 1
    assert [[x.index for x in row] for row in r.generator] == [[1, 1]]


def test_restrict_is_set_intersection():
    rng = random.Random(7)
    for _ in range(10):
        rows = [[F9.elements[rng.randrange(9)] for _ in range(3)] for _ in range(2)]
        code = from_rows(F9, rows)
        r = restrict_to_prime_subfield(code)
        prime_words = {
            w
            for w in code.codewords()
            if all(F9.elements[x].in_prime_subfield() for x in w)
        }
        assert set(r.codewords()) == prime_words


def test_matrix_rank_helper():
    rows = [[F3.one, F3.zero], [F3.zero, F3.one], [F3.one, F3.one]]
    assert matrix_rank(rows, F3) == 2
