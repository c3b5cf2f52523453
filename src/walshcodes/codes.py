"""Linear-code core over F_p or a subfield alphabet F_q.

Generator matrices are kept in reduced row echelon form, which doubles as
the canonical form: two codes are equal iff their RREF generators are.
Duals come from nullspace computation rather than literal Gram-Schmidt;
over finite fields self-orthogonal vectors break orthogonalization while
the nullspace achieves the same O(n^3) bound.

All weight queries are exhaustive enumerations guarded by a configurable
codeword cap.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from .algebra import Field, FieldElement, IndexArith, make_field, subfield
from .errors import EmptyLength, NotASubfield, RaggedRows, TooLarge, ZeroCode

DEFAULT_GUARD = 2 ** 22


def enumeration_guard(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("WALSHCODES_GUARD")
    return int(env) if env else DEFAULT_GUARD


# ---------------------------------------------------------------------------
# elimination on canonical element indices
# ---------------------------------------------------------------------------
#
# Matrices are lists of index lists: FieldElement rows become indices once on
# entry (_indices) and FieldElement tuples once on exit (_elements); the
# arithmetic in between is the field's IndexArith (Field.arith).


def _indices(rows: Iterable[Sequence[FieldElement | int]], field: Field) -> list[list[int]]:
    """Index lists of FieldElement rows; ints are prime-field scalars."""
    index_of = field.index_of
    return [[index_of(x) for x in row] for row in rows]


def _elements(rows: Iterable[Sequence[int]], field: Field) -> list[tuple[FieldElement, ...]]:
    elements = field.elements
    return [tuple(map(elements.__getitem__, row)) for row in rows]


def _rref(mat: list[list[int]], ar: IndexArith) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an index matrix, in place; returns
    (the nonzero rows, pivot columns)."""
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
        mat[r] = ar.scale(mat[r], ar.inv(mat[r][c]))
        prepared = ar.prepare(mat[r])
        for i, row in enumerate(mat):
            if row[c] and i != r:
                ar.axpy(row, ar.neg(row[c]), prepared)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _nullspace(mat: list[list[int]], ar: IndexArith, n: int) -> list[list[int]]:
    """Basis of {v : mat @ v = 0}, one vector per free column."""
    red, pivots = _rref(mat, ar)
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = ar.neg(row[fc])
        basis.append(v)
    return basis


def _dual(mat: list[list[int]], ar: IndexArith, n: int) -> list[list[int]]:
    """RREF generator of the dual of the row space of mat, in F^n."""
    return _rref(_nullspace(mat, ar, n), ar)[0]


def rref(rows: Sequence[Sequence[FieldElement]], field: Field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    red, pivots = _rref(_indices(rows, field), field.arith)
    return _elements(red, field), pivots


def nullspace(rows: Sequence[Sequence[FieldElement]], field: Field, n: int):
    """Basis of {v : rows @ v = 0} in F^n, one vector per free column."""
    return _elements(_nullspace(_indices(rows, field), field.arith, n), field)


def matrix_rank(rows: Sequence[Sequence[FieldElement]], field: Field) -> int:
    return len(_rref(_indices(rows, field), field.arith)[0])


class LinearCode:
    """An [n, k] linear code with canonical RREF generator."""

    __slots__ = ("base", "n", "generator", "provenance")

    def __init__(self, base: Field, n: int, generator, provenance: str | None = None):
        self.base = base
        self.n = n
        self.generator = tuple(tuple(row) for row in generator)
        self.provenance = provenance

    @property
    def k(self) -> int:
        return len(self.generator)

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over GF({self.base.p}^{self.base.m}))"

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.base == other.base
            and self.n == other.n
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.base, self.n, self.generator))

    # -- enumeration ---------------------------------------------------------

    def size(self) -> int:
        return self.base.q ** self.k

    def codewords(self, guard: int | None = None) -> Iterator[tuple[FieldElement, ...]]:
        cap = enumeration_guard(guard)
        if self.size() > cap:
            raise TooLarge(f"{self.size()} codewords exceed the guard {cap}")
        zero = tuple([self.base.zero] * self.n)

        def span(rows):
            if not rows:
                yield zero
                return
            head = rows[0]
            scaled = [tuple(c * x for x in head) for c in self.base.elements]
            for w in span(rows[1:]):
                for sv in scaled:
                    yield tuple(a + b for a, b in zip(w, sv))

        return span(list(self.generator))

    def contains(self, word: Sequence[FieldElement]) -> bool:
        if len(word) != self.n:
            return False
        mat = _indices(self.generator + (tuple(word),), self.base)
        return len(_rref(mat, self.base.arith)[0]) == self.k


def from_rows(
    base: Field,
    rows: Iterable[Sequence[FieldElement | int]],
    n: int | None = None,
    provenance: str | None = None,
) -> LinearCode:
    """Span of the given rows; dependent rows are dropped by the RREF."""
    mat = _indices(rows, base)
    if mat:
        lengths = {len(r) for r in mat}
        if len(lengths) != 1:
            raise RaggedRows(f"row lengths {sorted(lengths)}")
        length = lengths.pop()
        if n is not None and n != length:
            raise RaggedRows(f"declared n={n} but rows have length {length}")
        n = length
    if n is None or n <= 0:
        raise EmptyLength("a code needs positive length")
    red, _ = _rref(mat, base.arith)
    return LinearCode(base, n, _elements(red, base), provenance)


def zero_code(base: Field, n: int) -> LinearCode:
    if n <= 0:
        raise EmptyLength("a code needs positive length")
    return LinearCode(base, n, ())


def full_code(base: Field, n: int) -> LinearCode:
    rows = [
        tuple(base.one if j == i else base.zero for j in range(n)) for i in range(n)
    ]
    return LinearCode(base, n, rows)


def dual(code: LinearCode) -> LinearCode:
    """Nullspace of the generator as an [n, n-k] code."""
    base = code.base
    red = _dual(_indices(code.generator, base), base.arith, code.n)
    return LinearCode(base, code.n, _elements(red, base), provenance="dual")


def sum_code(a: LinearCode, b: LinearCode) -> LinearCode:
    _check_same_space(a, b)
    red, _ = _rref(_indices(a.generator + b.generator, a.base), a.base.arith)
    return LinearCode(a.base, a.n, _elements(red, a.base))


def intersect(a: LinearCode, b: LinearCode) -> LinearCode:
    """A cap B = (A^perp + B^perp)^perp."""
    _check_same_space(a, b)
    base, n = a.base, a.n
    ar = base.arith
    perps = _dual(_indices(a.generator, base), ar, n) + _dual(_indices(b.generator, base), ar, n)
    return LinearCode(base, n, _elements(_dual(perps, ar, n), base), provenance="dual")


def _gram(code: LinearCode, ar: IndexArith) -> tuple[list[list[int]], list[list[int]]]:
    """The generator G as index rows and the k x k matrix G G^T, whose row a
    is the sum over columns j of G[a][j] times column j."""
    g = _indices(code.generator, code.base)
    columns = [ar.prepare(col) for col in zip(*g)]
    gram = []
    for u in g:
        row = [0] * len(g)
        for x, col in zip(u, columns):
            if x:
                ar.axpy(row, x, col)
        gram.append(row)
    return g, gram


def hull(code: LinearCode) -> LinearCode:
    """C cap C^perp = {x G : G G^T x^T = 0}, since the rows of G are
    independent: the kernel of the k x k Gram matrix mapped through G."""
    base = code.base
    ar = base.arith
    g, gram = _gram(code, ar)
    rows = [ar.prepare(row) for row in g]
    words = []
    for x in _nullspace(gram, ar, code.k):
        word = [0] * code.n
        for xi, row in zip(x, rows):
            if xi:
                ar.axpy(word, xi, row)
        words.append(word)
    red, _ = _rref(words, ar)
    return LinearCode(base, code.n, _elements(red, base), provenance="hull")


def hull_dim(code: LinearCode) -> int:
    """k - rank(G G^T); zero exactly for LCD codes (Massey 1992)."""
    ar = code.base.arith
    _, gram = _gram(code, ar)
    return code.k - len(_rref(gram, ar)[0])


def is_lcd(code: LinearCode) -> bool:
    return hull_dim(code) == 0


def _check_same_space(a: LinearCode, b: LinearCode):
    if a.base != b.base or a.n != b.n:
        raise ValueError("codes live in different ambient spaces")


# ---------------------------------------------------------------------------
# weight queries (exhaustive, exact)
# ---------------------------------------------------------------------------

class WeightDistribution:
    """Map weight -> codeword count, including A_0 = 1."""

    def __init__(self, counts: dict[int, int], n: int, size: int):
        self.counts = dict(sorted(counts.items()))
        self.n = n
        assert self.counts.get(0) == 1
        assert sum(self.counts.values()) == size
        self.size = size

    def __eq__(self, other):
        if isinstance(other, dict):
            return self.counts == other
        if isinstance(other, WeightDistribution):
            return self.counts == other.counts
        return NotImplemented

    def __repr__(self):
        return f"WeightDistribution({self.counts})"

    def nonzero_weights(self) -> set[int]:
        return {w for w in self.counts if w > 0}

    def multiset(self) -> list[int]:
        out = []
        for w, c in self.counts.items():
            out.extend([w] * c)
        return out


class CompleteWeightEnumerator:
    """Census of codewords by symbol-composition vector."""

    def __init__(self, counts: dict[tuple[int, ...], int], n: int, size: int):
        self.counts = dict(counts)
        self.n = n
        assert all(sum(comp) == n for comp in counts)
        assert sum(counts.values()) == size

    def __eq__(self, other):
        if isinstance(other, dict):
            return self.counts == other
        if isinstance(other, CompleteWeightEnumerator):
            return self.counts == other.counts
        return NotImplemented

    def __repr__(self):
        return f"CompleteWeightEnumerator({self.counts})"

    def hamming_marginal(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for comp, c in self.counts.items():
            w = self.n - comp[0]
            out[w] = out.get(w, 0) + c
        return dict(sorted(out.items()))


def weight_distribution(code: LinearCode, guard: int | None = None) -> WeightDistribution:
    counts: dict[int, int] = {}
    for word in code.codewords(guard):
        w = sum(1 for x in word if not x.is_zero())
        counts[w] = counts.get(w, 0) + 1
    return WeightDistribution(counts, code.n, code.size())


def complete_weight_enumerator(
    code: LinearCode, guard: int | None = None
) -> CompleteWeightEnumerator:
    counts: dict[tuple[int, ...], int] = {}
    q = code.base.q
    for word in code.codewords(guard):
        comp = [0] * q
        for x in word:
            comp[x.index] += 1
        key = tuple(comp)
        counts[key] = counts.get(key, 0) + 1
    return CompleteWeightEnumerator(counts, code.n, code.size())


def min_distance(code: LinearCode, guard: int | None = None) -> int:
    if code.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    best = code.n + 1
    for word in code.codewords(guard):
        w = sum(1 for x in word if not x.is_zero())
        if 0 < w < best:
            best = w
    return best


def is_mds(code: LinearCode, guard: int | None = None) -> bool:
    return min_distance(code, guard) == code.n - code.k + 1


# ---------------------------------------------------------------------------
# scalar restriction
# ---------------------------------------------------------------------------

def restrict_to_subfield(code: LinearCode, s: int) -> LinearCode:
    """V cap F_{p^s}^n for the F_{p^m}-linear space V spanned by the code.

    Each F_{p^m}-linear parity check h expands into m F_p-linear constraints
    on the coordinates of c_i = sum_t c_it theta^t over the power basis of
    the subfield (theta^0 = 1 alone when s = 1): coordinate tau of
    sum_i h_i c_i, solved over F_p for the n*s unknowns c_it.
    """
    big = code.base
    if s == big.m:
        return code
    if big.m % s != 0:
        raise NotASubfield(f"s={s} does not divide m={big.m}")
    sub, embed, _ = subfield(big, s)
    theta = [embed[b].index for b in sub.power_basis()]
    p, n = big.p, code.n
    ar = big.arith
    expanded = []
    for row in _dual(_indices(code.generator, big), ar, n):
        # h_i * theta^t at column i*s + t; constraint tau reads coefficient tau
        prods = [x for hs in zip(*(ar.scale(row, t) for t in theta)) for x in hs]
        expanded.extend(map(list, zip(*(big.elements[x].coeffs for x in prods))))
    solution = _nullspace(expanded, make_field(p, 1).arith, n * s)
    # c_i as a subfield element has the index sum_t c_it p^t, by Horner
    words = []
    for v in solution:
        word = v[s - 1 :: s]
        for t in range(s - 2, -1, -1):
            word = [w * p + c for w, c in zip(word, v[t::s])]
        words.append(word)
    red, _ = _rref(words, sub.arith)
    tag = "prime-restriction" if s == 1 else "subfield-restriction"
    return LinearCode(sub, n, _elements(red, sub), provenance=tag)


def restrict_to_prime_subfield(code: LinearCode) -> LinearCode:
    """V cap F_p^n for the F_q-linear space V spanned by the code."""
    return restrict_to_subfield(code, 1)
