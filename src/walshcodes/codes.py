"""Linear-code core over F_p or a subfield alphabet F_q.

A code stores ``rows``, its generator in reduced row echelon form as tuples
of canonical indices of the alphabet, which doubles as the canonical form:
two codes are equal iff their rows are; ``generator`` is the FieldElement
view.  At the edge of this module (``from_rows``, ``contains``, ``rref``,
``nullspace``, ``matrix_rank``) an int entry is a canonical index of the
alphabet, in [0, q), never a scalar mod p; other non-elements raise
ValueError.
Duals come from nullspace computation rather than literal Gram-Schmidt;
over finite fields self-orthogonal vectors break orthogonalization while
the nullspace achieves the same O(n^3) bound in one elimination: reduced
from the right, a matrix's kernel basis is already the RREF of the dual
(see _nullspace), and the kernel of the Gram matrix mapped through an RREF
generator is already the RREF of the hull.

Hamming weights come from one p-ary fast Walsh-Hadamard transform of the
multiset of generator columns, which counts the zero coordinates of every
codeword at once; the complete weight enumerator enumerates codewords, as
tuples of alphabet indices.
Every weight query is guarded by a configurable cap on the number of
codewords.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .algebra import (
    _FIELD_TYPECODES,
    Field,
    FieldElement,
    IndexArith,
    _bias_word,
    _binary_passes,
    _check_subfield,
    _field_width,
    _odd_passes,
    _pack,
    _unpack,
    make_field,
    subfield,
)
from .errors import EmptyLength, InvariantViolated, RaggedRows, TooLarge, ZeroCode

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
# Matrices are lists of index lists, and the arithmetic on them is the
# field's IndexArith (Field.arith).  Rows given at the edge become indices
# once (_indices); rref and nullspace hand FieldElement rows back (_elements).


def _index(x: FieldElement | int, field: Field) -> int:
    """The canonical index of an entry given at the edge of this module."""
    if isinstance(x, FieldElement) and x.field is field:
        return x.index
    if isinstance(x, int) and not isinstance(x, bool) and 0 <= x < field.q:
        return x
    raise ValueError(f"{x!r} is neither an element nor a canonical index of GF({field.p}^{field.m})")


def _indices(rows: Iterable[Sequence[FieldElement | int]], field: Field) -> list[list[int]]:
    return [[_index(x, field) for x in row] for row in rows]


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
        if mat[r][c] != 1:
            mat[r] = ar.scale(mat[r], ar.inv(mat[r][c]))
        targets = [row for i, row in enumerate(mat) if row[c] and i != r]
        if targets:
            prepared = ar.prepare(mat[r])
            for row in targets:
                ar.axpy(row, ar.neg(row[c]), prepared)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _nullspace(mat: Sequence[Sequence[int]], ar: IndexArith, n: int) -> list[list[int]]:
    """RREF basis of {v : mat @ v = 0} for rows of length n, one vector per
    free column of the right-to-left elimination; mat is left as it is.

    mat is reduced from the right: _rref of reversed copies of its rows, its
    pivot c being column n - 1 - c.  Reduced row i then ends in a 1 at its pivot
    p_i, and every other row is 0 there, so the vector of a free column f
    is e_f - sum_i R[i][f] e_(p_i), and R[i][f] != 0 only for f < p_i: it
    leads with the 1 at f, where every other vector is 0."""
    red, pivots = _rref([list(reversed(row)) for row in mat], ar)
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


def _width(mat: list[list[int]], n: int | None = None) -> int | None:
    """The common length of the rows of mat, or n when there are none;
    RaggedRows when the lengths differ, or differ from a declared n."""
    if not mat:
        return n
    lengths = {len(r) for r in mat}
    if len(lengths) != 1:
        raise RaggedRows(f"row lengths {sorted(lengths)}")
    length = lengths.pop()
    if n is not None and n != length:
        raise RaggedRows(f"declared n={n} but rows have length {length}")
    return length


def _matrix_of(
    rows: Sequence[Sequence[FieldElement | int]], field: Field, n: int | None = None
) -> list[list[int]]:
    """The index matrix of rows given at the edge, all of one length (n if
    declared)."""
    mat = _indices(rows, field)
    _width(mat, n)
    return mat


def rref(rows: Sequence[Sequence[FieldElement | int]], field: Field):
    """Reduced row echelon form; returns (FieldElement rows, pivot_columns)."""
    red, pivots = _rref(_matrix_of(rows, field), field.arith)
    return _elements(red, field), pivots


def nullspace(rows: Sequence[Sequence[FieldElement | int]], field: Field, n: int):
    """Basis of {v : rows @ v = 0} in F^n as FieldElement rows, for rows of
    length n; it is in reduced row echelon form.

    The rows are reduced from the right, so the basis has one vector per
    free column of that elimination, which leads with a 1 at its free
    column, where every other vector is 0 (see _nullspace)."""
    return _elements(_nullspace(_matrix_of(rows, field, n), field.arith, n), field)


def matrix_rank(rows: Sequence[Sequence[FieldElement | int]], field: Field) -> int:
    return len(_rref(_matrix_of(rows, field), field.arith)[0])


class LinearCode:
    """An [n, k] linear code; ``rows`` is its RREF generator as a tuple of
    index tuples over the alphabet ``base``."""

    __slots__ = ("base", "n", "rows", "provenance", "_generator")

    def __init__(self, base: Field, n: int, rows, provenance: str | None = None):
        self.base = base
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.provenance = provenance
        self._generator = None

    @property
    def generator(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The rows as FieldElement tuples, built on first use."""
        if self._generator is None:
            self._generator = tuple(_elements(self.rows, self.base))
        return self._generator

    @property
    def k(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over GF({self.base.p}^{self.base.m}))"

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.base == other.base and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.base, self.n, self.rows))

    # -- enumeration ---------------------------------------------------------

    def size(self) -> int:
        return self.base.q ** self.k

    def _check_guard(self, guard: int | None = None) -> None:
        """Raise TooLarge when the code has more codewords than the guard."""
        cap = enumeration_guard(guard)
        if self.size() > cap:
            raise TooLarge(f"{self.size()} codewords exceed the guard {cap}")

    def codewords(self, guard: int | None = None) -> Iterator[tuple[int, ...]]:
        """Every codeword sum_i c_i g_i as a tuple of alphabet indices, with
        c_0 running fastest through the alphabet in index order, then c_1,
        and so on; the first word is zero."""
        self._check_guard(guard)
        ar, q = self.base.arith, self.base.q
        zero = (0,) * self.n

        def span(rows):
            if not rows:
                yield zero
                return
            scaled = [ar.scale(rows[0], c) for c in range(q)]
            for w in span(rows[1:]):
                for sv in scaled:
                    yield tuple(map(ar.add, w, sv))

        return span(self.rows)

    def contains(self, word: Sequence[FieldElement | int]) -> bool:
        if len(word) != self.n:
            return False
        mat = _matrix(self) + _indices([word], self.base)
        return len(_rref(mat, self.base.arith)[0]) == self.k


def _matrix(code: LinearCode) -> list[list[int]]:
    """A copy of the code's rows for the in-place kernel."""
    return [list(row) for row in code.rows]


def from_rows(
    base: Field,
    rows: Iterable[Sequence[FieldElement | int]],
    n: int | None = None,
    provenance: str | None = None,
) -> LinearCode:
    """Span of the given rows; dependent rows are dropped by the RREF."""
    return _from_indices(base, _indices(rows, base), n, provenance)


def _from_indices(
    base: Field, mat: list[list[int]], n: int | None = None, provenance: str | None = None
) -> LinearCode:
    """Span of the rows of an index matrix over base, reduced in place."""
    n = _width(mat, n)
    if n is None or n <= 0:
        raise EmptyLength("a code needs positive length")
    return LinearCode(base, n, _rref(mat, base.arith)[0], provenance)


def zero_code(base: Field, n: int) -> LinearCode:
    if n <= 0:
        raise EmptyLength("a code needs positive length")
    return LinearCode(base, n, ())


def full_code(base: Field, n: int) -> LinearCode:
    return LinearCode(base, n, [[int(j == i) for j in range(n)] for i in range(n)])


def dual(code: LinearCode) -> LinearCode:
    """Nullspace of the generator as an [n, n-k] code."""
    return LinearCode(code.base, code.n, _nullspace(code.rows, code.base.arith, code.n), provenance="dual")


def sum_code(a: LinearCode, b: LinearCode) -> LinearCode:
    _check_same_space(a, b)
    return LinearCode(a.base, a.n, _rref(_matrix(a) + _matrix(b), a.base.arith)[0])


def intersect(a: LinearCode, b: LinearCode) -> LinearCode:
    """A cap B = (A^perp + B^perp)^perp."""
    _check_same_space(a, b)
    base, n = a.base, a.n
    ar = base.arith
    perps = _nullspace(a.rows, ar, n) + _nullspace(b.rows, ar, n)
    return LinearCode(base, n, _nullspace(perps, ar, n), provenance="dual")


def _pairing(rows: list[list[int]], cols: list[list[int]], ar: IndexArith) -> list[list[int]]:
    """The matrix of inner products <u, v> for u in rows (down) and v in cols
    (across): row u is the sum over positions j of u_j times column j."""
    columns = [ar.prepare(col) for col in zip(*cols)]
    out = []
    for u in rows:
        row = [0] * len(cols)
        for x, col in zip(u, columns):
            if x:
                ar.axpy(row, x, col)
        out.append(row)
    return out


def _orthogonal_span(checks: list[list[int]], gens: list[list[int]], ar: IndexArith, n: int) -> list[list[int]]:
    """The words x G of the span of the rows of G = gens that are orthogonal
    to every row of checks: x runs over the kernel of <checks, gens>.

    That kernel basis X is in RREF (see _nullspace), so when G is too, with
    pivots P, the word of the row of X that leads at f leads at P_f and is
    0 at every other P_f': the words are the RREF of their span."""
    rows = [ar.prepare(g) for g in gens]
    words = []
    for x in _nullspace(_pairing(checks, gens, ar), ar, len(gens)):
        word = [0] * n
        for xi, row in zip(x, rows):
            if xi:
                ar.axpy(word, xi, row)
        words.append(word)
    return words


def hull(code: LinearCode) -> LinearCode:
    """C cap C^perp = {x G : G G^T x^T = 0}: the kernel of the k x k Gram
    matrix mapped through G, already in RREF since G is."""
    base, g = code.base, code.rows
    return LinearCode(base, code.n, _orthogonal_span(g, g, base.arith, code.n), "hull")


def hull_dim(code: LinearCode) -> int:
    """k - rank(G G^T), since the rows of G are independent; zero exactly for
    LCD codes (Massey 1992)."""
    ar, g = code.base.arith, code.rows
    return code.k - len(_rref(_pairing(g, g, ar), ar)[0])


def is_lcd(code: LinearCode) -> bool:
    return hull_dim(code) == 0


def _check_same_space(a: LinearCode, b: LinearCode):
    if a.base != b.base or a.n != b.n:
        raise ValueError("codes live in different ambient spaces")


# ---------------------------------------------------------------------------
# weight queries (exact, by one transform of the column multiset)
# ---------------------------------------------------------------------------

class WeightDistribution:
    """Map weight -> codeword count, including A_0 = 1."""

    def __init__(self, counts: dict[int, int], n: int, size: int):
        self.counts = dict(sorted(counts.items()))
        self.n = n
        if self.counts.get(0) != 1 or sum(self.counts.values()) != size:
            raise InvariantViolated(f"{self.counts} is not the weight distribution of {size} words")
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
        if any(sum(comp) != n for comp in counts) or sum(counts.values()) != size:
            raise InvariantViolated(f"the compositions do not describe {size} words of length {n}")

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


def _column_transform(code: LinearCode, guard: int | None) -> list[int]:
    """Layer 0 of the p-ary FWHT of the column multiset N, over F_p^(sk)
    for the alphabet F_Q, Q = p^s; at p = 2 the one list W = layer 0 -
    layer 1.

    A word x in F_Q^k has the index sum_i x_i Q^i, so its p-ary digits are
    the F_p-coordinates of its entries.  Column j and each y in F_Q^* with
    leading digit 1 (one per F_p^*-orbit, r = (Q-1)/(p-1) of them) add one
    to N at the functional x -> Tr_{Q/p}(y <x, g_j>), whose coordinates are
    the Gram contractions of the y g_ij.  Layer 0 of the result at x counts
    the pairs (j, y) with Tr(y <x, g_j>) = 0; at s = 1 the only y is 1.

    N has total mass n r, which bounds every partial sum of the passes (and
    |W|, which takes one more bit for the bias of ``_binary_passes``), so
    the counts go straight into an array of fields of that width."""
    code._check_guard(guard)
    base = code.base
    p, q = base.p, base.q
    mul, dual = base.arith.mul, base.trace_dual_indices()
    reps = [y for t in range(base.m) for y in range(p ** t, 2 * p ** t)]
    size, m = code.size(), base.m * code.k
    width = _field_width((code.n * len(reps)).bit_length() + (p == 2))
    typecode = _FIELD_TYPECODES[width]
    if p == 2:
        typecode = typecode.lower()
    counts = array(typecode, [0]) * size
    rows = code.rows
    for col in zip(*rows) if rows else [()] * code.n:
        for y in reps:
            v = 0
            for g in reversed(col):
                v = v * q + dual[mul(y, g)]
            counts[v] += 1
    word = _pack(counts, typecode)
    if p == 2:
        bias = _bias_word(width, size)
        word = _binary_passes(word ^ bias, width, m) ^ bias
    else:
        word = _odd_passes([word] + [0] * (p - 1), width, p, m)[0]
    return _unpack(word, typecode, size)


def weight_distribution(code: LinearCode, guard: int | None = None) -> WeightDistribution:
    """A_w for every w.  Layer 0 of the column transform at x is
    r z + r0 (n - z) for the z zero coordinates of xG: y <x, g_j> has
    trace zero for every y when <x, g_j> = 0, and for r0 = (Q/p - 1)/(p - 1)
    of the r representatives otherwise.  So z = (layer 0 - r0 n) / (Q/p).
    At p = 2 the transform is W = layer 0 - layer 1, and the two layers sum
    to n r, so layer 0 = (n r + W) / 2."""
    base, n = code.base, code.n
    step = base.q // base.p
    r0 = (step - 1) // (base.p - 1)
    counts = {}
    for value, c in Counter(_column_transform(code, guard)).items():
        if base.p == 2:
            value, odd = divmod(n * (base.q - 1) + value, 2)
            if odd:
                raise InvariantViolated(f"n r + W = {2 * value + 1} is odd, so W is no layer difference")
        z, rem = divmod(value - r0 * n, step)
        if rem:
            raise InvariantViolated(f"transform value {value} leaves remainder {rem} mod {step}")
        counts[n - z] = c
    return WeightDistribution(counts, n, code.size())


def complete_weight_enumerator(
    code: LinearCode, guard: int | None = None
) -> CompleteWeightEnumerator:
    """Codeword counts by composition, by enumerating every codeword."""
    counts: dict[tuple[int, ...], int] = {}
    q = code.base.q
    for word in code.codewords(guard):
        comp = [0] * q
        for x in word:
            comp[x] += 1
        key = tuple(comp)
        counts[key] = counts.get(key, 0) + 1
    return CompleteWeightEnumerator(counts, code.n, code.size())


def min_distance(code: LinearCode, guard: int | None = None) -> int:
    if code.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    return min(weight_distribution(code, guard).nonzero_weights())


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
    _check_subfield(big, s)
    if s == big.m:
        return code
    sub, embed, _ = subfield(big, s)
    theta = [embed[b].index for b in sub.power_basis()]
    p, n = big.p, code.n
    ar = big.arith
    expanded = []
    for row in _nullspace(code.rows, ar, n):
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
    tag = "prime-restriction" if s == 1 else "subfield-restriction"
    return LinearCode(sub, n, _rref(words, sub.arith)[0], provenance=tag)


def restrict_to_prime_subfield(code: LinearCode) -> LinearCode:
    """V cap F_p^n for the F_q-linear space V spanned by the code."""
    return restrict_to_subfield(code, 1)
