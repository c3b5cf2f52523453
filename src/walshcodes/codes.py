"""Linear-code core over F_p or a subfield alphabet F_q.

A code keeps its generator in reduced row echelon form as rows of
canonical indices of the alphabet, which doubles as the canonical form:
two codes are equal iff their rows are.  A row is bytes, one index a
byte, over at most 256 elements, else a tuple (_row_form), read as tuples
by ``rows`` and as FieldElements by ``generator``.  At the edge of this module
(``from_rows``, ``contains``, ``rref``, ``nullspace``, ``matrix_rank``) an
int entry is a canonical index of the alphabet, in [0, q), never a scalar
mod p; other non-elements raise ValueError.
Duals come from nullspace computation rather than literal Gram-Schmidt;
over finite fields self-orthogonal vectors break orthogonalization while
the nullspace achieves the same O(n^3) bound in one elimination: reduced
from the right, a matrix's kernel basis is already the RREF of the dual
(see _kernel), and the kernel of the Gram matrix mapped through an RREF
generator is already the RREF of the hull.

Every elimination is one kernel over the prime field, _reduce, on rows
packed by _packed.Lanes: each row is one int with a fixed-width lane per
coordinate, so that a row operation is a few whole-int operations: XOR at
p = 2, an addition and one conditional subtraction of p per lane at odd p.  A
row over an alphabet F_{p^s}, s > 1, enters as F_p rows of s base-p
digits per coordinate; the F_{p^s}-linear space they span has its F_p
pivots in whole blocks of digits, so the F_p RREF yields the F_{p^s} one
(see _digits).

Hamming weights come from one p-ary fast Walsh-Hadamard transform of the
multiset of generator columns, packed into one word and transformed by
_packed.transform, which counts the zero coordinates of every codeword at
once; for a code C(f) of dimension 2m over F_p, p <= 128, that transform's
passes over the digits of f(x) have a closed form, the components
x -> <a, f(x)>, and only the passes over the points run
(_component_transform).  The complete weight enumerator enumerates
codewords, as tuples of alphabet indices.
Every weight query is guarded by a configurable cap on the number of
codewords, and every dual (dual, nullspace, intersect and the closed forms
of constructions) and weight transform by a cap on its estimated bytes.
"""

from __future__ import annotations

import os
from array import array
from bisect import insort
from collections import Counter
from functools import reduce
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Sequence

from ._packed import TYPECODES, Lanes, _little, bias_word, field_counts, field_width, join, lanes_of, pack, split
from ._packed import transform, unpack
from .algebra import Field, FieldElement
from .errors import EmptyLength, InvariantViolated, RaggedRows, TooLarge, ZeroCode

DEFAULT_GUARD = 2 ** 22
DEFAULT_BYTE_GUARD = 2 ** 30
BYTE_GUARD_FLOOR = 2 ** 20  # no dual or weight transform of at most this many bytes is refused


def enumeration_guard(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("WALSHCODES_GUARD")
    return int(env) if env else DEFAULT_GUARD


def byte_guard(override: int | None = None) -> int:
    """The cap on the estimated bytes of a dual (see _kernel) or of a weight
    transform (see weight_distribution): the override, else
    WALSHCODES_BYTE_GUARD, else DEFAULT_BYTE_GUARD.  It is read only for an
    estimate past BYTE_GUARD_FLOOR, so a cap below the floor acts as the
    floor."""
    if override is not None:
        return override
    env = os.environ.get("WALSHCODES_BYTE_GUARD")
    return int(env) if env else DEFAULT_BYTE_GUARD


def _check_bytes(what: str, need: int, guard: int | None) -> None:
    """TooLarge when ``need`` estimated bytes pass the byte guard, which is
    read only past BYTE_GUARD_FLOOR."""
    cap = byte_guard(guard) if need > BYTE_GUARD_FLOOR else need
    if need > cap:
        raise TooLarge(f"{what} takes about {need} bytes, past the byte guard {cap}")


def _row_form(q: int) -> type:
    """The form of a code's row over q elements: bytes while q <= 256."""
    return bytes if q <= 256 else tuple


# ---------------------------------------------------------------------------
# elimination on packed rows over F_p
# ---------------------------------------------------------------------------
#
# Rows given at the edge become index lists once (_indices), are packed at
# the edge of the kernel and unpacked into index rows; rref and nullspace
# hand FieldElement rows back (_elements).


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


def _reduce(words: Iterable[int], lanes: Lanes) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of rows packed by lanes; returns the nonzero
    reduced rows and their pivot columns, in pivot order.

    Each row in turn is cleared at the lanes of the pivot rows found so
    far, in the order of their lanes; what is left, unless zero, is scaled
    to 1 at its lowest nonzero lane (where its lowest set bit lies), the
    next pivot.  A pivot row is then zero below its own lane and at the
    lanes of the pivots found before it, so one pass from the last pivot
    row back clears in each the lanes of the later pivots, whose rows are
    final by then.  A pivot row that meets v in its lane subtracts v times
    itself, which it builds once per v as (p - v) times itself; one built
    before that pass changed the row differs from the final one by later
    pivot rows, whose lanes the pass clears next, so it serves as well."""
    w = lanes.bits
    if lanes.p == 2:
        pivots: list = []  # (the bit of the pivot lane, row), by lane
        for x in words:
            for bit, row in pivots:
                if x & bit:
                    x ^= row
            if x:
                insort(pivots, (x & -x, x))
        for i in range(len(pivots) - 2, -1, -1):
            bit, x = pivots[i]
            for at, row in pivots[i + 1 :]:
                if x & at:
                    x ^= row
            pivots[i] = bit, x
        return [row for _, row in pivots], [(bit.bit_length() - 1) // w for bit, _ in pivots]
    p, mask, top, lift, down, times = lanes.p, (1 << w) - 1, lanes.top, lanes.lift, w - 1, lanes.times
    pivots = []  # (bit offset, row, {v: (p - v) * row}), by lane

    def clear(x, pivots):
        for sh, row, multiples in pivots:
            v = x >> sh & mask
            if v:
                m = multiples.get(v)
                if m is None:
                    m = multiples[v] = times(row, p - v)
                x += m
                x -= ((x + lift & top) >> down) * p
        return x

    for x in words:
        x = clear(x, pivots)
        if x:
            low = (x & -x).bit_length() - 1
            sh = low - low % w
            lead = x >> sh & mask
            if lead != 1:
                x = times(x, pow(lead, -1, p))
            insort(pivots, (sh, x, {}))
    for i in range(len(pivots) - 2, -1, -1):
        sh, x, multiples = pivots[i]
        pivots[i] = sh, clear(x, pivots[i + 1 :]), multiples
    return [row for _, row, _ in pivots], [sh // w for sh, _, _ in pivots]


# -- alphabets F_{p^s}: s digits over F_p per coordinate --------------------
#
# Coordinate j of a row over F_{p^s} becomes columns j s + t, t < s, its
# base-p digits: its coordinates over the power basis x^t (index p^t).  An
# F_{p^s}-linear space V then has its F_p pivots in whole blocks: the words
# of V that vanish before coordinate j form an F_{p^s}-space, whose
# coordinates j make up 0 or all of F_{p^s}, so that every digit of block j
# or none of them leads a row of the F_p RREF.  The F_p RREF row leading at
# digit 0 of block j is then 1 in block j and 0 in every other pivot block:
# it is the F_{p^s} RREF row with pivot j.


def _digits(row: Sequence[int], p: int, s: int) -> Sequence[int]:
    """The s base-p digits of each entry (split), digit t of entry j at
    j s + t."""
    return row if s == 1 else list(chain.from_iterable(zip(*split(row, p, s))))


def _join(digits: Sequence[int], p: int, s: int) -> Sequence[int]:
    """The entries whose digits _digits lays out (join); at s = 1 the
    digits as they are."""
    return digits if s == 1 else join([digits[t::s] for t in range(s)], p)


def _expand(rows: Sequence[Sequence[int]], field: Field) -> Sequence[Sequence[int]]:
    """F_p rows whose F_p-span is the F_{p^s}-span of rows over field =
    F_{p^s}, in digits: x^d r for each row r and d < s, in that order."""
    p, s = field.p, field.m
    if s == 1:
        return rows
    scale = field.arith.scale
    return [_digits(scale(r, p ** d), p, s) for r in rows for d in range(s)]


def _constraints(checks: Sequence[Sequence[int]], field: Field, theta: Sequence[int]) -> Sequence[Sequence[int]]:
    """F_p rows whose kernel in F_p^(n s) is the set of c in F^n with
    sum_j h_j c_j = 0 for every check h over field = F_{p^m}, where
    c_j = sum_t c_jt theta_t sits at columns j s + t, for s = len(theta)
    indices theta_t of field: coordinate e < m of sum_j h_j c_j reads
    digit e of each h_j theta_t."""
    if field.m == 1:
        return checks
    scale = field.arith.scale
    out = []
    for h in checks:
        out += split([x for xs in zip(*(scale(h, t) for t in theta)) for x in xs], field.p, field.m)
    return out


# -- the kernels built on _reduce -------------------------------------------


def _rref(mat: Sequence[Sequence[int]], field: Field) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form of an index matrix over field; returns (the
    nonzero rows, pivot columns).  Over F_p the rows are unpacked as they
    are, bytes at one-byte lanes; over F_{p^s}, s > 1, they are the rows of
    the F_p RREF of _expand(mat) that lead at digit 0 of a block, as
    lists."""
    p, s = field.p, field.m
    lanes = lanes_of(p, (len(mat[0]) if mat else 0) * s)
    rows, pivots = _reduce(pack(_expand(mat, field), lanes.width), lanes)
    rows = unpack(rows, lanes.width, lanes.n)
    if s == 1:
        return rows, pivots
    leads = [(row, c // s) for row, c in zip(rows, pivots) if c % s == 0]
    return [_join(row, p, s) for row, _ in leads], [c for _, c in leads]


def _from_right(rows: Sequence[Sequence[int]], p: int, n: int) -> tuple[list[int], list[int]]:
    """_reduce of the rows of length n over F_p read from the right: pivot
    c is column n - 1 - c."""
    lanes = lanes_of(p, n)
    return _reduce(pack(rows, lanes.width, order="big"), lanes)


def _reduced_checks(mat: Sequence[Sequence[int]], field: Field, n: int) -> tuple[list[int], list[int]]:
    """The one elimination of _nullspace: _from_right of the F_p constraints
    of mat over the power basis of field (mat itself over F_p)."""
    theta = [field.p ** t for t in range(field.m)]
    return _from_right(_constraints(mat, field, theta), field.p, n * field.m)


def _kernel(
    reduced: tuple[list[int], list[int]], field: Field, n: int, guard: int | None = None
) -> list[Sequence[int]]:
    """RREF basis over field = F_{p^s} of the solutions c in F^n of F_p
    constraints on their n s digits, given as reduced by _from_right.

    Reduced row i ends in a 1 at its pivot P_i, and every other row is 0
    there, so the vector of a free column f is e_f - sum_i R[i][f] e_(P_i),
    and R[i][f] != 0 only for f < P_i: the vectors are the RREF of the
    kernel, each leading with the 1 at its free column.  Over F_{p^s} those
    leading at digit 0 of a block are the F_{p^s} RREF (see _digits), and
    only they are built: row after row in one buffer of digits (bytes while
    p < 256), pivot column P_i one strided slice, then joined into entries
    over F_{p^s} and sliced into rows in the form of field (see _row_form).
    TooLarge is raised first when the (n s - rank) x n s F_p entries, at 8
    bytes each as in a tuple view, pass the byte guard (see byte_guard)."""
    rows, pivots = reduced
    p, s = field.p, field.m
    width = n * s
    nf = width - len(pivots)
    _check_bytes(f"a dual of {nf} x {width} entries", 8 * nf * width, guard)
    if not nf:
        return []
    lead = sorted(set(range(0, width, s)).difference([width - 1 - c for c in pivots]))
    lanes, form, count = lanes_of(p, width), _row_form(field.q), len(lead)
    out = bytearray(count * width) if p < 256 else [0] * (count * width)
    for a, f in enumerate(lead):
        out[a * width + f] = 1
    for row, c in zip(unpack([lanes.sub(0, row) for row in rows], lanes.width, width, order="big"), pivots):
        out[width - 1 - c :: width] = [row[f] for f in lead]
    out = form(_join(out, p, s))  # the buffer is freed here, before the rows are sliced
    return [out[a * n : a * n + n] for a in range(count)]


def _nullspace(mat: Sequence[Sequence[int]], field: Field, n: int, guard: int | None = None) -> list[Sequence[int]]:
    """RREF basis of {v : mat @ v = 0} for rows of length n, in one
    elimination from the right (see _kernel); mat is left as it is."""
    return _kernel(_reduced_checks(mat, field, n), field, n, guard)


def _width(mat: Sequence[Sequence[int]], n: int | None = None) -> int | None:
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
    red, pivots = _rref(_matrix_of(rows, field), field)
    return _elements(red, field), pivots


def nullspace(rows: Sequence[Sequence[FieldElement | int]], field: Field, n: int):
    """Basis of {v : rows @ v = 0} in F^n as FieldElement rows, for rows of
    length n; it is in reduced row echelon form.

    The rows are reduced from the right, so the basis has one vector per
    free column of that elimination, which leads with a 1 at its free
    column, where every other vector is 0 (see _kernel)."""
    return _elements(_nullspace(_matrix_of(rows, field, n), field, n), field)


def matrix_rank(rows: Sequence[Sequence[FieldElement | int]], field: Field) -> int:
    return len(_rref(_matrix_of(rows, field), field)[0])


class LinearCode:
    """An [n, k] linear code: its RREF generator over the alphabet ``base``,
    rows of indices in the alphabet's form (see _row_form), kept as given
    when in that form and never changed.  ``rows`` (index tuples, built on
    each read) and ``generator`` (FieldElements, on first read) view them.
    A code built by constructions.first_generic also keeps its function's
    field, values and points, which only the weight queries read; equality
    and hashing read the rows alone."""

    __slots__ = ("base", "n", "_rows", "provenance", "_generator", "_function")

    def __init__(self, base: Field, n: int, rows, provenance: str | None = None):
        self.base = base
        self.n = n
        self._rows = tuple(map(_row_form(base.q), rows))
        self.provenance = provenance
        self._generator = None
        self._function = None  # (field, f's index table, points) of a code C(f) (see _component_transform)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._rows))

    @property
    def generator(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The rows as FieldElement tuples, built on first use."""
        if self._generator is None:
            self._generator = tuple(_elements(self._rows, self.base))
        return self._generator

    @property
    def k(self) -> int:
        return len(self._rows)

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over GF({self.base.p}^{self.base.m}))"

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.base == other.base and self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash((self.base, self.n, self._rows))

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

        return span(self._rows)

    def contains(self, word: Sequence[FieldElement | int]) -> bool:
        if len(word) != self.n:
            return False
        return len(_rref(self._rows + tuple(_indices([word], self.base)), self.base)[0]) == self.k


def from_rows(
    base: Field,
    rows: Iterable[Sequence[FieldElement | int]],
    n: int | None = None,
    provenance: str | None = None,
) -> LinearCode:
    """Span of the given rows; dependent rows are dropped by the RREF."""
    return _from_indices(base, _indices(rows, base), n, provenance)


def _from_indices(
    base: Field, mat: Sequence[Sequence[int]], n: int | None = None, provenance: str | None = None
) -> LinearCode:
    """Span of the rows of an index matrix over base; mat is left as it is,
    so a matrix that a defining set or a function keeps may be passed."""
    n = _width(mat, n)
    if n is None or n <= 0:
        raise EmptyLength("a code needs positive length")
    return LinearCode(base, n, _rref(mat, base)[0], provenance)


def zero_code(base: Field, n: int) -> LinearCode:
    if n <= 0:
        raise EmptyLength("a code needs positive length")
    return LinearCode(base, n, ())


def full_code(base: Field, n: int) -> LinearCode:
    return LinearCode(base, n, [[int(j == i) for j in range(n)] for i in range(n)])


def dual(code: LinearCode, byte_guard: int | None = None) -> LinearCode:
    """Nullspace of the generator as an [n, n-k] code; TooLarge when its
    estimated bytes exceed the byte guard (see _kernel)."""
    return LinearCode(code.base, code.n, _nullspace(code._rows, code.base, code.n, byte_guard), provenance="dual")


def sum_code(a: LinearCode, b: LinearCode) -> LinearCode:
    _check_same_space(a, b)
    return LinearCode(a.base, a.n, _rref(a._rows + b._rows, a.base)[0])


def intersect(a: LinearCode, b: LinearCode) -> LinearCode:
    """A cap B = (A^perp + B^perp)^perp."""
    _check_same_space(a, b)
    base, n = a.base, a.n
    perps = _nullspace(a._rows, base, n) + _nullspace(b._rows, base, n)
    return LinearCode(base, n, _nullspace(perps, base, n), provenance="dual")


def _pairing(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]], field: Field) -> list[list[int]]:
    """The matrix of inner products <u, v> for u in rows (down) and v in cols
    (across); at p = 2, the parity of the bits of u AND v, each row read
    as an int of one bit an entry, through its digits '0' and '1'.  A Gram
    matrix (cols is rows) is symmetric: the pairs on and above its
    diagonal are read, and mirrored."""
    gram, p = cols is rows, field.p
    if field.m > 1:
        ar = field.arith

        def line(u, vs):
            return [reduce(ar.add, map(ar.mul, u, v), 0) for v in vs]

    elif p == 2:
        rows = [int(row.translate(_BINARY_DIGITS), 2) for row in rows]
        cols = rows if gram else [int(col.translate(_BINARY_DIGITS), 2) for col in cols]

        def line(u, vs):
            return [(u & v).bit_count() & 1 for v in vs]

    else:

        def line(u, vs):
            return [sum(map(mul, u, v)) % p for v in vs]

    if not gram:
        return [line(u, cols) for u in rows]
    out: list[list[int]] = []
    for i, u in enumerate(rows):
        out.append([row[i] for row in out] + line(u, rows[i:]))
    return out


_BINARY_DIGITS = b"01".ljust(256, b"\0")  # the translate table of F_2 entries to their digits


def _orthogonal_span(
    checks: Sequence[Sequence[int]], gens: Sequence[Sequence[int]], field: Field, n: int
) -> list[Sequence[int]]:
    """The words x G of the span of the rows of G = gens that are orthogonal
    to every row of checks: x runs over the kernel of <checks, gens>, and
    x G is a sum of packed rows over F_p (over F_{p^s}, of the rows of
    _expand(G), with the digits of x as coefficients).

    That kernel basis X is in RREF (see _kernel), so when G is too, with
    pivots P, the word of the row of X that leads at f leads at P_f and is
    0 at every other P_f': the words are the RREF of their span."""
    p, s = field.p, field.m
    lanes = lanes_of(p, n * s)
    rows = pack(_expand(gens, field), lanes.width)
    words = []
    for x in _nullspace(_pairing(checks, gens, field), field, len(gens)):
        word = 0
        for c, row in zip(_digits(x, p, s), rows):
            if c:
                word = lanes.add(word, lanes.times(row, c))
        words.append(word)
    return [_join(word, p, s) for word in unpack(words, lanes.width, lanes.n)]


def hull(code: LinearCode) -> LinearCode:
    """C cap C^perp = {x G : G G^T x^T = 0}: the kernel of the k x k Gram
    matrix mapped through G, already in RREF since G is."""
    return LinearCode(code.base, code.n, _orthogonal_span(code._rows, code._rows, code.base, code.n), "hull")


def hull_dim(code: LinearCode) -> int:
    """k - rank(G G^T), since the rows of G are independent; zero exactly for
    LCD codes (Massey 1992)."""
    g = code._rows
    return code.k - len(_rref(_pairing(g, g, code.base), code.base)[0])


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


def _column_transform(code: LinearCode, width: int) -> list[int]:
    """The p - 1 canonical layers D_e, in fields of ``width`` bytes, of the
    p-ary FWHT of the multiset of the functionals x -> Tr_{Q/p}(y <x, g_j>)
    on F_p^(sk), one for each column j and each y in F_Q^*, for the
    alphabet F_Q, Q = p^s, over Q^k fields.

    A word x in F_Q^k has the index sum_i x_i Q^i, so its p-ary digits are
    the F_p-coordinates of its entries.  The counts N of one y per
    F_p^*-orbit (leading digit 1, r = (Q - 1)/(p - 1) of them) go straight
    into an array of fields, the functionals built one row of G at a time.
    The functional of (j, y) is that of the vector y g_j, so a count is at
    most r times the largest multiplicity of a column, which the functionals
    of y = 1 give: the transform starts at the width of that bound and
    widens as it grows (see _packed.transform).  The other lambda y put
    (p - 1) F_0 in layer 0 and n r - F_0 in every other layer, so layer 0
    less layer p - 1 of the full multiset is p F_0 - n r = p D_0 - sum_e D_e
    (see weight_distribution).  ``width`` holds that difference and a sign
    bit."""
    base = code.base
    p, q = base.p, base.q
    mul, dual = base.arith.mul, base.trace_dual_indices()
    r = (q - 1) // (p - 1)
    rows, entries = code._rows, set().union(*code._rows)
    image = bytearray(256) if q <= 256 else [0] * q  # a translate table for bytes rows

    def functionals(y):
        for g in entries:
            image[g] = dual[mul(y, g)]
        planes = [row.translate(image) if q <= 256 else list(map(image.__getitem__, row)) for row in rows]
        return join(planes, q) if rows else [0] * code.n

    reps = [y for t in range(base.m) for y in range(p ** t, 2 * p ** t)]  # y = 1 first
    first = functionals(reps[0])
    bound = r * max(Counter(first).values()) if width > 1 else code.n * r
    counts = array(TYPECODES[field_width(bound.bit_length() + (p == 2)), False], [0]) * code.size()
    for values in chain([first], map(functionals, reps[1:])):
        for v in values:
            counts[v] += 1
    words = [int.from_bytes(_little(counts, "little"), "little")] + [0] * (p - 1) * (p > 2)
    return transform(words, width, p, base.m * code.k, bound, code.n * r)


def _component_transform(code: LinearCode, width: int) -> list[int]:
    """The layers of _column_transform for a code C(f) = {(Tr(a f(x)) +
    Tr(b x))_x} of dimension 2m over F_p, p <= 128, from the components
    of f, over the q^2 fields a q + x, q = p^m.

    Its column at the point x is the vector (f(x), x) of F_p^(2m), one point
    each: the m passes over the digits of f(x) have the closed form
    T[a q + x] = <a, f(x)> mod p (up to the sign of a), so only the m
    passes over the digits of x run (see _packed.transform).  Both a -> <a, y> and y -> Tr(alpha y)
    range over every F_p-linear functional, and (a, b) -> the word is one
    to one at k = 2m, so the multiset of fields is that of the column
    transform.  T is built by doubling over the digits of a, from the
    digit planes of f's values (_packed.split): the block of digit j of a
    equal to c is the block below it plus c times plane j, p - 1 additions
    of ints a digit, each byte below 2p - 1, brought back mod p by one
    translate (so p <= 128).  An absent point is marked p, which every
    input plane reads as 0: the ones and minus ones of (-1)^T at p = 2, the
    p one-hot planes of T otherwise."""
    field, values, points = code._function
    p, q, m = field.p, field.q, field.m
    mod = (bytes(range(p)) * 2).ljust(256, b"\0")
    table = bytes(q)
    for plane in split(values, p, m):
        size = len(table)
        step, blocks = int.from_bytes(plane * (size // q), "little"), [table]
        for _ in range(p - 1):
            blocks.append((int.from_bytes(blocks[-1], "little") + step).to_bytes(size, "little").translate(mod))
        table = bytearray().join(blocks)
    for x in set(range(q)).difference(points):
        table[x::q] = bytes([p]) * q
    # the translate table of each input plane, which maps the marker p to 0
    images = [b"\1\xff"] if p == 2 else [bytes(e) + b"\1" for e in range(p)]
    words = [int.from_bytes(table.translate(image.ljust(256, b"\0")), "little") for image in images]
    return transform(words, width, p, 2 * m, 1, code.n, m)


def weight_distribution(
    code: LinearCode, guard: int | None = None, byte_guard: int | None = None
) -> WeightDistribution:
    """A_w for every w, from one transform: by components for a code C(f)
    of dimension 2m over F_p, p <= 128 (_component_transform), else of the
    column multiset (_column_transform).  TooLarge comes first, past the
    codeword guard, or when the transform's state, p words (one at p = 2)
    of Q^k fields of the final width, passes the byte guard.

    For the z zero coordinates of xG, Tr(y <x, g_j>) is 0 for all Q - 1
    values of y when <x, g_j> = 0, and otherwise takes each nonzero value
    Q/p times and 0 Q/p - 1 times.  So layer 0 of the column transform at x
    is (Q - 1) z + (Q/p - 1)(n - z), every other layer is (Q/p)(n - z), and
    their difference is Q z - n = p D_0 - sum_e D_e for the canonical layers
    D_e of the transform taken.  On the layers biased by B = 2^(8 width -
    1), p (D_0 + B) - sum_e (D_e + B) is that value biased by B, exact as B,
    with the width, exceeds the mass n (Q - 1) of the full multiset.  The
    values are counted on the packed word, without a list of its Q^k
    fields."""
    code._check_guard(guard)
    n, size, base, function = code.n, code.size(), code.base, code._function
    p, q = base.p, base.q
    width = field_width((n * (q - 1)).bit_length() + 1)
    _check_bytes(f"a weight transform of {size} fields", (1 if p == 2 else p) * size * width, byte_guard)
    by_components = function is not None and code.k == 2 * function[0].m and p <= 128
    words = (_component_transform if by_components else _column_transform)(code, width)
    biases = bias_word(width, size)
    biased = [word ^ biases for word in words]
    bias, counts = 1 << 8 * width - 1, {}
    for value, c in field_counts(p * biased[0] - sum(biased), width, size).items():
        value -= bias
        z, rem = divmod(value + n, q)
        if rem:
            raise InvariantViolated(f"transform value {value} leaves remainder {rem} mod {q}")
        counts[n - z] = c
    return WeightDistribution(counts, n, size)


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


def min_distance(code: LinearCode, guard: int | None = None, byte_guard: int | None = None) -> int:
    if code.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    return min(weight_distribution(code, guard, byte_guard).nonzero_weights())


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
    sub, embed, _ = big._subfield(s)
    theta = [embed[big.p ** t] for t in range(s)]
    checks = _constraints(_nullspace(code._rows, big, code.n), big, theta)
    solutions = _kernel(_from_right(checks, big.p, code.n * s), sub, code.n)
    tag = "prime-restriction" if s == 1 else "subfield-restriction"
    return LinearCode(sub, code.n, solutions, provenance=tag)


def restrict_to_prime_subfield(code: LinearCode) -> LinearCode:
    """V cap F_p^n for the F_q-linear space V spanned by the code."""
    return restrict_to_subfield(code, 1)
