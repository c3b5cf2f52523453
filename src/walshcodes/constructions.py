"""The two generic code constructions, their closed-form duals and hulls,
defining-set generators, and the fixed-Hull / LCD / MDS recipes.

Both constructions are trace codes over F_{p^s} of sequences: the values
and points of a function (s = 1), or a defining set.  The code, its
closed-form dual, its hull map and its kernel hull come from their trace
and coordinate rows, so one record (_Matrices) implements each once.

A defining set is an ordered sequence (duplicates permitted): the induced
code's identity depends on the order only up to coordinate permutation,
so every generator here emits a deterministic canonical order.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Sequence

from ._packed import join, split
from .algebra import Field, FieldElement, _check_subfield
from .codes import (
    LinearCode,
    _elements,
    _from_indices,
    _kernel,
    _orthogonal_span,
    _pairing,
    _reduced_checks,
    _rref,
)
from .errors import (
    AlphaZero,
    BadAlpha,
    BadBeta,
    BadDegree,
    BadL,
    BadParameters,
    CannotFrontLoad,
    DimensionTooLarge,
    EmptySet,
    EvenCharacteristic,
    InvariantViolated,
    MinusOneNotSquare,
    NeedDistinctAlphas,
    NotIndependent,
    OddCharacteristic,
    OddK,
    WrongCodomain,
)
from .functions import ParyFunction


class DefiningSet:
    """Ordered sequence (d_1, ..., d_n) in an ambient field.

    base_degree s means the induced codewords take values in F_{p^s}
    through the relative trace.  The set stores the indices of its
    elements; ``elements``, the interned elements, is built on first read.
    Equality and hashing read the field, the base degree and the indices.
    ``_derived`` keeps the set's matrices (see _matrices) for as long as the
    set lives; neither it nor the provenance takes part in equality.
    """

    __slots__ = ("field", "base_degree", "provenance", "_indices", "_elements", "_derived")

    def __init__(self, field: Field, base_degree: int, elements: Sequence[FieldElement], provenance: str = ""):
        elements = tuple(elements)
        self._set(field, base_degree, tuple(d.index for d in elements), provenance)
        if any(d.field is not field for d in elements):
            raise ValueError("defining element outside the ambient field")
        self._elements = elements

    @classmethod
    def _from_indices(cls, field: Field, base_degree: int, indices: Sequence[int], provenance: str) -> "DefiningSet":
        out = cls.__new__(cls)
        out._set(field, base_degree, tuple(indices), provenance)
        return out

    def _set(self, field, base_degree, indices, provenance):
        _check_subfield(field, base_degree)
        self.field, self.base_degree, self.provenance = field, base_degree, provenance
        self._indices, self._elements, self._derived = indices, None, {}

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        if self._elements is None:
            self._elements = tuple(map(self.field.from_index, self._indices))
        return self._elements

    def __len__(self):
        return len(self._indices)

    def indices(self) -> tuple[int, ...]:
        return self._indices

    def __eq__(self, other):
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return (self.field, self.base_degree, self._indices) == (other.field, other.base_degree, other._indices)

    def __hash__(self):
        return hash((self.field, self.base_degree, self._indices))

    def __repr__(self):
        return (
            f"DefiningSet(field={self.field!r}, base_degree={self.base_degree!r}, "
            f"elements={self.elements!r}, provenance={self.provenance!r})"
        )


def defining_set(
    ctx: Field,
    elements: Sequence[FieldElement],
    base_degree: int = 1,
    provenance: str = "explicit",
) -> DefiningSet:
    return DefiningSet(ctx, base_degree, tuple(elements), provenance)


# ---------------------------------------------------------------------------
# index matrices over the alphabet F_{p^s}
# ---------------------------------------------------------------------------
#
# Over F_Q, Q = p^s, the b = m/s powers x^j of the root x of the modulus are a
# basis of F_q.  For a sequence (d_i) the trace rows Tr_{q/Q}(x^j d_i) are
# codewords, one per basis element, and the coordinate rows c_j(d_i) turn
# sum_i c_i d_i = 0 into b equations over F_Q.  Both are base-Q digit planes
# of one lookup per point (_packed.split): row j is digit j of T[d_i], for T
# the field's relative trace-dual table (digit j of its entry of d is
# Tr_{q/Q}(x^j d)) or its coordinate table (the identity at s = 1, whose
# planes are the index digits of d).  A plane has the form of a code's row
# over F_Q (codes._row_form): bytes while Q <= 256, which the elimination
# kernel of codes reads as its packed word (one byte a lane at p = 2 and odd
# p <= 61); else a tuple.


def _digit_rows(ctx: Field, s: int, table: Sequence[int] | None, indices: Sequence[int]) -> list:
    """Digit j < m/s, base Q = p^s, of table[d] (of d itself when table is
    None) for each index d (across), one row a digit (down): one lookup, a
    translate while q <= 256, and one split."""
    if table is not None and ctx.q <= 256:
        indices = bytes(indices).translate(bytes(table).ljust(256, b"\0"))
    elif table is not None:
        indices = list(map(table.__getitem__, indices))
    return split(indices, ctx.p ** s, ctx.m // s)


class _Matrices:
    """The trace rows of the sequences ``traced`` and the coordinate rows of
    ``coordinated`` over F_{p^s}, m/s rows a sequence, each matrix built on
    first use and kept as packed rows (see _digit_rows), and what the
    constructions make of them; the code of the trace rows is kept too."""

    def __init__(self, ctx: Field, s: int, traced: Sequence[Sequence[int]], coordinated: Sequence[Sequence[int]]):
        self.ctx, self.s, self.traced, self.coordinated = ctx, s, traced, coordinated
        self.alphabet, self.n, self._code = ctx._subfield(s)[0], len(traced[0]), None

    @cached_property
    def traces(self) -> tuple:
        table = self.ctx._relative_trace_dual(self.s)
        return tuple(row for seq in self.traced for row in _digit_rows(self.ctx, self.s, table, seq))

    @cached_property
    def coordinates(self) -> tuple:
        table = self.ctx.coordinate_table(self.s) if self.s > 1 else None
        return tuple(row for seq in self.coordinated for row in _digit_rows(self.ctx, self.s, table, seq))

    @cached_property
    def reduced(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The one elimination of the coordinate rows' nullspace (codes._reduced_checks)."""
        return tuple(map(tuple, _reduced_checks(self.coordinates, self.alphabet, self.n)))

    def code(self, provenance: str) -> LinearCode:
        """The code of the trace rows, eliminated on first use and kept; a
        call that names another provenance keeps a code of its own on the
        kept rows."""
        if self._code is None:
            self._code = _from_indices(self.alphabet, self.traces, self.n, provenance)
        elif self._code.provenance != provenance:
            self._code = LinearCode(self.alphabet, self.n, self._code._rows, provenance)
        return self._code

    def dual(self) -> LinearCode:
        return LinearCode(self.alphabet, self.n, _kernel(self.reduced, self.alphabet, self.n), "closed-form-dual")

    def hull_map(self):
        return _elements(_pairing(self.coordinates, self.traces, self.alphabet), self.alphabet), self.alphabet

    def hull(self) -> LinearCode:
        words = _orthogonal_span(self.coordinates, self.traces, self.alphabet, self.n)
        return _from_indices(self.alphabet, words, self.n, "hull-kernel")

    def rank(self) -> int:
        return len(self.reduced[1]) // self.s


def _matrices(source: DefiningSet | ParyFunction, include_zero: bool = True) -> _Matrices:
    """The record of a defining set D (D traced and coordinated) or of a
    function's code (f(x), x traced; x, f(x) coordinated), kept in
    source._derived from first use, one per include_zero."""
    key = "matrices", include_zero
    if key not in source._derived:
        if isinstance(source, DefiningSet):
            row = source.indices()
            source._derived[key] = _Matrices(source.field, source.base_degree, (row,), (row,))
        else:
            points, values = _first_columns(source, include_zero)
            source._derived[key] = _Matrices(source.field, 1, (values, points), (points, values))
    return source._derived[key]


# ---------------------------------------------------------------------------
# the first generic construction: codes from functions
# ---------------------------------------------------------------------------

def _require_self_map(f: ParyFunction):
    if f.codomain_degree != f.field.m:
        raise WrongCodomain("construction needs an F_q -> F_q map")


def first_points(ctx: Field, include_zero: bool = True) -> list[FieldElement]:
    return ctx.elements[0 if include_zero else 1 :]


def _first_columns(f: ParyFunction, include_zero: bool) -> tuple[range, Sequence[int]]:
    """Indices of the points x_i and of the values f(x_i), in point order."""
    _require_self_map(f)
    start = 0 if include_zero else 1
    return range(start, f.field.q), f.indices[start:]


def first_generic(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Code {(Tr(a f(x) + b x))_x : a, b in F_q} over F_p; length q or q-1.
    The code keeps f's field, values and points, not the record, for its
    weights (see codes._component_transform)."""
    record = _matrices(f, include_zero)
    code = record.code("function-code" if include_zero else "punctured-function-code")
    code._function = f.field, f.indices, record.traced[1]
    return code


def first_codeword(
    f: ParyFunction,
    a: FieldElement,
    b: FieldElement,
    include_zero: bool = True,
) -> tuple[int, ...]:
    """Coordinates Tr(a f(x) + b x) as indices of F_p, the integers in
    [0, p), in canonical point order."""
    points, values = _first_columns(f, include_zero)
    ctx = f.field
    table, scale = ctx.trace_table(), ctx.arith.scale
    pairs = zip(scale(values, ctx.index_of(a)), scale(points, ctx.index_of(b)))
    return tuple((table[u] + table[v]) % ctx.p for u, v in pairs)


def dual_first_closed_form(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Dual of the function code: the c in F_p^n with sum_i c_i x_i = 0 and
    sum_i c_i f(x_i) = 0, the nullspace over F_p of the 2m x n coordinate
    matrix of (x_i) and (f(x_i))."""
    return _matrices(f, include_zero).dual()


def first_hull_map_matrix(f: ParyFunction, include_zero: bool = True):
    """Matrix over F_p of (a, b) -> (sum_i c_i x_i, sum_i c_i f(x_i)) with
    c = the codeword of (a, b); the hull of the function code is the kernel."""
    return _matrices(f, include_zero).hull_map()


def hull_first_kernel(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Hull of the function code as the kernel of the pairing map, mapped
    through (a, b) -> the codeword of (a, b)."""
    return _matrices(f, include_zero).hull()


# ---------------------------------------------------------------------------
# the second generic construction: codes from defining sets
# ---------------------------------------------------------------------------

def second_generic(ds: DefiningSet) -> LinearCode:
    """Code {(Tr(x d_1), ..., Tr(x d_n)) : x ambient} over F_{p^s}."""
    return _matrices(ds).code(f"defining-set:{ds.provenance}")


def second_codeword(ds: DefiningSet, x: FieldElement) -> tuple[int, ...]:
    """Coordinates Tr_{q/p^s}(x d_i) as indices of F_{p^s}, in set order."""
    ctx, table = ds.field, ds.field.trace_table(ds.base_degree)
    return tuple(table[v] for v in ctx.arith.scale(ds.indices(), ctx.index_of(x)))


def dual_second_closed_form(ds: DefiningSet) -> LinearCode:
    """Dual of the defining-set code: the c in F_{p^s}^n with sum c_i d_i = 0,
    the nullspace of the coordinate matrix of D over F_{p^s}.

    x -> x^(p^s) is F_{p^s}-linear and bijective, so the Frobenius power
    (d_i^(p^s)) has the same solutions and the same reduction from the
    right; on every call with m/s > 1, InvariantViolated is raised where it
    does not.  The check reads the exp/log entries at exponent p^s of the
    elements and their coordinate-table entries, not the exponents
    p^(s j), j >= 2, whose powers are iterates of this one."""
    kept, ctx, s = _matrices(ds), ds.field, ds.base_degree
    if ctx.m > s:
        power = ctx.power_indices(ds.indices(), ctx.p ** s)
        if _Matrices(ctx, s, (power,), (power,)).reduced != kept.reduced:
            raise InvariantViolated("the dual from Frobenius power 1 of the defining row differs")
    return kept.dual()


def dimension_via_span(ds: DefiningSet) -> int:
    """Base-field rank of the defining sequence; equals dim of its code.

    It is read from the reduction of the coordinate rows that ds keeps
    (see _matrices): the F_p constraints of an F_{p^s}-space of rank r
    have F_p rank s r."""
    return _matrices(ds).rank()


def standard_form_generator(ds: DefiningSet):
    """Front-load an independent spanning prefix and express every element
    over it: the resulting (I_k | P) matrix generates the code in standard
    form.  Returns (matrix rows over the base field, reordering).

    Both come from the RREF of the coordinate matrix: its pivots are the
    first elements independent of those before them, and each of its
    columns holds the coefficients of that element over the pivots."""
    kept = _matrices(ds)
    red, chosen = _rref(kept.coordinates, kept.alphabet)
    if not chosen:
        raise CannotFrontLoad("the defining set spans dimension 0")
    order = chosen + sorted(set(range(len(ds))) - set(chosen))
    return _elements([[row[i] for i in order] for row in red], kept.alphabet), order


def code_to_defining_set(code: LinearCode, ctx: Field) -> DefiningSet:
    """Realize an [n, k] prime-field code as a defining-set code in F_{p^m},
    possible exactly when m >= k: column i maps to the element whose
    coordinates over (1, x, ..., x^{k-1}) are the generator column."""
    if code.base.m != 1:
        raise WrongCodomain("realization is defined for prime-field codes")
    if ctx.p != code.base.p:
        raise ValueError("characteristic mismatch")
    k = code.k
    if ctx.m < k:
        raise DimensionTooLarge(f"need m >= k, got m={ctx.m} < k={k}")
    # the element with coordinates (c_0, ..., c_{k-1}) has index sum_j c_j p^j
    ds = join(code._rows, ctx.p) if k else [0] * code.n
    return DefiningSet._from_indices(ctx, 1, ds, "code-realization")


def second_hull_map_matrix(ds: DefiningSet):
    """Matrix over the alphabet F_{p^s} of the F_{p^s}-linear map
    x -> sum_d Tr(x d) d in the basis x^j, j < m/s: entry (r, c) is
    coordinate r of sum_i Tr(x^c d_i) d_i.  The hull of the code is its
    kernel mapped through the codeword map.  Returns (rows, alphabet)."""
    return _matrices(ds).hull_map()


def hull_second_kernel(ds: DefiningSet) -> LinearCode:
    """Hull of the defining-set code as the kernel of the pairing map, mapped
    through x -> the codeword of x."""
    return _matrices(ds).hull()


# ---------------------------------------------------------------------------
# defining-set generators
# ---------------------------------------------------------------------------

def make_skew_set(ctx: Field) -> DefiningSet:
    """One of {x, -x} per pair (the smaller canonical index), so that D,
    -D and {0} partition the field; |D| = (q-1)/2."""
    if ctx.p == 2:
        raise EvenCharacteristic("x = -x in characteristic 2")
    neg = ctx.arith.neg
    return DefiningSet._from_indices(ctx, 1, [x for x in range(1, ctx.q) if x < neg(x)], "skew")


def make_preimage_set(f: ParyFunction, b: FieldElement) -> DefiningSet:
    """f^{-1}(b) in canonical order (for b = 1: the support of f)."""
    target = b.index if isinstance(b, FieldElement) and b.field is f.field else None
    ds = [x for x, v in enumerate(f.indices) if v == target]
    if not ds:
        raise EmptySet(f"no preimages of {b!r}")
    return DefiningSet._from_indices(f.field, 1, ds, f"preimage:{b.index}")


def make_image_set(f: ParyFunction) -> DefiningSet:
    """{f(x) : x} minus 0, de-duplicated, in canonical order."""
    _require_self_map(f)
    seen = sorted(set(f.indices) - {0})
    if not seen:
        raise EmptySet("the image contains only zero")
    return DefiningSet._from_indices(f.field, 1, seen, "image")


def image_set_points(f: ParyFunction) -> list[FieldElement]:
    """Canonical preimage representatives aligned with make_image_set:
    the smallest preimage of each defining element."""
    return list(map(f.field.from_index, _image_set_point_indices(f)))


def _image_set_point_indices(f: ParyFunction) -> list[int]:
    first: dict[int, int] = {}
    for x, v in enumerate(f.indices):
        first.setdefault(v, x)
    return [first[d] for d in make_image_set(f).indices()]


def make_trace_zero_set(ctx: Field) -> DefiningSet:
    """{z != 0 : Tr_{p^s/p}(z^(p^s + 1)) = 0} for m = 2s, s > 1.

    The norm z^(p^s + 1) lies in F_{p^s}; its trace is read from the
    subfield's trace table."""
    if ctx.m % 2 != 0 or ctx.m // 2 <= 1:
        raise BadDegree("need even degree m = 2s with s > 1")
    s = ctx.m // 2
    sub, embed, _ = ctx._subfield(s)
    trace_at = dict(zip(embed, sub.trace_table()))
    norms = ctx.power_indices(range(1, ctx.q), ctx.p ** s + 1)
    chosen = [z for z, y in enumerate(norms, 1) if trace_at.get(y) == 0]
    expected = (ctx.p ** s + 1) * (ctx.p ** (s - 1) - 1)
    if len(chosen) != expected:
        raise InvariantViolated(f"the trace-zero set has {len(chosen)} elements, not {expected}")
    return DefiningSet._from_indices(ctx, 1, chosen, "trace-zero")


def make_cyclotomic_set(ctx: Field, base_degree: int, second_class: bool = False) -> DefiningSet:
    """Representatives of F_q^*-cosets inside the cubic-residue subgroup of
    the ambient multiplicative group (first class), or inside the union of
    the two non-residue classes (second class), the least index of each.

    With g the generator, F_q^* is generated by g^c for c = (r-1)/(q-1), so
    two elements share a coset exactly when their logs agree mod c, and 3
    divides c, so the cubes (log = 0 mod 3) are unions of cosets."""
    s = base_degree
    _check_subfield(ctx, s)
    q = ctx.p ** s
    b = ctx.m // s
    r = ctx.q
    if q % 3 != 2 or b % 2 != 0 or r <= 4:
        raise BadParameters("need q = 2 mod 3, even extension degree, q^b > 4")
    _, log = ctx._pow_tables()
    c = (r - 1) // (q - 1)
    reps: dict[int, int] = {}
    for z in range(1, r):
        coset = log[z] % c
        if (coset % 3 != 0) == second_class and coset not in reps:
            reps[coset] = z
    if not second_class:
        expected = (r - 1) // (3 * (q - 1))
        tag = "cyclotomic-first"
    else:
        expected = 2 * (r - 1) // (3 * (q - 1))
        tag = "cyclotomic-second"
    if len(reps) != expected:
        raise InvariantViolated(f"{len(reps)} coset representatives, not the class size {expected}")
    return DefiningSet._from_indices(ctx, s, reps.values(), tag)


def _independent_indices(ctx: Field, ds: Sequence[FieldElement], base_degree: int) -> list[int]:
    """The indices of ds, which must be independent over F_{p^s}."""
    row = [ctx.index_of(d) for d in ds]
    if _Matrices(ctx, base_degree, (row,), (row,)).rank() != len(ds):
        raise NotIndependent("defining elements must be linearly independent")
    return row


def make_fixed_hull_set(
    ctx: Field,
    ds: Sequence[FieldElement],
    l: int,
    alpha: int,
    beta: int,
) -> DefiningSet:
    """(d_1..d_k, alpha*d_1..alpha*d_l, beta*d_{l+1}..beta*d_k): a [2k, k, 2]
    code of hull dimension exactly l, for alpha^2 = -1 and beta^2 != -1.

    beta = 1 would repeat coordinates, which the hull argument does not
    cover; it is rejected.
    """
    p = ctx.p
    if p % 4 != 1:
        raise MinusOneNotSquare(f"-1 is not a square mod {p}")
    alpha %= p
    beta %= p
    if (alpha * alpha + 1) % p != 0:
        raise BadAlpha(f"alpha={alpha} does not square to -1 mod {p}")
    if beta == 0 or (beta * beta + 1) % p == 0 or beta == 1:
        raise BadBeta(f"beta={beta} must be outside {{0, 1}} with beta^2 != -1")
    k = len(ds)
    if not 0 <= l <= k:
        raise BadL(f"need 0 <= l <= k, got l={l}, k={k}")
    row, scale = _independent_indices(ctx, ds, 1), ctx.arith.scale
    out = row + scale(row[:l], alpha) + scale(row[l:], beta)  # the index of a scalar is its value
    return DefiningSet._from_indices(ctx, 1, out, f"fixed-hull:l={l}")


def make_lcd_set(ctx: Field, ds: Sequence[FieldElement], base_degree: int = 1) -> DefiningSet:
    """(d_1..d_k, d_1+d_2, ..., d_{k-1}+d_k) over even characteristic: an
    LCD [3k/2, k] code over the base subfield."""
    if ctx.p != 2:
        raise OddCharacteristic("the pairing trick needs characteristic 2")
    k = len(ds)
    if k % 2 != 0:
        raise OddK(f"need even k, got {k}")
    row = _independent_indices(ctx, ds, base_degree)
    pairs = [row[i] ^ row[i + 1] for i in range(0, k, 2)]  # the sum of indices at p = 2
    return DefiningSet._from_indices(ctx, base_degree, row + pairs, "lcd")


def make_mds_set(
    ctx: Field,
    ds: Sequence[FieldElement],
    variant: str,
    alphas: Sequence[int],
) -> DefiningSet:
    """Append sum(alpha_i d_i) (and sum(d_i) for the longer variant) to an
    independent prefix: a [k+1, k, 2] or [k+2, k, 3] MDS code."""
    p = ctx.p
    k = len(ds)
    if variant not in ("k+1", "k+2"):
        raise BadParameters(f"variant must be k+1 or k+2, got {variant!r}")
    if len(alphas) != k:
        raise BadParameters(f"need {k} alpha coefficients")
    alphas = [a % p for a in alphas]
    if any(a == 0 for a in alphas):
        raise AlphaZero("alpha coefficients must be nonzero")
    if variant == "k+2" and len(set(alphas)) != k:
        raise NeedDistinctAlphas("the longer variant needs pairwise distinct alphas")
    row, arith = _independent_indices(ctx, ds, 1), ctx.arith
    out = row + [reduce(arith.add, map(arith.mul, row, alphas), 0)]
    if variant == "k+2":
        out.append(reduce(arith.add, row, 0))
    return DefiningSet._from_indices(ctx, 1, out, f"mds:{variant}")
