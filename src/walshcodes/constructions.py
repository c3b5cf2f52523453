"""The two generic code constructions, their closed-form duals and hulls,
defining-set generators, and the fixed-Hull / LCD / MDS recipes.

A defining set is an ordered sequence (duplicates permitted): the induced
code's identity depends on the order only up to coordinate permutation,
so every generator here emits a deterministic canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .algebra import Field, FieldElement, make_field, subfield, trace
from .codes import (
    LinearCode,
    dual,
    from_rows,
    intersect,
    matrix_rank,
    nullspace,
    restrict_to_prime_subfield,
    restrict_to_subfield,
    rref,
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
    NotASubfield,
    NotIndependent,
    OddCharacteristic,
    OddK,
    WrongCodomain,
)
from .functions import ParyFunction


@dataclass(frozen=True)
class DefiningSet:
    """Ordered sequence (d_1, ..., d_n) in an ambient field.

    base_degree s means the induced codewords take values in F_{p^s}
    through the relative trace.
    """

    field: Field
    base_degree: int
    elements: tuple[FieldElement, ...]
    provenance: str = dc_field(default="", compare=False)

    def __post_init__(self):
        if self.field.m % self.base_degree != 0:
            raise NotASubfield(
                f"base degree {self.base_degree} does not divide {self.field.m}"
            )
        for d in self.elements:
            if d.field is not self.field:
                raise ValueError("defining element outside the ambient field")

    def __len__(self):
        return len(self.elements)


def defining_set(
    ctx: Field,
    elements: Sequence[FieldElement],
    base_degree: int = 1,
    provenance: str = "explicit",
) -> DefiningSet:
    return DefiningSet(ctx, base_degree, tuple(elements), provenance)


# ---------------------------------------------------------------------------
# the first generic construction: codes from functions
# ---------------------------------------------------------------------------

def _require_self_map(f: ParyFunction):
    if f.codomain_degree != f.field.m:
        raise WrongCodomain("construction needs an F_q -> F_q map")


def first_points(ctx: Field, include_zero: bool = True) -> list[FieldElement]:
    return list(ctx.elements) if include_zero else list(ctx.elements[1:])


def first_generic(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Code {(Tr(a f(x) + b x))_x : a, b in F_q} over F_p; length q or q-1."""
    _require_self_map(f)
    ctx = f.field
    points = first_points(ctx, include_zero)
    prime = make_field(ctx.p, 1)
    basis = ctx.power_basis()
    rows = []
    for e in basis:
        rows.append([prime.scalar(ctx.trace_bilinear(e, f(x))) for x in points])
    for e in basis:
        rows.append([prime.scalar(ctx.trace_bilinear(e, x)) for x in points])
    tag = "function-code" if include_zero else "punctured-function-code"
    return from_rows(prime, rows, provenance=tag)


def first_codeword(
    f: ParyFunction,
    a: FieldElement,
    b: FieldElement,
    include_zero: bool = True,
    minus: bool = False,
) -> tuple[int, ...]:
    """Coordinates Tr(a f(x) + b x) (or Tr(a f(x) - b x) with minus=True)
    as integers in [0, p), in canonical point order."""
    _require_self_map(f)
    ctx = f.field
    sign = -1 if minus else 1
    out = []
    for x in first_points(ctx, include_zero):
        val = ctx.trace_bilinear(a, f(x)) + sign * ctx.trace_bilinear(b, x)
        out.append(val % ctx.p)
    return tuple(out)


def dual_first_closed_form(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Dual of the function code as span-duals intersected with F_p^n.

    Builds the length-q words (x_i) and (f(x_i)), takes their duals over
    F_q, intersects, and restricts scalars to the prime field.
    """
    _require_self_map(f)
    ctx = f.field
    points = first_points(ctx, include_zero)
    l1 = from_rows(ctx, [points])
    l2 = from_rows(ctx, [[f(x) for x in points]])
    inter = intersect(dual(l1), dual(l2))
    out = restrict_to_prime_subfield(inter)
    return LinearCode(out.base, out.n, out.generator, provenance="closed-form-dual")


def first_hull_map_matrix(f: ParyFunction, include_zero: bool = True):
    """Matrix over F_p of (a, b) -> (sum_i c_i x_i, sum_i c_i f(x_i)) with
    c = the codeword of (a, b); the hull of the function code is the kernel."""
    _require_self_map(f)
    ctx = f.field
    p, m = ctx.p, ctx.m
    points = first_points(ctx, include_zero)
    basis = ctx.power_basis()
    columns = []
    for slot in range(2):
        for e in basis:
            a = e if slot == 0 else ctx.zero
            b = e if slot == 1 else ctx.zero
            s1 = ctx.zero
            s2 = ctx.zero
            for x in points:
                c = (ctx.trace_bilinear(a, f(x)) + ctx.trace_bilinear(b, x)) % p
                if c:
                    s1 = s1 + x * c
                    s2 = s2 + f(x) * c
            columns.append(tuple(s1.coeffs) + tuple(s2.coeffs))
    # transpose into a (2m x 2m) row matrix over F_p
    prime = make_field(p, 1)
    rows = []
    for r in range(2 * m):
        rows.append([prime.scalar(columns[cidx][r]) for cidx in range(2 * m)])
    return rows, prime


def hull_first_kernel(f: ParyFunction, include_zero: bool = True) -> LinearCode:
    """Hull of the function code as the kernel of the pairing map."""
    ctx = f.field
    rows, prime = first_hull_map_matrix(f, include_zero)
    kernel = nullspace(rows, prime, 2 * ctx.m)
    words = []
    for vec in kernel:
        a = ctx.element([v.as_prime_int() for v in vec[: ctx.m]])
        b = ctx.element([v.as_prime_int() for v in vec[ctx.m :]])
        words.append([prime.scalar(c) for c in first_codeword(f, a, b, include_zero)])
    n = len(first_points(ctx, include_zero))
    if not words:
        return LinearCode(prime, n, (), provenance="hull-kernel")
    code = from_rows(prime, words, provenance="hull-kernel")
    return code


# ---------------------------------------------------------------------------
# the second generic construction: codes from defining sets
# ---------------------------------------------------------------------------

def second_generic(ds: DefiningSet) -> LinearCode:
    """Code {(Tr(x d_1), ..., Tr(x d_n)) : x ambient} over F_{p^s}."""
    ctx = ds.field
    s = ds.base_degree
    sub, _, project = subfield(ctx, s)
    basis = ctx.power_basis()
    rows = []
    for e in basis:
        rows.append([project[trace(ctx, e * d, s)] for d in ds.elements])
    code = from_rows(sub, rows, n=len(ds.elements) or None, provenance=f"defining-set:{ds.provenance}")
    return code


def second_codeword(ds: DefiningSet, x: FieldElement) -> tuple[FieldElement, ...]:
    ctx = ds.field
    _, _, project = subfield(ctx, ds.base_degree)
    return tuple(project[trace(ctx, x * d, ds.base_degree)] for d in ds.elements)


def dual_second_closed_form(ds: DefiningSet) -> LinearCode:
    """Dual of the defining-set code: solutions of sum c_i d_i = 0 with
    c_i in the base subfield; verified identical across Frobenius powers
    of the defining row."""
    ctx = ds.field
    s = ds.base_degree
    result = None
    for j in range(ctx.m // s):
        row = [ctx.frobenius(d, s * j) for d in ds.elements]
        span = from_rows(ctx, [row], n=len(ds.elements) or None)
        restricted = restrict_to_subfield(dual(span), s)
        if result is None:
            result = restricted
        elif restricted != result:
            raise InvariantViolated(f"the dual from Frobenius power {j} of the defining row differs")
    return LinearCode(result.base, result.n, result.generator, provenance="closed-form-dual")


# relative F_q-coordinates of ambient elements, cached per (field, s)
_REL_COORDS_CACHE: dict = {}


def _relative_coords(ctx: Field, s: int):
    key = (id(ctx), s)
    if key in _REL_COORDS_CACHE:
        return _REL_COORDS_CACHE[key]
    sub, embed, _ = subfield(ctx, s)
    b = ctx.m // s
    prime = make_field(ctx.p, 1)
    theta = [embed[e] for e in sub.power_basis()]
    x = ctx.power_basis()[min(1, ctx.m - 1)]
    basis_elems = []
    for j in range(b):
        xj = ctx._pow(x, j)
        for t in range(s):
            basis_elems.append(theta[t] * xj)
    # invert the m x m change-of-basis matrix over F_p
    aug = []
    for r in range(ctx.m):
        row = [prime.scalar(be.coeffs[r]) for be in basis_elems]
        row += [prime.one if r == c else prime.zero for c in range(ctx.m)]
        aug.append(row)
    red, pivots = rref(aug, prime)
    if pivots != list(range(ctx.m)):
        raise InvariantViolated(f"the relative basis of F_{ctx.p}^{ctx.m} over F_{ctx.p}^{s} is singular")
    inv = [row[ctx.m :] for row in red]

    def coords(y: FieldElement) -> tuple[FieldElement, ...]:
        u = [
            sum(inv[r][c].as_prime_int() * y.coeffs[c] for c in range(ctx.m)) % ctx.p
            for r in range(ctx.m)
        ]
        return tuple(sub.element(u[j * s : (j + 1) * s]) for j in range(b))

    _REL_COORDS_CACHE[key] = (sub, coords)
    return _REL_COORDS_CACHE[key]


def dimension_via_span(ds: DefiningSet) -> int:
    """Base-field rank of the defining sequence; equals dim of its code."""
    sub, coords = _relative_coords(ds.field, ds.base_degree)
    if not ds.elements:
        return 0
    rows = [list(coords(d)) for d in ds.elements]
    return matrix_rank(rows, sub)


def standard_form_generator(ds: DefiningSet):
    """Front-load an independent spanning prefix and express every element
    over it: the resulting (I_k | P) matrix generates the code in standard
    form.  Returns (matrix rows over the base field, reordering)."""
    sub, coords = _relative_coords(ds.field, ds.base_degree)
    chosen: list[int] = []
    chosen_rows: list[list[FieldElement]] = []
    for i, d in enumerate(ds.elements):
        cand = chosen_rows + [list(coords(d))]
        if matrix_rank(cand, sub) > len(chosen_rows):
            chosen.append(i)
            chosen_rows.append(list(coords(d)))
    k = len(chosen)
    if k == 0:
        raise CannotFrontLoad("the defining set spans dimension 0")
    order = chosen + [i for i in range(len(ds.elements)) if i not in chosen]
    # solve coords(d_i) over the chosen basis
    cols = []
    for i in order:
        target = list(coords(ds.elements[i]))
        combo = _solve_combination(chosen_rows, target, sub)
        cols.append(combo)
    matrix = [tuple(cols[c][r] for c in range(len(order))) for r in range(k)]
    return matrix, order


def _solve_combination(basis_rows, target, field):
    """Coefficients expressing target as a combination of basis_rows."""
    k = len(basis_rows)
    width = len(target)
    aug = []
    for c in range(width):
        aug.append([basis_rows[r][c] for r in range(k)] + [target[c]])
    red, pivots = rref(aug, field)
    combo = [field.zero] * k
    for row, pc in zip(red, pivots):
        if pc == k:
            raise ValueError("target outside the span")
        combo[pc] = row[k]
    return combo


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
    alphas = ctx.power_basis()[:k]
    ds = []
    for i in range(code.n):
        d = ctx.zero
        for j in range(k):
            c = code.generator[j][i].as_prime_int()
            if c:
                d = d + alphas[j] * c
        ds.append(d)
    return DefiningSet(ctx, 1, tuple(ds), provenance="code-realization")


def second_hull_map_matrix(ds: DefiningSet):
    """Matrix over F_p of x -> sum_d Tr(x d) d; the hull of the code is its
    kernel (evaluated through the codeword map)."""
    ctx = ds.field
    p, m = ctx.p, ctx.m
    s = ds.base_degree
    prime = make_field(p, 1)
    columns = []
    for e in ctx.power_basis():
        acc = ctx.zero
        for d in ds.elements:
            t = trace(ctx, e * d, s)
            acc = acc + t * d
        columns.append(acc.coeffs)
    rows = [[prime.scalar(columns[c][r]) for c in range(m)] for r in range(m)]
    return rows, prime


def hull_second_kernel(ds: DefiningSet) -> LinearCode:
    ctx = ds.field
    rows, prime = second_hull_map_matrix(ds)
    kernel = nullspace(rows, prime, ctx.m)
    sub, _, _ = subfield(ctx, ds.base_degree)
    words = []
    for vec in kernel:
        x = ctx.element([v.as_prime_int() for v in vec])
        words.append(list(second_codeword(ds, x)))
    n = len(ds.elements)
    if not words:
        return LinearCode(sub, n, (), provenance="hull-kernel")
    return from_rows(sub, words, provenance="hull-kernel")


# ---------------------------------------------------------------------------
# defining-set generators
# ---------------------------------------------------------------------------

def make_skew_set(ctx: Field) -> DefiningSet:
    """One of {x, -x} per pair (the smaller canonical index), so that D,
    -D and {0} partition the field; |D| = (q-1)/2."""
    if ctx.p == 2:
        raise EvenCharacteristic("x = -x in characteristic 2")
    chosen = [x for x in ctx.elements[1:] if x.index < (-x).index]
    return DefiningSet(ctx, 1, tuple(chosen), provenance="skew")


def make_preimage_set(f: ParyFunction, b: FieldElement) -> DefiningSet:
    """f^{-1}(b) in canonical order (for b = 1: the support of f)."""
    ds = tuple(x for x in f.field.elements if f(x) == b)
    if not ds:
        raise EmptySet(f"no preimages of {b!r}")
    return DefiningSet(f.field, 1, ds, provenance=f"preimage:{b.index}")


def make_image_set(f: ParyFunction) -> DefiningSet:
    """{f(x) : x} minus 0, de-duplicated, in canonical order."""
    _require_self_map(f)
    seen = sorted({f(x).index for x in f.field.elements} - {0})
    if not seen:
        raise EmptySet("the image contains only zero")
    ds = tuple(f.field.elements[i] for i in seen)
    return DefiningSet(f.field, 1, ds, provenance="image")


def image_set_points(f: ParyFunction) -> list[FieldElement]:
    """Canonical preimage representatives aligned with make_image_set:
    the smallest preimage of each defining element."""
    ds = make_image_set(f)
    points = []
    for d in ds.elements:
        points.append(next(x for x in f.field.elements if f(x) == d))
    return points


def make_trace_zero_set(ctx: Field) -> DefiningSet:
    """{z != 0 : Tr_{p^s/p}(z^(p^s + 1)) = 0} for m = 2s, s > 1."""
    if ctx.m % 2 != 0 or ctx.m // 2 <= 1:
        raise BadDegree("need even degree m = 2s with s > 1")
    s = ctx.m // 2
    e = ctx.p ** s + 1
    chosen = []
    for z in ctx.elements[1:]:
        y = ctx._pow(z, e)
        t = ctx.zero
        power = y
        for _ in range(s):
            t = t + power
            power = ctx._pow(power, ctx.p)
        if t.is_zero():
            chosen.append(z)
    expected = (ctx.p ** s + 1) * (ctx.p ** (s - 1) - 1)
    if len(chosen) != expected:
        raise InvariantViolated(f"the trace-zero set has {len(chosen)} elements, not {expected}")
    return DefiningSet(ctx, 1, tuple(chosen), provenance="trace-zero")


def make_cyclotomic_set(ctx: Field, base_degree: int, second_class: bool = False) -> DefiningSet:
    """Representatives of F_q^*-cosets inside the cubic-residue subgroup of
    the ambient multiplicative group (first class), or inside the union of
    the two non-residue classes (second class)."""
    s = base_degree
    if ctx.m % s != 0:
        raise NotASubfield(f"base degree {s} does not divide {ctx.m}")
    q = ctx.p ** s
    b = ctx.m // s
    r = ctx.q
    if q % 3 != 2 or b % 2 != 0 or r <= 4:
        raise BadParameters("need q = 2 mod 3, even extension degree, q^b > 4")
    cubes = {ctx._pow(x, 3) for x in ctx.elements[1:]}
    sub, embed, _ = subfield(ctx, s)
    scalars = [embed[e] for e in sub.elements[1:]]

    def coset_reps(pool):
        reps = []
        seen = set()
        for x in sorted(pool, key=lambda e: e.index):
            if x in seen:
                continue
            reps.append(x)
            for lam in scalars:
                seen.add(lam * x)
        return reps

    if not second_class:
        reps = coset_reps(cubes)
        expected = (r - 1) // (3 * (q - 1))
        tag = "cyclotomic-first"
    else:
        non_cubes = [x for x in ctx.elements[1:] if x not in cubes]
        reps = coset_reps(non_cubes)
        expected = 2 * (r - 1) // (3 * (q - 1))
        tag = "cyclotomic-second"
    if len(reps) != expected:
        raise InvariantViolated(f"{len(reps)} coset representatives, not the class size {expected}")
    return DefiningSet(ctx, s, tuple(reps), provenance=tag)


def _check_independent(ctx: Field, ds: Sequence[FieldElement], base_degree: int):
    sub, coords = _relative_coords(ctx, base_degree)
    rows = [list(coords(d)) for d in ds]
    if matrix_rank(rows, sub) != len(ds):
        raise NotIndependent("defining elements must be linearly independent")


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
    _check_independent(ctx, ds, 1)
    out = list(ds)
    out += [d * alpha for d in ds[:l]]
    out += [d * beta for d in ds[l:]]
    return DefiningSet(ctx, 1, tuple(out), provenance=f"fixed-hull:l={l}")


def make_lcd_set(ctx: Field, ds: Sequence[FieldElement], base_degree: int = 1) -> DefiningSet:
    """(d_1..d_k, d_1+d_2, ..., d_{k-1}+d_k) over even characteristic: an
    LCD [3k/2, k] code over the base subfield."""
    if ctx.p != 2:
        raise OddCharacteristic("the pairing trick needs characteristic 2")
    k = len(ds)
    if k % 2 != 0:
        raise OddK(f"need even k, got {k}")
    _check_independent(ctx, ds, base_degree)
    pairs = [ds[i] + ds[i + 1] for i in range(0, k, 2)]
    return DefiningSet(ctx, base_degree, tuple(ds) + tuple(pairs), provenance="lcd")


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
    _check_independent(ctx, ds, 1)
    extra = ctx.zero
    for a, d in zip(alphas, ds):
        extra = extra + d * a
    out = list(ds) + [extra]
    if variant == "k+2":
        total = ctx.zero
        for d in ds:
            total = total + d
        out.append(total)
    return DefiningSet(ctx, 1, tuple(out), provenance=f"mds:{variant}")
