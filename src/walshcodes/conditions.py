"""Walsh-transform membership conditions, character kernels, and the
closed-form weight formulas, all exact.

Every factor of a membership product is a sign times a fixed power times a
p-th root of unity, so a condition is integer arithmetic on exponents mod p:
a delta factor chi_{g_i}(1) + 1 - q is zeta^(e_i) with e_i one trace-table
read, and a weakly regular bent factor chi_dual(y) * eps G^m is
eps eps' (p*)^m zeta^(e(y)) by the classification of the dual.  The
cyclotomic values in Z[zeta_p] are built once, for the verdict.

Product identities of the form prod = (p^m / (eps * sqrt(p*)^m))^t are
checked with denominators cleared: both sides are multiplied by
(eps * G^m)^t, with G the quadratic Gauss sum, so every comparison happens
inside Z[zeta_p].  "Imaginary part zero" is implemented as invariance
under the conjugation automorphism, never as a float check.

Every condition here is NECESSARY for membership: actual dual (or hull)
codewords always pass, while unrelated words may or may not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import comb
from typing import Sequence

from .algebra import CyclotomicInt, FieldElement, legendre, p_star
from .codes import WeightDistribution, from_rows, weight_distribution
from .constructions import (
    DefiningSet,
    _image_set_point_indices,
    first_codeword,
    first_generic,
    make_image_set,
    second_codeword,
    second_generic,
)
from .errors import (
    AffineFunction,
    AlphaOutsidePrimeField,
    EvenCharacteristicOnly,
    HypothesisFailed,
    InvariantViolated,
    NonIntegerSum,
    NotBent,
    NotInDual,
    NotPN,
    OddCharacteristic,
    WrongCodomain,
    ZeroCode,
)
from .functions import (
    BentClass,
    ParyFunction,
    classify_bent,
    differential_uniformity,
    walsh_transform,
)

FIRST_VARIANTS = (
    "wrb-shifted-scalar",
    "wrb-shifted-generic",
    "wrb-plain-scalar",
    "wrb-plain-generic",
    "delta-diff",
    "delta-value",
    "delta-point",
)

SECOND_VARIANTS = (
    "wrb-scalar",
    "wrb-generic",
    "delta-value",
)


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of one exact product identity.

    holds is the cleared equality lhs == rhs; imaginary_zero records
    whether lhs is fixed by zeta -> zeta^{-1}.
    """

    variant: str
    holds: bool
    lhs: CyclotomicInt
    rhs: CyclotomicInt
    imaginary_zero: bool


def _verdict(variant: str, lhs: CyclotomicInt, rhs: CyclotomicInt) -> MembershipVerdict:
    return MembershipVerdict(variant, lhs == rhs, lhs, rhs, lhs == lhs.conjugate())


def _delta_verdict(variant: str, p: int, word: Sequence[int], exponents: Sequence[int]) -> MembershipVerdict:
    """prod_i (zeta^(e_i))^(c_i) = 1, as zeta^(sum_i c_i e_i)."""
    e = sum(c * t for c, t in zip(word, exponents))
    return _verdict(variant, CyclotomicInt.zeta_power(p, e), CyclotomicInt.from_int(p, 1))


def respects_prime_scalars(f: ParyFunction) -> bool:
    """f(a x) = a f(x) for every prime-field scalar a, checked exhaustively."""
    field = f.field
    scale, values = field.arith.scale, f.indices
    return all(
        [values[v] for v in scale(range(field.q), a)] == scale(values, a) for a in range(field.p)
    )


def shifted_trace_form(f: ParyFunction) -> ParyFunction:
    """x -> Tr(f(x) - x) as a prime-valued function."""
    field = f.field
    p, tr = field.p, field.trace_table()
    return ParyFunction.from_indices(field, [(tr[v] - tr[x]) % p for x, v in enumerate(f.indices)], 1)


def plain_trace_form(f: ParyFunction) -> ParyFunction:
    """x -> Tr(f(x)) as a prime-valued function."""
    tr = f.field.trace_table()
    return ParyFunction.from_indices(f.field, [tr[v] for v in f.indices], 1)


class _WrbContext:
    """Classified trace form g of f and the classification of its dual,
    whose spectrum is chi_dual(y) = eps' G^m zeta^(e(y)); each factor
    chi_dual(y) * eps G^m of the product identities is then
    eps eps' (p*)^m zeta^(e(y)), with (p*)^m read as q at p = 2."""

    def __init__(self, g: ParyFunction, label: str):
        field = g.field
        cls = classify_bent(walsh_transform(g))
        if not cls.is_weakly_regular():
            raise HypothesisFailed(f"{label} is not weakly regular bent ({cls.kind.value})")
        dual = classify_bent(walsh_transform(cls.dual))
        if not dual.is_weakly_regular():
            raise InvariantViolated(f"the dual of {label} is not weakly regular bent ({dual.kind.value})")
        self.p, self.q, self.mul = field.p, field.q, field.arith.mul
        self.sign = cls.epsilon * dual.epsilon
        self.power = field.q if field.p == 2 else p_star(field.p) ** field.m
        self.exponents = dual.dual.indices

    def _sides(self, k: int, e: int) -> tuple[CyclotomicInt, CyclotomicInt]:
        """(eps eps' (p*)^m)^k zeta^e and q^k."""
        coeffs = [0] * self.p
        coeffs[e % self.p] = self.sign ** k * self.power ** k
        return CyclotomicInt(self.p, coeffs), CyclotomicInt.from_int(self.p, self.q ** k)

    def scalar_product(self, points, word) -> tuple[CyclotomicInt, CyclotomicInt]:
        """Cleared sides of prod_i chi_dual(c_i x_i) = (p^m/(eps G^m))^n."""
        mul, exps = self.mul, self.exponents
        return self._sides(len(points), sum(exps[mul(x, c)] for c, x in zip(word, points)))

    def generic_product(self, points, word) -> tuple[CyclotomicInt, CyclotomicInt]:
        """Cleared sides of prod_i chi_dual(x_i)^(c_i) = (p^m/(eps G^m))^sum(c)."""
        exps = self.exponents
        return self._sides(sum(word), sum(c * exps[x] for c, x in zip(word, points)))


def _first_exponents(f: ParyFunction, variant: str, include_zero: bool) -> list[int]:
    """e_i with delta factor zeta^(e_i) at each point x_i: the factor sums q
    terms of a function that differs from Tr only at x_i, where it takes
    Tr(f(x_i)), Tr(f(x_i)) + Tr(x_i) or 2 Tr(x_i), so e_i is that value
    minus Tr(x_i)."""
    field = f.field
    p, tr = field.p, field.trace_table()
    points = range(0 if include_zero else 1, field.q)
    if variant == "delta-diff":
        return [(tr[f.indices[x]] - tr[x]) % p for x in points]
    if variant == "delta-value":
        return [tr[f.indices[x]] for x in points]
    if variant == "delta-point":
        return [tr[x] for x in points]
    raise ValueError(f"unknown delta variant {variant!r}")


def _second_exponents(ds: DefiningSet) -> list[int]:
    """Tr(d_i): the delta factor of the one-point-modified trace form taking
    2 Tr(d_i) at d_i."""
    tr = ds.field.trace_table()
    return [tr[d] for d in ds.indices()]


def _wrb_context(f: ParyFunction, shifted: bool) -> _WrbContext:
    """The context of the trace form Tr(f(x) - x) or Tr(f(x)), built once
    per function and form and kept in ``f._derived``."""
    label = "Tr(f(x) - x)" if shifted else "Tr(f(x))"
    ctx = f._derived.get(label)
    if ctx is None:
        g = shifted_trace_form(f) if shifted else plain_trace_form(f)
        ctx = f._derived[label] = _WrbContext(g, label)
    return ctx


def _check_scalar_hypothesis(f: ParyFunction):
    if not respects_prime_scalars(f):
        raise HypothesisFailed("f does not respect prime-field scalar multiplication")


def _prime_word(word: Sequence[int], p: int, n: int) -> list[int]:
    """The n entries of a word over F_p, each an int in [0, p), as at the
    edge of :mod:`codes`; anything else raises ``ValueError``."""
    word = list(word)
    if len(word) != n:
        raise ValueError(f"a word of length {len(word)} for {n} coordinates")
    for c in word:
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < p:
            raise ValueError(f"{c!r} is not a canonical index of GF({p})")
    return word


def dual_membership_first(
    f: ParyFunction,
    word: Sequence[int],
    variant: str,
    include_zero: bool = True,
) -> MembershipVerdict:
    """Necessary condition for a word to lie in the dual of the function
    code; the variant picks the proposition being applied."""
    field = f.field
    points = range(0 if include_zero else 1, field.q)
    word = _prime_word(word, field.p, len(points))
    if variant.startswith("wrb"):
        ctx = _wrb_context(f, "shifted" in variant)
        if variant.endswith("scalar"):
            _check_scalar_hypothesis(f)
            lhs, rhs = ctx.scalar_product(points, word)
        else:
            lhs, rhs = ctx.generic_product(points, word)
        return _verdict(f"first:{variant}", lhs, rhs)
    return _delta_verdict(f"first:{variant}", field.p, word, _first_exponents(f, variant, include_zero))


def dual_membership_second(
    f: ParyFunction, word: Sequence[int], variant: str
) -> MembershipVerdict:
    """Necessary dual-membership condition for the code of the image
    defining set {f(x) : x} minus zero."""
    field = f.field
    ds = make_image_set(f)
    word = _prime_word(word, field.p, len(ds))
    if variant == "delta-value":
        return _delta_verdict("second:delta-value", field.p, word, _second_exponents(ds))
    if variant not in ("wrb-scalar", "wrb-generic"):
        raise ValueError(f"unknown variant {variant!r}")
    ctx = _wrb_context(f, shifted=False)
    points = _image_set_point_indices(f)
    if variant == "wrb-scalar":
        _check_scalar_hypothesis(f)
        lhs, rhs = ctx.scalar_product(points, word)
    else:
        lhs, rhs = ctx.generic_product(points, word)
    return _verdict(f"second:{variant}", lhs, rhs)


def dual_membership_defining_set(ds: DefiningSet, word: Sequence[int]) -> MembershipVerdict:
    """The general-case condition prod (chi_{g_i}(1)+1-q)^{c_i} = 1 applied
    to an arbitrary prime-base defining set."""
    if ds.base_degree != 1:
        raise WrongCodomain("membership conditions need a prime-base code")
    word = _prime_word(word, ds.field.p, len(ds))
    return _delta_verdict("defining-set:delta", ds.field.p, word, _second_exponents(ds))


# ---------------------------------------------------------------------------
# hull conditions: the same products with the codeword's own coordinates
# as exponents
# ---------------------------------------------------------------------------

def hull_membership_first(
    f: ParyFunction,
    a: FieldElement,
    b: FieldElement,
    variant: str,
    include_zero: bool = True,
) -> MembershipVerdict:
    word = first_codeword(f, a, b, include_zero)
    v = dual_membership_first(f, word, variant, include_zero)
    return replace(v, variant=f"hull-{v.variant}")


def hull_membership_second(f: ParyFunction, x: FieldElement, variant: str) -> MembershipVerdict:
    v = dual_membership_second(f, second_codeword(make_image_set(f), x), variant)
    return replace(v, variant=f"hull-{v.variant}")


def hull_membership_defining_set(ds: DefiningSet, x: FieldElement) -> MembershipVerdict:
    v = dual_membership_defining_set(ds, second_codeword(ds, x))
    return replace(v, variant=f"hull-{v.variant}")


# ---------------------------------------------------------------------------
# character kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeCharacter:
    """Additive character c -> zeta^(sum t_i c_i), the product of the
    per-coordinate factors chi_{g_i}(1)+1-q = zeta^(t_i) raised to c_i; its
    kernel contains the dual code."""

    p: int
    exponents: tuple[int, ...]
    domain: str

    def _exponent(self, word: Sequence[int]) -> int:
        word = _prime_word(word, self.p, len(self.exponents))
        return sum(t * c for t, c in zip(self.exponents, word)) % self.p

    def evaluate(self, word: Sequence[int]) -> CyclotomicInt:
        return CyclotomicInt.zeta_power(self.p, self._exponent(word))

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)

    def kernel_hyperplane(self) -> tuple[int, ...]:
        """Coefficients t of the parity check sum t_i c_i = 0 that cuts out
        ker(phi); meaningful only for a nontrivial character."""
        return self.exponents

    def in_kernel(self, word: Sequence[int]) -> bool:
        return self._exponent(word) == 0


def dual_character_first(
    f: ParyFunction, variant: str, include_zero: bool = True
) -> CodeCharacter:
    """Character of the ambient space whose kernel contains the dual of the
    function code; containment is checked by testing that the coefficient row
    is itself a codeword."""
    exps = tuple(_first_exponents(f, variant, include_zero))
    if not first_generic(f, include_zero).contains(exps):
        raise InvariantViolated("the character row is not a codeword, so the dual escapes its kernel")
    return CodeCharacter(f.field.p, exps, f"first:{variant}")


def dual_character_second(f: ParyFunction) -> CodeCharacter:
    ds = make_image_set(f)
    exps = tuple(_second_exponents(ds))
    if not second_generic(ds).contains(exps):
        raise InvariantViolated("the character row is not a codeword, so the dual escapes its kernel")
    return CodeCharacter(f.field.p, exps, "second:delta-value")


# ---------------------------------------------------------------------------
# weight formulas
# ---------------------------------------------------------------------------

def weight_via_walsh_sum(psi: ParyFunction, a: FieldElement, b: FieldElement) -> int:
    """wt = p^m - (1/p) sum over omega of chi_{psi_{omega a}}(omega b),
    the Walsh-sum form of the weight of the codeword with parameters
    (a, b) (coordinates Tr(a Psi(x) - b x))."""
    field = psi.field
    if psi.codomain_degree != field.m:
        raise WrongCodomain("the construction needs an F_q -> F_q map")
    if psi.indices[0]:
        raise HypothesisFailed("Psi(0) = 0 is required")
    p, q = field.p, field.q
    tr, scale = field.trace_table(), field.arith.scale
    # t(x) = Tr(a Psi(x)) - Tr(b x); the omega-th character sum counts omega t(x)
    t = Counter(
        (tr[u] - tr[v]) % p
        for u, v in zip(scale(psi.indices, field.index_of(a)), scale(range(q), field.index_of(b)))
    )
    total = CyclotomicInt.zero(p)
    for omega in range(p):
        counts = [0] * p
        for e, n in t.items():
            counts[omega * e % p] += n
        total = total + CyclotomicInt(p, counts)
    if not total.is_rational():
        raise NonIntegerSum(f"Walsh sum {total!r} is not rational")
    s = total.as_int()
    if s % p != 0:
        raise NonIntegerSum(f"Walsh sum {s} is not divisible by {p}")
    return q - s // p


def weight_via_character_sum(ds: DefiningSet, x: FieldElement) -> int:
    """wt(c_x) = ((q-1) n - sum over nonzero base scalars y of
    chi_1(y x D)) / q where chi_1 is the canonical additive character."""
    field = ds.field
    p = field.p
    qbase = p ** ds.base_degree
    _, embed, _ = field._subfield(ds.base_degree)
    n = len(ds)
    tr, scale = field.trace_table(), field.arith.scale
    xd = scale(ds.indices(), field.index_of(x))
    total = CyclotomicInt.zero(p)
    for y in embed[1:]:  # the nonzero base scalars
        counts = [0] * p
        for v in scale(xd, y):
            counts[tr[v]] += 1
        total = total + CyclotomicInt(p, counts)
    if not total.is_rational():
        raise NonIntegerSum(f"character sum {total!r} is not rational")
    num = (qbase - 1) * n - total.as_int()
    if num % qbase != 0:
        raise NonIntegerSum(f"{num} is not divisible by {qbase}")
    return num // qbase


def bent_codeword_weight(
    psi: ParyFunction,
    alpha: FieldElement,
    beta: FieldElement,
    cls: BentClass | None = None,
) -> int:
    """Closed-form weight of the punctured codeword (Tr(alpha Psi(x) -
    beta x))_{x != 0} when the trace form of Psi is (weakly regular) bent.

    Only prime-field alpha is covered; the sign entering the even-degree
    case is the one relative to +p^(m/2), converted from the Gauss-sum
    sign of the classification.
    """
    field = psi.field
    p, m, q = field.p, field.m, field.q
    if cls is None:
        cls = classify_bent(walsh_transform(plain_trace_form(psi)))
    if not cls.is_weakly_regular():
        raise NotBent(f"trace form classified {cls.kind.value}")
    if not alpha.in_prime_subfield():
        raise AlphaOutsidePrimeField(f"alpha={alpha!r} is outside the prime field")
    a = alpha.as_prime_int()
    if a == 0:
        return 0 if beta.is_zero() else q - q // p
    dual_value = cls.dual(beta / alpha).as_prime_int()
    if p == 2:
        half = 1 << (m // 2 - 1)
        return (q >> 1) - (-1) ** dual_value * half
    if m % 2 == 1:
        sign = legendre(-1, p) ** ((m + 1) // 2)
        return q - q // p - cls.epsilon * sign * p ** ((m - 1) // 2) * legendre(dual_value, p)
    eps_plus = cls.epsilon * (-1) ** (((p - 1) // 2) * (m // 2))
    if dual_value == 0:
        return q - q // p - eps_plus * (p - 1) * p ** (m // 2 - 1)
    return q - q // p + eps_plus * p ** (m // 2 - 1)


def support_code_weight_multiset(f: ParyFunction) -> list[int]:
    """Weight multiset {(2 n_f + chi_f(w)) / 4 : w != 0} plus {0} of the
    binary code defined by the support f^{-1}(1); must equal the
    exhaustive distribution with multiplicity."""
    field = f.field
    if field.p != 2:
        raise EvenCharacteristicOnly("the support construction is binary")
    if f.codomain_degree != 1:
        raise WrongCodomain("need a Boolean function")
    if f.is_affine():
        raise AffineFunction("affine functions are excluded by hypothesis")
    n_f = sum(f.exponents())
    spectrum = walsh_transform(f)
    weights = [0]
    for c in spectrum.coefficients[1:]:
        v = 2 * n_f + c.as_int()
        if v % 4 != 0:
            raise NonIntegerSum(f"(2 n_f + chi(w)) = {v} is not divisible by 4")
        weights.append(v // 4)
    return sorted(weights)


def weight_from_walsh_even(
    g: ParyFunction,
    points: Sequence[FieldElement],
    word: Sequence[int],
    require_positive: bool = False,
) -> int:
    """Even characteristic: wt(c) = log2(alpha^2) / m with alpha the exact
    integer product of dual-spectrum values at the coordinate points.

    require_positive additionally asserts the restated necessary condition
    prod chi_dual(c_i x_i) > 0, which presumes the word belongs to the
    dual of the matching construction.
    """
    field = g.field
    if field.p != 2:
        raise OddCharacteristic("this weight formula is for characteristic 2")
    word = _prime_word(word, 2, len(points))
    cls = classify_bent(walsh_transform(g))
    if cls.kind.value == "not_bent":
        raise NotBent("the trace form must be bent")
    spec = walsh_transform(cls.dual)
    alpha = 1
    for c, x in zip(word, points):
        if c:
            alpha *= spec[x].as_int()
    a2 = alpha * alpha
    if a2 == 0 or a2 & (a2 - 1):
        raise NotInDual(f"alpha^2 = {a2} is not a power of two")
    e = a2.bit_length() - 1
    if e % field.m != 0:
        raise NotInDual(f"alpha^2 = 2^{e} is not a power of 2^{field.m}")
    if require_positive:
        full = 1
        for c, x in zip(word, points):
            full *= spec[x * c].as_int()
        if full <= 0:
            raise NotInDual("the product condition fails: the word is not in the dual")
    return e // field.m


# ---------------------------------------------------------------------------
# APN / AB / PN diagnostics
# ---------------------------------------------------------------------------

def _dual_distance(dist: WeightDistribution, q: int) -> int:
    """Least nonzero weight of the dual code, by the MacWilliams identity
    B_j = (1/|C|) sum_w A_w K_j(w) with the Krawtchouk values
    K_j(w) = sum_i (-1)^i (q-1)^(j-i) C(w, i) C(n-w, j-i), in integers."""
    n = dist.n
    for j in range(1, n + 1):
        total = sum(
            a * sum((-1) ** i * (q - 1) ** (j - i) * comb(w, i) * comb(n - w, j - i)
                    for i in range(j + 1))
            for w, a in dist.counts.items()
        )
        b, r = divmod(total, dist.size)
        if r or b < 0:
            raise InvariantViolated(f"MacWilliams gives B_{j} = {total}/{dist.size}, not a count")
        if b:
            return j
    raise ZeroCode("minimum distance of the zero code is undefined")


def apn_ab_dual_diagnostics(f: ParyFunction, guard: int | None = None) -> dict:
    """Dual-distance and characteristic-set diagnostics of the punctured
    function code of a binary map on F_{2^m}, m >= 3, with f(0) = 0.  A dual
    word of weight 3 or 4 is a zero sum of f over the points of a zero sum
    of 3 or 4 distinct nonzero x, so the map is APN exactly when
    d_perp >= 5 (d_perp = 5 once m >= 4); almost-bent maps show the
    three-valued characteristic set."""
    field = f.field
    if field.p != 2:
        raise OddCharacteristic("the diagnostics are stated for binary maps")
    m = field.m
    if m < 3:
        raise HypothesisFailed(
            f"the diagnostics need m >= 3, got m = {m}: "
            "the punctured code of length 2^m - 1 has a zero dual"
        )
    if f.indices[0]:
        raise HypothesisFailed("the diagnostics assume f(0) = 0")
    code = first_generic(f, include_zero=False)
    dist = weight_distribution(code, guard)
    d_perp = _dual_distance(dist, code.base.q)
    du = differential_uniformity(f)
    is_apn = d_perp >= 5
    if is_apn != (du == 2):
        raise InvariantViolated(f"d_perp = {d_perp} disagrees with differential uniformity {du}")
    charset = dist.nonzero_weights()
    three_valued = {1 << (m - 1)}
    if m % 2 == 1:
        delta = 1 << ((m - 1) // 2)
        three_valued |= {(1 << (m - 1)) - delta, (1 << (m - 1)) + delta}
    is_ab = m % 2 == 1 and charset == three_valued
    return {
        "d_perp": d_perp,
        "differential_uniformity": du,
        "is_apn": is_apn,
        "characteristic_set": charset,
        "is_ab": is_ab,
        "hypothesis_ok": code.k == 2 * m,
    }


def _within_pn_band(w: int, p: int, m: int) -> bool:
    # |p w - (p-1) p^m| <= (p-1) p^(m/2), squared to stay in integers
    lhs = p * w - (p - 1) * p ** m
    return lhs * lhs <= (p - 1) ** 2 * p ** m


def pn_bounds_check(f: ParyFunction, guard: int | None = None) -> dict:
    """Every nonzero weight of the punctured code of a PN map lies in the
    band (p-1)/p * (p^m -+ p^(m/2)).

    The constant-extended punctured code is reported alongside but not
    asserted: puncturing at x = 0 removes a coordinate that the constant
    makes nonzero, which pushes single weights below the band (weight 15
    against a lower bound of 16 already for x^2 over GF(25)).
    """
    field = f.field
    p, m = field.p, field.m
    code = first_generic(f, include_zero=False)
    code._check_guard(guard)  # before the q^2 work of the planarity test
    if differential_uniformity(f, guard) != 1:
        raise NotPN("the map is not planar")
    if f.indices[0]:
        raise NotPN("the bounds assume f(0) = 0")
    extension = from_rows(code.base, code.rows + ((1,) * code.n,))
    weights = weight_distribution(code, guard).nonzero_weights()
    ext_weights = weight_distribution(extension, guard).nonzero_weights()
    return {
        "weights": weights,
        "extension_weights": ext_weights,
        "all_in_band": all(_within_pn_band(w, p, m) for w in weights),
        "extension_all_in_band": all(_within_pn_band(w, p, m) for w in ext_weights),
        "band": (
            (p - 1) * (p ** m - p ** (m / 2)) / p,
            (p - 1) * (p ** m + p ** (m / 2)) / p,
        ),
    }
