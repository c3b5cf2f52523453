"""Truth-table functions on F_{p^m}, exact Walsh spectra and bentness.

The Walsh transform of a prime-valued function lands in Z[zeta_p] and is
computed coefficient-exactly by a p-ary fast Walsh-Hadamard transform;
Parseval is verified before a spectrum is returned.  Bent classification
searches for a single global sign making every coefficient
sign * G^m * zeta^e with G the quadratic Gauss sum, and reads the dual
function off the exponents e.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Callable, Sequence

from .algebra import (
    CyclotomicInt,
    Field,
    FieldElement,
    _fwht,
    gauss_sum_power,
)
from .errors import (
    ExponentOverflow,
    InvariantViolated,
    NotWeaklyRegular,
    ParseError,
    UndefinedSymbol,
    WrongCodomain,
)

EXPONENT_CAP = 10 ** 6


class ParyFunction:
    """Function F_{p^m} -> F_{p^s} stored as a truth table in canonical order."""

    __slots__ = ("field", "codomain_degree", "table")

    def __init__(self, field: Field, table: Sequence[FieldElement], codomain_degree: int | None = None):
        table = tuple(table)
        if len(table) != field.q:
            raise ValueError(f"table needs {field.q} entries, got {len(table)}")
        if codomain_degree is None:
            codomain_degree = _smallest_codomain(field, table)
        else:
            sub_q = field.p ** codomain_degree
            for v in table:
                if field._pow(v, sub_q) != v:
                    raise ValueError(f"table value {v!r} outside F_{field.p}^{codomain_degree}")
        self.field = field
        self.codomain_degree = codomain_degree
        self.table = table

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.table[x.index]

    def __eq__(self, other):
        if not isinstance(other, ParyFunction):
            return NotImplemented
        return self.field == other.field and self.table == other.table

    def __hash__(self):
        return hash((self.field, self.table))

    def __repr__(self):
        return (
            f"ParyFunction(GF({self.field.p}^{self.field.m}) -> "
            f"GF({self.field.p}^{self.codomain_degree}))"
        )

    @classmethod
    def from_callable(
        cls, field: Field, fn: Callable[[FieldElement], FieldElement], codomain_degree: int | None = None
    ) -> "ParyFunction":
        return cls(field, [fn(x) for x in field.elements], codomain_degree)

    def with_codomain(self, s: int) -> "ParyFunction":
        """Reinterpret the same table with a declared codomain degree.

        Values in F_{p^d} satisfy v^(p^s) = v whenever d divides s, so the
        per-value check is skipped in that case."""
        if s % self.codomain_degree:
            return ParyFunction(self.field, self.table, s)
        out = ParyFunction.__new__(ParyFunction)
        out.field, out.codomain_degree, out.table = self.field, s, self.table
        return out

    def exponents(self) -> tuple[int, ...]:
        """Values as integers in [0, p); requires a prime-valued function."""
        if self.codomain_degree != 1:
            raise WrongCodomain("function is not prime-valued")
        return tuple(v.as_prime_int() for v in self.table)

    def is_affine(self) -> bool:
        """True when x -> f(x) - f(0) is additive (checked exhaustively)."""
        f0 = self.table[0]
        for x in self.field.elements:
            for y in self.field.elements:
                if self(x + y) - f0 != (self(x) - f0) + (self(y) - f0):
                    return False
        return True


def _smallest_codomain(field: Field, table) -> int:
    for s in range(1, field.m + 1):
        if field.m % s != 0:
            continue
        sub_q = field.p ** s
        if all(field._pow(v, sub_q) == v for v in table):
            return s
    return field.m


# ---------------------------------------------------------------------------
# function mini-language
# ---------------------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := ('-')? atom ('^' int)?
#   atom   := int | 'x' | 'g' | 'tr' '(' expr ')'
#           | 'quadratic' '(' expr ',' int ')' | 'ternary_half' '(' expr ',' int ')'
#           | '(' expr ')'
#
# 'g' is the smallest-index multiplicative generator; tr(...) is the
# absolute trace.  quadratic(c,i) = tr(c*x^(p^i+1)) and ternary_half(c,i)
# = tr(c*x^((3^i+1)/2)) name the two bent families used in the test grids.

_TOKEN_CHARS = set("+-*^(),")


def _combine(a, b, op):
    if op == "+":
        return lambda x: a(x) + b(x)
    if op == "-":
        return lambda x: a(x) - b(x)
    return lambda x: a(x) * b(x)


def _tokenize(spec: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(spec):
        ch = spec[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(spec) and spec[j].isdigit():
                j += 1
            tokens.append(spec[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(spec) and (spec[j].isalnum() or spec[j] == "_"):
                j += 1
            tokens.append(spec[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in {spec!r}")
    return tokens


class _Parser:
    def __init__(self, field: Field, tokens: list[str]):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of function spec")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = _combine(node, self.term(), op)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = _combine(node, self.factor(), "*")
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            inner = self.factor()
            return lambda x: -inner(x)
        node = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.integer()
            node = (lambda a, ee: lambda x: a(x) ** ee)(node, e)
        return node

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer, found {tok!r}")
        val = int(tok)
        if val > EXPONENT_CAP:
            raise ExponentOverflow(f"exponent {val} exceeds cap {EXPONENT_CAP}")
        return val

    def atom(self):
        field = self.field
        tok = self.take()
        if tok.isdigit():
            val = field.scalar(int(tok))
            return lambda x: val
        if tok == "x":
            return lambda x: x
        if tok == "g":
            gen = field.generator()
            return lambda x: gen
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "tr":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return self._trace_of(inner)
        if tok == "quadratic":
            c, i = self._family_args()
            e = field.p ** i + 1
            return self._trace_of(lambda x: c * x ** e)
        if tok == "ternary_half":
            if field.p != 3:
                raise ParseError("ternary_half needs characteristic 3")
            c, i = self._family_args()
            e = (3 ** i + 1) // 2
            return self._trace_of(lambda x: c * x ** e)
        if tok.isidentifier():
            raise UndefinedSymbol(f"unknown symbol {tok!r}")
        raise ParseError(f"unexpected token {tok!r}")

    def _trace_of(self, inner):
        elements, trace_int = self.field.elements, self.field.trace_int
        return lambda x: elements[trace_int(inner(x))]

    def _family_args(self):
        self.take("(")
        c_node = self.expr()
        self.take(",")
        i = self.integer()
        self.take(")")
        c = c_node(self.field.zero)
        if c != c_node(self.field.one):
            raise ParseError("family coefficient must be a constant")
        return c, i


def parse_function(field: Field, spec: str) -> ParyFunction:
    """Materialize a truth table from the mini-language (see module docs)."""
    tokens = _tokenize(spec)
    if not tokens:
        raise ParseError("empty function spec")
    node = _Parser(field, tokens).parse()
    return ParyFunction(field, [node(x) for x in field.elements])


# ---------------------------------------------------------------------------
# Walsh spectra
# ---------------------------------------------------------------------------

class WalshSpectrum:
    """Exact Walsh coefficients of a prime-valued function, indexed by b."""

    __slots__ = ("field", "coefficients", "source")

    def __init__(self, field: Field, coefficients: Sequence[CyclotomicInt], source: ParyFunction):
        self.field = field
        self.coefficients = tuple(coefficients)
        self.source = source

    def __getitem__(self, b: FieldElement) -> CyclotomicInt:
        return self.coefficients[b.index]

    def __repr__(self):
        return f"WalshSpectrum(GF({self.field.p}^{self.field.m}))"

    def parseval_sum(self) -> CyclotomicInt:
        """Sum over b of |chi_hat(b)|^2; coefficient d of zeta^d is
        sum_i <column i, column i - d> over the coefficient columns."""
        p = self.field.p
        cols = list(zip(*(c.coeffs for c in self.coefficients)))
        return CyclotomicInt(
            p, [sum(sum(map(mul, cols[i], cols[(i - d) % p])) for i in range(p)) for d in range(p)]
        )


def walsh_transform(f: ParyFunction) -> WalshSpectrum:
    """chi_hat(b) = sum over x of zeta^(f(x) - Tr(bx)), exactly.

    Tr(bx) = <x, v_b> with v_b the Gram contraction of b, so chi_hat(b) is
    the p-ary Walsh-Hadamard transform of zeta^f read at v_b."""
    if f.codomain_degree != 1:
        raise WrongCodomain("Walsh transform needs a prime-valued function")
    field = f.field
    p = field.p
    fints = f.exponents()
    layers = _fwht([[int(v == e) for v in fints] for e in range(p)], p, field.m)
    coeffs = [CyclotomicInt(p, [layer[u] for layer in layers]) for u in field.trace_dual_indices()]
    spectrum = WalshSpectrum(field, coeffs, f)
    if spectrum.parseval_sum() != CyclotomicInt.from_int(p, field.q ** 2):
        raise InvariantViolated("Parseval failed: the Walsh spectrum is wrong")
    return spectrum


class BentKind(enum.Enum):
    NOT_BENT = "not_bent"
    REGULAR = "regular_bent"
    WEAKLY_REGULAR = "weakly_regular_bent"
    NON_WEAKLY_REGULAR = "non_weakly_regular_bent"


@dataclass(frozen=True)
class BentClass:
    """Outcome of bentness classification.

    For (weakly) regular functions the exact reconstruction
    chi_hat(b) = epsilon * G^m * zeta^(dual(b)) holds at every b, with G
    the quadratic Gauss sum; ``unit`` is the modulus-one constant of the
    normalized transform as a symbolic tag in {1, -1, i, -i}.
    """

    kind: BentKind
    epsilon: int | None = None
    unit: str | None = None
    dual: ParyFunction | None = None

    def is_weakly_regular(self) -> bool:
        return self.kind in (BentKind.REGULAR, BentKind.WEAKLY_REGULAR)


def classify_bent(spectrum: WalshSpectrum) -> BentClass:
    field = spectrum.field
    p, m, q = field.p, field.m, field.q
    target = CyclotomicInt.from_int(p, q)
    for c in spectrum.coefficients:
        if c.abs_squared() != target:
            return BentClass(BentKind.NOT_BENT)
    if p == 2:
        # real spectrum: the dual carries the sign, epsilon = unit = 1
        exps = []
        for c in spectrum.coefficients:
            v = c.as_int()
            if v * v != q:
                raise InvariantViolated(f"bent coefficient {v} does not square to {q}")
            exps.append(0 if v > 0 else 1)
        dual = ParyFunction(field, [field.scalar(e) for e in exps], 1)
        return BentClass(BentKind.REGULAR, 1, "1", dual)
    gm = gauss_sum_power(p, m)
    candidates = [gm * CyclotomicInt.zeta_power(p, e) for e in range(p)]
    signs = []
    exps = []
    for c in spectrum.coefficients:
        found = None
        for e, cand in enumerate(candidates):
            if c == cand:
                found = (1, e)
                break
            if c == -cand:
                found = (-1, e)
                break
        if found is None:
            raise InvariantViolated(f"bent coefficient {c!r} is not +/- G^m * zeta^e")
        signs.append(found[0])
        exps.append(found[1])
    if len(set(signs)) != 1:
        return BentClass(BentKind.NON_WEAKLY_REGULAR)
    epsilon = signs[0]
    unit = _unit_tag(p, m, epsilon)
    dual = ParyFunction(field, [field.scalar(e) for e in exps], 1)
    kind = BentKind.REGULAR if unit == "1" else BentKind.WEAKLY_REGULAR
    return BentClass(kind, epsilon, unit, dual)


def _unit_tag(p: int, m: int, epsilon: int) -> str:
    """u with u * p^(-m/2) * chi_hat = zeta^dual, from u = p^(m/2)/(eps*G^m).

    G/sqrt(p) is 1 for p = 1 mod 4 and i for p = 3 mod 4 under the
    standard embedding, so u is eps * (that unit)^(-m).
    """
    if p % 4 == 1:
        value = epsilon
        return "1" if value == 1 else "-1"
    if m % 2 == 0:
        value = epsilon * (-1) ** (m // 2)
        return "1" if value == 1 else "-1"
    # odd m, p = 3 mod 4: u = eps * i^(-m)
    imag = -1 if m % 4 == 1 else 1  # i^(-m) = -i or +i
    if epsilon == 1:
        return "-i" if imag == -1 else "i"
    return "i" if imag == -1 else "-i"


def verify_dual_relation(f: ParyFunction, cls: BentClass) -> dict:
    """Exact per-point check of chi_hat_dual(x) * G^m = eps * p^m * zeta^f(x).

    The identity is the one satisfied by weakly regular bent functions;
    the report lists each point so callers can see where (if anywhere)
    it breaks.
    """
    if not cls.is_weakly_regular():
        raise NotWeaklyRegular(f"classification is {cls.kind}")
    field = f.field
    p, m = field.p, field.m
    if p == 2:
        gm = CyclotomicInt.from_int(2, 1 << (m // 2))
    else:
        gm = gauss_sum_power(p, m)
    dual_spectrum = walsh_transform(cls.dual)
    fints = f.exponents()
    per_point = []
    for x in field.elements:
        lhs = dual_spectrum[x] * gm
        rhs = CyclotomicInt.from_int(p, cls.epsilon * field.q) * CyclotomicInt.zeta_power(
            p, fints[x.index]
        )
        per_point.append(lhs == rhs)
    return {"per_point": per_point, "all_pass": all(per_point)}


def differential_uniformity(f: ParyFunction) -> int:
    """max over a != 0, b of #{x : f(x+a) - f(x) = b}; 1 means PN, 2 APN."""
    if f.codomain_degree != f.field.m:
        raise WrongCodomain("differential uniformity needs an F_q -> F_q map")
    field = f.field
    add = field.arith.add
    table = [v.index for v in f.table]
    negated = [field.arith.neg(v) for v in table]
    xs = range(field.q)
    best = 0
    for a in xs[1:]:
        shifted = [table[y] for y in map(add, xs, repeat(a))]
        best = max(best, *Counter(map(add, shifted, negated)).values())
    return best
