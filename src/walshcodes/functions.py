"""Truth-table functions on F_{p^m}, exact Walsh spectra and bentness.

The function mini-language is evaluated on index lists: each syntax node
is evaluated once over the whole field, constants are folded, and a
truth table holds the index of each value; its interned elements are
built when first read.
A monomial c x^d stays symbolic as (log c, d) through products, powers
and negations, so that c x^d takes one pass over the log table, and
tr(c x^d), while q <= 4096 and p <= 128, a few slices and translates of
bytes: the traces by log turned by log c, read at the least stride of the
cyclotomic coset of d, and gathered into point order.

The Walsh transform of a prime-valued function lands in Z[zeta_p] and is
computed coefficient-exactly by a p-ary fast Walsh-Hadamard transform on
words packed straight from the truth table.  A spectrum keeps its
coefficients as p - 1 canonical integer layers (one integer list at p = 2);
:class:`~walshcodes.algebra.CyclotomicInt` objects are built only when a
caller asks for them.  At odd p a spectrum counts its distinct
coefficient vectors once, and Parseval, verified before a spectrum is
returned, sums over them by multiplicity.  Bent classification looks each
distinct coefficient up among the 2p values sign * G^m * zeta^e, with G
the quadratic Gauss sum, requires one global sign, and reads the dual
function off the exponents e.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from math import gcd
from operator import mul, xor
from typing import Callable, Sequence

from ._packed import TYPECODES, Lanes, gray_walk, pack
from .algebra import CyclotomicInt, Field, FieldElement, _character_fwht, _gather, gauss_sum_power
from .codes import enumeration_guard
from .errors import (
    ExponentOverflow,
    InvariantViolated,
    NotWeaklyRegular,
    ParseError,
    TooLarge,
    UndefinedSymbol,
    WrongCodomain,
)

EXPONENT_CAP = 10 ** 6
# a traced monomial is read from a tiled copy of its traces while the copy
# takes at most this many times q bytes
TILE_LIMIT = 256


class ParyFunction:
    """Function F_{p^m} -> F_{p^s} stored as a truth table in canonical order.

    ``indices`` holds the index of the value at each point.  ``table``
    holds the same values as the field's interned elements; it is built on
    first read, into a cell that the function shares with its
    :meth:`with_codomain` copies.  ``_derived`` keeps what other modules
    compute from the table once per function, by key, for as long as the
    function lives.  Every table entry must be an element of ``field``
    itself, or the constructor raises ValueError."""

    __slots__ = ("field", "codomain_degree", "indices", "_table", "_derived")

    def __init__(self, field: Field, table: Sequence[FieldElement], codomain_degree: int | None = None):
        table = tuple(table)
        self._set(field, tuple(_own_index(field, v) for v in table), codomain_degree, [table])

    @classmethod
    def from_indices(
        cls, field: Field, indices: Sequence[int], codomain_degree: int | None = None
    ) -> "ParyFunction":
        """The function whose value at the element of index i has index
        ``indices[i]``."""
        out = cls.__new__(cls)
        out._set(field, tuple(indices), codomain_degree, [None])
        return out

    def _set(self, field, indices, codomain_degree, table_cell):
        if len(indices) != field.q:
            raise ValueError(f"table needs {field.q} entries, got {len(indices)}")
        if codomain_degree is None:
            codomain_degree = next(
                s for s in range(1, field.m + 1)
                if field.m % s == 0 and _outside_subfield(field, indices, s) is None
            )
        else:
            # v^(p^s) = v exactly for the v in F_{p^gcd(s, m)}
            bad = _outside_subfield(field, indices, gcd(codomain_degree, field.m))
            if bad is not None:
                raise ValueError(f"table value {field.from_index(indices[bad])!r} outside F_{field.p}^{codomain_degree}")
        self.field = field
        self.codomain_degree = codomain_degree
        self.indices = indices
        self._table = table_cell
        self._derived = {}

    @property
    def table(self) -> tuple[FieldElement, ...]:
        cell = self._table
        if cell[0] is None:
            cell[0] = tuple(map(self.field.elements.__getitem__, self.indices))
        return cell[0]

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.field.from_index(self.indices[_own_index(self.field, x)])

    def __eq__(self, other):
        if not isinstance(other, ParyFunction):
            return NotImplemented
        # elements of two field objects never compare equal, so neither do their tables
        return self.field is other.field and self.indices == other.indices

    def __hash__(self):
        return hash((self.field, self.indices))

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
        """Reinterpret the same table with a declared codomain degree; the
        copy shares the table.

        Values in F_{p^d} satisfy v^(p^s) = v whenever d divides s, so the
        per-value check is skipped in that case."""
        if s % self.codomain_degree:
            out = ParyFunction.from_indices(self.field, self.indices, s)
        else:
            out = ParyFunction.__new__(ParyFunction)
            out.field, out.codomain_degree, out.indices, out._derived = self.field, s, self.indices, {}
        out._table = self._table
        return out

    def exponents(self) -> tuple[int, ...]:
        """Values as integers in [0, p); requires a prime-valued function.
        An element of the prime subfield has its value as its index."""
        if self.codomain_degree != 1:
            raise WrongCodomain("function is not prime-valued")
        return self.indices

    def is_affine(self) -> bool:
        """True when x -> f(x) - f(0) is additive.  An additive map is
        F_p-linear, so it is exactly the linear map with its values on the
        power basis, and f is compared with f(0) plus that map."""
        field, indices = self.field, self.indices
        add, minus_zero = field.arith.add, field.arith.neg(indices[0])
        linear = field._linear_indices([add(indices[field.p ** j], minus_zero) for j in range(field.m)])
        return tuple(map(add, linear, repeat(indices[0]))) == indices


def _own_index(field: Field, x: FieldElement) -> int:
    """The index of x, which must be an element of ``field`` itself."""
    if isinstance(x, FieldElement) and x.field is field:
        return x.index
    raise ValueError(f"{x!r} is not an element of GF({field.p}^{field.m})")


def _outside_subfield(field: Field, indices: Sequence[int], d: int) -> int | None:
    """Position of the first value outside F_{p^d}, d dividing m, or None.

    The prime subfield holds the indices below p; a nonzero g^k lies in
    F_{p^d} exactly when k (p^d - 1) = 0 mod q - 1."""
    if d == field.m:
        return None
    if d == 1:
        p = field.p
        if max(indices) < p:
            return None
        return next(i for i, v in enumerate(indices) if v >= p)
    log = field._pow_tables()[1]  # log[0] = 0 keeps zero in every subfield
    step = (field.q - 1) // (field.p ** d - 1)
    return next((i for i, v in enumerate(indices) if log[v] % step), None)


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


class _Monomial:
    """c x^d, c = g^log != 0, kept symbolic until its values are needed.

    d is reduced to (d - 1) mod (q - 1) + 1, so that x^d and its reduction
    agree at every x, 0^d = 0 included."""

    __slots__ = ("log", "d")

    def __init__(self, log: int, d: int, n1: int):
        self.log = log % n1
        self.d = (d - 1) % n1 + 1


class _Parser:
    """Recursive descent that evaluates each node once, over the whole
    field, as soon as it is parsed.  A node's value is an int, the index of
    a constant; a list of q indices, or bytes of values below p, its value
    at every point in canonical order; or a monomial c x^d with c != 0.
    Constant subexpressions are folded on the way.  Products, powers and
    negations of monomials are exponent arithmetic.  Under tr a monomial's
    values are its traces, gathered as bytes while q <= 4096 and p <= 128
    (_gathered_trace: a tiled slice of the traces by log, put in point
    order by the gather that places the Walsh transform's input, and at
    p = 2 two of them add as one XOR of ints), else read in one pass over
    the log table; outside tr a monomial takes its values as exp entries
    in one such pass when it meets a sum, a product with a value list, a
    family coefficient or the end of the spec."""

    def __init__(self, field: Field, tokens: list[str]):
        self.field = field
        self.tokens = tokens
        self.pos = 0
        self.n1 = field.q - 1

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
        return self._values(node)

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = self._add(node, self._neg(rhs) if op == "-" else rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = self._product(node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return self._neg(self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.take()
            node = self._power(node, self.integer())
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
            return int(tok) % field.p  # the index of a prime-field scalar is its value
        if tok == "x":
            return _Monomial(0, 1, self.n1)
        if tok == "g":
            return field._generator_index()
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "tr":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return self._trace(inner)
        if tok == "quadratic":
            c, i = self._family_args()
            return self._trace(self._product(c, _Monomial(0, field.p ** i + 1, self.n1)))
        if tok == "ternary_half":
            if field.p != 3:
                raise ParseError("ternary_half needs characteristic 3")
            c, i = self._family_args()
            return self._trace(self._product(c, _Monomial(0, (3 ** i + 1) // 2, self.n1)))
        if tok.isidentifier():
            raise UndefinedSymbol(f"unknown symbol {tok!r}")
        raise ParseError(f"unexpected token {tok!r}")

    def _family_args(self):
        self.take("(")
        c = self.expr()
        self.take(",")
        i = self.integer()
        self.take(")")
        if not isinstance(c, int):
            # the coefficient is its value at 0, and must agree at 1: a
            # monomial is 0 at 0 only
            if isinstance(c, _Monomial) or c[0] != c[1]:
                raise ParseError("family coefficient must be a constant")
            c = c[0]
        return c, i

    # -- node values ---------------------------------------------------------

    def _on_log(self, table, a: _Monomial) -> list[int]:
        """table[(log c + d log x) mod (q - 1)] at every x != 0, 0 at x = 0:
        the table turned by log c, read at d log x, which at d = 1 is the
        log table itself."""
        n1, d, log = self.n1, a.d, self.field._pow_tables()[1]
        turned = table[a.log:] + table[:a.log]
        out = list(map(turned.__getitem__, log)) if d == 1 else [turned[d * k % n1] for k in log]
        out[0] = 0
        return out

    def _values(self, a):
        """A monomial's value list; a constant or a list as it is."""
        return self._on_log(self.field._pow_tables()[0], a) if isinstance(a, _Monomial) else a

    def _pointwise(self, fn, *nodes):
        """fn applied at every point; a constant stays a constant."""
        if all(isinstance(a, int) for a in nodes):
            return fn(*nodes)
        q = self.field.q
        return list(map(fn, *(repeat(a, q) if isinstance(a, int) else self._values(a) for a in nodes)))

    def _add(self, a, b):
        """a + b; at p = 2 the index of a sum is the XOR of the indices.  At
        odd p, where both are F_p-valued, as bytes from a trace are (see
        _trace), or a constant or a list below p, an index is the value
        itself, and while p <= 128 the sum is one addition of the ints of
        their byte strings, whose bytes stay below 2p - 1 and carry into no
        neighbour, and one translate mod p."""
        p, q = self.field.p, self.field.q
        if p == 2:
            if isinstance(a, bytes) and isinstance(b, bytes):
                return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(q, "little")
            return self._pointwise(xor, a, b)
        a, b = self._values(a), self._values(b)
        if p > 128 or not all(isinstance(v, bytes) or (v if isinstance(v, int) else max(v)) < p for v in (a, b)):
            return self._pointwise(self.field.arith.add, a, b)
        if isinstance(a, int) and isinstance(b, int):
            return (a + b) % p
        a, b = (int.from_bytes(bytes([v]) * q if isinstance(v, int) else bytes(v), "little") for v in (a, b))
        return (a + b).to_bytes(q, "little").translate(_residues(p))

    def _neg(self, a):
        """-a, which is a itself at p = 2; -c x^d is g^((q-1)/2) c x^d."""
        if self.field.p == 2:
            return a
        if isinstance(a, _Monomial):
            return _Monomial(a.log + self.n1 // 2, a.d, self.n1)
        return self._pointwise(self.field.arith.neg, a)

    def _product(self, a, b):
        """a * b; a product of monomials and constants adds exponents, and a
        list times a constant is one log-add pass."""
        arith = self.field.arith
        if isinstance(a, int):
            a, b = b, a
        if isinstance(b, int):
            if isinstance(a, int):
                return arith.mul(a, b)
            if isinstance(a, _Monomial):
                return _Monomial(a.log + self.field._pow_tables()[1][b], a.d, self.n1) if b else 0
            return arith.scale(a, b)
        if isinstance(a, _Monomial) and isinstance(b, _Monomial):
            return _Monomial(a.log + b.log, a.d + b.d, self.n1)
        return list(map(arith.mul, self._values(a), self._values(b)))

    def _power(self, a, e: int):
        """a^e for e >= 0, with 0^0 = 1; a list in one pass over the exp/log
        tables."""
        if e == 0:
            return [1] * len(a) if isinstance(a, (list, bytes)) else 1
        if isinstance(a, int):
            exp, log = self.field._pow_tables()
            return exp[log[a] * e % self.n1] if a else 0
        if isinstance(a, _Monomial):
            return _Monomial(a.log * e, a.d * e, self.n1)
        return self.field.power_indices(a, e)

    def _trace(self, a):
        """Tr(a): a constant, or the list of its values; at odd p <= 128 as
        bytes, which _add reads as they are (at p = 2, converting two lists
        costs as much as the XOR of their entries).  A monomial's traces
        are gathered as bytes while q <= 4096 and p <= 128 (see
        _gathered_trace)."""
        field = self.field
        table = field.trace_table()
        if isinstance(a, int):
            return table[a]
        if isinstance(a, _Monomial) and field.q <= 4096 and field.p <= 128:
            return self._gathered_trace(a)
        out = self._on_log(field._log_traces(), a) if isinstance(a, _Monomial) else list(map(table.__getitem__, a))
        return bytes(out) if 2 < field.p <= 128 else out

    def _gathered_trace(self, a: _Monomial) -> bytes:
        """Tr(c x^d) at every x as bytes, at C speed: Tr(c x^d) =
        Tr(c^(p^i) x^(d p^i)), so the conjugate whose stride d p^i mod
        (q - 1), or q - 1 less it, read backwards, is least is read.  Its
        traces by k = log x are Field._log_traces turned by log c^(p^i) and
        read at that stride, one slice of a tiled copy while the copy takes
        at most TILE_LIMIT q bytes (past that, per point, by _on_log), and
        then put in point order by one gather through the log table
        (Field._log_blocks), which also gives Tr(0) = 0 at x = 0."""
        field, n1 = self.field, self.n1
        stride, d, log = min(
            (min(d, n1 - d), d, a.log * p_i % n1)
            for p_i in (field.p ** i for i in range(field.m))
            for d in [a.d * p_i % n1]
        )
        if stride * n1 > TILE_LIMIT * field.q:
            return bytes(self._on_log(field._log_traces(), a))
        traces = field._log_traces()
        turned = traces[log:] + traces[:log]
        if not stride:  # x^(q-1): 1 at every x != 0
            by_log = turned[:1] * n1
        elif stride == d:
            by_log = (turned * stride)[::stride]
        else:  # k d = -k stride mod q - 1: the tiled copy read from its end
            by_log = (turned * stride + turned[:1])[::-stride][:n1]
        return _gather(field._log_blocks, by_log + b"\0")


@cache
def _residues(p: int) -> bytes:
    """The translate table that maps each byte v < 2p - 1 to v mod p."""
    return bytes(v % p for v in range(256))


def parse_function(field: Field, spec: str) -> ParyFunction:
    """Materialize a truth table from the mini-language (see module docs)."""
    tokens = _tokenize(spec)
    if not tokens:
        raise ParseError("empty function spec")
    node = _Parser(field, tokens).parse()
    return ParyFunction.from_indices(field, [node] * field.q if isinstance(node, int) else node)


# ---------------------------------------------------------------------------
# Walsh spectra
# ---------------------------------------------------------------------------

class WalshSpectrum:
    """Exact Walsh coefficients of a prime-valued function, indexed by b.

    ``layers[e][b]`` is the coefficient of zeta^e in chi_hat(b) in canonical
    form: c_{p-1} = 0 is left out, so there are p - 1 nonempty integer
    lists of one length, and at p = 2 the one list holds the integer
    spectrum; other layers raise ValueError.  At odd p the spectrum also
    counts its distinct coefficient vectors, at C speed, when it is built:
    the Parseval sum and classify_bent read each distinct value once, with
    its multiplicity.  :attr:`coefficients` and item access build one
    :class:`CyclotomicInt` per distinct value on first use, shared by the
    points that take it.  The constructor checks the shape and the integer
    entries of the layers; :func:`walsh_transform`, whose transform yields
    p - 1 integer lists of length q, builds its spectrum past those checks."""

    __slots__ = ("field", "layers", "source", "_counts", "_coefficients")

    def __init__(self, field: Field, layers: Sequence[list[int]], source: ParyFunction):
        p, layers = field.p, tuple(layers)
        count = max(p - 1, 1)
        if len(layers) != count or any(
            not isinstance(layer, list) or len(layer) != len(layers[0]) or not layer for layer in layers
        ):
            raise ValueError(f"a spectrum over GF({p}^{field.m}) needs {count} nonempty lists of one length")
        self._set(field, layers, source)
        # the counted vectors hold every value
        if not all(map(isinstance, chain.from_iterable(self._counts or layers), repeat(int))):
            raise ValueError("spectrum layers must hold integers")

    @classmethod
    def _of_transform(cls, field: Field, layers: Sequence[list[int]], source: ParyFunction) -> "WalshSpectrum":
        out = cls.__new__(cls)
        out._set(field, tuple(layers), source)
        return out

    def _set(self, field, layers, source):
        self.field = field
        self.layers = layers
        self.source = source
        # {coefficient vector: multiplicity}
        self._counts = Counter(zip(*layers)) if field.p > 2 else None
        self._coefficients = None

    @property
    def coefficients(self) -> tuple[CyclotomicInt, ...]:
        if self._coefficients is None:
            p = self.field.p
            points = list(zip(*self.layers))
            shared = {c: CyclotomicInt(p, c) for c in set(points)}
            self._coefficients = tuple(map(shared.__getitem__, points))
        return self._coefficients

    def __getitem__(self, b: FieldElement) -> CyclotomicInt:
        return self.coefficients[_own_index(self.field, b)]

    def __repr__(self):
        return f"WalshSpectrum(GF({self.field.p}^{self.field.m}))"

    def parseval_sum(self) -> CyclotomicInt:
        """Sum over b of |chi_hat(b)|^2; coefficient d of zeta^d is
        S_d = sum_i <layer i, layer i - d>, layer p - 1 being zero.  At odd p
        the products run over the columns of the distinct coefficient
        vectors, one factor weighted by the multiplicities; at p = 2 S_0 is
        one sum of squares.  S_{p-d} sums the same products with the factors
        swapped, so S_d is computed for d <= p/2 only."""
        p, counts = self.field.p, self._counts
        if counts is None:
            columns = weighted = self.layers
        else:
            columns = list(zip(*counts))
            weighted = [list(map(mul, column, counts.values())) for column in columns]
        half = [
            sum(sum(map(mul, weighted[i], columns[(i - d) % p])) for i in range(p - 1) if (i - d) % p < p - 1)
            for d in range(p // 2 + 1)
        ]
        return CyclotomicInt(p, half + half[(p - 1) // 2:0:-1])


def walsh_transform(f: ParyFunction) -> WalshSpectrum:
    """chi_hat(b) = sum over x of zeta^(f(x) - Tr(bx)), exactly.

    Tr(bx) = <v_x, b> with v_x the Gram contraction of x, so chi_hat is the
    p-ary Walsh-Hadamard transform of N, N(v_x) = zeta^(f(x)), read at b
    itself: the transform is taken straight from the truth table, with the
    point x written at v_x."""
    if f.codomain_degree != 1:
        raise WrongCodomain("Walsh transform needs a prime-valued function")
    field = f.field
    p = field.p
    layers = _character_fwht(f.exponents(), field)
    spectrum = WalshSpectrum._of_transform(field, layers, f)
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
    if p == 2:
        # real spectrum: the dual carries the sign, epsilon = unit = 1
        (w,) = spectrum.layers
        if any(v * v != q for v in w):
            return BentClass(BentKind.NOT_BENT)
        dual = ParyFunction.from_indices(field, [int(v < 0) for v in w], 1)
        return BentClass(BentKind.REGULAR, 1, "1", dual)
    bent_values = _bent_values(gauss_sum_power(p, m).coeffs)
    counts = spectrum._counts
    hits = dict(zip(counts, map(bent_values.get, counts)))
    if None in hits.values():
        # |c|^2 decides between NOT_BENT, which wins wherever it occurs, and a
        # broken invariant
        target = CyclotomicInt.from_int(p, q)
        stray = [c for c, hit in hits.items() if hit is None]
        if any(CyclotomicInt(p, c).abs_squared() != target for c in stray):
            return BentClass(BentKind.NOT_BENT)
        first = CyclotomicInt(p, stray[0])
        raise InvariantViolated(f"bent coefficient {first!r} is not +/- G^m * zeta^e")
    signs = {sign for sign, _ in hits.values()}
    if len(signs) != 1:
        return BentClass(BentKind.NON_WEAKLY_REGULAR)
    (epsilon,) = signs
    unit = _unit_tag(p, m, epsilon)
    exponents = {c: e for c, (_, e) in hits.items()}
    dual = ParyFunction.from_indices(field, list(map(exponents.__getitem__, zip(*spectrum.layers))), 1)
    kind = BentKind.REGULAR if unit == "1" else BentKind.WEAKLY_REGULAR
    return BentClass(kind, epsilon, unit, dual)


@cache
def _bent_values(gm: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, int]]:
    """Sign and exponent of each of the 2p values +/- G^m zeta^e, keyed by
    its canonical coefficients without c_{p-1}, for G^m given by its p
    canonical coefficients; zeta^e rotates them by e.  Built once per
    value of G^m."""
    p = len(gm)
    bent_values = {}
    for e in range(p):
        c = CyclotomicInt(p, gm[-e:] + gm[:-e]).coeffs[:-1]
        bent_values[c] = (1, e)
        bent_values[tuple(-a for a in c)] = (-1, e)
    return bent_values


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
    per_point = []
    for c, e in zip(dual_spectrum.coefficients, f.exponents()):
        rhs = CyclotomicInt.from_int(p, cls.epsilon * field.q) * CyclotomicInt.zeta_power(p, e)
        per_point.append(c * gm == rhs)
    return {"per_point": per_point, "all_pass": all(per_point)}


def differential_uniformity(f: ParyFunction, guard: int | None = None) -> int:
    """max over a != 0, b of #{x : f(x+a) - f(x) = b}; 1 means PN, 2 APN.

    One packed word T holds the m base-p digits of f(x) in the lanes mod p
    of field x (see _packed.Lanes).  a walks the nonzero vectors in Gray
    order, each step rotating the blocks of one digit of x to reach T_a,
    field x holding f(x + a) (see _packed.gray_walk), and row a is the
    multiset of the fields of T_a - T, one lane-wise subtraction mod p (at
    p = 2 an XOR).  Every count is at least 1, and at p = 2, where x and
    x + a give the same value, even; a row of q/least distinct values has
    every count equal to that least one, so only the other rows are
    counted.  Odd p raises TooLarge before it starts when q^2 exceeds the
    guard (see codes.enumeration_guard)."""
    if f.codomain_degree != f.field.m:
        raise WrongCodomain("differential uniformity needs an F_q -> F_q map")
    field = f.field
    p, q, m = field.p, field.q, field.m
    if p != 2:
        cap = enumeration_guard(guard)
        if q * q > cap:
            raise TooLarge(f"{q * q} additions exceed the guard {cap}")
    lanes = Lanes(p, q, m)
    values = f.indices
    if lanes.bits > 1:  # else the lanes of v hold the bits of v as they are
        lanes_of = [0]  # lanes_of[v]: the base-p digits of v, one per lane
        for j in range(m):
            lanes_of = [v + d for d in range(0, p << j * lanes.bits, 1 << j * lanes.bits) for v in lanes_of]
        values = [lanes_of[v] for v in values]
    (word,) = pack([values], lanes.width)
    code, size = TYPECODES[lanes.width, False], q * lanes.width
    best = least = 2 if p == 2 else 1
    for shifted in gray_walk(word, lanes.width, p, m):
        row = lanes.sub(shifted, word).to_bytes(size, "little")
        if lanes.width > 1:  # native byte order permutes the values, not their counts
            row = array(code, row)
        if len(set(row)) != q // least:
            best = max(best, *Counter(row).values())
    return best
