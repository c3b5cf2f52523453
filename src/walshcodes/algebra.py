"""Exact arithmetic for F_{p^m} and for the cyclotomic ring Z[zeta_p].

A field element is its canonical index: the coefficient vector over F_p
with respect to the power basis of a monic irreducible modulus, read as
index = sum c_i p^i, so the zero element comes first and the constant
coefficient is least significant.  Every code construction in this package
indexes coordinates by it.  A :class:`Field` is its tables on indices: the
exp/log tables, the trace, trace-dual and coordinate tables, and each
subfield as a list of the indices it embeds at.  Arithmetic is
:class:`IndexArith` on indices, one instance per field, shared by the
element operators, the codeword maps and the expansion of F_{p^s} rows into
F_p rows that :mod:`codes` eliminates.  :class:`FieldElement` objects are
built only for callers that ask for them, one at a time or as the interned
list :attr:`Field.elements`, which is built on first read.

Cyclotomic integers carry Walsh coefficients, Gauss sums and character
values exactly; complex floats are a display-only view.
"""

from __future__ import annotations

from functools import cache, cached_property, wraps
from typing import Iterable, Mapping, Sequence

from ._packed import field_width, input_words, join, split, transform, unit_table, unpack
from .errors import (
    DegreeMismatch,
    EvenCharacteristic,
    FieldTooLarge,
    InvariantViolated,
    NotASubfield,
    NotPrime,
    ReducibleModulus,
)

FIELD_SIZE_GUARD = 2 ** 20

# interned Field instances keyed by (p, m, modulus)
_FIELD_CACHE: dict[tuple, "Field"] = {}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (ascending coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(v):
    i = len(v)
    while i > 0 and v[i - 1] == 0:
        i -= 1
    return tuple(v[:i])


def _poly_mod(num, den, p):
    """Remainder of num by monic-normalizable den over F_p."""
    num = list(num)
    dd = len(_poly_trim(den)) - 1
    den = _poly_trim(den)
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * inv_lead) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return _poly_trim(num)


def _poly_mul(a, b, p):
    """Product of two polynomials over F_p, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim([c % p for c in out])


def _poly_is_divisible(num, den, p) -> bool:
    return len(_poly_mod(num, den, p)) == 0


def _modulus_is_irreducible(modulus, p, m) -> bool:
    """Exhaustive trial division by every monic polynomial of degree
    1..m//2; sufficient since any factorization has a factor in that range."""
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for idx in range(p ** d):
            cand = _digits(idx, p, d) + (1,)
            if _poly_is_divisible(modulus, cand, p):
                return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(n: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return tuple(out)


def _extend(plane: bytes | list[int], y: int, p: int) -> bytes | list[int]:
    """Digit j of v + c y for each c < p (down) and each v (across), from
    digit j of every v (plane) and of y, at odd p: p translates of the
    plane, through the tables of x -> x + c y mod p, lists past p = 256."""
    if p > 256:
        return [(x + c * y) % p for c in range(p) for x in plane]
    tables = (bytes(range(a, p)) + bytes(range(a)) for a in (c * y % p for c in range(p)))
    return b"".join([plane.translate(table.ljust(256, b"\0")) for table in tables])


def _per_degree(build):
    """The table build(field, s) of a subfield degree s, checked
    (_check_subfield) and built once per s, however s is passed, and kept
    in the field's own dict, so that a field reads only its own tables."""
    key = f"_{build.__name__}_by_s"

    @wraps(build)
    def table(self, s=1):
        try:
            return self.__dict__[key][s]
        except KeyError:
            tables = self.__dict__.setdefault(key, {})
            tables[s] = _check_subfield(self, s) or build(self, s)
            return tables[s]

    return table


class FieldElement:
    """Element of F_{p^m}: its canonical index, with the coefficient vector
    over the power basis of the modulus, the digits of the index, as a
    read-only view.  Arithmetic goes through the field's :class:`IndexArith`
    on indices."""

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _digits(self.index, self.field.p, self.field.m)

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)} in GF({self.field.p}^{self.field.m}))"

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.index == other.index

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __bool__(self):
        return self.index != 0

    def __add__(self, other):
        f = self.field
        return f.from_index(f.arith.add(self.index, f.index_of(other)))

    def __sub__(self, other):
        f = self.field
        ar = f.arith
        return f.from_index(ar.add(self.index, ar.neg(f.index_of(other))))

    def __neg__(self):
        f = self.field
        return f.from_index(f.arith.neg(self.index))

    def __mul__(self, other):
        f = self.field
        return f.from_index(f.arith.mul(self.index, f.index_of(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        f = self.field
        ar = f.arith
        return f.from_index(ar.mul(self.index, ar.inv(f.index_of(other))))

    def __pow__(self, e: int):
        return self.field._pow(self, e)

    def is_zero(self) -> bool:
        return self.index == 0

    def in_prime_subfield(self) -> bool:
        return self.index < self.field.p

    def as_prime_int(self) -> int:
        """Value in [0, p) of an element of the prime subfield."""
        if not self.in_prime_subfield():
            raise ValueError(f"{self!r} is not in the prime subfield")
        return self.index

    def trace(self, s: int = 1) -> "FieldElement":
        return trace(self.field, self, s)


class Field:
    """The ambient field F_{p^m} with canonical element enumeration.

    Construct through :func:`make_field`, which validates the modulus and
    interns the instance so equal parameters yield the same object.  The
    field holds no element until one is asked for: each element is interned
    when first built, so that ``from_index(i) is elements[i]``.  Each table
    is built once, on first read, and kept on the field itself (a cached
    property, or per subfield degree: _per_degree), so it lives as long as
    the field, which make_field interns for the process's life.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        # the elements handed out one at a time before the list was built
        self._single: dict[int, FieldElement] | None = {}

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element factories ---------------------------------------------------

    @cached_property
    def elements(self) -> list[FieldElement]:
        """Every element in canonical order, built on first read; an element
        handed out before is the one in the list."""
        single = self._single
        elements = [single[idx] if idx in single else FieldElement(self, idx) for idx in range(self.q)]
        self._single = None  # the list holds them from here on
        return elements

    def from_index(self, idx: int) -> FieldElement:
        single = self._single
        if single is None:
            return self.elements[idx]
        idx = range(self.q)[idx]
        if idx not in single:
            single[idx] = FieldElement(self, idx)
        return single[idx]

    @property
    def zero(self) -> FieldElement:
        return self.from_index(0)

    @property
    def one(self) -> FieldElement:
        return self.from_index(1)

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        v = [c % self.p for c in coeffs]
        if len(v) > self.m:
            if any(v[self.m:]):
                raise ValueError("coefficient vector longer than the degree")
            v = v[: self.m]
        return self.from_index(sum(c * self.p ** i for i, c in enumerate(v)))

    def scalar(self, c: int) -> FieldElement:
        """Embed an integer as an element of the prime subfield."""
        return self.from_index(c % self.p)

    def index_of(self, x: FieldElement | int) -> int:
        """Canonical index of an element of this field; an int is a
        prime-field scalar, whose index is its value mod p."""
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise ValueError("elements from different fields")
            return x.index
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into field element")

    def power_basis(self) -> list[FieldElement]:
        """1, x, ..., x^(m-1): the F_p-basis every coordinate map uses."""
        return [self.from_index(self.p ** i) for i in range(self.m)]

    # -- arithmetic tables ----------------------------------------------------

    @cached_property
    def arith(self) -> "IndexArith":
        """The field's arithmetic on canonical indices, built on first use."""
        return IndexArith(self)

    def _linear_indices(self, images: Sequence[int]) -> list[int]:
        """Index of L(e) for every e of index below p^len(images), for the
        F_p-linear map L that takes x^j to the element of index images[j]:
        each image y extends the values so far by their sums with its
        multiples c y, c < p, by XOR at p = 2, and at odd p digit plane by
        digit plane (_extend), the planes joined at the end (_packed.join),
        so that it needs none of the tables it helps to build."""
        p, out = self.p, [0]
        if p == 2:
            for img in images:
                out += [v ^ img for v in out]
            return out
        planes = [b"\0" if p < 256 else [0]] * self.m
        for img in images:
            planes = [_extend(plane, y, p) for plane, y in zip(planes, _digits(img, p, self.m))]
        return list(join(planes, p))

    def _sum(self, indices: Iterable[int]) -> int:
        """The index of the sum of the elements of these indices, added
        digit by digit, with no table."""
        digits = zip(*(_digits(v, self.p, self.m) for v in indices))
        return sum(sum(col) % self.p * self.p ** i for i, col in enumerate(digits))

    @cached_property
    def _pow_tables(self) -> tuple[list[int], list[int]]:
        """exp[k] = index of g^k for k < q - 1 and log[index of g^k] = k, for
        the generator g, walked through the F_p-linear map x -> g*x, whose
        basis images x^j * g are reduced by the modulus."""
        p, g = self.p, _digits(self._generator_index, self.p, self.m)
        images = [(_poly_mod((0,) * j + g, self.modulus, p) + (0,) * self.m)[: self.m] for j in range(self.m)]
        times_g = self._linear_indices(join(list(zip(*images)), p))
        exp = [0] * (self.q - 1)
        log = [0] * self.q
        cur = 1
        for k in range(self.q - 1):
            exp[k] = cur
            log[cur] = k
            cur = times_g[cur]
        return exp, log

    def _pow(self, a: FieldElement, e: int) -> FieldElement:
        if a.index == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return self.one if e == 0 else self.zero
        return self.from_index(self.power_indices([a.index], e)[0])

    def power_indices(self, indices: Iterable[int], e: int) -> list[int]:
        """The index of v^e for every index v, in one pass over the exp/log
        tables: any e at v != 0, and 0 at v = 0, which takes e >= 1."""
        exp, log = self._pow_tables
        n1 = self.q - 1
        k = e % n1
        return [exp[log[v] * k % n1] if v else 0 for v in indices]

    def frobenius(self, a: FieldElement, t: int = 1) -> FieldElement:
        return self._pow(a, self.p ** (t % self.m))

    def generator(self) -> FieldElement:
        """Multiplicative generator of smallest canonical index."""
        return self.from_index(self._generator_index)

    @cached_property
    def _generator_index(self) -> int:
        """The index of :meth:`generator`.  A candidate a generates
        F_q^* exactly when a^((q-1)/r) != 1 for every prime r dividing q - 1.
        These powers are taken by square-and-multiply on coefficient vectors,
        since the tables behind :meth:`_pow` and :attr:`arith` need the
        generator."""
        p, m, modulus = self.p, self.m, self.modulus

        def power_is_one(a, e):
            result = (1,)
            while e:
                if e & 1:
                    result = _poly_mod(_poly_mul(result, a, p), modulus, p)
                a = _poly_mod(_poly_mul(a, a, p), modulus, p)
                e >>= 1
            return result == (1,)

        cofactors = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        return next(a for a in range(1, self.q) if not any(power_is_one(_digits(a, p, m), c) for c in cofactors))

    # -- subfields -------------------------------------------------------------

    @_per_degree
    def _subfield(self, s: int) -> tuple["Field", Sequence[int], Mapping[int, int] | range]:
        """(sub, embed, project) for the subfield F_{p^s}: sub
        is F_{p^s} as a field of its own, embed[k] the index here of its
        element of index k, and project the inverse of embed; at s = 1 and
        s = m both maps are the identity on range(p^s).

        embed sends the root behind sub's power basis to the smallest-index
        root of sub's modulus here.  The roots lie in the subfield, so only
        its nonzero elements, g^(c k) with c = (q - 1)/(p^s - 1), are tried."""
        sub = self if s == self.m else make_field(self.p, s)
        embed = project = range(sub.q)
        if 1 < s < self.m:
            (exp, _), n1, mul = self._pow_tables, self.q - 1, self.arith.mul
            roots = (
                k for k in sorted(range(0, n1, n1 // (sub.q - 1)), key=exp.__getitem__)
                if not self._sum([mul(c, exp[k * i % n1]) for i, c in enumerate(sub.modulus)])
            )
            k = next(roots, None)
            if k is None:
                raise InvariantViolated(f"the modulus of F_{self.p}^{s} has no root in {self!r}")
            embed = self._linear_indices([exp[k * t % n1] for t in range(s)])
            project = {v: i for i, v in enumerate(embed)}
            if len(project) != sub.q:
                raise InvariantViolated(f"the embedding of F_{self.p}^{s} into {self!r} is not injective")
        return sub, embed, project

    # -- trace machinery -------------------------------------------------------

    @_per_degree
    def trace_table(self, s: int = 1) -> list[int]:
        """Tr_{q/p^s} of every element, by index, as the index of its value in
        the subfield F_{p^s} of :func:`subfield`; at s = 1 the values are the
        integers in [0, p).

        The table is the F_p-linear map Tr(a) = sum_i a_i Tr(x^i), so only
        the m basis traces are Frobenius sums, of images read from the
        exp/log tables and added digit by digit (_sum); InvariantViolated is
        raised if one leaves the subfield."""
        _, _, project = self._subfield(s)
        (exp, log), n1 = self._pow_tables, self.q - 1
        frobenius = [self.p ** (s * i) for i in range(self.m // s)]
        values = [self._sum([exp[log[self.p ** j] * e % n1] for e in frobenius]) for j in range(self.m)]
        if not all(v in project for v in values):
            raise InvariantViolated(f"a trace of the power basis left the subfield F_{self.p}^{s}")
        # a subfield index is carried by the element of this field with the same digits
        return self._linear_indices([project[v] for v in values])

    @cached_property
    def _log_traces(self) -> bytes | list[int]:
        """Tr_{q/p}(g^k) for k < q - 1, by k, as bytes while p < 256: the
        trace table read through the exp table, so that a trace of c x^d is
        this table turned by log c and read at stride d."""
        traces = list(map(self.trace_table().__getitem__, self._pow_tables[0]))
        return bytes(traces) if self.p < 256 else traces

    def trace_int(self, a: FieldElement) -> int:
        """Absolute trace Tr_{q/p}(a) as an integer in [0, p)."""
        return self.trace_table()[a.index]

    @_per_degree
    def coordinate_table(self, s: int) -> list[int]:
        """The coordinates (c_0, ..., c_{m/s-1}) of every element over the
        subfield F_{p^s} in the basis 1, x, ..., x^(m/s-1), by index, packed
        as the index sum_j c_j p^(s j), with c_j an index in the subfield of
        :func:`subfield`.  At s = 1 the table is the identity: the index
        digits are the coordinates.

        The element with packed coordinates k is F_p-linear in the digits of
        k, digit j s + t standing for theta^t x^j with theta the root behind
        the subfield's power basis: one :meth:`_linear_indices`, which
        raises InvariantViolated if it is not a bijection.  The table is its
        inverse, F_p-linear too, so it is the :meth:`_linear_indices` of
        the packed coordinates of x^j, j < m, the element of index p^j."""
        _, embed, _ = self._subfield(s)
        mul, p = self.arith.mul, self.p
        elements = self._linear_indices([mul(embed[p ** t], p ** j) for j in range(self.m // s) for t in range(s)])
        if len(set(elements)) != self.q:
            raise InvariantViolated(f"the relative basis of F_{self.p}^{self.m} over F_{self.p}^{s} is singular")
        return self._linear_indices([elements.index(p ** j) for j in range(self.m)])

    @cached_property
    def _dual_blocks(self) -> tuple[bytes, list[int]]:
        """The gather (_gather_blocks) that reads the value of the x with
        v_x = u at each u, v_x = trace_dual_indices()[x], for q <= 4096."""
        points = [0] * self.q
        for x, u in enumerate(self.trace_dual_indices()):
            points[u] = x
        return _gather_blocks(points)

    @cached_property
    def _log_blocks(self) -> tuple[bytes, list[int]]:
        """The gather (_gather_blocks) that reads the value of k = log x at
        each x != 0, and the one of k = q - 1 at x = 0, for q <= 4096: a
        table by k in point order."""
        return _gather_blocks([self.q - 1] + self._pow_tables[1][1:])

    @_per_degree
    def trace_dual_indices(self, s: int = 1) -> list[int]:
        """For each d, sum_j t_j Q^j over j < m/s, Q = p^s, with t_j the
        index in the subfield F_Q of Tr_{q/Q}(x^j d): at s = 1 the index of
        the coefficient vector v_d with Tr_{q/p}(d x) = <x, v_d> for every
        x.  The map is F_p-linear and bijective, so the table extends the
        images of the power basis, read from the trace table (at s = 1: d
        contracted with the Gram matrix Tr(x^i x^j))."""
        mul, tr, Q = self.arith.mul, self.trace_table(s), self.p ** s
        basis = [self.p ** i for i in range(self.m)]
        return self._linear_indices(join([[tr[mul(x, d)] for d in basis] for x in basis[: self.m // s]], Q))

    def trace_bilinear(self, a: FieldElement, b: FieldElement) -> int:
        """Tr_{q/p}(a*b) in [0, p), read from the cached Gram contraction of
        b.  The brute-force weight references call it on elements; no
        transform or weight formula does: they read trace_dual_indices or
        the trace table directly."""
        p, m = self.p, self.m
        vb = _digits(self.trace_dual_indices()[b.index], p, m)
        return sum(x * y for x, y in zip(_digits(a.index, p, m), vb)) % p


class IndexArith:
    """Arithmetic of one field on canonical indices; :attr:`Field.arith`
    holds the one instance of each field.

    Over F_p the index is the value and the arithmetic is mod p.  Over
    F_{p^m} products and inverses read the field's exp/log tables; sums are
    the XOR of indices when p = 2 and go through Zech logarithms (zech)
    when p is odd, a table built on the first such sum: no table build of
    :class:`Field` adds through it.  Every table has O(q) entries."""

    def __init__(self, field: Field):
        self.p = field.p
        self.prime = field.m == 1
        self.even = field.p == 2
        self.n1 = field.q - 1
        if not self.prime:
            self.exp, self.log = field._pow_tables

    @cached_property
    def zech(self) -> list[int]:
        """zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0, so that a + b =
        a * (1 + b/a) has log(a + b) = log(a) + zech[log(b) - log(a)]
        (Huber, IEEE TIT 1990); 1 + g^k adds 1 to the constant digit of g^k."""
        p, log = self.p, self.log
        return [log[v] if v else -1 for v in (e - e % p + (e + 1) % p for e in self.exp)]

    def add(self, a: int, b: int) -> int:
        if self.prime:
            return (a + b) % self.p
        if self.even:
            return a ^ b
        if not a or not b:
            return a or b
        log = self.log
        la = log[a]
        z = self.zech[(log[b] - la) % self.n1]
        return self.exp[(la + z) % self.n1] if z >= 0 else 0

    def mul(self, a: int, b: int) -> int:
        if self.prime:
            return a * b % self.p
        if not a or not b:
            return 0
        log = self.log
        return self.exp[(log[a] + log[b]) % self.n1]

    def neg(self, a: int) -> int:
        if self.prime:
            return -a % self.p
        if self.even or not a:
            return a
        return self.exp[(self.log[a] + self.n1 // 2) % self.n1]  # -1 = g^((q-1)/2)

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.prime:
            return pow(a, -1, self.p)
        return self.exp[-self.log[a] % self.n1]

    def scale(self, row: Sequence[int], a: int) -> list[int]:
        if not a:
            return [0] * len(row)
        if self.prime:
            p = self.p
            return [x * a % p for x in row]
        exp, log, n1 = self.exp, self.log, self.n1
        la = log[a]
        return [exp[(la + log[x]) % n1] if x else 0 for x in row]


def make_field(p: int, m: int, modulus: Sequence[int] | None = None) -> Field:
    """Construct (or fetch the interned) F_{p^m}.

    When no modulus is given the lexicographically smallest monic
    irreducible of degree m is selected, so builds are deterministic
    without external polynomial tables.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
    if p ** m > FIELD_SIZE_GUARD:
        raise FieldTooLarge(f"p^m={p ** m} exceeds the guard {FIELD_SIZE_GUARD}")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {m}, got {list(modulus)}"
            )
        if not _modulus_is_irreducible(mod, p, m):
            raise ReducibleModulus(f"{list(modulus)} factors over GF({p})")
    else:
        mod = _least_irreducible(p, m)
    key = (p, m, mod)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, m, mod)
    return _FIELD_CACHE[key]


@cache
def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree m over F_p,
    searched once per (p, m); one exists for every m."""
    candidates = (_digits(idx, p, m) + (1,) for idx in range(p ** m))
    return next(c for c in candidates if _modulus_is_irreducible(c, p, m))


def parse_field_spec(spec: str) -> Field:
    """Parse ``p=<int>,m=<int>[,poly=<c0,c1,...,1>]`` into a field."""
    parts = spec.replace(" ", "").split(",")
    kv: dict[str, str] = {}
    poly: list[int] | None = None
    i = 0
    while i < len(parts):
        part = parts[i]
        if "=" not in part:
            raise ValueError(f"bad field spec component {part!r}")
        k, v = part.split("=", 1)
        if k == "poly":
            poly = [int(v)]
            i += 1
            while i < len(parts) and "=" not in parts[i]:
                poly.append(int(parts[i]))
                i += 1
            continue
        kv[k] = v
        i += 1
    if "p" not in kv or "m" not in kv:
        raise ValueError(f"field spec {spec!r} needs p= and m=")
    return make_field(int(kv["p"]), int(kv["m"]), poly)


def format_field_spec(field: Field) -> str:
    return f"p={field.p},m={field.m},poly={','.join(map(str, field.modulus))}"


def _check_subfield(ctx: Field, s: int) -> None:
    """Raise NotASubfield unless s, the degree of a subfield F_{p^s}, is a
    positive integer dividing m."""
    if not isinstance(s, int) or s < 1 or ctx.m % s:
        raise NotASubfield(f"subfield degree {s!r} is not a positive divisor of m={ctx.m}")


def trace(ctx: Field, x: FieldElement, s: int = 1) -> FieldElement:
    """Relative trace Tr_{p^m/p^s}(x) = sum of x^(p^(s*i)), an element of
    F_{p^s}, read from the trace table."""
    return ctx.from_index(ctx._subfield(s)[1][ctx.trace_table(s)[ctx.index_of(x)]])


def trace_kernel(ctx: Field) -> list[FieldElement]:
    """All p^(m-1) elements of ker(Tr_{q/p}); cross-checked against the
    set of values alpha^p - alpha, which the kernel equals exactly.  Both
    are read on indices, from the trace and exp/log tables."""
    table, arith = ctx.trace_table(), ctx.arith
    kernel = [a for a in range(ctx.q) if table[a] == 0]
    image = map(arith.add, ctx.power_indices(range(ctx.q), ctx.p), map(arith.neg, range(ctx.q)))
    if set(kernel) != set(image):
        raise InvariantViolated("the trace kernel differs from the set of alpha^p - alpha")
    return list(map(ctx.from_index, kernel))


# ---------------------------------------------------------------------------
# subfields
# ---------------------------------------------------------------------------

def subfield(ctx: Field, s: int) -> tuple[Field, dict, dict]:
    """The subfield F_{p^s} of ctx as a standalone field plus embedding maps.

    Returns ``(sub, embed, project)`` where ``embed[e]`` is the image in ctx
    of the subfield element e and ``project`` inverts it on the image.  The
    embedding sends the power-basis root of sub's modulus to its smallest
    canonical root inside ctx, so it is deterministic.  The dicts are built
    on each call from the index maps that ctx keeps (see Field._subfield).
    """
    sub, embed, _ = ctx._subfield(s)
    pairs = [(sub.from_index(k), ctx.from_index(v)) for k, v in enumerate(embed)]
    return sub, dict(pairs), {img: e for e, img in pairs}


# ---------------------------------------------------------------------------
# the p-ary fast Walsh-Hadamard transform
# ---------------------------------------------------------------------------

def _gather_blocks(index: Sequence[int]) -> tuple[bytes, list[int]]:
    """What _gather needs to read values[index[u]] at each u, for indices
    below 4096: the low byte of each index, and for each high byte j the
    word with a byte of ones at each u whose index has high byte j."""
    lows, highs = split(index, 256, 2)
    return lows, [int.from_bytes(highs.translate(unit_table(j)), "little") * 255 for j in range(max(highs) + 1)]


def _gather(blocks: tuple[bytes, list[int]], values: bytes) -> bytes:
    """values[index[u]] at each u, for the index behind ``blocks``
    (_gather_blocks) and byte values: one translate of the low bytes for
    each 256 values, kept where the high byte matches, as ints."""
    lows, rows = blocks
    out = 0
    for j, row in enumerate(rows):
        out |= int.from_bytes(lows.translate(values[256 * j : 256 * j + 256].ljust(256, b"\0")), "little") & row
    return out.to_bytes(len(lows), "little")


def _character_fwht(values: Sequence[int], field: Field) -> list[list[int]]:
    """The transform F of N with N(v_x) = zeta^(values[x]) for each x, v_x
    the trace dual of x (Field.trace_dual_indices), for values in [0, p),
    as its p - 1 canonical layers F_e - F_{p-1}, e < p - 1 (at p = 2 the
    one integer list F_0 - F_1).

    The input takes one byte a field (bound 1, mass q; see
    _packed.transform).  The value at each u = v_x is placed while q <=
    4096 by one gather (_gather) through the inverse of the trace-dual
    table (Field._dual_blocks), above by one pass over the points, which
    costs less than building the inverse; the input planes are translates
    of the placed values (_packed.input_words).  Past p = 255, where a
    value takes more than a byte, one pass writes a 1 into field v_x of
    indicator plane values[x]."""
    p, m, q = field.p, field.m, field.q
    if p > 255:
        planes = [bytearray(q) for _ in range(p)]
        for v, u in zip(values, field.trace_dual_indices()):
            planes[v][u] = 1
        words = [int.from_bytes(plane, "little") for plane in planes]
    elif q > 4096:
        placed = bytearray(q)
        for v, u in zip(values, field.trace_dual_indices()):
            placed[u] = v
        words = input_words(placed, p)
    else:
        words = input_words(_gather(field._dual_blocks, bytes(values)), p)
    width = field_width(q.bit_length() + 1)
    return unpack(transform(words, width, p, m, 1, q), width, q, signed=True)


# ---------------------------------------------------------------------------
# Z[zeta_p]
# ---------------------------------------------------------------------------

class CyclotomicInt:
    """Element sum c_i zeta_p^i of Z[zeta_p] in canonical form.

    The canonical representative has c_{p-1} = 0 (eliminated through
    1 + zeta + ... + zeta^{p-1} = 0), which makes equality a plain
    coefficient comparison.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        self.p = p
        self.coeffs = _canonical_cyclo(p, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, [0] * p)

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInt":
        v = [0] * p
        v[0] = n
        return cls(p, v)

    @classmethod
    def zeta_power(cls, p: int, e: int) -> "CyclotomicInt":
        v = [0] * p
        v[e % p] = 1
        return cls(p, v)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._coerce(other)
        return CyclotomicInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % p] += a * b
        return CyclotomicInt(p, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("Z[zeta_p] has no general inverses")
        result = CyclotomicInt.from_int(self.p, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation zeta^i -> zeta^{p-i}."""
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            out[(p - i) % p] += a
        return CyclotomicInt(p, out)

    def abs_squared(self) -> "CyclotomicInt":
        return self * self.conjugate()

    # -- predicates / views --------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def complex_value(self) -> complex:
        """Float view for display; never used in any verification."""
        import cmath

        zeta = cmath.exp(2j * cmath.pi / self.p)
        return sum(c * zeta ** i for i, c in enumerate(self.coeffs))

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.p, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, {list(self.coeffs)})"

    def _coerce(self, other):
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.p, other)
        if isinstance(other, CyclotomicInt):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        raise TypeError(f"cannot coerce {other!r}")


def _canonical_cyclo(p: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    folded = [0] * p
    for i, c in enumerate(coeffs):
        folded[i % p] += c
    last = folded[p - 1]
    if last:
        folded = [c - last for c in folded]
    return tuple(folded)


def cyclo_canonicalize(p: int, coeffs: Sequence[int]) -> CyclotomicInt:
    """Reduce a raw integer vector of length >= p to canonical form."""
    return CyclotomicInt(p, coeffs)


def zeta(p: int, e: int) -> CyclotomicInt:
    return CyclotomicInt.zeta_power(p, e)


def p_star(p: int) -> int:
    """(-1/p) * p, the discriminant-twisted prime."""
    return p if p % 4 == 1 else -p


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quadratic_gauss_sum(p: int) -> CyclotomicInt:
    """G = sum over x in F_p of zeta^(x^2); exact representative of sqrt(p*)."""
    if p == 2:
        raise EvenCharacteristic("no Gauss-sum constant in characteristic 2")
    v = [0] * p
    for x in range(p):
        v[(x * x) % p] += 1
    g = CyclotomicInt(p, v)
    if g * g != CyclotomicInt.from_int(p, p_star(p)):
        raise InvariantViolated(f"the quadratic Gauss sum of F_{p} does not square to p*")
    return g


@cache
def gauss_sum_power(p: int, m: int) -> CyclotomicInt:
    """G^m where G is the quadratic Gauss sum of F_p, computed (and G's
    square checked) once per (p, m); the one instance is shared by every
    caller, and nothing mutates a CyclotomicInt."""
    return quadratic_gauss_sum(p) ** m
