"""Plain-integer reference arithmetic for checking the program's outputs.

Nothing here imports walshcodes.  Field elements are integers in the
program's canonical encoding (index = sum c_i p^i over the power basis of
the modulus), so outputs can be compared index for index, but every value
is recomputed from scratch: multiplication by schoolbook polynomial
products reduced by the modulus, the trace as a Frobenius sum, ranks by
Gaussian elimination, dual weight distributions by the MacWilliams
transform with Krawtchouk polynomials.
"""

from __future__ import annotations

from math import comb, gcd


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_rem(num, den, p):
    num = list(num)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] % p
        if c:
            for j, d in enumerate(den):
                num[i - len(den) + 1 + j] -= c * d
    return [c % p for c in num[: len(den) - 1]]


def least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The first monic irreducible of degree m when candidates are ordered
    by index sum c_i p^i of their lower coefficients (the program's
    documented default modulus), found by trial division."""
    for idx in range(p ** m):
        cand = [(idx // p ** t) % p for t in range(m)] + [1]
        if all(
            any(_poly_rem(cand, [(j // p ** t) % p for t in range(d)] + [1], p))
            for d in range(1, m // 2 + 1)
            for j in range(p ** d)
        ):
            return tuple(cand)
    raise ArithmeticError(f"no irreducible of degree {m} over GF({p})")


_FIELDS: dict = {}


def field(p: int, m: int) -> "GF":
    """GF(p^m) over its default modulus (cached)."""
    if (p, m) not in _FIELDS:
        _FIELDS[(p, m)] = GF(p, least_irreducible(p, m))
    return _FIELDS[(p, m)]


class GF:
    """GF(p^m) over a given monic modulus (ascending coefficients)."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.m = m = len(self.modulus) - 1
        self.q = q = p ** m
        self.digits = [tuple((i // p ** t) % p for t in range(m)) for i in range(q)]
        self.gen = next(a for a in range(1, q) if self._is_primitive(a))
        self.exp = [1] * (q - 1)
        for t in range(1, q - 1):
            self.exp[t] = self._polymul(self.exp[t - 1], self.gen)
        self.log = {a: t for t, a in enumerate(self.exp)}
        if len(self.log) != q - 1:
            raise ArithmeticError("generator search found a non-generator")
        self.tr = [self._trace(a) for a in range(q)]

    def _from_digits(self, ds) -> int:
        return sum(c * self.p ** t for t, c in enumerate(ds))

    def _polymul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.digits[a]):
            for j, y in enumerate(self.digits[b]):
                prod[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for t in range(m + 1):
                    prod[k - m + t] -= c * self.modulus[t]
        return self._from_digits([c % p for c in prod[:m]])

    def _slow_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._polymul(r, a)
            a = self._polymul(a, a)
            e >>= 1
        return r

    def _is_primitive(self, a: int) -> bool:
        n = self.q - 1
        return all(self._slow_pow(a, n // r) != 1 for r in prime_factors(n)) if n > 1 else a == 1

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        return self._from_digits([(x + y) % p for x, y in zip(self.digits[a], self.digits[b])])

    def neg(self, a: int) -> int:
        p = self.p
        return self._from_digits([(-x) % p for x in self.digits[a]])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def _trace(self, a: int) -> int:
        acc, y = 0, a
        for _ in range(self.m):
            acc = self.add(acc, y)
            y = self._slow_pow(y, self.p)
        if acc >= self.p:
            raise ArithmeticError("trace left the prime field")
        return acc

    def basis(self) -> list[int]:
        """1, x, ..., x^(m-1) as indices."""
        return [self.p ** t for t in range(self.m)]

    def total(self, xs) -> int:
        acc = 0
        for x in xs:
            acc = self.add(acc, x)
        return acc


def values(terms, F: GF, points) -> list[int]:
    """f(x) = sum of g^j x^e over (j, e) in terms, g the primitive element,
    at every x in points."""
    consts = [(F.pow(F.gen, j), e) for j, e in terms]
    return [F.total(F.mul(c, F.pow(x, e)) for c, e in consts) for x in points]


def first_rows(terms, F: GF, zero: bool = True) -> list[list[int]]:
    """Generator rows of C(f), f given by `values`' terms: Tr(b f(x)) and
    then Tr(b x) for b over the power basis, x over F (0 only with zero)."""
    points = range(F.q) if zero else range(1, F.q)
    fvals = values(terms, F, points)
    rows = [[F.tr[F.mul(b, v)] for v in fvals] for b in F.basis()]
    return rows + [[F.tr[F.mul(b, x)] for x in points] for b in F.basis()]


def second_rows(ds, F: GF) -> list[list[int]]:
    """Generator rows of C_D: Tr(b d) for b over the power basis, d in D."""
    return [[F.tr[F.mul(b, d)] for d in ds] for b in F.basis()]


def defining_set(gen: str, F: GF) -> list[int]:
    """The defining set the program names `gen`, rebuilt from its definition
    in increasing index order: "skew" (one of each pair x, -x), "trace-zero"
    (z with Tr_{p^s/p}(z^(p^s+1)) = 0, s = m/2), and over GF(2^m)
    "cyclotomic" / "cyclotomic:class=2" (the nonzero cubes / non-cubes:
    over GF(2) the only scalar is 1, so a class's coset representatives are
    all its elements)."""
    nonzero = range(1, F.q)
    if gen == "skew":
        return [x for x in nonzero if x < F.neg(x)]
    if gen == "trace-zero":
        s = F.m // 2
        out = []
        for z in nonzero:
            t, power = 0, F.pow(z, F.p ** s + 1)
            for _ in range(s):
                t = F.add(t, power)
                power = F.pow(power, F.p)
            if t == 0:
                out.append(z)
        return out
    if gen in ("cyclotomic", "cyclotomic:class=2"):
        if F.p != 2:
            raise ValueError("cyclotomic sets are rebuilt over GF(2^m) only")
        cubes = {F.pow(x, 3) for x in nonzero}
        return [x for x in nonzero if (x in cubes) == (gen == "cyclotomic")]
    raise ValueError(f"unknown defining set {gen!r}")


def rank(rows, F: GF) -> int:
    """Rank by Gaussian elimination over F (rows of element indices)."""
    mat = [list(r) for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def gram(a_rows, b_rows, F: GF) -> list[list[int]]:
    """A . B^T over F."""
    out = []
    for u in a_rows:
        row = []
        for v in b_rows:
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = F.add(acc, F.mul(x, y))
            row.append(acc)
        out.append(row)
    return out


def krawtchouk(j: int, w: int, n: int, q: int) -> int:
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * comb(w, s) * comb(n - w, j - s)
        for s in range(j + 1)
    )


def macwilliams(dist: dict[int, int], n: int, q: int) -> list[int]:
    """Dual weight distribution B_0..B_n from A (exact; raises if the
    transform does not give integers)."""
    size = sum(dist.values())
    out = []
    for j in range(n + 1):
        num = sum(a * krawtchouk(j, w, n, q) for w, a in dist.items())
        if num % size:
            raise ArithmeticError(f"B_{j} = {num}/{size} is not an integer")
        out.append(num // size)
    return out


def cyclo_canonical(v, p: int) -> tuple[int, ...]:
    folded = [0] * p
    for i, c in enumerate(v):
        folded[i % p] += c
    last = folded[p - 1]
    return tuple(c - last for c in folded)


def cyclo_abs2(v, p: int) -> tuple[int, ...]:
    """z * conj(z) for z = sum v_i zeta^i, canonical."""
    out = [0] * p
    for i, a in enumerate(v):
        if a:
            for j, b in enumerate(v):
                out[(i - j) % p] += a * b
    return cyclo_canonical(out, p)


def walsh_at(fvals, F: GF, b: int) -> tuple[int, ...]:
    """sum_x zeta^(f(x) - Tr(bx)), canonical, from a truth table of ints."""
    counts = [0] * F.p
    for x, fx in enumerate(fvals):
        counts[(fx - F.tr[F.mul(b, x)]) % F.p] += 1
    return cyclo_canonical(counts, F.p)


def differential_uniformity(table, F: GF) -> int:
    best = 0
    for a in range(1, F.q):
        counts: dict[int, int] = {}
        for x in range(F.q):
            d = F.sub(table[F.add(x, a)], table[x])
            counts[d] = counts.get(d, 0) + 1
        best = max(best, max(counts.values()))
    return best


def full_coset_exponent(rng, p: int, m: int, coprime: bool = False) -> int:
    """A seeded exponent e whose p-cyclotomic coset has size m and is not
    that of 1, so that C(x^e) has dimension 2m; with `coprime`, x^e is
    also a permutation."""
    q = p ** m
    while True:
        e = rng.randrange(2, q - 1)
        if (
            (not coprime or gcd(e, q - 1) == 1)
            and coset_size(e, p, m) == m
            and all(e != p ** t % (q - 1) for t in range(m))
        ):
            return e


def coset_size(d: int, p: int, m: int) -> int:
    """Size of the p-cyclotomic coset of d modulo p^m - 1."""
    n = p ** m - 1
    d %= n
    t, e = 1, (d * p) % n
    while e != d:
        e = (e * p) % n
        t += 1
    return t
