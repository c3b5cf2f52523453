"""Packed words: ints read as rows of fixed-width fields.

Field j of a word is bits [j w, (j + 1) w), counted from the least
significant end, for fields of ``width`` bytes, 1, 2, 4 or 8, w = 8 width;
a row of fields converts to and from an int through an array in one call,
and a whole-int shift, mask or addition acts on every field at once.  The
elimination adds rows mod p (Lanes), both Walsh-Hadamard transforms run
their butterfly passes on whole layers (transform), and differential
uniformity moves f(x) to f(x + a) by rotating blocks of fields
(gray_walk).  This is the packed-row idea of M4RI (Albrecht and Bard),
extended to lanes mod p.

The transform has one width rule and one p rule (see transform), and may
run the passes of the low digits alone, for a caller that counts the fields.

Base-p digits are laid out here alone: split gives the digit planes of a
sequence, and join the values of digit planes.

The keep rule (_keep): a bias word (_bias) or digit mask set (_steps) of
at most KEEP_BYTES is kept once built, the 64 most recent of each kind.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# (bytes per field, signed) -> the array typecode of that size; the sizes of
# 'I' and 'L' vary by platform, so they are read, not assumed
TYPECODES = {(array(t).itemsize, t.islower()): t for t in "BHILQbhilq"}


def field_width(bits: int) -> int:
    """The fewest bytes, 1, 2, 4 or 8, of a field of ``bits`` bits."""
    width = 1 << ((bits - 1) >> 3).bit_length()
    if width > 8:
        raise OverflowError(f"{bits}-bit values do not fit a packed field")
    return width


def _little(fields: array, order: str) -> array:
    """``fields`` in little-endian bytes, first reversed if order is "big"."""
    if order == "big":
        fields.reverse()
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def pack(rows: Iterable[Sequence[int]], width: int, signed: bool = False, order: str = "little") -> list[int]:
    """One int per row, whose field j is ``row[j]``, in two's complement if
    signed; with order "big", ``row[0]`` is the most significant field.  A
    row may be bytes, one entry a byte."""
    if width == 1 and not signed:
        return [int.from_bytes(row, order) for row in rows]
    code = TYPECODES[width, signed]
    # iter: an array initialised from bytes would take them as its buffer (a list is read faster as it is)
    rows = (iter(row) if isinstance(row, (bytes, bytearray)) else row for row in rows)
    return [int.from_bytes(_little(array(code, row), order), "little") for row in rows]


def unpack(words: Iterable[int], width: int, count: int, signed: bool = False, order: str = "little") -> list:
    """The ``count`` fields of each word, the inverse of :func:`pack`: bytes
    for unsigned one-byte fields, lists otherwise."""
    if width == 1 and not signed:
        return [word.to_bytes(count, order) for word in words]
    code = TYPECODES[width, signed]
    return [_little(array(code, word.to_bytes(count * width, "little")), order).tolist() for word in words]


def field_counts(word: int, width: int, count: int) -> dict[int, int]:
    """The number of the ``count`` unsigned fields of ``word`` that hold
    each value, read without a list of ints: by bytes.count for one-byte
    fields (see _byte_counts).  Two-byte fields whose low and high bytes
    take a and b distinct values, a b <= 256, are first numbered, each
    field becoming the one byte (number of its high byte) a + (number of
    its low byte): the two byte planes, numbered by translate, are combined
    as ints, and no byte carries into the next.  Wider fields, and two-byte
    fields with more distinct bytes, are counted by a Counter over an
    array."""
    data = word.to_bytes(count * width, "little")
    if width == 1:
        return _byte_counts(data)
    if width == 2:
        low, high = data[0::2], data[1::2]
        lows, highs = _byte_values(low), _byte_values(high)
        a = len(lows)
        if a * len(highs) <= 256:
            numbered = int.from_bytes(high.translate(_numbering(highs)), "little") * a + int.from_bytes(
                low.translate(_numbering(lows)), "little"
            )
            counts = _byte_counts(numbered.to_bytes(count, "little"))
            return {highs[c // a] << 8 | lows[c % a]: n for c, n in counts.items()}
    return Counter(_little(array(TYPECODES[width, False], data), "little"))


def _byte_counts(data: bytes) -> dict[int, int]:
    """{byte: its count in data}, in increasing byte order: one bytes.count
    pass for each distinct byte but the last, whose count is what the
    others leave of len(data)."""
    values = _byte_values(data)
    counts = {v: data.count(v) for v in values[:-1]}
    for v in values[-1:]:
        counts[v] = len(data) - sum(counts.values())
    return counts


_BYTES = bytes(range(256))


def _byte_values(data: bytes) -> bytes:
    """The distinct bytes of ``data``, in increasing order, found at C speed:
    deleting them from all 256 bytes leaves the absent ones."""
    return _BYTES.translate(None, _BYTES.translate(None, data))


def _numbering(values: bytes) -> bytearray:
    """The translate table that maps values[i] to i."""
    table = bytearray(256)
    for i, v in enumerate(values):
        table[v] = i
    return table


# -- base-radix digits ------------------------------------------------------------


def split(values: Sequence[int], radix: int, count: int) -> list:
    """The ``count`` base-``radix`` digit planes of values below radix^count,
    plane t holding digit t of every value: bytes while radix <= 256, else
    tuples.  Values below 256 take one translate a plane; at radix 2^s <= 256
    a plane is a shift and a mask (two where a digit spans two bytes) of a
    byte plane of the values.  Otherwise the values lie in fields that hold
    their products with M = ceil(2^(N + l) / radix), for values below 2^N
    and 2^l >= radix, and a product shifted down by N + l is the quotient by
    radix (Granlund and Montgomery, PLDI 1994): a digit is one whole-int
    multiplication, shift, mask and subtraction."""
    n = len(values)
    if radix ** count <= 256:
        data = bytes(values)
        return [data.translate(_digit_table(radix, t)) for t in range(count)]
    if radix <= 256 and not radix & radix - 1:
        s = radix.bit_length() - 1
        width = max(4, field_width(s * count))  # an array fills fastest at 4 bytes an entry or more
        raw = pack([values], width)[0].to_bytes(width * n, "little")
        planes = [int.from_bytes(raw[b::width], "little") for b in range((s * count + 7) // 8)]
        ones, out = int.from_bytes(b"\1" * n, "little"), []
        for b, o in (divmod(s * t, 8) for t in range(count)):
            word = planes[b] >> o
            if o + s > 8:
                word = word & ones * (0xFF >> o) | (planes[b + 1] & ones * ((1 << o + s - 8) - 1)) << 8 - o
            out.append((word & ones * (radix - 1)).to_bytes(n, "little"))
        return out
    bits = (radix ** count - 1).bit_length()
    shift = bits + (radix - 1).bit_length()
    magic = -((-1 << shift) // radix)
    width = field_width(bits + magic.bit_length())
    low = int.from_bytes(((1 << 8 * width - shift) - 1).to_bytes(width, "little") * n, "little")
    word, out = pack([values], width)[0], []
    for _ in range(count):
        quotient = word * magic >> shift & low
        rest = word - radix * quotient
        out.append(rest.to_bytes(width * n, "little")[::width] if radix <= 256 else tuple(unpack([rest], width, n)[0]))
        word = quotient
    return out


def join(planes: Sequence[Sequence[int]], radix: int) -> Sequence[int]:
    """The values sum_t radix^t planes[t], the inverse of split: bytes while
    they are below 256 (radix^len(planes) <= 256), else a list.  The planes
    are laid into fields that hold the values, and Horner's rule runs on
    whole ints, one multiplication and one addition a plane."""
    n, word = len(planes[0]), 0
    width = field_width(max(1, (radix ** len(planes) - 1).bit_length()))
    for plane in reversed(planes):
        bytewise = isinstance(plane, (bytes, bytearray))
        plane = int.from_bytes(_spread(plane, 1, width, n, False), "little") if bytewise else pack([plane], width)[0]
        word = word * radix + plane
    return unpack([word], width, n)[0]


@lru_cache(maxsize=64)
def _digit_table(radix: int, t: int) -> bytes:
    """The translate table that maps each byte to its digit t in base radix."""
    return bytes(v // radix ** t % radix for v in range(256))


def bias_word(width: int, count: int) -> int:
    """2^(w - 1), the top bit, in each of ``count`` fields."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def digit_steps(width: int, p: int, m: int, top: int) -> Iterator[tuple[int, int]]:
    """(t, mask) for each digit i of the index of p^m fields, from i = top - 1
    down to 0: t the bit offset of p^i fields, mask the fields of digit i 0.

    rep holds a 1 at the first bit of every block of p^(i+1) fields, so the
    mask is (rep << t) - rep, and the rep of digit i - 1 is p copies of it,
    each one block of p^i fields further on: a few shifts and ORs of whole
    ints per digit, with no field written one by one."""
    rep = int.from_bytes((b"\1" + bytes(width * p ** top - 1)) * p ** (m - top), "little")
    for i in reversed(range(top)):
        t = 8 * width * p ** i
        yield t, (rep << t) - rep
        if i:
            copies = rep
            for k in range(1, p):
                copies |= rep << k * t
            rep = copies  # one rep, not two, held between the steps


def input_words(values: bytes, p: int) -> list[int]:
    """The input words of transform for values in [0, p) a byte each, one
    translate a word: at p = 2 (-1)^value, at odd p the p one-hot planes.
    Any other byte, such as an absent point's marker, reads 0 in each."""
    tables = [b"\1\xff".ljust(256, b"\0")] if p == 2 else map(unit_table, range(p))
    return [int.from_bytes(values.translate(table), "little") for table in tables]


def unit_table(j: int) -> bytes:
    """The translate table that maps byte j to 1 and every other to 0."""
    return bytes(j) + b"\1" + bytes(255 - j)


# -- lanes mod p ------------------------------------------------------------------


class Lanes:
    """Values mod p in lanes: n fields of ``width`` bytes, each holding
    ``digits`` lanes of ``bits`` bits, lane i of field j at bit j w + i bits.

    A lane needs the fewest bits that hold 2p - 2 below its top bit (one at
    p = 2), a field the fewest bytes that hold its lanes, which spread over
    all of it.  Lanes are kept in [0, p), so a sum of two words has lanes
    below 2p - 1, which carry into no neighbour; adding 2^(bits - 1) - p
    sets the top bit of exactly the lanes holding p or more, and those bits,
    shifted down to bit 0 of their lanes, times p, are what to subtract.
    At p = 2 the sum and the difference of two words are their XOR.
    A layout never changes once built, so lanes_of shares it."""

    __slots__ = ("p", "n", "width", "bits", "fill", "top", "lift")

    def __init__(self, p: int, n: int, digits: int = 1):
        width = field_width(digits * (1 if p == 2 else (2 * p - 2).bit_length() + 1))
        bits = 8 * width // digits
        fill = top = 0  # unused at p = 2
        if p > 2:
            ones = ((1 << digits * bits) - 1) // ((1 << bits) - 1)  # 1 in each lane of a field
            ones = int.from_bytes(ones.to_bytes(width, "little") * n, "little")
            fill, top = p * ones, ones << bits - 1  # p, the top bit, in every lane
        for name, value in zip(self.__slots__, (p, n, width, bits, fill, top, top - fill)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a Lanes layout is read-only")

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        s = a + b
        return s - ((s + self.lift & self.top) >> self.bits - 1) * self.p

    def sub(self, a: int, b: int) -> int:
        """a + (p - b), whose lanes below 2p add still reduces."""
        return a ^ b if self.p == 2 else self.add(a, self.fill - b)

    def times(self, word: int, c: int) -> int:
        """c * word for 0 < c < p, by doubling and adding."""
        acc = None
        while True:
            if c & 1:
                acc = word if acc is None else self.add(acc, word)
            c >>= 1
            if not c:
                return acc
            word = self.add(word, word)


@lru_cache(maxsize=64)
def lanes_of(p: int, n: int, digits: int = 1) -> Lanes:
    """Lanes(p, n, digits), built once per layout while it is among the 64
    most recently used."""
    return Lanes(p, n, digits)


# -- moving fields by their index -------------------------------------------------


def gray_walk(word: int, width: int, p: int, m: int) -> Iterator[int]:
    """For each nonzero a in modular p-ary Gray order, the word whose field
    x is field x + a of ``word``, for p^m fields indexed by F_p-vectors.
    Step k adds 1 to digit j = v_p(k) of a, which rotates the p blocks of
    digit j: blocks 1 to p - 1 move down one block, under the mask of the
    fields whose digit j is below p - 1, and block 0 up to block p - 1 (at
    p = 2 they swap).  Digit i of a is then k_i - k_(i+1) mod p for the
    digits k_i of k, so the walk reaches every nonzero a once."""
    full = (1 << 8 * width * p ** m) - 1
    steps = [(t, full ^ zero << (p - 1) * t, zero, (p - 1) * t) for t, zero in _steps(width, p, m, m)][::-1]
    digits: list[int] = []  # v_p(k) for k = 1, ..., p^m - 1
    for j in range(m):
        digits = (digits + [j]) * (p - 1) + digits
    for j in digits:
        t, low, zero, up = steps[j]
        word = (word >> t) & low | (word & zero) << up
        yield word


# -- the p-ary fast Walsh-Hadamard transform ---------------------------------------


def _spread(data: bytes, width: int, wider: int, count: int, signed: bool) -> bytearray:
    """The ``count`` fields of ``data`` widened from ``width`` to ``wider``
    bytes, byte b of every field moved by one strided slice: zero-extended,
    or if signed (v + B in a field of B = 2^(8 width - 1), as the passes at
    p = 2 keep them), sign-extended and re-biased to v + 2^(8 wider - 1),
    each new byte a translate of the old top byte."""
    spread = bytearray(count * wider)
    for b in range(width - signed):
        spread[b::wider] = data[b::width]
    if signed:
        top = data[width - 1 :: width]
        spread[width - 1 :: wider] = top.translate(_FLIP)
        for b in range(width, wider - 1):
            spread[b::wider] = top.translate(_SIGN)
        spread[wider - 1 :: wider] = top.translate(_TOP)
    return spread


def _widen(words: list[int], width: int, wider: int, count: int, signed: bool) -> list[int]:
    """The ``count`` fields of each word widened (see _spread)."""
    return [
        int.from_bytes(_spread(word.to_bytes(count * width, "little"), width, wider, count, signed), "little")
        for word in words
    ]


# for the top byte x of a field holding v + B: x ^ 0x80, the top byte of v
# itself; 0xFF where v < 0, else 0; and the top byte of v + B in a wider field
_FLIP = bytes(x ^ 0x80 for x in range(256))
_SIGN = bytes(0xFF * (x < 0x80) for x in range(256))
_TOP = bytes(0x7F if x < 0x80 else 0x80 for x in range(256))

# the compact passes run from this characteristic up.  Against the strided
# passes (interleaved timeit, medians of nine, 2-vCPU host, Python 3.11) they
# took at p = 5 0.68-0.93 times the time on one-hot planes, GF(5^2) to
# GF(5^5), and 0.80-0.82 times on the count words of the column transforms of
# codes over GF(5^2) (m = 4); at p = 3 0.94-1.17 times on planes, GF(3^3) to
# GF(3^7), above 1 from GF(3^5) up, and 1.15 times on count words at m = 6
COMPACT_FROM = 5


def transform(
    words: list[int], width: int, p: int, m: int, bound: int, mass: int, digits: int | None = None
) -> list[int]:
    """F(u) = sum over v of N(v) zeta^(-<v, u>) for N in Z[zeta_p] on p^m
    vectors, as its p - 1 canonical layers F_e - F_{p-1}, e < p - 1, in
    two's complement fields of ``width`` bytes (at p = 2 the one layer
    F_0 - F_1), for a ``width`` that holds ``mass`` and a sign bit.

    With ``digits`` below m, only the low ``digits`` of the m index digits
    are transformed: each block of p^digits fields on its own, ``mass``
    bounding the fields of one block.  The strided passes leave the fields
    in place; a partial run of the compact passes leaves them in rotated
    order (the transformed digits on top, see _compact_passes), so only a
    caller that counts the fields may read a partial transform at p >=
    COMPACT_FROM.

    N is given at odd p as p words of unsigned fields, ``words[e]`` holding
    the coefficient of zeta^e, and at p = 2 as the one word of N in two's
    complement.  Every field is at most ``bound`` in absolute value, and
    together they are at most ``mass``; the input fields take the fewest
    bytes that hold the bound, and a sign bit at p = 2.

    The width rule: pass k runs at the fewest bytes that hold min(mass,
    bound p^k), and a sign bit at p = 2, which bounds its outputs, since
    each sums p^k input fields, of distinct inputs.  The words are widened
    only when that bound outgrows their fields (see _spread), and at the
    end to ``width``.

    The p rule: the passes are strided (_strided_passes) below p =
    COMPACT_FROM = 5 and compact (_compact_passes) from there up, chosen
    from p alone.  Both give the same words.

    The canonical layers are formed on the packed output, F_e + B - F_{p-1}
    being in [0, 2B) and XOR with B turning it into two's complement."""
    q, signed, reach = p ** m, p == 2, bound
    w = wide = field_width(max(bound, 1).bit_length() + signed)
    widths = []  # the width of each pass
    for _ in range(m if digits is None else digits):
        reach = min(mass, reach * p)
        if wide < width and reach >> 8 * wide - signed:
            wide = field_width(reach.bit_length() + signed)
        widths.append(wide)
    if signed:
        words = [words[0] ^ _bias(w, q)]
    words, w = (_compact_passes if p >= COMPACT_FROM else _strided_passes)(words, w, widths, p, m)
    if width > w:
        words = _widen(words, w, width, q, signed)
    bias = _bias(width, q)
    if signed:
        return [words[0] ^ bias]
    *words, last = words
    return [(word + bias - last) ^ bias for word in words]


def transform_bytes(p: int, m: int, bound: int, mass: int, width: int, digits: int | None = None) -> int:
    """An upper bound on the bytes transform(words, width, p, m, bound, mass,
    digits) holds at once, in layers of p^m fields, an int taking 16 bytes
    for 15 of its value: the input at its width (p layers, 1 at p = 2), the
    kept masks, the p^2 slices joining a compact pass's digits at 121
    bytes each beside their data (a bytes header of 33, a list slot of 8
    and the Py_buffer of 80 that bytes.join takes of each), and the most of the end, at ``width`` (the words, their widened
    or canonical copies and 3 layers being made: 2p + 3), and of the last
    pass, the widest by the width rule.  A compact pass holds the state,
    its blocks, their doubled copies and the output digits (5p), the digit
    being summed and the block read (7); a strided one at odd p the p^2
    blocks, the words before and after (2p), the digit being summed (4) and
    the masks (3); at p = 2 the word, d, the masked word, its sum, shifted
    difference, their OR, the bias and 2 masks (9)."""
    n, q, signed, d = (1 if p == 2 else p), p ** m, p == 2, m if digits is None else digits
    w = field_width(max(bound, 1).bit_length() + signed)
    last = field_width(min(mass, bound * p ** d).bit_length() + signed) if d else 0
    layers = 5 * p + 7 if p >= COMPACT_FROM else p * p + 2 * p + 7 if p > 2 else 9
    return (n * q * w + max(layers * last, (2 * n + 3) * width) * q + 121 * p * p) * 16 // 15 + d * KEEP_BYTES


def _strided_passes(words: list[int], w: int, widths: list[int], p: int, m: int) -> tuple[list[int], int]:
    """The passes of transform, at ``w`` bytes a field and widened to
    widths[k] before pass k, one digit of the index each, from digit
    len(widths) - 1 down (the passes commute); the output words and their
    width.

    At p = 2 the passes run on N + B, as transform gives it, B =
    2^(8 w - 1) in every field of w bytes: with t and M the shift and mask
    of the digit (_steps, started again where the words widen),
    lo + d and lo - d, for lo = word & M and d = ((word >> t) & M) - B per
    field, are (a + B) + (b + B) - B and (a + B) - (b + B) + B, which the
    bound keeps in [0, 2B).  At odd p block x of a layer is
    (layer >> x t) & M, and output digit u of layer e is the sum over x of
    block x of layer e + u x, shifted up by u t: p^2 extractions and
    p^2 (p - 1) additions of words of p^m fields, all but a p-th of them
    zero."""
    q, signed = p ** m, p == 2
    bias = _bias(w, q) if signed else 0
    steps = iter(_steps(w, p, m, len(widths)))
    for i, wider in zip(reversed(range(len(widths))), widths):
        if wider > w:
            words, w = _widen(words, w, wider, q, signed), wider
            bias = _bias(w, q) if signed else 0
            steps = iter(_steps(w, p, m, i + 1))
        t, mask = next(steps)
        if signed:
            word = words[0]
            d = ((word >> t) & mask) - (bias & mask)
            word &= mask
            words[0] = (word + d) | ((word - d) << t)
        else:
            blocks = [[(word >> x * t) & mask for x in range(p)] for word in words]
            words = []
            for e in range(p):
                word = 0
                for u in range(p):
                    acc = blocks[e][0]
                    for x in range(1, p):
                        acc += blocks[(e + u * x) % p][x]
                    word |= acc << u * t
                words.append(word)
            del blocks  # not held while the next pass's are built
    return words, w


def _compact_passes(words: list[int], w: int, widths: list[int], p: int, m: int) -> tuple[list[int], int]:
    """The passes of transform at odd p, as _strided_passes, on one byte
    string of the p layers: layer e holds fields e q to (e + 1) q - 1,
    q = p^m, and field v of a layer is the one of vector v.

    Each pass reads the lowest digit of the index and writes its output
    digit on top, so that after m passes every digit is back in place
    (Stockham order), and after j < m passes the j low digits are
    transformed and sit on top of the others.  Block x, the fields whose
    lowest digit is x, is one strided slice of the fields (w slices of bytes
    at w bytes a field): p layers of q/p fields.  Output digit u of layer e is the sum over x of
    layer e + u x of block x.  Each block is read as an int and doubled,
    so that its layers turned by s are one right shift of it, and each
    output digit is p additions of whole blocks, p^2 in all, of q fields
    each, with one mask at the end: a field of the turned blocks carries
    into none above it, and what lies above the q fields is dropped.  The
    p layers of each digit are then laid on top of the others', one slice
    each."""
    q = p ** m
    state = b"".join(word.to_bytes(q * w, "little") for word in words)
    for wider in widths:
        if wider > w:
            state, w = _spread(state, w, wider, p * q, False), wider
        size = q * w  # the bytes of a block, and of a layer of the state
        part, bits = size // p, 8 * size  # a layer of a block; the bits of a block
        blocks = []
        for x in range(p):
            if w == 1:
                block = state[x::p]
            else:
                block = bytearray(size)
                for b in range(w):
                    block[b::w] = state[x * w + b :: p * w]
            blocks.append(int.from_bytes(block, "little"))
        doubled = [block | block << bits for block in blocks]
        turns = [8 * part * s for s in range(p)]
        digits = [sum(blocks)]
        for u in range(1, p):
            acc = blocks[0]
            for x in range(1, p):
                acc += doubled[x] >> turns[u * x % p]
            digits.append(acc & (1 << bits) - 1)
        del blocks, doubled  # not held while the digits are joined
        digits = [digit.to_bytes(size, "little") for digit in digits]
        state = b"".join([digit[e : e + part] for e in range(0, size, part) for digit in digits])
    return [int.from_bytes(state[e : e + q * w], "little") for e in range(0, p * q * w, q * w)], w


KEEP_BYTES = 4096  # the keep rule: a bias word or digit mask of at most this many bytes is kept


def _keep(size, fresh, kept):
    """fresh(*key), or under the keep rule, while size(*key) <= KEEP_BYTES,
    kept(*key), of which the 64 most recent are kept."""
    kept = lru_cache(maxsize=64)(kept)
    return lambda *key: (kept if size(*key) <= KEEP_BYTES else fresh)(*key)


_bias = _keep(lambda width, count: width * count, bias_word, bias_word)
_steps = _keep(lambda width, p, m, top: width * p ** m, digit_steps, lambda *key: tuple(digit_steps(*key)))
