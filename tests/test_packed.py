"""The packed-word layout: field j of a word at bits [j w, (j + 1) w).

Pack and unpack are checked against shifts and masks of the word, lane
arithmetic against arithmetic mod p on each lane, and the block rotations
of the Gray walk against a rotation of the list of fields by each vector,
all read off the word bit by bit rather than through the module under
test.  The digit masks built by doubling are checked against the byte
strings they replaced (digit_word), and the field counts against unpack
and a Counter.  The digit planes of split and the values of join are
checked against the scalar digits of algebra._digits and plain Horner.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshcodes import _packed
from walshcodes._packed import Lanes, _byte_counts, digit_steps, field_counts, gray_walk, join, lanes_of, pack, split
from walshcodes._packed import unpack
from walshcodes.algebra import _digits

WIDTHS = [1, 2, 4, 8]


def _fields(word, bits, count):
    """The count fields of bits bits of word, least significant first."""
    return [word >> j * bits & (1 << bits) - 1 for j in range(count)]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("order", ["little", "big"])
def test_pack_round_trips_with_extreme_fields(width, signed, order):
    bits = 8 * width
    low, high = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed else (0, (1 << bits) - 1)
    rng = random.Random(bits + signed)
    for values in ([], [low], [high], [low, high, 0, 1, high, low], [rng.randint(low, high) for _ in range(37)]):
        (word,) = pack([values], width, signed, order)
        assert list(unpack([word], width, len(values), signed, order)[0]) == values
        stored = values[::-1] if order == "big" else values
        assert _fields(word, bits, len(values)) == [v % (1 << bits) for v in stored]
        assert word >> bits * len(values) == 0


# every prime on both sides of a lane-width switch: 61 is the last with 8-bit
# lanes, 251 and 16381 (the last) take 16 bits, 65521 takes 32
BOUNDARY_PRIMES = (2, 3, 61, 67, 251, 16381, 16411, 65521)


def test_lanes_are_the_narrowest_width_that_holds_2p_minus_2_below_the_top_bit():
    primes = BOUNDARY_PRIMES
    assert [Lanes(p, 1).bits for p in primes] == [8, 8, 8, 16, 16, 16, 32, 32]
    # several digits share a field, spread over all of it: one bit each at p = 2
    assert [(Lanes(2, 1, m).width, Lanes(2, 1, m).bits) for m in (1, 3, 8, 9, 20)] == [
        (1, 8), (1, 2), (1, 1), (2, 1), (4, 1)
    ]
    assert [(Lanes(p, 1, m).width, Lanes(p, 1, m).bits) for p, m in ((3, 2), (3, 6), (3, 12), (13, 5))] == [
        (1, 4), (4, 5), (8, 5), (4, 6)
    ]


def test_a_layout_is_built_once_and_read_only():
    lanes = lanes_of(3, 5)
    assert lanes_of(3, 5) is lanes and lanes_of(3, 5, 2) is not lanes
    assert [getattr(lanes, a) for a in Lanes.__slots__] == [getattr(Lanes(3, 5), a) for a in Lanes.__slots__]
    with pytest.raises(AttributeError):
        lanes.fill = 0


def _lane_word(lanes, rows):
    """rows[j][i] in lane i of field j, by shifts."""
    return sum(v << j * 8 * lanes.width + i * lanes.bits for j, row in enumerate(rows) for i, v in enumerate(row))


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
@pytest.mark.parametrize("digits", [1, 3])
def test_lane_arithmetic_is_arithmetic_mod_p_in_every_lane(p, digits):
    lanes = Lanes(p, 6, digits)
    rng = random.Random(p * digits)
    edge = [0, 1, p - 1, p - 1, 0, p // 2]  # every sum and difference class at the edges
    for trial in range(6):
        a = [[rng.randrange(p) for _ in range(digits)] for _ in range(6)]
        b = [[rng.randrange(p) for _ in range(digits)] for _ in range(6)]
        if trial == 0:
            a, b = [[v] * digits for v in edge], [[v] * digits for v in reversed(edge)]
        wa, wb = _lane_word(lanes, a), _lane_word(lanes, b)

        def lanewise(op, *rows):
            """The word of op mod p in every lane, so no bit outside a lane is set."""
            return _lane_word(lanes, [[op(*vs) % p for vs in zip(*fields)] for fields in zip(*rows)])

        assert lanes.add(wa, wb) == lanewise(lambda x, y: x + y, a, b)
        assert lanes.sub(wa, wb) == lanewise(lambda x, y: x - y, a, b)
        assert lanes.sub(0, wa) == lanewise(lambda x: -x, a)
        for c in {1, 2 % p or 1, p - 1, rng.randrange(1, p)}:
            assert lanes.times(wa, c) == lanewise(lambda x: c * x, a), c


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("width", [1, 2])
def test_gray_walk_rotates_the_fields_by_every_nonzero_vector_once(p, width):
    """Walked beside a word whose field x holds x, whose field 0 then holds
    the vector a of the step, every step holds field x + a at x, digit by
    digit mod p, and the a run over every nonzero vector exactly once."""
    rng = random.Random(p + width)
    for m in range(1, 4):
        q = p ** m
        values = [rng.randrange(1 << 8 * width) for _ in range(q)]
        words = pack([range(q), values], width)
        seen = []
        for index, moved in zip(gray_walk(words[0], width, p, m), gray_walk(words[1], width, p, m)):
            a = _fields(index, 8 * width, 1)[0]
            seen.append(a)
            plus_a = [sum((x // p ** i + a // p ** i) % p * p ** i for i in range(m)) for x in range(q)]
            assert _fields(index, 8 * width, q) == plus_a, (m, a)
            assert _fields(moved, 8 * width, q) == [values[y] for y in plus_a], (m, a)
        assert sorted(seen) == list(range(1, q)), m


def digit_word(field, p, stride, count):
    """``field`` in every field whose index has base-p digit 0 at weight
    ``stride``, zero in the others: one byte string and one int.from_bytes."""
    run = field * stride
    return int.from_bytes((run + bytes(len(run) * (p - 1))) * (count // (p * stride)), "little")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_steps_are_the_digit_words_from_the_top_digit_down(width, p):
    for m in range(1, 5 if p < 7 else 4):
        q = p ** m
        want = [(8 * width * p ** i, digit_word(b"\xff" * width, p, p ** i, q)) for i in reversed(range(m))]
        assert list(digit_steps(width, p, m, m)) == want, m
        for top in range(m + 1):  # started at a lower digit, as the transform does where it widens
            assert list(digit_steps(width, p, m, top)) == want[m - top :], (m, top)
        # the oracle itself, read bit by bit: all ones where digit i is 0
        ones = (1 << 8 * width) - 1
        for i, (_, mask) in zip(reversed(range(m)), want):
            assert _fields(mask, 8 * width, q) == [ones * (x // p ** i % p == 0) for x in range(q)]


@pytest.mark.parametrize("width,p,m", [(1, 2, 12), (1, 2, 13), (2, 3, 7), (4, 3, 6), (8, 5, 3), (8, 5, 4)])
def test_kept_digit_steps_are_the_fresh_ones_on_both_sides_of_the_keep_rule(width, p, m):
    """The passes read digit_steps through _steps: masks of at most
    KEEP_BYTES are kept and read again, larger ones built on each call."""
    kept = width * p ** m <= _packed.KEEP_BYTES
    for top in range(m + 1):
        fresh = list(digit_steps(width, p, m, top))
        for _ in range(2):  # built, then read again
            assert list(_packed._steps(width, p, m, top)) == fresh, top
        assert isinstance(_packed._steps(width, p, m, top), tuple) == kept  # a kept tuple, else a generator


@pytest.mark.parametrize("width", [1, 2])
def test_field_counts_are_the_counts_of_the_unpacked_fields(width):
    rng = random.Random(width)
    top = (1 << 8 * width) - 1
    # low bytes of 16 values and high bytes of 16 give 256 two-byte values,
    # each numbered by one byte; with 17 high bytes they are past 256
    planes = [[17 * lo | 15 * hi + 3 << 8 for lo in range(16) for hi in range(n)] for n in (16, 17)]
    for count in (1, 2, 255, 256, 1000, 4099):
        for values in ([top] * count, [rng.choice([0, 1, 127, 128, top]) for _ in range(count)],
                       [rng.randrange(top + 1) for _ in range(count)],
                       *([rng.choice(pairs) & top for _ in range(count)] for pairs in planes)):
            (word,) = pack([values], width)
            want = Counter(unpack([word], width, count)[0])
            assert field_counts(word, width, count) == want == Counter(values)


@pytest.mark.parametrize("width", [1, 2])
def test_field_counts_of_a_single_value(width):
    """Every field holds one value, the 0 word included: its count is the
    number of fields."""
    for value in (0, 1, (1 << 8 * width) - 1):
        for count in (1, 3, 4099):
            (word,) = pack([[value] * count], width)
            assert field_counts(word, width, count) == {value: count}


def test_the_last_distinct_byte_takes_no_count_pass():
    passes = []

    class CountedBytes(bytes):
        def count(self, v):
            passes.append(v)
            return super().count(v)

    assert _byte_counts(CountedBytes(bytes([7]) * 300)) == {7: 300} and passes == []
    assert _byte_counts(CountedBytes(bytes([7]) * 300 + bytes([9]) * 5)) == {7: 300, 9: 5} and passes == [7]


# -- base-radix digits --------------------------------------------------------------

# each route of split: values below 256 by translate (radix^count <= 256),
# radix 2^s <= 256 by shifts of byte planes, digits across two bytes among
# them (s = 3, 5), and odd radices, and radices past a byte, by reciprocal
# multiplication
RADICES = [2, 3, 4, 8, 9, 25, 32, 49, 251, 257, 1009]


@st.composite
def digit_cases(draw):
    """(radix, count, values): values below 256 or below 2^20, and below
    radix^count <= 2^30, with count no more digits than that allows."""
    radix = draw(st.sampled_from(RADICES))
    count = draw(st.integers(1, max(c for c in range(1, 31) if radix ** c <= 2 ** 30)))
    top = min(radix ** count, draw(st.sampled_from([256, 2 ** 20])))
    return radix, count, draw(st.lists(st.integers(0, top - 1), max_size=40))


@settings(max_examples=300, deadline=None)
@given(digit_cases())
def test_split_gives_the_scalar_digits(case):
    radix, count, values = case
    planes = split(values, radix, count)
    assert len(planes) == count
    for t, plane in enumerate(planes):
        assert isinstance(plane, bytes) == (radix <= 256)
        assert list(plane) == [_digits(v, radix, count)[t] for v in values]


@settings(max_examples=300, deadline=None)
@given(digit_cases(), st.data())
def test_join_is_horner_and_undoes_split(case, data):
    radix, count, values = case
    joined = join(split(values, radix, count), radix)
    assert isinstance(joined, bytes) == (radix ** count <= 256)
    assert list(joined) == values
    digit = st.integers(0, radix - 1)
    planes = [data.draw(st.lists(digit, min_size=len(values), max_size=len(values))) for _ in range(count)]
    horner = [0] * len(values)
    for plane in reversed(planes):
        horner = [h * radix + d for h, d in zip(horner, plane)]
    assert list(join(planes, radix)) == horner
    if radix <= 256:  # byte planes, as split gives them, join to the same values
        assert list(join([bytes(plane) for plane in planes], radix)) == horner
