"""Hand-checkable values for the benchmark's reference arithmetic.

Run with `python -m pytest perfbench`.
"""

import refmath

# x^2 + x + 1 over GF(2): elements 0, 1, x = 2, x + 1 = 3
GF4 = refmath.GF(2, (1, 1, 1))


def test_least_irreducible():
    assert refmath.least_irreducible(2, 2) == (1, 1, 1)
    assert refmath.least_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert refmath.least_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert refmath.least_irreducible(5, 1) == (0, 1)


def test_gf4_arithmetic_and_trace():
    assert GF4.mul(2, 2) == 3  # x * x = x + 1
    assert GF4.mul(2, 3) == 1  # x (x + 1) = x^2 + x = 1
    assert GF4.add(2, 3) == 1
    assert GF4.inv(2) == 3
    assert GF4.pow(3, 3) == 1
    assert GF4.tr == [0, 0, 1, 1]  # Tr(x) = x + x^2 = 1


def test_gf9_negation_and_trace():
    F = refmath.GF(3, (1, 0, 1))  # x^2 = -1
    assert F.neg(1) == 2 and F.neg(3) == 6  # -x = 2x
    assert F.mul(3, 3) == 2  # x * x = -1
    assert F.tr[1] == 2  # Tr(1) = 1 + 1
    assert F.tr[3] == 0  # Tr(x) = x + x^3 = x - x


def test_rank():
    assert refmath.rank([[1, 0, 1], [0, 1, 1], [1, 1, 0]], refmath.field(2, 1)) == 2
    assert refmath.rank([[1, 2], [2, 1]], refmath.field(3, 1)) == 1
    assert refmath.rank([], refmath.field(3, 1)) == 0


def test_gram():
    P = refmath.field(3, 1)
    assert refmath.gram([[1, 1, 1]], [[1, 1, 1], [1, 2, 0]], P) == [[0, 0]]


def test_hamming_macwilliams():
    hamming = {0: 1, 3: 7, 4: 7, 7: 1}
    assert refmath.macwilliams(hamming, 7, 2) == [1, 0, 0, 0, 7, 0, 0, 0]
    # and back: the simplex code's dual is the Hamming code
    assert refmath.macwilliams({0: 1, 4: 7}, 7, 2) == [1, 0, 0, 7, 7, 0, 0, 1]


def test_krawtchouk():
    # K_1(w) = (q - 1) n - q w
    assert refmath.krawtchouk(1, 3, 7, 2) == 1
    assert refmath.krawtchouk(1, 2, 5, 3) == 4
    assert refmath.krawtchouk(0, 4, 9, 5) == 1


def test_cyclotomic_abs2():
    # |1 + zeta_3|^2 = 2 + zeta + zeta^2 = 1
    assert refmath.cyclo_abs2([1, 1, 0], 3) == (1, 0, 0)
    assert refmath.cyclo_canonical([0, 0, 1], 3) == (-1, -1, 0)


def test_walsh_and_differential_uniformity():
    F = refmath.field(2, 3)
    cube = [F.pow(x, 3) for x in range(F.q)]
    assert refmath.differential_uniformity(cube, F) == 2  # x^3 is APN
    ident = list(range(F.q))
    assert refmath.differential_uniformity(ident, F) == F.q  # linear
    zero = [0] * F.q
    assert refmath.walsh_at(zero, F, 0) == (8, 0)
    assert refmath.walsh_at(zero, F, 1) == (0, 0)


def test_code_rows():
    # f(x) = x over GF(4): both halves of C(f) are the rows Tr(b x), b = 1, x
    assert refmath.first_rows([(0, 1)], GF4) == [[0, 0, 1, 1], [0, 1, 1, 0]] * 2
    assert refmath.first_rows([(0, 1)], GF4, zero=False) == [[0, 1, 1], [1, 1, 0]] * 2
    assert refmath.second_rows([1, 2], GF4) == [[0, 1], [1, 1]]
    assert refmath.values([(0, 1), (1, 0)], GF4, range(4)) == [2, 3, 0, 1]  # x + g


def test_defining_sets():
    F = refmath.GF(3, (1, 0, 1))
    assert refmath.defining_set("skew", F) == [1, 3, 4, 5]  # 1, x, 1 + x, 2 + x
    assert refmath.defining_set("cyclotomic", GF4) == [1]  # every nonzero cube is 1
    assert refmath.defining_set("cyclotomic:class=2", GF4) == [2, 3]
    # GF(16): z^5 lies in GF(4), whose trace to GF(2) vanishes on 0 and 1 only
    F16 = refmath.field(2, 4)
    assert refmath.defining_set("trace-zero", F16) == [z for z in range(1, 16) if F16.pow(z, 5) == 1]
    assert len(refmath.defining_set("trace-zero", F16)) == 5


def test_coset_size():
    assert refmath.coset_size(1, 2, 4) == 4
    assert refmath.coset_size(5, 2, 4) == 2  # {5, 10}
    assert refmath.coset_size(0, 3, 2) == 1
