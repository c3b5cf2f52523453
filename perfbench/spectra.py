"""Workload `spectra`: parse a function, take its Walsh spectrum, classify it.

Every round holds the same fifteen slots and the seed only picks
coefficients, exponents and linear terms inside each slot.  Whether a
slot's function is bent is fixed by theory, not by the seed, so the share
of cheap NOT_BENT early exits in `classify_bent` is the same for every
seed.  GF(3^5) has two slots and GF(2^9) four, so that the median job
falls in the middle of the six GF(2^8) and GF(7^3) jobs of similar cost
rather than at the edge of a cluster.
"""

from __future__ import annotations

from math import gcd

import refmath

FIELDS = [(5, 3), (3, 5), (2, 8), (7, 3), (2, 9)]
CHECKED_POINTS = 3  # seeded b values recomputed per job, besides b = 0


def _unit_exp(rng, q: int) -> int:
    return rng.randrange(1, q - 1)


def _perm_exp(rng, p: int, m: int) -> int:
    """Exponent of a permutation monomial that is not a power of p."""
    q = p ** m
    while True:
        d = rng.randrange(q // 4, q - 1)
        if gcd(d, q - 1) == 1 and refmath.coset_size(d, p, m) == m and d % p:
            return d


def _job(p, m, terms, spec, expect, rng):
    q = p ** m
    bs = [rng.randrange(1, q) for _ in range(CHECKED_POINTS)]
    return {"field": [p, m], "spec": spec, "terms": terms, "expect": expect, "bs": bs}


def _linear(rng, q: int):
    k = _unit_exp(rng, q)
    return [(k, 1)], f"+tr(g^{k}*x)"


def make_jobs(rng) -> list[dict]:
    jobs = []

    def add(p, m, terms, spec, expect):
        # every slot carries a linear term, which keeps bentness and puts
        # the same two trace evaluations per point into every parse
        lin, lin_spec = _linear(rng, p ** m)
        jobs.append(_job(p, m, terms + lin, spec + lin_spec, expect, rng))

    for p, m in FIELDS:
        q = p ** m
        if p > 2:
            # tr(c x^2) is bent for every c != 0 in odd characteristic
            j = _unit_exp(rng, q)
            add(p, m, [(j, 2)], f"tr(g^{j}*x^2)", "bent")
            j = _unit_exp(rng, q)
            if p == 3:
                # Coulter-Matthews x^((3^i+1)/2) is planar for odd i, gcd(i, m) = 1
                i = rng.choice([i for i in range(3, m, 2) if gcd(i, m) == 1])
                add(p, m, [(j, (3 ** i + 1) // 2)], f"ternary_half(g^{j},{i})", "bent")
                continue
            # x^(p^i+1) is planar exactly when m / gcd(i, m) is odd
            i = rng.choice([i for i in range(1, m) if (m // gcd(i, m)) % 2])
            add(p, m, [(j, p ** i + 1)], f"quadratic(g^{j},{i})", "bent")
        elif m % 2 == 0:
            # tr(c x^3) over GF(2^m), m even: bent exactly when c is a non-cube
            j = rng.choice([t for t in range(1, q - 1) if t % 3])
            add(p, m, [(j, 3)], f"tr(g^{j}*x^3)", "bent")
            j = rng.choice(range(3, q - 1, 3))
            add(p, m, [(j, 3)], f"tr(g^{j}*x^3)", "not_bent")
        else:
            # no Boolean bent function exists in an odd number of variables
            for i in rng.sample([i for i in range(1, m) if gcd(i, m) == 1], 2):
                j = _unit_exp(rng, q)
                add(p, m, [(j, 2 ** i + 1)], f"tr(g^{j}*x^{2 ** i + 1})", "not_bent")
            j = _unit_exp(rng, q)
            d = _perm_exp(rng, p, m)
            add(p, m, [(j, d)], f"tr(g^{j}*x^{d})", "not_bent")
        # a permutation monomial is balanced, so |W(b)| = 0 at b = the linear term
        j = _unit_exp(rng, q)
        d = _perm_exp(rng, p, m)
        add(p, m, [(j, d)], f"tr(g^{j}*x^{d})", "not_bent")
    return jobs


# -- program side -------------------------------------------------------------

def setup(wc):
    for p, m in FIELDS:
        F = wc.make_field(p, m)
        F.generator()
        F.trace_int(F.one)
        F.trace_bilinear(F.one, F.one)


def run(wc, job):
    F = wc.make_field(*job["field"])
    f = wc.parse_function(F, job["spec"])
    spectrum = wc.walsh_transform(f)
    return spectrum, wc.classify_bent(spectrum)


def encode(result) -> dict:
    spectrum, cls = result
    return {
        "modulus": list(spectrum.field.modulus),
        "kind": cls.kind.value,
        "epsilon": cls.epsilon,
        "coefficients": [list(c.coeffs) for c in spectrum.coefficients],
    }


# -- independent check --------------------------------------------------------

def check(job, out) -> list[str]:
    p, m = job["field"]
    F = refmath.field(p, m)
    q = F.q
    if tuple(out["modulus"]) != F.modulus:
        return [f"{job['spec']}: modulus {out['modulus']} is not the default {F.modulus}"]
    errors = []
    coeffs = out["coefficients"]
    if len(coeffs) != q:
        return [f"{job['spec']}: {len(coeffs)} coefficients, want {q}"]
    # truth table from the benchmark's own arithmetic
    fvals = [F.tr[v] for v in refmath.values(job["terms"], F, range(q))]
    for b in [0] + job["bs"]:
        if tuple(coeffs[b]) != refmath.walsh_at(fvals, F, b):
            errors.append(f"{job['spec']}: W({b}) differs from the recomputed value")
    abs2 = [refmath.cyclo_abs2(c, p) for c in coeffs]
    if refmath.cyclo_canonical([sum(col) for col in zip(*abs2)], p) != (q * q,) + (0,) * (p - 1):
        errors.append(f"{job['spec']}: sum of |W(b)|^2 is not q^2")
    bent = all(a == (q,) + (0,) * (p - 1) for a in abs2)
    if (out["kind"] == "not_bent") == bent:
        errors.append(f"{job['spec']}: kind {out['kind']} but bent={bent}")
    if (job["expect"] == "bent") != bent:
        errors.append(f"{job['spec']}: expected {job['expect']}")
    return errors
