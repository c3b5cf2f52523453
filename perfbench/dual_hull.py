"""Workload `dual-hull`: duals and hulls of codes by two routes each.

A job builds one code, computes its dual by nullspace (`dual`) and by the
paper's closed form, its hull as C cap C^perp (`hull`) and as the kernel
of the pairing map, and, for defining-set codes, its dimension from the
span of the set.  The slots and their lengths are fixed; the seed picks
exponents and random elements, so the cost of a round hardly depends on it.
"""

from __future__ import annotations

from math import gcd

import refmath

FIELDS = [(5, 2), (3, 3), (2, 5), (2, 6), (3, 4), (5, 3)]

# (p, m) of C(x^e) codes
FIRST = [(5, 2), (3, 3), (2, 5)]
# (p, m, generator, length of a random sequence or gcd(e, q-1) of an image set).
# Together with FIRST, five slots cost well under the median job, five about
# the median and five well over it, so the median job time is taken inside
# a cluster of similar jobs rather than across a gap between two clusters.
SECOND = [
    (5, 2, "skew", None),
    (5, 2, "random", 16),
    (5, 2, "random", 24),
    (2, 6, "random", 12),
    (2, 6, "trace-zero", None),
    (2, 6, "cyclotomic", None),
    (2, 6, "image", 3),
    (3, 4, "trace-zero", None),
    (3, 4, "image", 4),
    (3, 4, "random", 20),
    (5, 3, "image", 4),
    (5, 3, "random", 16),
]


def make_jobs(rng) -> list[dict]:
    jobs = [{"kind": "first", "field": [p, m], "fn": f"x^{refmath.full_coset_exponent(rng, p, m, coprime=True)}"} for p, m in FIRST]
    for p, m, gen, arg in SECOND:
        job = {"kind": "second", "field": [p, m], "gen": gen}
        if gen == "random":
            job["elements"] = [rng.randrange(1, p ** m) for _ in range(arg)]
        elif gen == "image":
            e = rng.randrange(2, p ** m - 1)
            while gcd(e, p ** m - 1) != arg:
                e = rng.randrange(2, p ** m - 1)
            job["fn"] = f"x^{e}"
        jobs.append(job)
    return jobs


# -- program side -------------------------------------------------------------

def setup(wc):
    for p, m in FIELDS:
        F = wc.make_field(p, m)
        F.generator()
        F.trace_int(F.one)
        F.trace_bilinear(F.one, F.one)
        wc.make_field(p, 1)
        wc.subfield(F, 1)


def _defining_set(wc, F, job):
    gen = job["gen"]
    if gen == "skew":
        return wc.make_skew_set(F)
    if gen == "trace-zero":
        return wc.make_trace_zero_set(F)
    if gen == "cyclotomic":
        return wc.make_cyclotomic_set(F, 1)
    if gen == "image":
        return wc.make_image_set(wc.parse_function(F, job["fn"]).with_codomain(F.m))
    return wc.defining_set(F, [F.from_index(i) for i in job["elements"]])


def run(wc, job):
    F = wc.make_field(*job["field"])
    if job["kind"] == "first":
        f = wc.parse_function(F, job["fn"]).with_codomain(F.m)
        code = wc.first_generic(f)
        closed_dual = wc.dual_first_closed_form(f)
        kernel_hull = wc.hull_first_kernel(f)
        ds, span_dim = None, None
    else:
        ds = _defining_set(wc, F, job)
        code = wc.second_generic(ds)
        closed_dual = wc.dual_second_closed_form(ds)
        kernel_hull = wc.hull_second_kernel(ds)
        span_dim = wc.dimension_via_span(ds)
    return F, ds, span_dim, code, wc.dual(code), closed_dual, wc.hull(code), kernel_hull


def encode(result) -> dict:
    F, ds, span_dim, *codes = result
    names = ("code", "dual", "closed_dual", "hull", "kernel_hull")
    out = {
        "modulus": list(F.modulus),
        "set": [d.index for d in ds.elements] if ds else None,
        "span_dim": span_dim,
    }
    for name, c in zip(names, codes):
        out[name] = {
            "alphabet": [c.base.p, c.base.m],
            "n": c.n,
            "rows": [[e.index for e in row] for row in c.generator],
        }
    return out


# -- independent check --------------------------------------------------------

def expected_set(job, F: refmath.GF) -> list[int]:
    """The defining set, rebuilt from its definition."""
    if job["gen"] == "random":
        return list(job["elements"])
    if job["gen"] == "image":
        e = int(job["fn"].split("^")[1])
        return sorted({F.pow(x, e) for x in range(1, F.q)})
    return refmath.defining_set(job["gen"], F)


def check(job, out) -> list[str]:
    p, m = job["field"]
    F, P = refmath.field(p, m), refmath.field(p, 1)
    label = f"{job['kind']} GF({p}^{m}) {job.get('gen', job.get('fn'))}"
    if tuple(out["modulus"]) != F.modulus:
        return [f"{label}: modulus {out['modulus']} is not the default {F.modulus}"]
    errors = []
    if job["kind"] == "first":
        mine = refmath.first_rows([(0, int(job["fn"].split("^")[1]))], F)
    else:
        ds = expected_set(job, F)
        if out["set"] != ds:
            return [f"{label}: defining set differs from its definition"]
        mine = refmath.second_rows(ds, F)
    n = len(mine[0])
    codes = {name: out[name] for name in ("code", "dual", "closed_dual", "hull", "kernel_hull")}
    for name, c in codes.items():
        if c["alphabet"] != [p, 1] or c["n"] != n:
            errors.append(f"{label}: {name} is not a length-{n} code over GF({p})")
    if errors:
        return errors
    G = codes["code"]["rows"]
    k = refmath.rank(mine, P)
    if len(G) != k or refmath.rank(G + mine, P) != k:
        errors.append(f"{label}: generator does not span the code of the construction")
    if out["span_dim"] is not None and out["span_dim"] != k:
        errors.append(f"{label}: dimension_via_span {out['span_dim']} != {k}")
    D = codes["dual"]["rows"]
    if codes["closed_dual"]["rows"] != D:
        errors.append(f"{label}: closed-form dual differs from the nullspace dual")
    if D and any(any(r) for r in refmath.gram(G, D, P)):
        errors.append(f"{label}: G . H^T != 0")
    if refmath.rank(D, P) + k != n:
        errors.append(f"{label}: k + k_perp != n")
    H = codes["hull"]["rows"]
    if codes["kernel_hull"]["rows"] != H:
        errors.append(f"{label}: kernel hull differs from C cap C^perp")
    hull_dim = k - refmath.rank(refmath.gram(G, G, P), P)
    if len(H) != hull_dim or refmath.rank(H, P) != hull_dim:
        errors.append(f"{label}: hull dimension != k - rank(G G^T) = {hull_dim}")
    if H and (any(any(r) for r in refmath.gram(G, H, P)) or refmath.rank(G + H, P) != k):
        errors.append(f"{label}: hull is not inside C cap C^perp")
    return errors
