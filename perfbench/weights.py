"""Workload `weights`: weight enumeration through the CLI, as users call it.

Each job is one `walshcodes` command line run in-process through
`walshcodes.cli.main` with stdout captured: `analyze ... --weights` on
codes of 64 to 4096 codewords, and `verify apn-ab` on binary APN maps.
The slots (field, length, dimension) are fixed; the seed picks the
function, which leaves the number of codewords enumerated unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json

import refmath

FIELDS = [(2, 5), (2, 6), (3, 3), (5, 2), (3, 5)]

# (p, m, include x = 0): codes C(f) of length q or q-1 and dimension 2m
FIRST = [(2, 5, True), (2, 6, True), (3, 3, False), (3, 3, True), (5, 2, True)]
# (p, m, generator): defining-set codes
SECOND = [(3, 5, "skew"), (2, 6, "cyclotomic"), (2, 6, "cyclotomic:class=2")]
# APN power maps: Gold, Welch, Kasami and inverse exponents over GF(2^5);
# over GF(2^6) the APN power maps are the Gold class of 3.  GF(2^5) has two
# slots so that the median job falls inside the cluster of jobs of 0.1-0.2 s
# (the ternary codes and the GF(2^5) diagnostics), not at one of its edges.
APN = [(5, [3, 5, 7, 13, 30]), (5, [3, 5, 7, 13, 30]), (6, [3])]


def make_jobs(rng) -> list[dict]:
    jobs = []
    for p, m, with_zero in FIRST:
        q = p ** m
        j, e, k = rng.randrange(1, q - 1), refmath.full_coset_exponent(rng, p, m), rng.randrange(1, q - 1)
        argv = ["analyze", "first", "--field", f"p={p},m={m}", "--fn", f"g^{j}*x^{e}+g^{k}*x", "--weights"]
        if not with_zero:
            argv.append("--no-zero")
        jobs.append({"argv": argv, "field": [p, m], "terms": [(j, e), (k, 1)], "zero": with_zero})
    for p, m, gen in SECOND:
        argv = ["analyze", "second", "--field", f"p={p},m={m}", "--generator", gen, "--weights"]
        jobs.append({"argv": argv, "field": [p, m], "gen": gen})
    for m, exps in APN:
        q = 2 ** m
        e = rng.choice(exps) * 2 ** rng.randrange(m) % (q - 1)
        j, k = rng.randrange(q - 1), rng.randrange(1, q - 1)
        argv = ["verify", "apn-ab", "--field", f"p=2,m={m}", "--fn", f"g^{j}*x^{e}+g^{k}*x"]
        jobs.append({"argv": argv, "field": [2, m], "terms": [(j, e), (k, 1)], "apn": True})
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


def run(wc, job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = wc.cli.main(job["argv"])
    return status, buf.getvalue()


def encode(result) -> dict:
    status, text = result
    return {"status": status, "report": json.loads(text) if status == 0 else text}


# -- independent check --------------------------------------------------------

def _code_rows(job, F: refmath.GF):
    if "terms" in job:
        return refmath.first_rows(job["terms"], F, job.get("zero", False))
    return refmath.second_rows(refmath.defining_set(job["gen"], F), F)


def _binary_weights(rows) -> dict[int, int]:
    """Weight distribution of a binary code, every codeword enumerated."""
    masks = [sum(bit << i for i, bit in enumerate(r)) for r in rows]
    words = [0]
    for r in masks:
        words += [w ^ r for w in words]
    dist: dict[int, int] = {}
    for w in set(words):
        wt = bin(w).count("1")
        dist[wt] = dist.get(wt, 0) + 1
    return dist


def check(job, out) -> list[str]:
    p, m = job["field"]
    label = " ".join(job["argv"])
    if out["status"] != 0:
        return [f"{label}: exit status {out['status']}: {out['report']}"]
    F, P = refmath.field(p, m), refmath.field(p, 1)
    rows = _code_rows(job, F)
    n, k = len(rows[0]), refmath.rank(rows, P)
    report = out["report"]
    if job.get("apn"):
        return _check_apn(job, report, F, rows, n, label)
    errors = []
    dist = {e["w"]: e["count"] for e in report["weights"]}
    if report["parameters"][:2] != [n, k]:
        errors.append(f"{label}: [n, k] = {report['parameters'][:2]}, want {[n, k]}")
    if dist.get(0) != 1:
        errors.append(f"{label}: A_0 != 1")
    if sum(dist.values()) != p ** k:
        errors.append(f"{label}: sum of A_w != p^k")
    if report["parameters"][2] != min(w for w in dist if w):
        errors.append(f"{label}: d is not the least nonzero weight")
    nonzero_cols = sum(1 for j in range(n) if any(r[j] for r in rows))
    if sum(w * a for w, a in dist.items()) != (p - 1) * p ** (k - 1) * nonzero_cols:
        errors.append(f"{label}: first Pless moment does not match {nonzero_cols} nonzero columns")
    try:
        dual = refmath.macwilliams(dist, n, p)
    except ArithmeticError as ex:
        return errors + [f"{label}: {ex}"]
    if min(dual) < 0 or sum(dual) != p ** (n - k) or dual[0] != 1:
        errors.append(f"{label}: MacWilliams transform is not a weight distribution of size p^(n-k)")
    return errors


def _check_apn(job, report, F, rows, n, label) -> list[str]:
    inst = report["instances"][0]
    delta = refmath.differential_uniformity(refmath.values(job["terms"], F, range(F.q)), F)
    dist = _binary_weights(rows)
    dual = refmath.macwilliams(dist, n, 2)
    d_perp = next(j for j in range(1, n + 1) if dual[j])
    charset = sorted(w for w in dist if w)
    m = F.m
    three = {2 ** (m - 1)}
    if m % 2:
        three |= {2 ** (m - 1) - 2 ** ((m - 1) // 2), 2 ** (m - 1) + 2 ** ((m - 1) // 2)}
    errors = []
    if not report["passed"] or not inst["passed"]:
        errors.append(f"{label}: suite did not pass")
    if inst["is_apn"] != (delta == 2):
        errors.append(f"{label}: is_apn={inst['is_apn']} but differential uniformity is {delta}")
    if delta != 2:
        errors.append(f"{label}: the map is not APN (uniformity {delta})")
    if inst["d_perp"] != d_perp:
        errors.append(f"{label}: d_perp={inst['d_perp']}, MacWilliams gives {d_perp}")
    if inst["characteristic_set"] != charset:
        errors.append(f"{label}: characteristic set differs from enumeration")
    if inst["is_ab"] != (m % 2 == 1 and set(charset) == three):
        errors.append(f"{label}: is_ab={inst['is_ab']} disagrees with the weights")
    return errors
