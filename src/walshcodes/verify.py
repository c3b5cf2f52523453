"""Built-in verification suites.

Each suite function runs a fixed instance grid, returns a report dict
with one entry per instance, and never hides a failure: the report's
"passed" is the conjunction of every exact check in the grid.  The CLI
`verify` subcommand and the acceptance test suite both run these.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import comb
from operator import mul

from ._packed import split
from .algebra import Field, make_field
from .codes import (
    dual,
    hull,
    hull_dim,
    is_mds,
    matrix_rank,
    min_distance,
    weight_distribution,
)
from .conditions import (
    FIRST_VARIANTS,
    SECOND_VARIANTS,
    apn_ab_dual_diagnostics,
    bent_codeword_weight,
    dual_character_first,
    dual_character_second,
    dual_membership_first,
    dual_membership_second,
    hull_membership_defining_set,
    hull_membership_first,
    hull_membership_second,
    plain_trace_form,
    pn_bounds_check,
    support_code_weight_multiset,
    weight_from_walsh_even,
    weight_via_character_sum,
    weight_via_walsh_sum,
)
from .constructions import (
    DefiningSet,
    defining_set,
    dimension_via_span,
    dual_first_closed_form,
    dual_second_closed_form,
    first_codeword,
    first_generic,
    first_hull_map_matrix,
    hull_first_kernel,
    hull_second_kernel,
    image_set_points,
    make_cyclotomic_set,
    make_fixed_hull_set,
    make_image_set,
    make_lcd_set,
    make_mds_set,
    make_preimage_set,
    make_skew_set,
    second_codeword,
    second_generic,
    second_hull_map_matrix,
)
from .errors import HypothesisFailed
from .functions import ParyFunction, classify_bent, parse_function, walsh_transform

GRID_FIELDS = ((3, 2), (2, 4), (5, 2), (3, 3))  # F_9, F_16, F_25, F_27

DEFAULT_SEED = 1


def _monomial(field: Field, e: int) -> ParyFunction:
    return ParyFunction.from_callable(field, lambda x: x ** e, field.m)


def _random_defining_set(field: Field, rng: random.Random, max_len: int) -> DefiningSet:
    n = rng.randrange(1, max_len + 1)
    els = tuple(field.elements[rng.randrange(field.q)] for _ in range(n))
    return defining_set(field, els, provenance="random")


def _report(suite: str, instances: list[dict], seed: int | None = None) -> dict:
    report = {
        "suite": suite,
        "passed": all(i["passed"] for i in instances),
        "instances": instances,
    }
    if seed is not None:
        report["seed"] = seed
    return report


def boolean_quadratic(field: Field) -> ParyFunction:
    """x1*x2 + x3*x4 + ... on the coefficient coordinates (bent for even m)."""
    vectors = zip(*split(range(field.q), field.p, field.m))
    return ParyFunction.from_indices(field, [sum(map(mul, v[0::2], v[1::2])) % field.p for v in vectors], 1)


# ---------------------------------------------------------------------------
# closed-form duals (first and second construction)
# ---------------------------------------------------------------------------

def suite_prop_dual_first(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    for p, m in GRID_FIELDS:
        field = make_field(p, m)
        for e in range(1, field.q):
            f = _monomial(field, e)
            lhs = dual_first_closed_form(f)
            rhs = dual(first_generic(f))
            instances.append(
                {
                    "instance": f"x^{e} over GF({p}^{m})",
                    "passed": lhs == rhs,
                    "dual_dim": rhs.k,
                }
            )
    return _report("prop-dual-first", instances)


def suite_prop_dual_second(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    instances = []
    for p, m in GRID_FIELDS:
        field = make_field(p, m)
        good = 0
        for _ in range(200):
            ds = _random_defining_set(field, rng, 2 * m + 2)
            if dual_second_closed_form(ds) == dual(second_generic(ds)):
                good += 1
        instances.append(
            {
                "instance": f"200 random defining sets over GF({p}^{m})",
                "passed": good == 200,
                "agreeing": good,
            }
        )
    return _report("prop-dual-second", instances, seed)


def suite_hull_kernel(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    instances = []
    for p, m in GRID_FIELDS:
        field = make_field(p, m)
        prime = make_field(p, 1)
        for e in range(1, field.q):
            f = _monomial(field, e)
            code = first_generic(f)
            h = hull(code)
            hk = hull_first_kernel(f)
            rows, _ = first_hull_map_matrix(f)
            rank = matrix_rank(rows, prime)
            instances.append(
                {
                    "instance": f"x^{e} over GF({p}^{m})",
                    "passed": hk == h and h.k == code.k - rank,
                    "hull_dim": h.k,
                }
            )
        good = 0
        for _ in range(40):
            ds = _random_defining_set(field, rng, 2 * m + 2)
            code = second_generic(ds)
            h = hull(code)
            rows, _ = second_hull_map_matrix(ds)
            rank = matrix_rank(rows, prime)
            if hull_second_kernel(ds) == h and h.k == code.k - rank:
                good += 1
        instances.append(
            {
                "instance": f"40 random defining sets over GF({p}^{m})",
                "passed": good == 40,
                "agreeing": good,
            }
        )
    return _report("hull-kernel", instances, seed)


def suite_dim_span(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    fields = [make_field(p, m) for p, m in GRID_FIELDS]
    good = 0
    for _ in range(500):
        field = rng.choice(fields)
        ds = _random_defining_set(field, rng, 2 * field.m + 2)
        if dimension_via_span(ds) == second_generic(ds).k:
            good += 1
    instances = [
        {"instance": "500 random defining sets", "passed": good == 500, "agreeing": good}
    ]
    return _report("dim-span", instances, seed)


# ---------------------------------------------------------------------------
# constructive recipes
# ---------------------------------------------------------------------------

def suite_fixed_hull(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    p = 5
    for m in (2, 3):
        field = make_field(p, m)
        basis = field.power_basis()
        for k in range(1, min(3, m) + 1):
            ds_base = basis[:k]
            for l in range(0, k + 1):
                ds = make_fixed_hull_set(field, ds_base, l, alpha=2, beta=4)
                code = second_generic(ds)
                wd = weight_distribution(code).counts
                expected = {0: 1}
                for s in range(1, k + 1):
                    expected[2 * s] = (p - 1) ** s * comb(k, s)
                ok = (
                    code.n == 2 * k
                    and code.k == k
                    and min_distance(code) == 2
                    and hull_dim(code) == l
                    and wd == expected
                )
                instances.append(
                    {
                        "instance": f"m={m} k={k} l={l}",
                        "passed": ok,
                        "params": [code.n, code.k, 2],
                        "hull_dim": hull_dim(code),
                    }
                )
    return _report("fixed-hull", instances)


def suite_lcd(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    field = make_field(2, 4)
    basis = field.power_basis()
    for k in (2, 4):
        ds = make_lcd_set(field, basis[:k])
        code = second_generic(ds)
        dl = dual(code)
        wd = weight_distribution(dl).counts
        expected = {0: 1}
        for i in range(1, k // 2 + 1):
            expected[3 * i] = comb(k // 2, i)
        ok = (
            code.n == 3 * k // 2
            and code.k == k
            and hull_dim(code) == 0
            and dl.k == k // 2
            and min_distance(dl) == 3
            and wd == expected
        )
        instances.append(
            {
                "instance": f"q=2 b=4 k={k}",
                "passed": ok,
                "dual_params": [dl.n, dl.k, min_distance(dl)],
            }
        )
    return _report("lcd", instances)


def suite_mds(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    for p in (5, 7):
        for k in (2, 3):
            field = make_field(p, k)
            basis = field.power_basis()[:k]
            for variant, alphas in (("k+1", [1] * k), ("k+2", list(range(1, k + 1)))):
                ds = make_mds_set(field, basis, variant, alphas)
                code = second_generic(ds)
                dl = dual(code)
                n = k + 1 if variant == "k+1" else k + 2
                d = 2 if variant == "k+1" else 3
                ok = (
                    code.n == n
                    and code.k == k
                    and min_distance(code) == d
                    and is_mds(code)
                    and is_mds(dl)
                    and min_distance(dl) == k + 1
                )
                instances.append(
                    {
                        "instance": f"p={p} k={k} {variant}",
                        "passed": ok,
                        "params": [code.n, code.k, min_distance(code)],
                    }
                )
    return _report("mds", instances)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def suite_apn_ab(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    rep16 = apn_ab_dual_diagnostics(parse_function(make_field(2, 4), "x^3"))
    instances.append(
        {
            "instance": "x^3 over GF(2^4)",
            "passed": rep16["d_perp"] == 5
            and rep16["is_apn"]
            and rep16["differential_uniformity"] == 2
            and rep16["hypothesis_ok"],
            "d_perp": rep16["d_perp"],
        }
    )
    rep32 = apn_ab_dual_diagnostics(parse_function(make_field(2, 5), "x^3"))
    instances.append(
        {
            "instance": "x^3 over GF(2^5)",
            "passed": rep32["characteristic_set"] == {12, 16, 20} and rep32["is_ab"],
            "characteristic_set": sorted(rep32["characteristic_set"]),
        }
    )
    return _report("apn-ab", instances)


def suite_pn_bounds(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    for p, m in ((3, 2), (5, 2)):
        rep = pn_bounds_check(parse_function(make_field(p, m), "x^2"))
        instances.append(
            {
                "instance": f"x^2 over GF({p}^{m})",
                "passed": rep["all_in_band"],
                "weights": sorted(rep["weights"]),
                "band": rep["band"],
            }
        )
    return _report("pn-bounds", instances)


# ---------------------------------------------------------------------------
# weight formulas
# ---------------------------------------------------------------------------

def suite_thm_weights(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    instances = []

    # Walsh-sum weights equal brute force on the x^2 instance, all (a, b)
    field = make_field(3, 2)
    psi = _monomial(field, 2)
    ok = True
    for a in field.elements:
        for b in field.elements:
            brute = sum(
                1
                for x in field.elements
                if (field.trace_bilinear(a, psi(x)) - field.trace_bilinear(b, x)) % 3
            )
            if weight_via_walsh_sum(psi, a, b) != brute:
                ok = False
    instances.append({"instance": "walsh-sum x^2 GF(9), all (a,b)", "passed": ok})

    # character-sum weights: the skew one-weight value and random sets
    skew = make_skew_set(field)
    skew_ok = all(
        weight_via_character_sum(skew, x) == (3 - 1) * 9 // (2 * 3)
        for x in field.elements[1:]
    )
    instances.append({"instance": "character-sum skew GF(9)", "passed": skew_ok})
    f27 = make_field(3, 3)
    ok = True
    for _ in range(60):
        ds = _random_defining_set(f27, rng, 8)
        x = f27.elements[rng.randrange(f27.q)]
        brute = sum(1 for c in second_codeword(ds, x) if c)
        if weight_via_character_sum(ds, x) != brute:
            ok = False
    instances.append({"instance": "character-sum 60 random GF(27)", "passed": ok})

    # closed-form bent weights against exhaustive puncturing, all (alpha, beta)
    cls = classify_bent(walsh_transform(plain_trace_form(psi)))
    ok = True
    for ai in range(3):
        alpha = field.scalar(ai)
        for beta in field.elements:
            brute = sum(
                1
                for x in field.elements[1:]
                if (field.trace_bilinear(alpha, psi(x)) - field.trace_bilinear(beta, x)) % 3
            )
            if bent_codeword_weight(psi, alpha, beta, cls) != brute:
                ok = False
    instances.append({"instance": "bent closed form x^2 GF(9), all (alpha,beta)", "passed": ok})
    return _report("thm-weights", instances, seed)


def suite_ding(seed: int = DEFAULT_SEED) -> dict:
    field = make_field(2, 4)
    f = boolean_quadratic(field)
    predicted = support_code_weight_multiset(f)
    code = second_generic(make_preimage_set(f, field.one))
    actual = sorted(weight_distribution(code).multiset())
    expected = sorted([0] + [2] * 6 + [4] * 9)
    instances = [
        {
            "instance": "x1x2+x3x4 over GF(2^4), support code [6,4]",
            "passed": predicted == actual == expected and code.n == 6 and code.k == 4,
            "multiset": predicted,
        }
    ]
    return _report("ding", instances)


# ---------------------------------------------------------------------------
# necessary conditions and characters
# ---------------------------------------------------------------------------

def _nc_instance(f, code, membership, tag, label, variants, rng, instances):
    """Every dual word of the code passes each necessary-condition variant,
    and a random non-member fails it within 3000 draws."""
    field = f.field
    dl = dual(code)
    words = list(dl.codewords())
    for variant in variants:
        ok = all(membership(f, w, variant).holds for w in words)
        witness = False
        for _ in range(3000):
            w = [rng.randrange(field.p) for _ in range(code.n)]
            if dl.contains(w):
                continue
            if not membership(f, w, variant).holds:
                witness = True
                break
        instances.append(
            {
                "instance": f"{label} {tag}:{variant}",
                "passed": ok and witness,
                "dual_words": len(words),
                "non_member_witness": witness,
            }
        )


def _first_hull_instance(f, label, variants, instances):
    field = f.field
    code = first_generic(f)
    h = hull(code)
    hull_params = []
    nonhull_params = []
    for a in field.elements:
        for b in field.elements:
            if h.contains(first_codeword(f, a, b)):
                hull_params.append((a, b))
            else:
                nonhull_params.append((a, b))
    for variant in variants:
        ok = all(hull_membership_first(f, a, b, variant).holds for a, b in hull_params)
        instances.append(
            {
                "instance": f"{label} hull first:{variant}",
                "passed": ok,
                "hull_words": len(hull_params),
            }
        )
    some_fail = any(
        not all(
            hull_membership_first(f, a, b, variant).holds for variant in variants
        )
        for a, b in nonhull_params
    )
    instances.append(
        {
            "instance": f"{label} hull first: non-member failing a variant",
            "passed": some_fail or not nonhull_params,
        }
    )


def suite_nc_all(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    instances = []
    f9 = make_field(3, 2)
    f16 = make_field(2, 4)

    generic_variants = [v for v in FIRST_VARIANTS if not v.endswith("scalar")]
    for e in (2, 6):
        f = _monomial(f9, e)
        _nc_instance(f, first_generic(f), dual_membership_first, "first", f"x^{e}/GF(9)",
                     generic_variants, rng, instances)
    gold = parse_function(f16, "g*x^3")
    _nc_instance(gold, first_generic(gold), dual_membership_first, "first", "g*x^3/GF(16)",
                 list(FIRST_VARIANTS), rng, instances)

    # odd characteristic scalar hypotheses are unsatisfiable: homogeneous
    # maps have odd trace forms, whose real spectra cannot be bent
    vacuous = True
    try:
        dual_membership_first(_monomial(f9, 2), [0] * 9, "wrb-shifted-scalar")
        vacuous = False
    except HypothesisFailed:
        pass
    instances.append({"instance": "odd-p scalar variants are vacuous", "passed": vacuous})

    for f, label, variants in (
        (_monomial(f9, 2), "x^2/GF(9)", ["wrb-generic", "delta-value"]),
        (gold, "g*x^3/GF(16)", list(SECOND_VARIANTS)),
    ):
        _nc_instance(f, second_generic(make_image_set(f)), dual_membership_second, "second", label,
                     variants, rng, instances)

    _first_hull_instance(_monomial(f9, 2), "x^2/GF(9)", generic_variants, instances)
    _first_hull_instance(gold, "g*x^3/GF(16)", list(FIRST_VARIANTS), instances)

    # hull conditions for image sets and for a plain defining set
    for f, label in ((_monomial(f9, 2), "x^2/GF(9)"), (gold, "g*x^3/GF(16)")):
        field = f.field
        ds = make_image_set(f)
        code = second_generic(ds)
        h = hull(code)
        ok = True
        for x in field.elements:
            if h.contains(second_codeword(ds, x)):
                if not hull_membership_second(f, x, "wrb-generic").holds:
                    ok = False
                if not hull_membership_second(f, x, "delta-value").holds:
                    ok = False
        instances.append({"instance": f"{label} hull second", "passed": ok})

    f25 = make_field(5, 2)
    fh = make_fixed_hull_set(f25, [f25.one, f25.elements[5]], 1, alpha=2, beta=4)
    code = second_generic(fh)
    h = hull(code)
    ok = True
    for x in f25.elements:
        if h.contains(second_codeword(fh, x)):
            if not hull_membership_defining_set(fh, x).holds:
                ok = False
    instances.append({"instance": "fixed-hull GF(25) hull condition", "passed": ok})
    return _report("nc-all", instances, seed)


def suite_characters(seed: int = DEFAULT_SEED) -> dict:
    rng = random.Random(seed)
    instances = []
    f9 = make_field(3, 2)
    f16 = make_field(2, 4)

    # dual is inside every character kernel, witnessed exhaustively
    for f, label in (
        (_monomial(f9, 2), "x^2/GF(9)"),
        (_monomial(f9, 6), "x^6/GF(9)"),
        (parse_function(f16, "g*x^3"), "g*x^3/GF(16)"),
    ):
        code = first_generic(f)
        dl = dual(code)
        words = list(dl.codewords())
        for variant in ("delta-diff", "delta-value", "delta-point"):
            ch = dual_character_first(f, variant)
            contained = all(ch.in_kernel(w) for w in words)
            mult_ok = True
            for _ in range(20):
                u = [rng.randrange(f.field.p) for _ in range(code.n)]
                v = [rng.randrange(f.field.p) for _ in range(code.n)]
                uv = [(a + b) % f.field.p for a, b in zip(u, v)]
                if ch.evaluate(uv) != ch.evaluate(u) * ch.evaluate(v):
                    mult_ok = False
            instances.append(
                {
                    "instance": f"{label} character {variant}",
                    "passed": contained and mult_ok,
                }
            )

    # the worked-out parity check of x^6 over GF(9), up to permutation
    ch = dual_character_first(_monomial(f9, 6), "delta-value")
    multiset = Counter(ch.kernel_hyperplane())
    instances.append(
        {
            "instance": "x^6/GF(9) four-term parity check {1,2,1,2}",
            "passed": multiset == Counter({0: 5, 1: 2, 2: 2}),
            "coefficients": list(ch.kernel_hyperplane()),
        }
    )

    # image-set character
    chs = dual_character_second(_monomial(f9, 2))
    ds = make_image_set(_monomial(f9, 2))
    code = second_generic(ds)
    dl = dual(code)
    contained = all(chs.in_kernel(w) for w in dl.codewords())
    instances.append({"instance": "x^2/GF(9) image-set character", "passed": contained})

    # dimension-one code: kernel equality, not just containment
    f5 = make_field(5, 1)
    lin = ParyFunction.from_callable(f5, lambda x: x * 2, 1)
    code = first_generic(lin)
    ch = dual_character_first(lin, "delta-value")
    dl = dual(code)
    # the order of the words does not matter to the count
    kernel_words = sum(1 for w in itertools.product(range(code.base.p), repeat=code.n) if ch.in_kernel(w))
    equality = (
        code.k == 1
        and not ch.is_trivial()
        and kernel_words == dl.size()
        and all(ch.in_kernel(w) for w in dl.codewords())
    )
    instances.append(
        {"instance": "dim-1 code over GF(5): dual equals the kernel", "passed": equality}
    )
    return _report("characters", instances, seed)


def suite_even_weight(seed: int = DEFAULT_SEED) -> dict:
    instances = []
    field = make_field(2, 4)
    f = boolean_quadratic(field)
    ds = make_preimage_set(f, field.one)
    code = second_generic(ds)
    dl = dual(code)
    points = list(ds.elements)
    ok = True
    for word in dl.codewords():
        wt = sum(1 for c in word if c)
        if weight_from_walsh_even(f, points, word) != wt:
            ok = False
    instances.append(
        {
            "instance": "support code of x1x2+x3x4, every dual word",
            "passed": ok,
            "dual_size": dl.size(),
        }
    )

    # matching-hypothesis instance: image set with g = Tr(f) bent, where
    # the restated positivity condition also holds
    gold = parse_function(field, "g*x^3")
    ds2 = make_image_set(gold)
    code2 = second_generic(ds2)
    dl2 = dual(code2)
    pts2 = image_set_points(gold)
    g2 = plain_trace_form(gold)
    ok2 = True
    for word in dl2.codewords():
        wt = sum(1 for c in word if c)
        if weight_from_walsh_even(g2, pts2, word, require_positive=True) != wt:
            ok2 = False
    instances.append(
        {"instance": "image-set code of g*x^3, positivity asserted", "passed": ok2}
    )
    return _report("even-weight", instances)


def suite_cyclotomic(seed: int = DEFAULT_SEED) -> dict:
    field = make_field(2, 4)
    ds = make_cyclotomic_set(field, 1)
    code = second_generic(ds)
    dl = dual(code)
    wd = weight_distribution(code).counts
    first_ok = (
        code.n == 5
        and code.k == 4
        and min_distance(code) == 2
        and wd == {0: 1, 2: 10, 4: 5}
        and dl.n == 5
        and dl.k == 1
        and min_distance(dl) >= 3
    )
    instances = [
        {
            "instance": "first class q=2 b=4: [5,4,2] weights {2:10,4:5}",
            "passed": first_ok,
            "weights": wd,
        }
    ]
    ds2 = make_cyclotomic_set(field, 1, second_class=True)
    code2 = second_generic(ds2)
    instances.append(
        {
            "instance": "second class q=2 b=4: length 10 dim 4",
            "passed": code2.n == 10 and code2.k == 4,
            "weights": weight_distribution(code2).counts,
        }
    )
    return _report("cyclotomic", instances)


SUITES = {
    "prop-dual-first": suite_prop_dual_first,
    "prop-dual-second": suite_prop_dual_second,
    "hull-kernel": suite_hull_kernel,
    "dim-span": suite_dim_span,
    "nc-all": suite_nc_all,
    "characters": suite_characters,
    "thm-weights": suite_thm_weights,
    "apn-ab": suite_apn_ab,
    "pn-bounds": suite_pn_bounds,
    "fixed-hull": suite_fixed_hull,
    "lcd": suite_lcd,
    "mds": suite_mds,
    "cyclotomic": suite_cyclotomic,
    "ding": suite_ding,
    "even-weight": suite_even_weight,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed)
