"""JSON wire formats.

Codes serialize with generator entries as canonical element indices;
defining sets carry coefficient vectors; cyclotomic integers are their
canonical coefficient lists.
"""

from __future__ import annotations

from .algebra import Field, make_field
from .codes import CompleteWeightEnumerator, LinearCode, WeightDistribution
from .conditions import MembershipVerdict
from .constructions import DefiningSet
from .functions import WalshSpectrum


def field_to_json(field: Field) -> dict:
    return {"p": field.p, "m": field.m, "poly": list(field.modulus)}


def field_from_json(obj: dict) -> Field:
    return make_field(obj["p"], obj["m"], obj.get("poly"))


def code_to_json(code: LinearCode) -> dict:
    return {
        "alphabet": field_to_json(code.base),
        "n": code.n,
        "k": code.k,
        "generator": [[e.index for e in row] for row in code.generator],
    }


def code_from_json(obj: dict) -> LinearCode:
    base = field_from_json(obj["alphabet"])
    rows = [[base.from_index(i) for i in row] for row in obj["generator"]]
    from .codes import from_rows, zero_code

    if not rows:
        return zero_code(base, obj["n"])
    return from_rows(base, rows, n=obj["n"])


def defining_set_to_json(ds: DefiningSet) -> dict:
    return {
        "field": field_to_json(ds.field),
        "base_degree": ds.base_degree,
        "elements": [list(d.coeffs) for d in ds.elements],
        "provenance": ds.provenance,
    }


def defining_set_from_json(obj: dict) -> DefiningSet:
    field = field_from_json(obj["field"])
    els = tuple(field.element(c) for c in obj["elements"])
    return DefiningSet(
        field, obj.get("base_degree", 1), els, obj.get("provenance", "json")
    )


def weight_distribution_to_json(wd: WeightDistribution) -> list[dict]:
    return [{"w": w, "count": c} for w, c in wd.counts.items()]


def cwe_to_json(cwe: CompleteWeightEnumerator) -> list[dict]:
    items = sorted(cwe.counts.items())
    return [{"composition": list(comp), "count": c} for comp, c in items]


def spectrum_to_json(spec: WalshSpectrum) -> list[dict]:
    out = []
    for b, c in zip(spec.field.elements, spec.coefficients):
        out.append(
            {
                "b": list(b.coeffs),
                "coeffs": list(c.coeffs),
                "abs2": c.abs_squared().as_int(),
            }
        )
    return out


def verdict_to_json(v: MembershipVerdict) -> dict:
    return {
        "variant": v.variant,
        "holds": v.holds,
        "lhs": list(v.lhs.coeffs),
        "rhs": list(v.rhs.coeffs),
        "imaginary_zero": v.imaginary_zero,
    }
