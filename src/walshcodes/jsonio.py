"""JSON wire formats.

Codes serialize with generator entries as canonical element indices,
their stored rows; defining sets carry coefficient vectors; cyclotomic
integers are their canonical coefficient lists.  Rows that are not lists
of lists of ints raise ValueError.
"""

from __future__ import annotations

from ._packed import split
from .algebra import Field, make_field
from .codes import CompleteWeightEnumerator, LinearCode, WeightDistribution
from .conditions import MembershipVerdict
from .constructions import DefiningSet
from .functions import WalshSpectrum


def field_to_json(field: Field) -> dict:
    return {"p": field.p, "m": field.m, "poly": list(field.modulus)}


def field_from_json(obj: dict) -> Field:
    return make_field(obj["p"], obj["m"], obj.get("poly"))


def _int_rows(rows, what: str) -> list:
    """rows, checked to be a list of lists of ints."""
    if not isinstance(rows, list) or not all(isinstance(r, list) and all(type(x) is int for x in r) for r in rows):
        raise ValueError(f"{what} must be a list of lists of integers")
    return rows


def code_to_json(code: LinearCode) -> dict:
    return {
        "alphabet": field_to_json(code.base),
        "n": code.n,
        "k": code.k,
        "generator": [list(row) for row in code._rows],
    }


def code_from_json(obj: dict) -> LinearCode:
    from .codes import from_rows, zero_code

    base, rows = field_from_json(obj["alphabet"]), _int_rows(obj["generator"], "generator")
    if not rows:
        return zero_code(base, obj["n"])
    return from_rows(base, rows, n=obj["n"])


def defining_set_to_json(ds: DefiningSet) -> dict:
    return {
        "field": field_to_json(ds.field),
        "base_degree": ds.base_degree,
        "elements": [list(v) for v in zip(*split(ds.indices(), ds.field.p, ds.field.m))],
        "provenance": ds.provenance,
    }


def defining_set_from_json(obj: dict) -> DefiningSet:
    field = field_from_json(obj["field"])
    els = tuple(field.element(c) for c in _int_rows(obj["elements"], "defining-set elements"))
    return DefiningSet(
        field, obj.get("base_degree", 1), els, obj.get("provenance", "json")
    )


def weight_distribution_to_json(wd: WeightDistribution) -> list[dict]:
    return [{"w": w, "count": c} for w, c in wd.counts.items()]


def cwe_to_json(cwe: CompleteWeightEnumerator) -> list[dict]:
    items = sorted(cwe.counts.items())
    return [{"composition": list(comp), "count": c} for comp, c in items]


def spectrum_to_json(spec: WalshSpectrum) -> list[dict]:
    field = spec.field
    return [
        {"b": list(b), "coeffs": list(c.coeffs), "abs2": c.abs_squared().as_int()}
        for b, c in zip(zip(*split(range(field.q), field.p, field.m)), spec.coefficients)
    ]


def verdict_to_json(v: MembershipVerdict) -> dict:
    return {
        "variant": v.variant,
        "holds": v.holds,
        "lhs": list(v.lhs.coeffs),
        "rhs": list(v.rhs.coeffs),
        "imaginary_zero": v.imaginary_zero,
    }
