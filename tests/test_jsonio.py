import json
import random

import pytest

from walshcodes import jsonio
from walshcodes.algebra import make_field
from walshcodes.codes import complete_weight_enumerator, from_rows, weight_distribution
from walshcodes.conditions import dual_membership_first
from walshcodes.constructions import defining_set, make_skew_set
from walshcodes.functions import ParyFunction, parse_function, walsh_transform

F9 = make_field(3, 2)
F16 = make_field(2, 4)


def test_field_roundtrip():
    obj = jsonio.field_to_json(F9)
    assert obj == {"p": 3, "m": 2, "poly": [1, 0, 1]}
    assert jsonio.field_from_json(json.loads(json.dumps(obj))) is F9


def test_code_roundtrip():
    rng = random.Random(8)
    for field in (make_field(3, 1), F16):
        for _ in range(10):
            rows = [
                [field.elements[rng.randrange(field.q)] for _ in range(5)]
                for _ in range(2)
            ]
            code = from_rows(field, rows)
            obj = json.loads(json.dumps(jsonio.code_to_json(code)))
            assert jsonio.code_from_json(obj) == code


def test_code_from_json_passes_index_rows_through():
    obj = {"alphabet": {"p": 2, "m": 2}, "n": 3, "generator": [[1, 2, 3]]}
    code = jsonio.code_from_json(obj)
    assert code.rows == ((1, 2, 3),) and jsonio.code_to_json(code)["generator"] == [[1, 2, 3]]


@pytest.mark.parametrize("rows", [[[1, -1]], [[1, 2]], [[1, True]], [[1, 0.5]], [[1, "1"]], [5], "11"])
def test_code_from_json_rejects_entries_that_are_not_indices(rows):
    obj = {"alphabet": {"p": 2, "m": 1}, "n": 2, "generator": rows}
    with pytest.raises(ValueError):
        jsonio.code_from_json(obj)


@pytest.mark.parametrize("elements", [[[1.5, 0]], [5], [[1, 0], "x"], [[1, True]], "11"])
def test_defining_set_from_json_rejects_malformed_elements(elements):
    with pytest.raises(ValueError):
        jsonio.defining_set_from_json({"field": {"p": 3, "m": 2}, "elements": elements})


def test_zero_code_roundtrip():
    from walshcodes.codes import zero_code

    z = zero_code(F9, 4)
    assert jsonio.code_from_json(jsonio.code_to_json(z)) == z


def test_defining_set_roundtrip():
    ds = make_skew_set(F9)
    obj = json.loads(json.dumps(jsonio.defining_set_to_json(ds)))
    back = jsonio.defining_set_from_json(obj)
    assert back.elements == ds.elements and back.base_degree == 1


def test_weight_tables():
    code = from_rows(make_field(3, 1), [[1, 1]])
    wd = jsonio.weight_distribution_to_json(weight_distribution(code))
    assert wd == [{"w": 0, "count": 1}, {"w": 2, "count": 2}]
    cwe = jsonio.cwe_to_json(complete_weight_enumerator(code))
    assert {"composition": [0, 2, 0], "count": 1} in cwe


def test_spectrum_serialization():
    sp = walsh_transform(parse_function(F9, "tr(x^2)"))
    rows = jsonio.spectrum_to_json(sp)
    assert len(rows) == 9
    assert rows[0] == {"b": [0, 0], "coeffs": [3, 0, 0], "abs2": 9}
    assert all(r["abs2"] == 9 for r in rows)


def test_verdict_serialization():
    f = ParyFunction.from_callable(F9, lambda x: x ** 2, 2)
    v = dual_membership_first(f, [0] * 9, "delta-value")
    obj = jsonio.verdict_to_json(v)
    assert obj["holds"] is True and obj["imaginary_zero"] is True
    assert obj["lhs"] == obj["rhs"] == [1, 0, 0]
