import pytest

from curvepart import InputError, PLCurve, PLFunction
from curvepart.fileio import (
    curve_from_obj,
    curve_to_obj,
    density_from_obj,
    dump_json,
    function_from_obj,
    function_to_obj,
    read_number,
    result_to_obj,
    write_number,
)
from curvepart.pipeline import partition_below_diagonal
from curvepart.scalar import rat

R = rat


def test_number_round_trip_exact():
    for x in (R(0), R(1, 3), R(-7, 5), R(10**20, 3)):
        assert read_number(write_number(x, "exact")) == x


def test_exact_mode_rejects_decimals():
    with pytest.raises(InputError):
        read_number(("decimal", "0.25"))
    assert read_number(("decimal", "0.25"), decimals=True) == R(1, 4)
    # decimals are read literally, not through binary floating point
    assert read_number(("decimal", "0.1"), decimals=True) == R(1, 10)


def test_integer_numbers_accepted():
    assert read_number(3) == R(3)


def test_quoted_decimal_rejected():
    with pytest.raises(InputError):
        read_number("0.5")


def test_curve_round_trip():
    c = PLCurve([0, R(1, 3), 1], [(0, 0), (R(1, 2), R(1, 5)), (1, 1)])
    assert curve_from_obj(curve_to_obj(c)) == c


def test_function_round_trip():
    f = PLFunction([(0, 0), (R(2, 7), R(5, 9)), (1, 1)])
    assert function_from_obj(function_to_obj(f)) == f


def test_result_serialization_schema():
    c = PLCurve([0, R(1, 2), 1], [(0, 0), (R(4, 5), R(1, 5)), (1, 1)])
    res = partition_below_diagonal(c, 1)
    obj = result_to_obj(res, "exact")
    assert set(obj) == {"S", "points", "dx", "dy", "rearrangement", "exact",
                        "residual", "trace"}
    assert obj["rearrangement"] == {"shift": 1}
    assert obj["residual"] == "0/1"
    assert obj["trace"]["branch"] == "below"


@pytest.mark.parametrize("value", [True, None, [1], {"p": 1}, 0.5])
def test_non_numbers_rejected(value):
    with pytest.raises(InputError) as err:
        read_number(value)
    assert str(err.value) == f"not a number: {value!r}"


@pytest.mark.parametrize("reader, obj, message", (
    (curve_from_obj, {"knots": [0, 1]}, "bad curve object: 'points'"),
    (curve_from_obj, {"knots": [0, 1], "points": [[0, 0], 1]},
     "bad curve object: cannot unpack non-iterable int object"),
    (function_from_obj, {}, "bad function object: 'breakpoints'"),
    (function_from_obj, {"breakpoints": [[0, 0, 0]]},
     "bad function object: too many values to unpack (expected 2)"),
    (density_from_obj, {"kind": "step", "knots": [0, 1]},
     "bad step density: 'values'"),
    (density_from_obj, {"kind": "step", "knots": [0, 1], "values": [1, 1]},
     "step density needs one more knot than values"),
), ids=("curve-no-points", "curve-bad-pair", "function-no-breakpoints",
        "function-bad-pair", "step-no-values", "step-lengths"))
def test_bad_objects_rejected(reader, obj, message):
    with pytest.raises(InputError) as err:
        reader(obj)
    assert str(err.value) == message


def test_unwritable_output_rejected(tmp_path):
    with pytest.raises(InputError) as err:
        dump_json({}, tmp_path)
    assert str(err.value).startswith(f"cannot write {tmp_path}: ")
