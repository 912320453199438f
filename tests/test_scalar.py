import pytest

from curvepart import InputError, format_rational, parse_rational, rat
from curvepart.scalar import MAX_DECIMAL_EXPONENT, parse_tolerance


def test_lowest_terms_positive_denominator():
    x = rat(-4, -6)
    assert x.numerator == 2 and x.denominator == 3
    y = rat(4, -6)
    assert y.numerator == -2 and y.denominator == 3


def test_exact_arithmetic():
    assert rat(1, 3) + rat(1, 6) == rat(1, 2)
    assert rat(1, 3) * 3 == 1
    assert rat(7, 2) - rat(3) == rat(1, 2)
    assert rat(1, 7) / rat(2, 7) == rat(1, 2)


def test_parse_forms():
    assert parse_rational("4/9") == rat(4, 9)
    assert parse_rational("-3/6") == rat(-1, 2)
    assert parse_rational("0.1") == rat(1, 10)
    assert parse_rational("1e-9") == rat(1, 10**9)
    assert parse_rational(7) == rat(7)


def test_parse_rejects_junk():
    with pytest.raises(InputError):
        parse_rational("one half")
    with pytest.raises(InputError):
        parse_rational("1/0")


def test_exponent_at_the_bound_parses():
    assert MAX_DECIMAL_EXPONENT == 4300
    assert parse_rational("1e-4300") == rat(1, 10**4300)
    assert parse_rational("2.5E+4300") == rat(25 * 10**4299)


@pytest.mark.parametrize("text", ["1e-4301", "1E4301", "1e-999999999",
                                  "1.5e-1_000_000"])
def test_exponent_beyond_the_bound_refused(text):
    # refused before Fraction builds 10**|exponent|
    with pytest.raises(InputError) as err:
        parse_tolerance(text)
    assert str(err.value) == (
        f"decimal exponent of {text!r} exceeds 4300 in magnitude")


def test_overlong_exponent_digits_refused():
    with pytest.raises(InputError, match="not a rational number"):
        parse_rational("1e" + "9" * 5000)


def test_int_past_the_digit_cap_converts_exactly():
    # int(str(x)) would refuse these; the digit cap guards text only
    big = 10**5000 + 1
    assert parse_rational(big) == rat(big)
    assert parse_rational(-big) == rat(-big)
    assert parse_rational(rat(1, big)) == rat(1, big)
    assert parse_tolerance(big) == rat(big)
    with pytest.raises(InputError) as err:
        parse_tolerance(-big)
    assert str(err.value) == "tolerance must not be negative"
    with pytest.raises(InputError, match="not a rational number"):
        parse_rational(True)


def test_format_always_has_denominator():
    assert format_rational(rat(1, 2)) == "1/2"
    assert format_rational(rat(3)) == "3/1"
    assert format_rational(rat(0)) == "0/1"
    assert format_rational(rat(-5, 10)) == "-1/2"


def test_round_trip():
    for p, q in [(0, 1), (22, 7), (-13, 11), (10**30 + 1, 10**15)]:
        x = rat(p, q)
        assert parse_rational(format_rational(x)) == x
