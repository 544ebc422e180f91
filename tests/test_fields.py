import random
import re
from fractions import Fraction

import pytest

from hopfcheck import fields
from hopfcheck.fields import (
    GF,
    QQ,
    NotInvertibleError,
    PrimeField,
    field_by_name,
    field_from_doc,
    is_prime,
)


def test_invert_rational():
    assert QQ.invert(Fraction(2)) == Fraction(1, 2)


def test_invert_mod_five():
    assert GF(5).invert(2) == 3


def test_invert_zero_raises():
    with pytest.raises(NotInvertibleError):
        GF(3).invert(0)
    with pytest.raises(NotInvertibleError):
        QQ.invert(Fraction(0))


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(2).p == 2


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(97)])
def test_invert_roundtrip_random(field):
    rng = random.Random(20240817)
    for _ in range(200):
        if field.characteristic == 0:
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        else:
            a = rng.randrange(field.characteristic)
        if field.is_zero(a):
            continue
        assert field.mul(a, field.invert(a)) == field.one()


def test_residues_stay_reduced():
    f = GF(7)
    assert f.sub(2, 5) == 4
    assert f.neg(3) == 4
    assert f.from_int(-1) == 6


def test_rational_doc_encoding():
    assert QQ.scalar_to_doc(Fraction(3)) == "3"
    assert QQ.scalar_to_doc(Fraction(-3, 2)) == "-3/2"
    assert QQ.scalar_from_doc("7/4") == Fraction(7, 4)
    assert QQ.scalar_from_doc(5) == Fraction(5)
    with pytest.raises(ValueError):
        QQ.scalar_from_doc([1])


@pytest.mark.parametrize(
    "literal", ["1.5", "1e3", "1_000", " 3 ", "+3", "2/4", "3/1", "1/0", "-0", "007", True, False, None]
)
def test_rational_literals_outside_the_canonical_grammar_are_rejected(literal):
    # only "a" or "a/b" in lowest terms with b > 1, and JSON integers
    with pytest.raises(ValueError, match="not a rational literal"):
        QQ.scalar_from_doc(literal)


def test_prime_field_doc_encoding():
    f = GF(5)
    assert f.scalar_to_doc(7) == 2
    assert f.scalar_from_doc(9) == 4
    with pytest.raises(ValueError):
        f.scalar_from_doc("3")


def test_field_spec_encoding():
    assert QQ.spec_to_doc() == "Q"
    assert GF(11).spec_to_doc() == {"Fp": 11}
    assert field_from_doc("Q") is QQ
    assert field_from_doc({"Fp": 11}) == GF(11)
    with pytest.raises(ValueError):
        field_from_doc({"Fq": 4})


@pytest.mark.parametrize("p", [11.5, 11.0, 3.0, True, "7"])
def test_prime_field_descriptor_needs_a_json_integer(p):
    with pytest.raises(ValueError):
        field_from_doc({"Fp": p})
    with pytest.raises(ValueError):
        PrimeField(p)


@pytest.mark.parametrize("p", [2**31, 2**61 - 1, 2**100 + 277])
def test_a_characteristic_beyond_the_machine_word_is_refused_before_trial_division(p, monkeypatch):
    # trial division takes time proportional to sqrt(p): about 85 s for
    # 2^61 - 1, so an untrusted descriptor must be refused by its range first
    def never(n):
        raise AssertionError(f"is_prime({n}) was called")

    monkeypatch.setattr(fields, "is_prime", never)
    for build in (lambda: PrimeField(p), lambda: field_from_doc({"Fp": p}), lambda: field_by_name(f"Fp:{p}")):
        with pytest.raises(ValueError, match=f"prime {p} out of the supported machine-word range"):
            build()
    monkeypatch.undo()
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("F7") == GF(7)
    assert field_by_name("Fp:13") == GF(13)
    with pytest.raises(ValueError):
        field_by_name("R")


def test_integral_rationals_are_ints():
    for x, want in ((QQ.zero(), 0), (QQ.one(), 1), (QQ.from_int(3), 3)):
        assert type(x) is int and x == want


def test_rational_inverse_is_an_int_exactly_when_integral():
    assert type(QQ.invert(-1)) is int and QQ.invert(-1) == -1
    assert type(QQ.invert(Fraction(1))) is int and QQ.invert(Fraction(1)) == 1
    assert type(QQ.invert(Fraction(1, 3))) is int and QQ.invert(Fraction(1, 3)) == 3
    assert type(QQ.invert(2)) is Fraction and QQ.invert(2) == Fraction(1, 2)
    assert type(QQ.invert(Fraction(-2, 3))) is Fraction and QQ.invert(Fraction(-2, 3)) == Fraction(-3, 2)


def test_rational_literals_decode_to_int_or_fraction():
    assert type(QQ.scalar_from_doc(3)) is int and QQ.scalar_from_doc(3) == 3
    assert type(QQ.scalar_from_doc("3")) is int and QQ.scalar_from_doc("3") == 3
    assert type(QQ.scalar_from_doc("-3/2")) is Fraction and QQ.scalar_from_doc("-3/2") == Fraction(-3, 2)
    # the encoding cannot tell the two representations apart
    assert QQ.scalar_to_doc(3) == QQ.scalar_to_doc(Fraction(3)) == "3"


def _canonical_by_round_trip(value):
    """The earlier definition of the canonical grammar: digits and one slash,
    then ``str(Fraction(value)) == value``; what it accepts, or ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError):
            x = None
        if x is not None and str(x) == value:
            return x.numerator if x.denominator == 1 else x
    raise ValueError(value)


def _decoded(decode, value):
    try:
        x = decode(value)
    except ValueError:
        return "refused"
    return type(x), x


def test_rational_literals_are_accepted_exactly_as_the_round_trip_accepts_them():
    big = "9" * 4300
    literals = [
        "0", "-0", "-0/1", "0/1", "0/5", "-0/5", "1/1", "3/1", "-3/1", "2/4", "10/15", "-10/15", "007", "-007",
        "1/007", "7/4", "-7/4", "1/2", "-1/2", "12", "-12", "1/0", "0/0", "3/-2", "-", "/", "1/", "/2", "",
        "1_0", "1/1_0", "+3", " 3", "3 ", "1.5", "1e3", "١٢", "1/٢", "٣",
        "5" * 5000, "1/" + "7" * 5000, big, "-" + big, "1/" + big, big + "/" + "1" + "0" * 4299,
        "1" + "0" * 4299 + "/" + "3" * 4300,
        0, 3, -7, 10**50, True, False, None, 1.5, [1], {"1": 2},
    ]
    rng = random.Random(20261022)
    literals += ["".join(rng.choice("0123456789-/") for _ in range(rng.randint(1, 7))) for _ in range(20000)]
    literals += [f"{rng.randint(-999, 999)}/{rng.randint(0, 999)}" for _ in range(20000)]
    accepted = 0
    for value in literals:
        want = _decoded(_canonical_by_round_trip, value)
        assert _decoded(QQ.scalar_from_doc, value) == want, repr(value)[:80]
        accepted += want != "refused"
    assert accepted > 10000
    # "a" decodes to an int and "a/b" to a Fraction, however large
    for value, kind in (("-12", int), ("5" * 4000, int), ("-7/4", Fraction), ("1/" + "7" * 4000, Fraction)):
        assert type(QQ.scalar_from_doc(value)) is kind, value[:20]
