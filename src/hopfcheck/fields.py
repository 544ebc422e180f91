"""Exact base-field arithmetic: the rationals and prime fields F_p.

Scalars are plain Python values interpreted relative to a field object:
for the rationals an ``int`` or a ``Fraction`` (never a float), for F_p an
``int`` in ``[0, p)``.  All arithmetic goes through the field (or, for
matrices, through ``matrix.Matrix``), so scalars of two fields never mix.
"""

from __future__ import annotations

import re
from fractions import Fraction

# digits and one slash only: Fraction() alone would also take "1e999999999"
_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integral(x: Fraction):
    """``x`` as an ``int`` when it is integral."""
    return x.numerator if x.denominator == 1 else x


class NotInvertibleError(ZeroDivisionError):
    """Raised when inverting 0, the only non-unit in a field."""


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for machine-word moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface for the two supported base fields."""

    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    # document encoding -----------------------------------------------------

    def scalar_to_doc(self, a):
        raise NotImplementedError

    def scalar_from_doc(self, value):
        raise NotImplementedError

    def table_to_doc(self, table: list) -> list:
        """A nested list of scalars (a vector, a matrix's rows, a tensor) as
        the same nesting of document scalars.  A matrix is written by one
        comprehension: most tables are many small matrices, and a call per
        row would cost more than its scalars."""
        scalar = self.scalar_to_doc
        if not table or not isinstance(table[0], list):
            return [scalar(x) for x in table]
        if table[0] and isinstance(table[0][0], list):
            return [self.table_to_doc(t) for t in table]
        return [[scalar(x) for x in row] for row in table]

    def spec_to_doc(self):
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic.

    A scalar is an ``int`` or a ``Fraction``, never a float.  ``from_int``,
    document integers, integral inverses and integral entries of a matrix
    product are ``int``; elimination may leave an integral value as
    ``Fraction(n, 1)``.  ``int`` and ``Fraction`` compare, hash and print
    alike, so the two may meet in one matrix.  The only true division is
    ``invert``'s, on a ``Fraction``: ``int / int`` would make a float.
    """

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if not a:
            raise NotInvertibleError("0 has no inverse")
        return _integral(1 / Fraction(a))

    def is_zero(self, a) -> bool:
        return not a

    def scalar_to_doc(self, a):
        # canonical form: "a" for integers, "a/b" otherwise, denominator > 0
        return str(a)

    def scalar_from_doc(self, value):
        """A JSON integer, or a string "a" or "a/b" in lowest terms with b > 1:
        exactly the canonical form ``scalar_to_doc`` emits.  Integers come
        back as ``int``, "a/b" as ``Fraction``."""
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str) and _RATIONAL_LITERAL.fullmatch(value):
            try:
                x = Fraction(value)
            except (ValueError, ZeroDivisionError):  # over int()'s digit limit, or "a/0"
                x = None
            if x is not None and str(x) == value:
                return _integral(x)
        raise ValueError(f"not a rational literal: {value!r}")

    def spec_to_doc(self):
        return "Q"

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p with residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"not an integer characteristic: {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 2 <= p < 2**31:
            raise ValueError(f"prime {p} out of the supported machine-word range")
        self.p = p
        self.characteristic = p
        # hashed on every memoized (dim, field) lookup, so computed once
        self._hash = hash(("Fp", p))

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise NotInvertibleError(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def scalar_to_doc(self, a):
        return a % self.p

    def scalar_from_doc(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"not an F_{self.p} residue: {value!r}")
        return value % self.p

    def spec_to_doc(self):
        return {"Fp": self.p}

    def __repr__(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return self._hash


QQ = Rationals()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Cached prime-field constructor."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def field_from_doc(doc) -> Field:
    """Decode a field descriptor: "Q" or {"Fp": p} with p a JSON integer."""
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"Fp"}:
        p = doc["Fp"]
        # 3.0 == 3 would find the cached F3, and 11.5 would make float arithmetic
        if isinstance(p, int) and not isinstance(p, bool):
            return GF(p)
    raise ValueError(f"unrecognized field descriptor: {doc!r}")


def field_by_name(name: str) -> Field:
    """Decode the CLI spelling: "Q" or "F<p>" / "Fp:<p>"."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return GF(int(name[3:]))
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError(f"unrecognized field name: {name!r}")


def field_name(field: Field) -> str:
    return "Q" if field.characteristic == 0 else f"F{field.characteristic}"
