import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_reference import reference_product, reference_rref, vstack
from hopfcheck.fields import GF, QQ
from hopfcheck.matrix import (
    EchelonSpan,
    Matrix,
    NoSolutionError,
    hstack,
    kernel_basis,
    solve_linear,
)


def q(*rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def test_solve_identity_system():
    b = Matrix.column(QQ, [Fraction(3), Fraction(4)])
    x = solve_linear(Matrix.identity(QQ, 2), b)
    assert x == b


def test_solve_inconsistent():
    a = q([1, 1], [1, 1])
    b = Matrix.column(QQ, [Fraction(1), Fraction(0)])
    with pytest.raises(NoSolutionError):
        solve_linear(a, b)


def test_solve_matches_invert_mod_five():
    a = Matrix.from_rows(GF(5), [[2]])
    x = solve_linear(a, Matrix.column(GF(5), [1]))
    assert x.entries == [[3]]


def test_solve_remultiplies_exactly():
    rng = random.Random(7)
    for field in (QQ, GF(7)):
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            if field.characteristic == 0:
                a = Matrix.from_rows(
                    field,
                    [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)],
                )
                x0 = Matrix.column(field, [Fraction(rng.randint(-4, 4)) for _ in range(cols)])
            else:
                a = Matrix.from_rows(
                    field, [[rng.randrange(7) for _ in range(cols)] for _ in range(rows)]
                )
                x0 = Matrix.column(field, [rng.randrange(7) for _ in range(cols)])
            b = a * x0
            x = solve_linear(a, b)
            assert a * x == b


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_of_zero_matrix():
    vs = kernel_basis(Matrix.zeros(GF(2), 2, 2))
    assert len(vs) == 2


def test_kernel_canonical_form():
    vs = kernel_basis(q([1, 1]))
    assert len(vs) == 1
    assert vs[0].entries == [[Fraction(1)], [Fraction(-1)]]


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(99)
    for field in (QQ, GF(3)):
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            if field.characteristic == 0:
                a = Matrix.from_rows(
                    field,
                    [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)],
                )
            else:
                a = Matrix.from_rows(
                    field, [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
                )
            vs = kernel_basis(a)
            assert len(vs) == cols - a.rank()
            for v in vs:
                assert (a * v).is_zero()


def test_kernel_is_basis_independent_of_input_presentation():
    a = q([1, 2, 3], [2, 4, 6])
    b = q([2, 4, 6], [1, 2, 3])
    assert [v.entries for v in kernel_basis(a)] == [v.entries for v in kernel_basis(b)]


def test_rref_leading_ones():
    r, pivots = q([2, 4], [1, 3]).rref()
    assert pivots == [0, 1]
    assert r.is_identity()


def test_kron_ordering_second_factor_fastest():
    a = q([0, 1], [1, 0])
    b = q([1, 0], [0, -1])
    k = a.kron(b)
    # block (r, c) of the product sits at rows 2r..2r+1, cols 2c..2c+1
    assert k.entries[0][2] == Fraction(1)
    assert k.entries[1][3] == Fraction(-1)
    assert k.entries[2][0] == Fraction(1)
    assert k.rows == k.cols == 4


def test_matmul_and_power():
    p = q([0, 1], [1, 0])
    assert (p * p).is_identity()
    assert p.power(5) == p
    assert p.power(0).is_identity()
    # int and Fraction(n, 1) entries compare by value; a non-square matrix is no identity
    assert Matrix.from_rows(QQ, [[Fraction(1), 0], [0, 1]]).is_identity()
    assert Matrix.from_rows(QQ, [[1, Fraction(0)], [Fraction(0), Fraction(1)]]).is_identity()
    assert not Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]).is_identity()
    assert not Matrix.from_rows(GF(3), [[1, 0], [0, 1], [0, 0]]).is_identity()
    assert not Matrix.zeros(QQ, 0, 2).is_identity()


def test_trace_transpose_stack():
    m = q([1, 2], [3, 4])
    assert m.trace() == Fraction(5)
    assert m.transpose().entries == [[1, 3], [2, 4]]
    assert hstack(m, m).cols == 4
    assert vstack(m, m).rows == 4


def test_zero_dimensional_matrices():
    z = Matrix.zeros(QQ, 0, 0)
    assert z.is_identity()
    assert kernel_basis(Matrix.zeros(QQ, 0, 3)) != []  # everything is in the kernel
    assert solve_linear(Matrix.identity(QQ, 0), Matrix.zeros(QQ, 0, 0)).rows == 0


def test_echelon_span_membership_and_canonical_rows():
    span = EchelonSpan(QQ, 3)
    assert span.add([Fraction(2), Fraction(0), Fraction(2)])
    assert span.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not span.add([Fraction(2), Fraction(1), Fraction(3)])
    assert span.dim == 2
    assert span.contains([Fraction(1), Fraction(1), Fraction(2)])
    assert not span.contains([Fraction(1), Fraction(0), Fraction(0)])
    assert span.basis_rows() == [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]


# the product kernel against the entrywise reference ----------------------------------

_RATIONALS = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),  # integral ones too
)


@st.composite
def _rows(draw, n, m, scalars):
    # whole zero rows exercise the skip of zero entries
    return [[0] * m if draw(st.booleans()) else [draw(scalars) for _ in range(m)] for _ in range(n)]


@st.composite
def _product_operands(draw, scalars):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    return r, k, c, draw(_rows(r, k, scalars)), draw(_rows(k, c, scalars))


@settings(max_examples=300, deadline=None)
@given(_product_operands(_RATIONALS))
def test_rational_product_matches_the_fraction_reference(operands):
    r, k, c, a, b = operands
    got = Matrix(QQ, r, k, a) * Matrix(QQ, k, c, b)
    assert (got.rows, got.cols) == (r, c)
    assert got.entries == reference_product(a, b, k, c)
    for x in got.flatten():
        # an int exactly when integral, never a float
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 2**31 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), _product_operands(st.integers(0, p - 1)))
))
def test_prime_field_product_matches_the_reference(case):
    p, (r, k, c, a, b) = case
    got = Matrix(GF(p), r, k, a) * Matrix(GF(p), k, c, b)
    assert got.entries == reference_product(a, b, k, c, p)
    assert all(type(x) is int for x in got.flatten())


@st.composite
def _rref_case(draw):
    # zero, full-rank, rank-deficient, tall and wide matrices over Q and F2..F7
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    scalars = _RATIONALS if not p else st.integers(0, p - 1)
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        return p, r, c, draw(_rows(r, c, scalars))
    # every row a combination of fewer base rows: rank below min(r, c) when r > 1
    base = draw(_rows(draw(st.integers(0, max(r - 1, 0))), c, scalars))
    rows = []
    for _ in range(r):
        coeffs = [draw(scalars) for _ in base]
        row = [sum((k * b[col] for k, b in zip(coeffs, base)), 0) for col in range(c)]
        rows.append([x % p for x in row] if p else row)
    return p, r, c, rows


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_rref_matches_the_gauss_jordan_reference(case):
    p, r, c, rows = case
    m = Matrix(GF(p) if p else QQ, r, c, rows)
    before = [row[:] for row in rows]
    got, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert (got.rows, got.cols) == (r, c)
    assert got.entries == want.entries
    assert pivots == want_pivots
    assert m.entries == before  # the input is left as it was


@pytest.mark.parametrize(
    "make",
    [
        lambda: Matrix.identity(QQ, 2) + Matrix.identity(QQ, 3),
        lambda: Matrix.identity(QQ, 2) - Matrix.identity(QQ, 3),
        lambda: Matrix.identity(QQ, 2) + Matrix.zeros(QQ, 2, 3),
    ],
)
def test_sum_of_mismatched_shapes_is_refused(make):
    # zip alone would silently truncate to the common top-left block
    with pytest.raises(ValueError, match="shape mismatch"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Matrix.identity(GF(3), 2) + Matrix.identity(GF(5), 2),
        lambda: Matrix.identity(GF(3), 2) - Matrix.identity(GF(5), 2),
        lambda: Matrix.identity(QQ, 2) * Matrix.identity(GF(5), 2),
        lambda: Matrix.identity(GF(5), 2) * Matrix.identity(QQ, 2),
        lambda: Matrix.identity(GF(3), 2) * Matrix.identity(GF(5), 2),
    ],
)
def test_arithmetic_across_fields_is_refused(make):
    with pytest.raises(ValueError, match="field mismatch"):
        make()
