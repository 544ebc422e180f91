"""The socle oracle against its line-by-line reference.

``brute_force_semisimple`` spins one line per sink component of the line
graph, over a generating set of the operators; ``line_by_line_semisimple``
spins every line with every distinct nonzero operator.  Their verdicts must
agree everywhere both run, and the work saved is counted here by wrapping
the spin functions, with no hook in the package.  The graph, built by
linearity, and the spins read off it must equal the ones built by applying
the generators to vectors.
"""

from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import semisimple_reference
from semisimple_reference import (
    line_by_line_semisimple,
    line_graph_by_products,
    spin_algebra,
    spin_by_products,
)
from hopfcheck import semisimple
from hopfcheck.campaign import run_campaign
from hopfcheck.catalog import catalog_entries, hopf_entries, lookup, objects_over
from hopfcheck.duality import tensor_in_category
from hopfcheck.fields import GF
from hopfcheck.matrix import EchelonSpan, Matrix
from hopfcheck.semisimple import DEFAULT_ORACLE_BOUND, brute_force_semisimple

FP_FIELDS = ("F2", "F3", "F5", "F7")


def _within_cap(obj):
    return obj.field.characteristic**obj.dim <= DEFAULT_ORACLE_BOUND


def _fp_objects():
    return [
        e
        for e in catalog_entries()
        if e.kind != "hopf" and e.id.split("/")[1] in FP_FIELDS
    ]


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# verdicts pinned to the reference ------------------------------------------


def test_oracle_matches_the_reference_on_every_catalog_object_within_the_cap():
    objects = [e for e in _fp_objects() if e.expected_failure is None and _within_cap(e.payload)]
    assert len(objects) == 214
    verdicts = set()
    for e in objects:
        verdict = brute_force_semisimple(e.payload)
        assert verdict == line_by_line_semisimple(e.payload), e.id
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_oracle_matches_the_reference_on_every_same_kind_tensor_product_within_the_cap():
    # both verdicts depend only on the field, the dimension and the set of
    # operators, which many products share, so each input is checked once
    inputs = {}
    for hopf_entry in hopf_entries(FP_FIELDS):
        for kind in ("module", "comodule", "yd"):
            valid = [e.payload for e in objects_over(hopf_entry.id, kind) if e.expected_failure is None]
            for m, n in combinations_with_replacement(valid, 2):
                if _within_cap(m) and _within_cap(n):
                    t = tensor_in_category(m, n)
                    if _within_cap(t):
                        inputs.setdefault((t.field, t.dim, frozenset(t.operators)), (t, m.name, n.name))
    assert len(inputs) == 111
    for t, m_name, n_name in inputs.values():
        assert brute_force_semisimple(t) == line_by_line_semisimple(t), (m_name, n_name)


def _jordan_sum(p, dim, draw):
    rows = [[0] * dim for _ in range(dim)]
    start = 0
    while start < dim:
        size = draw(st.integers(1, dim - start))
        eigenvalue = draw(st.integers(0, p - 1))
        for i in range(start, start + size):
            rows[i][i] = eigenvalue
            if i + 1 < start + size:
                rows[i][i + 1] = 1
        start += size
    return rows


@st.composite
def operator_sets(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(0, {2: 6, 3: 4, 5: 3}[p]))
    family = draw(st.sampled_from(["jordan", "upper", "zero", "identity"]))
    operators = []
    for _ in range(draw(st.integers(1, 3))):
        if family == "jordan":
            rows = _jordan_sum(p, dim, draw)
        elif family == "upper":
            rows = [[draw(st.integers(0, p - 1)) if c >= r else 0 for c in range(dim)] for r in range(dim)]
        else:
            rows = [[int(family == "identity" and r == c) for c in range(dim)] for r in range(dim)]
        operators.append(Matrix(GF(p), dim, dim, rows))
    return SimpleNamespace(field=GF(p), dim=dim, operators=operators)


@settings(max_examples=300, deadline=None)
@given(operator_sets())
@example(SimpleNamespace(field=GF(2), dim=0, operators=[Matrix(GF(2), 0, 0, [])]))
@example(SimpleNamespace(field=GF(5), dim=0, operators=[]))
def test_oracle_matches_the_reference_on_drawn_operator_sets(obj):
    assert brute_force_semisimple(obj) == line_by_line_semisimple(obj)


# the line graph and its spins ----------------------------------------------


_SHIFT = [[int(c == r + 1) for c in range(4)] for r in range(4)]
_TRANSVECTION = [[int(r == c) + int((r, c) == (0, 3)) for c in range(4)] for r in range(4)]


@st.composite
def generator_sets(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, {2: 7, 3: 5, 5: 3, 7: 3}[p]))
    row = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    generators = draw(st.lists(st.lists(row, min_size=dim, max_size=dim), min_size=1, max_size=3))
    return generators, dim, p


@settings(max_examples=300, deadline=None)
@given(generator_sets())
@example(([[[3]], [[0]]], 1, 7))  # dim 1: every tail is empty
@example(([[[1] * 7 for _ in range(7)]], 7, 2))  # six carries deep over F2
@example(([_SHIFT, _TRANSVECTION], 4, 3))  # two generators over F3
def test_the_line_graph_built_by_linearity_equals_the_one_built_by_products(drawn):
    generators, dim, p = drawn
    assert semisimple._line_graph(generators, dim, p) == line_graph_by_products(generators, dim, p)


def _digits(code, dim, p):
    return [code // p ** (dim - 1 - i) % p for i in range(dim)]


def test_spins_read_off_the_graph_equal_the_spins_by_products_on_every_catalog_object():
    objects = [e.payload for e in _fp_objects() if e.expected_failure is None and _within_cap(e.payload)]
    assert len(objects) == 214
    sinks = 0
    for obj in objects:
        dim, p = obj.dim, obj.field.characteristic
        generators = semisimple._generators([op.entries for op in obj.operators], dim, p)
        lines, images = semisimple._line_graph(generators, dim, p)
        assert (lines, images) == line_graph_by_products(generators, dim, p), obj.name
        for code in semisimple._sink_lines(lines, images, p**dim):
            reference = spin_by_products(generators, _digits(code, dim, p), p)
            assert semisimple._spin(images, code, dim, p) == reference, obj.name
            sinks += 1
    assert sinks == 751


# the work saved ------------------------------------------------------------


def test_kds3_f3_regular_spins_one_line_per_coordinate(monkeypatch):
    """The six idempotents of k^S3 act diagonally, so only the coordinate
    lines are sinks: 6 spins, where the reference spins all 364 lines."""
    m = lookup("kdS3/F3/regular").payload
    spins = _count_calls(monkeypatch, semisimple, "_spin")
    reference_spins = _count_calls(monkeypatch, semisimple_reference, "spin_vector_space")
    assert brute_force_semisimple(m) is True
    assert line_by_line_semisimple(m) is True
    assert len(spins) == 6
    assert len(reference_spins) == (3**6 - 1) // 2 == 364


def test_the_oracle_campaign_spins_at_most_800_lines(monkeypatch):
    spins = _count_calls(monkeypatch, semisimple, "_spin")
    report = run_campaign(fields=list(FP_FIELDS), oracle=True)
    assert report.oracle["checked"] == 214
    assert len(report.oracle["skipped_bound_exceeded"]) == 8
    assert len(spins) <= 800


@pytest.mark.parametrize("p,dim", [(3, 8), (2, 12)])
def test_a_scalar_action_checks_each_spin_against_the_socle_once(monkeypatch, p, dim):
    """Under the identity alone every line is a sink, so all (p^dim - 1)/(p - 1)
    lines are spun, each a simple line.  A spin is checked once against the
    socle found so far, not against every simple found before it: one
    reduction per spin's seed and one per spin's row, after the two of the
    generator step."""
    field = GF(p)
    obj = SimpleNamespace(field=field, dim=dim, operators=[Matrix.identity(field, dim)])
    spins = _count_calls(monkeypatch, semisimple, "_spin")
    reductions = _count_calls(monkeypatch, semisimple, "_reduce")
    assert brute_force_semisimple(obj) is True
    assert len(spins) == (p**dim - 1) // (p - 1)
    assert len(reductions) <= 2 * len(spins) + 2


# the generator step --------------------------------------------------------


@pytest.mark.parametrize("field_name", FP_FIELDS)
def test_kept_generators_generate_the_algebra_of_all_operators(field_name):
    objects = [e for e in _fp_objects() if e.id.split("/")[1] == field_name]
    assert objects
    for e in objects:
        obj = e.payload
        field, dim, p = obj.field, obj.dim, obj.field.characteristic
        kept = [
            Matrix(field, dim, dim, rows)
            for rows in semisimple._generators([op.entries for op in obj.operators], dim, p)
        ]
        assert Matrix.identity(field, dim) not in kept, e.id
        assert spin_algebra(field, dim, kept) == spin_algebra(field, dim, obj.operators), e.id
        # each kept operator lies outside the algebra its predecessors generate
        for i, g in enumerate(kept):
            earlier = EchelonSpan(field, dim * dim)
            for x in spin_algebra(field, dim, kept[:i]):
                earlier.add(x.flatten())
            assert not earlier.contains(g.flatten()), e.id
