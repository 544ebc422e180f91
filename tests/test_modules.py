import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hopfcheck.catalog import catalog_entries, hopf_entries, lookup, objects_over
from hopfcheck.duality import hom_in_category, tensor_in_category
from hopfcheck.errors import HopfMismatchError
from hopfcheck.fields import QQ
from hopfcheck.matrix import Matrix
from hopfcheck.modules import (
    ModuleRep,
    check_module_axioms,
    dual_module,
    tensor_modules,
    trivial_module,
)

SWAP = [[0, 1], [1, 0]]


def test_trivial_module_values_group_algebra():
    triv = lookup("kC2/Q/trivial").payload
    assert all(a.entries == [[Fraction(1)]] for a in triv.action)


def test_trivial_module_values_sweedler():
    triv = lookup("H4/Q/trivial").payload
    # basis order 1, g, x, gx
    assert [a.entries[0][0] for a in triv.action] == [1, 1, 0, 0]


def test_trivial_module_axioms_over_every_hopf():
    for hid in ("kC3/F3", "kdS3/F5", "H4/F5"):
        assert check_module_axioms(trivial_module(lookup(hid).payload)).ok


def test_regular_module_axioms():
    assert check_module_axioms(lookup("kC2/Q/regular").payload).ok


def test_corrupted_action_reports_violating_pair():
    reg = lookup("kC2/Q/regular").payload
    bad_action = [Matrix(QQ, 2, 2, [row[:] for row in a.entries]) for a in reg.action]
    bad_action[1].entries[0][0] = Fraction(5)
    bad = ModuleRep(reg.algebra, 2, bad_action, name="bad")
    report = check_module_axioms(bad)
    assert not report.ok
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].first_violation is not None


def test_tensor_with_trivial_is_identity_on_actions():
    for mid in ("kC2/Q/regular", "kS3/F2/perm", "H4/Q/h4mod2"):
        m = lookup(mid).payload
        triv = trivial_module(m.algebra)
        left = tensor_modules(triv, m)
        for got, want in zip(left.action, m.action):
            assert got == want, mid


def test_tensor_regular_regular_c2_group_like_acts_by_swap_kron_swap():
    reg = lookup("kC2/Q/regular").payload
    square = tensor_modules(reg, reg)
    p = Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in SWAP])
    assert square.action[1] == p.kron(p)
    assert square.dim == 4


def test_tensor_axioms_for_catalog_pairs():
    pairs = [
        ("kC2/F2/regular", "kC2/F2/unipotent2"),
        ("kS3/Q/perm", "kS3/Q/sign"),
        ("kS3/F3/std2", "kS3/F3/regular"),
        ("H4/F5/regular", "H4/F5/h4mod2"),
    ]
    for a, b in pairs:
        t = tensor_modules(lookup(a).payload, lookup(b).payload)
        assert check_module_axioms(t).ok, (a, b)


def test_tensor_respects_dimensions():
    perm = lookup("kS3/Q/perm").payload
    std = lookup("kS3/Q/std2").payload
    assert tensor_modules(perm, std).dim == 6


def test_tensor_rejects_mismatched_hopfs():
    with pytest.raises(HopfMismatchError):
        tensor_modules(lookup("kC2/Q/regular").payload, lookup("kC3/Q/trivial").payload)


def test_tensor_associativity_is_exact_equality():
    triples = [
        ("kC2/Q/regular", "kC2/Q/regular", "kC2/Q/trivial"),
        ("kS3/F2/perm", "kS3/F2/sign", "kS3/F2/std2"),
    ]
    for a, b, c in triples:
        ma, mb, mc = (lookup(x).payload for x in (a, b, c))
        left = tensor_modules(tensor_modules(ma, mb), mc)
        right = tensor_modules(ma, tensor_modules(mb, mc))
        assert left.action == right.action, (a, b, c)


def test_dual_of_trivial_is_trivial():
    for hid in ("kC2/Q", "kS3/F3", "H4/Q"):
        triv = trivial_module(lookup(hid).payload)
        assert dual_module(triv).action == triv.action, hid


def test_dual_of_regular_c2():
    reg = lookup("kC2/Q/regular").payload
    dual = dual_module(reg)
    # S(g) = g and the swap matrix is symmetric, so the action is unchanged
    assert dual.action[1] == reg.action[1]
    assert check_module_axioms(dual).ok


def test_dual_module_satisfies_axioms_even_for_sweedler():
    for mid in ("H4/Q/regular", "H4/Q/h4mod2", "H4/F5/regular", "kS3/F2/perm"):
        assert check_module_axioms(dual_module(lookup(mid).payload)).ok, mid


def test_double_dual_is_identity_for_involutory():
    for mid in ("kC2/Q/regular", "kS3/F3/perm", "kS3/F5/std2", "kdC3/F2/regular"):
        m = lookup(mid).payload
        assert dual_module(dual_module(m)).action == m.action, mid


def _first_multiplicativity_violation_reference(m: ModuleRep):
    """The first (i, j) with A_i A_j != sum_t m_ij^t A_t, from Matrix sums."""
    alg = m.algebra
    for i in range(alg.dim):
        for j in range(alg.dim):
            comb = Matrix.zeros(alg.field, m.dim, m.dim)
            for t, c in enumerate(alg.mult[i][j]):
                comb = comb + m.action[t].scale(c)
            if m.action[i] * m.action[j] != comb:
                return (i, j)
    return None


def _perturbed(face: ModuleRep, rng: random.Random) -> ModuleRep:
    """``face`` with one entry of one action matrix moved by a nonzero
    amount (half the time 1/2 over Q)."""
    field = face.field
    action = [Matrix(field, a.rows, a.cols, [row[:] for row in a.entries]) for a in face.action]
    k, r, c = rng.randrange(len(action)), rng.randrange(face.dim), rng.randrange(face.dim)
    bump = field.from_int(rng.randrange(1, field.characteristic or 4))
    if not field.characteristic and rng.random() < 0.5:
        bump = Fraction(1, 2)
    action[k].entries[r][c] = field.add(action[k].entries[r][c], bump)
    return ModuleRep(face.algebra, face.dim, action, name="perturbed")


def _reported_multiplicativity_violation(m: ModuleRep):
    (mult,) = [check for check in check_module_axioms(m).checks if check.name == "action_multiplicative"]
    return mult.first_violation


def _same_kind_products(max_dim: int):
    """Every product a (x) b of two valid catalog objects of one kind over
    one Hopf algebra, a <= b by id, with dim a * dim b <= max_dim."""
    for hopf in hopf_entries():
        for kind in ("module", "comodule", "yd"):
            objects = [e for e in objects_over(hopf.id, kind) if e.expected_failure is None and e.payload.dim]
            for a, b in combinations_with_replacement(objects, 2):
                if a.payload.dim * b.payload.dim <= max_dim:
                    yield f"{a.id} (x) {b.id}", tensor_in_category(a.payload, b.payload)


def test_perturbed_modules_report_the_reference_first_violation():
    """The module law is checked on the algebra's generator rows and falls
    back to the full scan on a failure, so the first violation reported is
    the full scan's: on every face (the H-module, the H*-module of a
    comodule, both faces of a YD module) of every catalog object and of the
    same-kind products of dim <= 12."""
    rng = random.Random(7)
    perturbed = dict.fromkeys(("module", "comodule", "yd", "product"), 0)
    subjects = [(e.kind, e.id, e.payload) for e in catalog_entries() if e.kind != "hopf" and e.payload.dim]
    subjects += [("product", pid, obj) for pid, obj in _same_kind_products(12)]
    for kind, oid, obj in subjects:
        for face in obj.faces:
            for _ in range(3):
                bad = _perturbed(face, rng)
                violation = _reported_multiplicativity_violation(bad)
                assert violation == _first_multiplicativity_violation_reference(bad), oid
                perturbed[kind] += violation is not None
    assert perturbed["module"] > 100
    assert min(perturbed.values()) > 50, perturbed


def test_action_of_vector_equals_the_matrix_sum():
    # every face of every catalog module and comodule, on the unit, each
    # antipode column and random vectors (with fractions over Q)
    rng = random.Random(11)
    checked = 0
    for entry in catalog_entries():
        if entry.kind not in ("module", "comodule"):
            continue
        (face,) = entry.payload.faces
        field, n = face.field, face.algebra.dim
        p = field.characteristic
        vectors = [face.algebra.unit] + face.hopf.antipode.transpose().entries
        for _ in range(2):
            vec = [field.from_int(rng.randrange(-3, 4)) for _ in range(n)]
            vectors.append([Fraction(x, 3) for x in vec] if not p else vec)
        for vec in vectors:
            want = Matrix.zeros(field, face.dim, face.dim)
            for coeff, a in zip(vec, face.action):
                want = want + a.scale(coeff)
            got = face.action_of_vector(vec)
            assert got == want, entry.id
            if p:
                assert all(0 <= x < p for row in got.entries for x in row), entry.id
            checked += 1
    assert checked == 1401


def test_hom_trivial_to_trivial_is_one_dimensional():
    triv = lookup("kC2/Q/trivial").payload
    assert len(hom_in_category(triv, triv)) == 1


def test_hom_regular_to_trivial_is_augmentation():
    reg = lookup("kC2/Q/regular").payload
    triv = lookup("kC2/Q/trivial").payload
    basis = hom_in_category(reg, triv)
    assert len(basis) == 1
    assert basis[0].entries == [[Fraction(1), Fraction(1)]]


def test_hom_sign_to_trivial_is_zero():
    sign = lookup("kS3/Q/sign").payload
    triv = lookup("kS3/Q/trivial").payload
    assert hom_in_category(sign, triv) == []


def test_hom_intertwines():
    perm = lookup("kS3/Q/perm").payload
    std = lookup("kS3/Q/std2").payload
    for g in hom_in_category(perm, std):
        for i in range(perm.algebra.dim):
            assert g * perm.action[i] == std.action[i] * g


def test_zero_dimensional_module_through_the_operations():
    h = lookup("kC2/Q").payload
    zero_mod = ModuleRep(h, 0, [Matrix.zeros(QQ, 0, 0) for _ in range(h.dim)], name="zero")
    assert check_module_axioms(zero_mod).ok
    reg = lookup("kC2/Q/regular").payload
    t = tensor_modules(zero_mod, reg)
    assert t.dim == 0 and check_module_axioms(t).ok
    assert dual_module(zero_mod).dim == 0
    assert hom_in_category(reg, zero_mod) == []
