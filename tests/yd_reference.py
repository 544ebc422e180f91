"""The Yetter-Drinfel'd compatibility law, product and dual written out
coefficient by coefficient, which the tests pin ``yd`` and ``duality`` to.

For every algebra basis element b_i and space basis vector e_a,
``compat_violation_reference`` expands both sides of

    h_(1) m_<0>  (x)  h_(2) m_<1>   =   (h_(2) m)_<0>  (x)  (h_(2) m)_<1> h_(1)

into their coefficients on e_r (x) b_u and compares them, reading the
action and the coaction straight off their tables.  It shares no code
with the straightening identity the engine checks.

The engine takes a YD object's H*-face over (H^op)*, so its product
coaction is m_<0> (x) n_<0> (x) n_<1> m_<1> and its dual coaction goes
through S^-1; ``yd_tensor_coaction`` and ``yd_dual_coaction`` are these two
on coaction tensors.  ``adjoint_yd`` and ``e2_algebra`` give YD modules
over Hopf algebras with S^2 != id, H4 and E(2), on which the left-right
order matters.
"""

from math import prod

from hopfcheck.catalog import _hopf_from_ints
from hopfcheck.comodules import regular_comodule
from hopfcheck.fields import field_name
from hopfcheck.matrix import Matrix, solve_linear
from hopfcheck.modules import ModuleRep
from hopfcheck.yd import YDModuleRep


def antipode_inverse(h):
    """The entries of S^-1, solved for."""
    return solve_linear(h.antipode, Matrix.identity(h.field, h.dim)).entries


def e2_algebra(field):
    """E(2): c^2 = 1, x_k^2 = 0, x_1 x_2 = -x_2 x_1 and x_k c = -c x_k, with
    c grouplike, Delta(x_k) = x_k (x) 1 + c (x) x_k and S(x_k) = -c x_k, on
    the words c^a x_1^b x_2^d at index a + 2b + 4d; on the first four it is
    H4 on the catalog's basis.  S has order four."""
    words = [(i % 2, i // 2 % 2, i // 4) for i in range(8)]

    def times(i, j):  # b_i b_j as (sign, index), or None when it is zero
        (a, b, d), (a2, b2, d2) = words[i], words[j]
        if b + b2 > 1 or d + d2 > 1:
            return None
        return (-1) ** (a2 * (b + d) + d * b2), (a + a2) % 2 + 2 * (b + b2) + 4 * (d + d2)

    def mul(x, y):  # elements of H or H (x) H as dicts keyed by tuples of indices
        out = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                legs = [times(p, q) for p, q in zip(kx, ky)]
                if None not in legs:
                    key = tuple(index for _, index in legs)
                    out[key] = out.get(key, 0) + cx * cy * prod(sign for sign, _ in legs)
        return out

    mult = [[[0] * 8 for _ in range(8)] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            if (word := times(i, j)) is not None:
                mult[i][j][word[1]] = word[0]
    # Delta and S on the generators c, x_1, x_2, at indices 1, 2, 4
    delta = {1: {(1, 1): 1}, 2: {(2, 0): 1, (1, 2): 1}, 4: {(4, 0): 1, (1, 4): 1}}
    antipode = {1: {(1,): 1}, 2: {(3,): -1}, 4: {(5,): -1}}
    comult, columns = [], []
    for a, b, d in words:
        dw, sw = {(0, 0): 1}, {(0,): 1}
        for g in [1] * a + [2] * b + [4] * d:
            dw, sw = mul(dw, delta[g]), mul(antipode[g], sw)  # S reverses products
        comult.append([[dw.get((j, t), 0) for t in range(8)] for j in range(8)])
        columns.append([sw.get((t,), 0) for t in range(8)])
    s = [[columns[c][r] for c in range(8)] for r in range(8)]
    return _hopf_from_ints(field, mult, [1] + [0] * 7, comult, [1, 1] + [0] * 6, s, f"E2/{field_name(field)}")


def adjoint_yd(h):
    """H coacting on itself by Delta, with b_i acting on b_a by
    sum_js Delta_i^js b_s b_a S^-1(b_j), that is h.a = h_(2) a S^-1(h_(1))."""
    n, p = h.dim, h.field.characteristic
    s_inv = antipode_inverse(h)

    def times(u, v):
        return [sum(u[i] * v[j] * h.mult[i][j][t] for i in range(n) for j in range(n)) for t in range(n)]

    basis = [[int(r == k) for r in range(n)] for k in range(n)]
    action = []
    for i in range(n):
        images = [[0] * n for _ in range(n)]  # images[a]: b_i acting on b_a
        for j, row in enumerate(h.comult[i]):
            for s, c in enumerate(row):
                if c:
                    for a in range(n):
                        term = times(times(basis[s], basis[a]), [s_inv[r][j] for r in range(n)])
                        images[a] = [x + c * y for x, y in zip(images[a], term)]
        action.append(Matrix(h.field, n, n, [[images[a][t] % p if p else images[a][t] for a in range(n)] for t in range(n)]))
    return YDModuleRep(ModuleRep(h, n, action, "ydadjoint"), regular_comodule(h), name="ydadjoint")


def yd_tensor_coaction(h, m, n):
    """The coaction of M (x) N on coaction tensors: e_a (x) e_b goes to
    sum m_<0> (x) n_<0> (x) n_<1> m_<1>, N's H-leg first."""
    field, md, nd = h.field, len(m), len(n)
    zero = field.zero()
    coaction = [[[zero] * h.dim for _ in range(md * nd)] for _ in range(md * nd)]
    for a in range(md):
        for b in range(nd):
            for a2 in range(md):
                for s, x in enumerate(m[a][a2]):
                    if not x:
                        continue
                    for b2 in range(nd):
                        cell = coaction[a * nd + b][a2 * nd + b2]
                        for t, y in enumerate(n[b][b2]):
                            if y:
                                for u, c in enumerate(h.mult[t][s]):
                                    if c:
                                        cell[u] = field.add(cell[u], field.mul(field.mul(x, y), c))
    return coaction


def yd_dual_coaction(h, n):
    """The coaction of N* on a coaction tensor: the e-legs transposed and the
    H-leg pushed through S^-1, so phi_<0>(m) phi_<1> = phi(m_<0>) S^-1(m_<1>)."""
    field, dim, s_inv = h.field, len(n), antipode_inverse(h)
    zero = field.zero()
    coaction = [[[zero] * h.dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            cell = coaction[i][j]
            for s, x in enumerate(n[j][i]):
                if x:
                    for t in range(h.dim):
                        if s_inv[t][s]:
                            cell[t] = field.add(cell[t], field.mul(x, s_inv[t][s]))
    return coaction


def compat_violation_reference(y):
    """First (i, a) at which the two sides differ, or None."""
    h = y.hopf
    field = h.field
    n = h.dim
    dim = y.dim
    coact = y.comodule.coaction
    act = y.module.action
    mult = h.mult
    violation = None
    for i in range(n):
        comult_terms = [
            (j, t, h.comult[i][j][t])
            for j in range(n)
            for t in range(n)
            if h.comult[i][j][t]
        ]
        for a in range(dim):
            zero = field.zero()
            lhs = [[zero] * n for _ in range(dim)]
            rhs = [[zero] * n for _ in range(dim)]
            for j, t, d in comult_terms:
                # left side: act by the first leg on the e-leg of the
                # coaction, multiply the second leg onto the H-leg
                for b in range(dim):
                    for s in range(n):
                        x = coact[a][b][s]
                        if not x:
                            continue
                        dx = field.mul(d, x)
                        for r in range(dim):
                            aa = act[j].entries[r][b]
                            if not aa:
                                continue
                            dxa = field.mul(dx, aa)
                            for u, c in enumerate(mult[t][s]):
                                if c:
                                    lhs[r][u] = field.add(lhs[r][u], field.mul(dxa, c))
                # right side: act by the second leg first, coact, then
                # multiply the first leg from the right
                for b in range(dim):
                    ab = act[t].entries[b][a]
                    if not ab:
                        continue
                    dab = field.mul(d, ab)
                    for r in range(dim):
                        for s in range(n):
                            x = coact[b][r][s]
                            if not x:
                                continue
                            dabx = field.mul(dab, x)
                            for u, c in enumerate(mult[s][j]):
                                if c:
                                    rhs[r][u] = field.add(rhs[r][u], field.mul(dabx, c))
            if lhs != rhs:
                violation = (i, a)
                break
        if violation:
            break
    return violation
