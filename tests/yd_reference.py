"""The Yetter-Drinfel'd compatibility law written out coefficient by
coefficient, which the tests pin ``yd.check_yd_compat`` to.

For every algebra basis element b_i and space basis vector e_a it expands
both sides of

    h_(1) m_<0>  (x)  h_(2) m_<1>   =   (h_(2) m)_<0>  (x)  (h_(2) m)_<1> h_(1)

into their coefficients on e_r (x) b_u and compares them, reading the
action and the coaction straight off their tables.  It shares no code
with the straightening identity the engine checks.

``sweedler_adjoint_yd`` is a YD module over H4, which is neither
commutative nor cocommutative: there the tensor product, whose coaction
multiplies the factors' H-legs in the order m_<1> n_<1>, can break the law.
"""

from hopfcheck.comodules import regular_comodule
from hopfcheck.matrix import Matrix
from hopfcheck.modules import ModuleRep
from hopfcheck.yd import YDModuleRep


def sweedler_adjoint_yd(h):
    """H4 coacting on itself by Delta, with b_i acting on b_a by
    sum_js Delta_i^js b_s b_a S^-1(b_j), that is h.a = h_(2) a S^-1(h_(1))."""
    n = h.dim
    s_inv = (h.antipode * h.antipode * h.antipode).entries  # S has order four on H4

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
        action.append(Matrix(h.field, n, n, [[images[a][t] for a in range(n)] for t in range(n)]))
    return YDModuleRep(ModuleRep(h, n, action, "ydadjoint"), regular_comodule(h), name="ydadjoint")


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
