"""Reference comodule algorithms written directly on coaction tensors.

The package treats a right H-comodule as the left H*-module it is and has
no comodule-specific algorithms.  These loops are the textbook comodule
definitions, kept as an independent check on that route: each takes
``coaction`` tensors (``coaction[a][b][t]`` is the coefficient of
``e_b (x) h_t`` in the coaction of ``e_a``) and the Hopf algebra ``h``, and
returns coaction tensors, Hom bases or first violations.
"""

from hopfcheck.matrix import Matrix, kernel_basis


def counit_violation(h, coaction):
    """First (a, b) where (id (x) counit) . rho differs from the identity."""
    field = h.field
    dim = len(coaction)
    for a in range(dim):
        for b in range(dim):
            want = field.one() if a == b else field.zero()
            got = field.zero()
            for t, x in enumerate(coaction[a][b]):
                if x:
                    got = field.add(got, field.mul(x, h.counit[t]))
            if got != want:
                return (a, b)
    return None


def coassociativity_violation(h, coaction):
    """First (a, b, s, t) where (rho (x) id) . rho and (id (x) Delta) . rho differ."""
    field = h.field
    dim = len(coaction)
    n = h.dim
    for a in range(dim):
        for b in range(dim):
            for s in range(n):
                for t in range(n):
                    lhs = field.zero()
                    for b2 in range(dim):
                        x = coaction[a][b2][t]
                        if x:
                            y = coaction[b2][b][s]
                            if y:
                                lhs = field.add(lhs, field.mul(x, y))
                    rhs = field.zero()
                    for u in range(n):
                        x = coaction[a][b][u]
                        if x:
                            y = h.comult[u][s][t]
                            if y:
                                rhs = field.add(rhs, field.mul(x, y))
                    if lhs != rhs:
                        return (a, b, s, t)
    return None


def tensor_coaction(h, m, n):
    """Coact on both factors and multiply the two H-legs."""
    field = h.field
    md, nd = len(m), len(n)
    dim = md * nd
    zero = field.zero()
    coaction = [[[zero] * h.dim for _ in range(dim)] for _ in range(dim)]
    for a in range(md):
        for a2 in range(md):
            for s in range(h.dim):
                x = m[a][a2][s]
                if not x:
                    continue
                mult_row = h.mult[s]
                for b in range(nd):
                    src = a * nd + b
                    for b2 in range(nd):
                        cell = coaction[src][a2 * nd + b2]
                        for t in range(h.dim):
                            y = n[b][b2][t]
                            if not y:
                                continue
                            xy = field.mul(x, y)
                            for u, c in enumerate(mult_row[t]):
                                if c:
                                    cell[u] = field.add(cell[u], field.mul(xy, c))
    return coaction


def dual_coaction(h, n):
    """Transpose the e-legs and push the H-leg through the antipode."""
    field = h.field
    dim = len(n)
    zero = field.zero()
    coaction = [[[zero] * h.dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            cell = coaction[i][j]
            for s in range(h.dim):
                x = n[j][i][s]
                if not x:
                    continue
                for t in range(h.dim):
                    y = h.antipode.entries[t][s]
                    if y:
                        cell[t] = field.add(cell[t], field.mul(x, y))
    return coaction


def colinear_hom(h, m, n):
    """Canonical basis of the maps g with rho_N . g = (g (x) id) . rho_M."""
    field = h.field
    zero = field.zero()
    md, nd = len(m), len(n)
    if nd * md == 0:
        return []
    rows = []
    for a in range(md):
        for c in range(nd):
            for t in range(h.dim):
                coeff = [zero] * (nd * md)
                for b in range(nd):
                    x = n[b][c][t]
                    if x:
                        coeff[b * md + a] = field.add(coeff[b * md + a], x)
                for b2 in range(md):
                    x = m[a][b2][t]
                    if x:
                        coeff[c * md + b2] = field.sub(coeff[c * md + b2], x)
                rows.append(coeff)
    system = Matrix(field, len(rows), nd * md, rows)
    return [Matrix.from_flat(field, nd, md, v.flatten()) for v in kernel_basis(system)]
