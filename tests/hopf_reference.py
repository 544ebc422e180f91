"""Reference axiom checkers that ``HopfAlgebraData.check_hopf_axioms`` is
checked against.

The package reads H's coalgebra laws off the dual algebra H*, checks
associativity with the same kernel as module multiplicativity, reads
comult_multiplicative off the matrices of Delta(b_j), and checks the other
bialgebra and antipode laws as statements about the trivial modules of H
and H* and coev/ev of the regular module R.  These are the direct loops on
the structure constants: each law compares coefficients of both sides
written out through field operations.  Each takes a Hopf algebra ``h`` and
returns its first violation, indexed in H's own terms, or None.
``comult_multiplicative_on_square`` is the module statement the package
checked before, that R (x) R is a module, with its (i, j) index.

``left_multiplication`` and ``generators_reference`` build the regular
action and the greedy generating set entry by entry, for the package's
transposed slabs and row-times-matrix products to be held against.
"""

from hopfcheck.matrix import EchelonSpan, Matrix
from hopfcheck.modules import regular_module, tensor_modules


def left_multiplication(h, i):
    """The matrix L_i of x -> b_i x, L_i[t][j] = m_ij^t, set entry by entry."""
    zero = h.field.zero()
    e = [[zero] * h.dim for _ in range(h.dim)]
    for j in range(h.dim):
        for t, c in enumerate(h.mult[i][j]):
            if c:
                e[t][j] = c
    return Matrix(h.field, h.dim, h.dim, e)


def generators_reference(h):
    """``generators()`` with each word times b_g summed coefficient by
    coefficient from the structure constants."""
    field, n = h.field, h.dim
    p = field.characteristic
    zero, one = field.zero(), field.one()

    def times(word, g):
        out = [0] * n
        for i, w in enumerate(word):
            if w:
                for t, c in enumerate(h.mult[i][g]):
                    if c:
                        out[t] += w * c
        return [x % p for x in out] if p else out

    span = EchelonSpan(field, n)
    span.add(h.unit)
    words, kept = [list(h.unit)], []
    for g in range(n):
        basis = [one if t == g else zero for t in range(n)]
        if not span.add(basis):
            continue
        closed = len(words)
        kept.append(g)
        words.append(basis)
        idx = 0
        while idx < len(words):
            for k in kept if idx >= closed else (g,):
                word = times(words[idx], k)
                if span.add(word):
                    words.append(word)
            idx += 1
    return kept


def associativity_violation(h):
    # compare left-multiplication of (b_i b_j) with L_i * L_j
    lmats = h.regular_action_matrices()
    field = h.field
    for i in range(h.dim):
        for j in range(h.dim):
            prod = lmats[i] * lmats[j]
            zero = field.zero()
            comb = [[zero] * h.dim for _ in range(h.dim)]
            for t, c in enumerate(h.mult[i][j]):
                if not c:
                    continue
                for r in range(h.dim):
                    for s in range(h.dim):
                        x = lmats[t].entries[r][s]
                        if x:
                            comb[r][s] = field.add(comb[r][s], field.mul(c, x))
            if prod.entries != comb:
                return (i, j)
    return None


def coassociativity_violation(h):
    field = h.field
    n = h.dim
    d = h.comult
    for i in range(n):
        # coefficient of b_a (x) b_b (x) b_c on both sides
        lhs = {}
        for s in range(n):
            for c in range(n):
                x = d[i][s][c]
                if not x:
                    continue
                for a in range(n):
                    for b in range(n):
                        y = d[s][a][b]
                        if y:
                            key = (a, b, c)
                            lhs[key] = field.add(lhs.get(key, field.zero()), field.mul(x, y))
        rhs = {}
        for a in range(n):
            for s in range(n):
                x = d[i][a][s]
                if not x:
                    continue
                for b in range(n):
                    for c in range(n):
                        y = d[s][b][c]
                        if y:
                            key = (a, b, c)
                            rhs[key] = field.add(rhs.get(key, field.zero()), field.mul(x, y))
        for key in set(lhs) | set(rhs):
            if lhs.get(key, field.zero()) != rhs.get(key, field.zero()):
                return (i,) + key
    return None


def counit_violation(h):
    field = h.field
    n = h.dim
    for i in range(n):
        for t in range(n):
            want = field.one() if i == t else field.zero()
            left = field.zero()
            right = field.zero()
            for s in range(n):
                x = h.comult[i][s][t]
                if x:
                    left = field.add(left, field.mul(x, h.counit[s]))
                y = h.comult[i][t][s]
                if y:
                    right = field.add(right, field.mul(y, h.counit[s]))
            if left != want:
                return ("left", i, t)
            if right != want:
                return ("right", i, t)
    return None


def comult_multiplicative_violation(h):
    field = h.field
    n = h.dim
    d = h.comult
    m = h.mult
    for i in range(n):
        for j in range(n):
            lhs = {}
            for s in range(n):
                x = m[i][j][s]
                if not x:
                    continue
                for a in range(n):
                    for b in range(n):
                        y = d[s][a][b]
                        if y:
                            key = (a, b)
                            lhs[key] = field.add(lhs.get(key, field.zero()), field.mul(x, y))
            rhs = {}
            for a1 in range(n):
                for b1 in range(n):
                    x = d[i][a1][b1]
                    if not x:
                        continue
                    for a2 in range(n):
                        for b2 in range(n):
                            y = d[j][a2][b2]
                            if not y:
                                continue
                            xy = field.mul(x, y)
                            for a, c1 in enumerate(m[a1][a2]):
                                if not c1:
                                    continue
                                for b, c2 in enumerate(m[b1][b2]):
                                    if c2:
                                        key = (a, b)
                                        rhs[key] = field.add(
                                            rhs.get(key, field.zero()),
                                            field.mul(xy, field.mul(c1, c2)),
                                        )
            for key in set(lhs) | set(rhs):
                if lhs.get(key, field.zero()) != rhs.get(key, field.zero()):
                    return (i, j) + key
    return None


def comult_multiplicative_on_square(h):
    # the regular module R, squared through the coproduct, dense with n^4
    # entries per b_i; equal to the coefficient law when H is associative
    # and unital, because R and hence R (x) R are then faithful
    r = regular_module(h)
    return h.multiplicativity_violation(tensor_modules(r, r).sparse_action)


def comult_unit_violation(h):
    field = h.field
    n = h.dim
    for a in range(n):
        for b in range(n):
            got = field.zero()
            for i, u in enumerate(h.unit):
                if u:
                    got = field.add(got, field.mul(u, h.comult[i][a][b]))
            want = field.mul(h.unit[a], h.unit[b])
            if got != want:
                return (a, b)
    return None


def counit_multiplicative_violation(h):
    field = h.field
    n = h.dim
    for i in range(n):
        for j in range(n):
            got = field.zero()
            for t, c in enumerate(h.mult[i][j]):
                if c:
                    got = field.add(got, field.mul(c, h.counit[t]))
            if got != field.mul(h.counit[i], h.counit[j]):
                return (i, j)
    return None


def counit_unit_violation(h):
    field = h.field
    got = field.zero()
    for i, u in enumerate(h.unit):
        if u:
            got = field.add(got, field.mul(u, h.counit[i]))
    return None if got == field.one() else (0,)


def antipode_violation(h, left: bool):
    # multiply-convolve the antipode against identity and compare with
    # unit*counit, coordinate by coordinate
    field = h.field
    n = h.dim
    s_cols = h.antipode.entries  # s_cols[a][j] = coefficient of b_a in S(b_j)
    for i in range(n):
        got = [field.zero()] * n
        for j in range(n):
            for t in range(n):
                x = h.comult[i][j][t]
                if not x:
                    continue
                if left:
                    # S(b_j) * b_t
                    for a in range(n):
                        y = s_cols[a][j]
                        if not y:
                            continue
                        xy = field.mul(x, y)
                        for u, c in enumerate(h.mult[a][t]):
                            if c:
                                got[u] = field.add(got[u], field.mul(xy, c))
                else:
                    # b_j * S(b_t)
                    for a in range(n):
                        y = s_cols[a][t]
                        if not y:
                            continue
                        xy = field.mul(x, y)
                        for u, c in enumerate(h.mult[j][a]):
                            if c:
                                got[u] = field.add(got[u], field.mul(xy, c))
        for u in range(n):
            want = field.mul(h.counit[i], h.unit[u])
            if got[u] != want:
                return (i, u)
    return None
