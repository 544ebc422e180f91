"""Reference axiom checkers that ``HopfAlgebraData.check_hopf_axioms`` is
checked against.

The package reads H's coalgebra laws off the dual algebra H* and checks
associativity with the same kernel as module multiplicativity.  These are
the direct loops on the structure constants: coassociativity and the counit
law compare coefficients of comult written out on both sides, and
associativity compares L_i L_j with sum_t m_ij^t L_t through field
operations.  Each takes a Hopf algebra ``h`` and returns its first
violation, indexed in H's own terms, or None.
"""


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
