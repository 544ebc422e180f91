"""Reference closure of an operator list under products.

The engine reads the acting algebra off the plain span of operators that
already span an algebra's image.  ``spin_algebra`` is the unconditional
closure: it multiplies until the span stops growing, so it needs no promise
about its input and checks the engine's span independently.
"""

from hopfcheck.fields import Field
from hopfcheck.matrix import EchelonSpan, Matrix


def spin_algebra(field: Field, dim: int, generators: list[Matrix]) -> list[Matrix]:
    """Canonical basis of the unital matrix algebra generated by the operators."""
    if dim == 0:
        return []
    span = EchelonSpan(field, dim * dim)
    work: list[Matrix] = []
    for m in [Matrix.identity(field, dim)] + list(generators):
        if span.add(m.flatten()):
            work.append(m)
    idx = 0
    while idx < len(work):
        x = work[idx]
        idx += 1
        for g in generators:
            prod = x * g
            if span.add(prod.flatten()):
                work.append(prod)
    return [Matrix.from_flat(field, dim, dim, row) for row in span.basis_rows()]
