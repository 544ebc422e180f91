"""Reference morphism test that ``duality.is_morphism`` is checked against.

The engine tests "g is a morphism" directly, as g.A_i = B_i.g on every
face.  ``in_hom_span`` solves for the canonical Hom-space basis and asks
whether g is a linear combination of it: the Hom space is exactly the
intertwiners, so the two must agree.
"""

from hopfcheck.duality import hom_in_category
from hopfcheck.matrix import Matrix, NoSolutionError, solve_linear


def in_hom_span(g: Matrix, source, target) -> bool:
    """g lies in the span of the solved basis of Hom(source, target)."""
    if g.is_zero():
        return True
    basis = hom_in_category(source, target)
    if not basis:
        return False
    field = g.field
    width = g.rows * g.cols
    flats = [b.flatten() for b in basis]
    cols = Matrix(field, width, len(basis), [[f[i] for f in flats] for i in range(width)])
    try:
        solve_linear(cols, Matrix.column(field, g.flatten()))
        return True
    except NoSolutionError:
        return False
