"""Reference checks that the engine's morphism tests are held against.

The engine tests "g is a morphism" directly, as g.A_i = B_i.g on every
face.  ``in_hom_span`` solves for the canonical Hom-space basis and asks
whether g is a linear combination of it: the Hom space is exactly the
intertwiners, so the two must agree.

The engine decides coev and ev on the one vector each carries
(``duality.pairing_violation``).  ``unit_in_category`` builds the tensor
unit k, so that tests can check the same maps on built squares k -> N (x) N*
and back.

``on_fresh_faces`` rebuilds an object on new faces with the same actions,
which have kept nothing, so tests can hold a table, a verdict key or a
pairing answer an object has kept against one computed anew.
"""

from hopfcheck.duality import category_of, hom_in_category
from hopfcheck.matrix import Matrix, NoSolutionError, solve_linear
from hopfcheck.modules import ModuleRep, trivial_module


def on_fresh_faces(obj):
    """``obj`` on new faces with the same actions, which have kept nothing."""
    return obj.with_faces(tuple(ModuleRep(f.algebra, f.dim, f.action, f.name) for f in obj.faces), obj.name)


def unit_in_category(obj):
    """The tensor unit of ``obj``'s category: the trivial module on each face."""
    category_of(obj)
    return obj.with_faces(tuple(trivial_module(face.hopf) for face in obj.faces), "trivial")


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
