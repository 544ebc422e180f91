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

``hom_reference`` solves the Hom space from the intertwining system written
out one coefficient at a time, for the engine's Kronecker-built system to
be held against.
"""

from hopfcheck.duality import category_of, hom_in_category
from hopfcheck.matrix import Matrix, NoSolutionError, kernel_basis, solve_linear
from hopfcheck.modules import ModuleRep, trivial_module


def hom_reference(source, target) -> list[Matrix]:
    """The canonical basis of the maps g with g A_i = B_i g on every face,
    row (r, c) of the system being the coefficient of g at (r, c) in
    g A_i - B_i g."""
    md, nd = source.dim, target.dim
    field = source.field
    if nd * md == 0:
        return []
    zero = field.zero()
    rows = []
    for m, n in zip(source.faces, target.faces):
        for am, an in zip(m.action, n.action):
            for r in range(nd):
                for c in range(md):
                    coeff = [zero] * (nd * md)
                    for s in range(md):
                        x = am.entries[s][c]
                        if x:
                            coeff[r * md + s] = field.add(coeff[r * md + s], x)
                    for s in range(nd):
                        x = an.entries[r][s]
                        if x:
                            coeff[s * md + c] = field.sub(coeff[s * md + c], x)
                    rows.append(coeff)
    system = Matrix(field, len(rows), nd * md, rows)
    return [Matrix.from_flat(field, nd, md, v.flatten()) for v in kernel_basis(system)]


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
