"""hopfcheck: exact verification toolkit for finite-dimensional Hopf algebras.

Structure-constant presentations of Hopf algebras, their modules, comodules
and Yetter-Drinfel'd modules, with exact arithmetic over Q and F_p.  The
package constructs tensor products and duals, decides (co)semisimplicity by
Jacobson-radical computation (brute-force-oracle checked), and certifies
split monomorphisms for the canonical pairing maps.

The namespace is lazy (PEP 562): ``import hopfcheck`` loads no submodule.
The first access to an exported name imports the submodule that defines it
and binds the name here, so each later access is a plain attribute lookup.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each exported submodule with the public names read from it
_EXPORTS = {
    "campaign": ("CampaignReport", "run_campaign"),
    "catalog": ("CatalogEntry", "catalog_entries", "lookup"),
    "comodules": ("ComoduleRep", "check_comodule_axioms", "regular_comodule", "trivial_comodule"),
    "duality": (
        "HSRank", "SerreVerdict", "SplitMonoCertificate", "build_strong_dual_certificates", "coevaluation",
        "dual_in_category", "evaluation", "hom_in_category", "hs_rank", "is_morphism", "split_retraction",
        "tensor_in_category", "verify_serre",
    ),
    "errors": (),
    "fields": ("GF", "QQ", "Field", "PrimeField", "Rationals"),
    "hopf": ("AlgebraData", "AxiomReport", "HopfAlgebraData"),
    "matrix": ("EchelonSpan", "Matrix", "NoSolutionError", "kernel_basis", "solve_linear"),
    "modules": ("ModuleRep", "check_module_axioms", "dual_module", "regular_module", "tensor_modules", "trivial_module"),
    "semisimple": (
        "SemisimplicityReport", "brute_force_semisimple", "is_cosemisimple", "is_semisimple", "is_yd_semisimple",
    ),
    "yd": ("YDModuleRep", "check_yd_compat", "trivial_yd"),
}
# exported name -> the submodule it is read from; a submodule names itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
