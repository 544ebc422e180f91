"""hopfcheck: exact verification toolkit for finite-dimensional Hopf algebras.

Structure-constant presentations of Hopf algebras, their modules, comodules
and Yetter-Drinfel'd modules, with exact arithmetic over Q and F_p.  The
package constructs tensor products and duals, decides (co)semisimplicity by
Jacobson-radical computation (brute-force-oracle checked), and certifies
split monomorphisms for the canonical pairing maps.
"""

__version__ = "0.1.0"

from .comodules import ComoduleRep, check_comodule_axioms, regular_comodule, trivial_comodule
from .fields import GF, QQ, Field, PrimeField, Rationals
from .hopf import AlgebraData, AxiomReport, HopfAlgebraData
from .matrix import EchelonSpan, Matrix, NoSolutionError, kernel_basis, solve_linear
from .modules import (
    ModuleRep,
    check_module_axioms,
    dual_module,
    regular_module,
    tensor_modules,
    trivial_module,
)
from .semisimple import (
    SemisimplicityReport,
    brute_force_semisimple,
    is_cosemisimple,
    is_semisimple,
    is_yd_semisimple,
)
from .duality import (
    HSRank,
    SerreVerdict,
    SplitMonoCertificate,
    build_strong_dual_certificates,
    coevaluation,
    dual_in_category,
    evaluation,
    hom_in_category,
    hs_rank,
    is_morphism,
    split_retraction,
    tensor_in_category,
    verify_serre,
)
from .yd import YDModuleRep, check_yd_compat, trivial_yd
from .catalog import CatalogEntry, catalog_entries, lookup
from .campaign import CampaignReport, run_campaign

__all__ = [name for name in dir() if not name.startswith("_")]
