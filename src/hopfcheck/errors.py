"""Exception types shared across the toolkit, and the size limits that raise
them: every CLI request loads this module, so its parser reads them here."""

# largest p^dim the brute force accepts; its line graph has a node for each
# of the (p^dim - 1)/(p - 1) lines, though only one line per sink component
# is spun, and the cap is stated on p^dim
DEFAULT_ORACLE_BOUND = 6561

# the largest Hopf document accepted; its check builds no R (x) R any more:
# kC16 checks in about 0.04 s and 18 MiB, kC27 in about 0.2 s and 21 MiB
# (Python 3.11, process time and peak RSS), and the cap stays until a
# measured budget sets a new one
MAX_HOPF_DIM = 16


class HopfMismatchError(ValueError):
    """Two objects live over different Hopf algebras."""


class AxiomError(ValueError):
    """An object or its Hopf algebra failed its laws: ``report`` is the
    failing axiom report, and the message names each failing law with its
    first violation."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(f"{c.name} at {c.first_violation}" for c in report.failures())
        super().__init__(f"axiom check failed on {report.subject}: {failed}")


class BoundExceededError(ValueError):
    """The brute-force enumeration would exceed the configured cap on p^dim."""


class NotInvolutoryError(ValueError):
    """The construction requires the antipode to square to the identity."""


class RankNotInvertibleError(ValueError):
    """dim(N)*1_k is not a unit in the base field."""


class NotAMorphismError(ValueError):
    """A claimed map is not in the relevant Hom space."""


class NotInjectiveError(ValueError):
    """A claimed mono has a nontrivial kernel."""


class NotSplitError(ValueError):
    """No retraction exists in the relevant Hom space."""


class ParseError(ValueError):
    """A document failed to parse; the message names the offending field."""


class CertificateError(AssertionError):
    """A freshly built certificate failed its own re-verification."""
