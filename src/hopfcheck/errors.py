"""Exception types shared across the toolkit."""


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
