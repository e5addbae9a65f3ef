"""Exception types raised across fusionkit.

Every error carries an optional ``witness`` payload holding the object
that triggered the failure, so callers and reports can show it.
"""

from __future__ import annotations

from typing import Any


class FusionkitError(Exception):
    """Base class for all fusionkit errors."""

    def __init__(self, message: str = "", witness: Any = None):
        super().__init__(message)
        self.witness = witness


class InputError(FusionkitError):
    """Malformed user input (files, names, CLI arguments)."""


class ParseError(InputError):
    """A spec file or textual description could not be parsed."""


class InvalidPermutation(ParseError):
    """A cycle string or image list does not describe a permutation."""


class UnknownCatalogName(InputError):
    """A requested catalog group name does not exist."""


class OrderBoundExceeded(FusionkitError):
    """A construction would exceed the configured group order bound."""


class NotASubgroup(FusionkitError):
    """An argument is not a subgroup of the required group."""


class ImageNotContained(FusionkitError):
    """A morphism image fails to land in the requested codomain."""


class NotSylow(FusionkitError):
    """The given p-subgroup is not Sylow in the acting group."""


class NotAPGroup(FusionkitError):
    """The given group is not a p-group."""


class SeedNotInjective(FusionkitError):
    """A generating map for a fusion system is not injective."""


class NotASubgroupOfP(FusionkitError):
    """A hom-set argument is not a subgroup of the underlying p-group."""


class NotAnIsomorphism(FusionkitError):
    """A morphism expected to be an isomorphism onto its codomain is not."""


class PrimeMismatch(FusionkitError):
    """Two fusion systems at different primes cannot be combined."""


class NotStronglyClosed(FusionkitError):
    """The given subgroup is not strongly closed in the fusion system."""


class NotASubsystem(FusionkitError):
    """The given fusion system is not a subsystem of the ambient one."""


class NotFullyNormalized(FusionkitError):
    """The subgroup is not fully normalized, as required."""


class NotFullyCentralized(FusionkitError):
    """The subgroup is not fully centralized, as required."""


class NotSaturated(FusionkitError):
    """The fusion system is not saturated, as required."""


class IndexNotCoprime(FusionkitError):
    """The index of the automorphism subgroup is divisible by p."""


class NotNormalInAutF(FusionkitError):
    """The automorphism subgroup is not normal in the full group."""


class CoreUndefined(FusionkitError):
    """No weakly normal subsystem on the subgroup lies in the container."""


class NoDecomposition(FusionkitError):
    """No Frattini-style factorization of the morphism exists."""


class InconsistentPartial(FusionkitError):
    """A partial automorphism assignment admits no coherent completion."""


class PreconditionFailed(FusionkitError):
    """A hypothesis of the requested comparison does not hold."""


class TheoremViolation(FusionkitError):
    """A consistency assertion backed by a proved statement failed."""


class PostconditionViolation(FusionkitError):
    """A constructed object violates its defining postcondition."""
