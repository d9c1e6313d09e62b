"""Exception types shared across the workbench."""


class IcelabError(Exception):
    """Base class for all workbench errors."""


class NomeDomainError(IcelabError):
    """Nome outside the open unit disk; the q-series diverge."""


class SeriesTruncationError(IcelabError):
    """Series did not reach the term tolerance within the term cap."""


class PoleError(IcelabError):
    """A denominator theta value vanishes within tolerance."""


class BranchDomainError(IcelabError):
    """Fractional power requested outside the positive-real branch domain."""


class SizeGuardError(IcelabError):
    """Requested lattice exceeds an enumeration or evaluation guard."""


class NonFiniteParameterError(IcelabError, ValueError):
    """A rapidity, spectral or crossing parameter, or theta argument is not
    finite (NaN included)."""


class DegenerateCrossingError(IcelabError):
    """sin(eta) vanishes; the trigonometric weights are undefined."""


class CrossingParameterError(IcelabError):
    """Operation requires the combinatorial crossing parameter eta = 2*pi/3."""


class InvalidColoringError(IcelabError):
    """Face assignment violates proper adjacency."""


class InvalidStateError(IcelabError):
    """Arrow assignment violates the ice rule or shape constraints."""


class EvaluationOverflowError(IcelabError):
    """A finite-input evaluation overflows double precision."""


class ConfigError(IcelabError):
    """Malformed configuration file or option value."""
