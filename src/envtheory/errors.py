"""Exception and warning types shared across the library."""


class EnvelopeError(Exception):
    """Base class for every library-specific error."""


class EvaluationDomainError(EnvelopeError):
    """A law was evaluated outside its mathematical domain."""


class NonPositiveArgument(EvaluationDomainError):
    """Radial and momentum arguments must be strictly positive."""


class EmptyState(EnvelopeError):
    """A state description must carry at least one internal excitation pair."""


class UnsupportedAuxiliary(EnvelopeError):
    """No closed-form quantum-number tower is known for this auxiliary exponent."""


class InvalidAuxiliaryExponent(EvaluationDomainError):
    """Auxiliary power-law exponents must be finite, nonzero and larger than -2."""


class NoStationaryPoint(EnvelopeError):
    """The stationarity residual has one sign everywhere that was scanned.

    Either the attraction dominates at every scale (collapse regime) or the
    kinetic pressure does (nothing to bind at this coupling); the message says
    which side was seen.
    """


class ScanExhausted(EnvelopeError):
    """The bracket scan could not evaluate the residual anywhere useful."""


class CollapseRegime(EnvelopeError):
    """Closed-form input parameters lie outside the region where a bound state exists."""


class NotShortRange(EnvelopeError):
    """Critical couplings are defined only for short-range well-shaped potentials."""


class NoCriticalPoint(EnvelopeError):
    """The dimensionless well profile admits no stationary scale."""


class NonFiniteResult(EnvelopeError):
    """A result overflowed the float range, so no finite number can be returned."""


class UnboundOscillator(EnvelopeError):
    """An oscillator spectrum needs a positive net spring constant."""


class NotConverged(EnvelopeError):
    """Grid refinement stalled before the requested agreement was reached."""


class UnboundedBelow(EnvelopeError):
    """The discretized potential is not bounded below on the grid."""


class DimensionTooSmall(EnvelopeError):
    """A regular simplex of N vertices needs at least N-1 spatial dimensions."""


class ConfigError(EnvelopeError):
    """Base class for run-configuration diagnostics."""


class MissingSection(ConfigError):
    """A required section is absent, or a section appears twice."""


class UnknownKey(ConfigError):
    """A section contains a key the schema does not define."""


class TypeMismatch(ConfigError):
    """A value could not be parsed as the declared type."""


class ConstraintViolation(ConfigError):
    """A parsed value violates a domain constraint."""


class PerturbationSizeWarning(UserWarning):
    """A first-order correction exceeded a tenth of the unperturbed energy."""
