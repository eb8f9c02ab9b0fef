"""Exception types shared across the package."""


class SpanWitnessError(ValueError):
    """Base class for all errors raised by this package."""


class NotHermitianError(SpanWitnessError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DimensionMismatchError(SpanWitnessError):
    """Operands do not share the dimensions an operation requires."""


class NonRealPairingError(SpanWitnessError):
    """A state/witness pairing is not a finite real number: it has a
    non-negligible imaginary part, or it overflows."""


class InvalidCutError(SpanWitnessError):
    """A bipartition of the parties is empty, overlapping, or out of range."""


class InvalidParamsError(SpanWitnessError):
    """Family parameters are out of the admissible range (s, t > 0)."""


class OffVarietyError(SpanWitnessError):
    """An operation that needs s*t = 8 was called with other parameters."""


class OutOfRangeError(SpanWitnessError):
    """A scalar argument lies outside its admissible open interval."""


class UsageError(SpanWitnessError):
    """A command-line argument (state spec, family selection) is malformed."""
