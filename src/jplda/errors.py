"""Exception hierarchy shared across the package."""


class JpldaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(JpldaError):
    """Model matrices disagree on a shared dimension."""


class NonFinite(JpldaError):
    """A model parameter or an input vector holds a NaN or an infinity, or a
    score is NaN."""


class NotSymmetric(JpldaError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(JpldaError):
    """A matrix required to be positive definite failed its Cholesky."""


class FactorizationFailed(JpldaError):
    """A per-hypothesis posterior precision could not be factorized."""


class AllHypothesesExcluded(JpldaError):
    """Every hypothesis in one likelihood-ratio branch has prior zero."""


class UnknownId(JpldaError):
    """A trial references an embedding id that is not in the table."""


class MissingClass(JpldaError):
    """A metric needs target and/or nontarget trials that are absent."""


class OrphanLatent(JpldaError):
    """A latent variable has no samples assigned, so its per-sample
    weight is undefined."""


class MalformedFile(JpldaError):
    """A text input file does not follow its format."""


class ModelFileError(JpldaError):
    """Base class for binary model-file problems."""


class BadMagic(ModelFileError):
    """The file does not start with the expected magic bytes."""


class VersionUnsupported(ModelFileError):
    """The file declares a format version this reader does not know."""


class TruncatedPayload(ModelFileError):
    """The payload length does not match the header arithmetic."""


class ValidationFailed(ModelFileError):
    """The loaded parameters do not form a valid model."""
