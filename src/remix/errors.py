"""Exception types raised across the package."""


class RemixError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(RemixError):
    """Attempted to normalize a vector with (near-)zero norm."""


class DimensionMismatchError(RemixError):
    """Vectors or parameter arrays have incompatible shapes."""


class EmptyPoolError(RemixError):
    """No queries to rank, or no clusters to score purity over."""


class NonFiniteEvaluationError(RemixError):
    """A value came out NaN or Inf where it must be finite: a probed
    function during finite differencing, a query or gallery embedding
    about to be ranked, or a point about to be clustered."""


class NonFiniteTrainingError(RemixError):
    """The loss or a gradient came out NaN or Inf in a training iteration,
    before the optimizer step it would have fed."""


class InvalidConfigError(RemixError):
    """Configuration failed validation (unknown key, bad value)."""


class InsufficientLabelsError(RemixError):
    """Not enough distinct labels to compose the requested mini-batch."""


class UnresolvedLabelError(RemixError):
    """A label has no row in the centroid bank: a batch label the bank
    lacks, or a negative one."""


class EmptyLabelError(RemixError):
    """A label was given with no member embeddings."""


class ShapeMismatchError(RemixError):
    """Optimizer state, gradients, and parameters disagree in shape."""


class StaleCacheError(RemixError):
    """backward_batch() got a cache from a different forward pass."""


class BudgetUnreachableError(RemixError):
    """A full pass over the corpus produced zero non-noise images."""


class NoValidPositiveError(RemixError):
    """A query has no valid same-identity gallery item after masking."""


class VersionMismatchError(RemixError):
    """A file carries an unknown format tag or version, or its content is
    truncated or malformed."""
