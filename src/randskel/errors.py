"""Exception hierarchy shared across the library.

Everything numerical that can go wrong raises a subclass of
:class:`RandskelError`, so callers (and the benchmark CLI) can distinguish
"bad configuration" from "the math said no".
"""


class RandskelError(Exception):
    """Base class for all library-specific failures."""


class BadShape(RandskelError, ValueError):
    """Input dimensions are outside an operation's contract."""


class ShapeMismatch(RandskelError, ValueError):
    """Two operands cannot be combined because their shapes disagree."""


class RankDeficient(RandskelError):
    """A factorization step found (numerically) fewer independent
    rows/columns than required.

    ``rank_detected`` holds how many pivot steps succeeded before the
    breakdown; ``partial`` (when set) carries the factorization truncated to
    that rank so callers may degrade gracefully instead of failing.
    """

    def __init__(self, message, rank_detected=None, partial=None):
        super().__init__(message)
        self.rank_detected = rank_detected
        self.partial = partial


class ConvergenceFailure(RandskelError):
    """An iterative kernel exceeded its iteration cap."""


class ZeroDimension(RandskelError, ValueError):
    """An operator with dimension zero was supplied."""


class SingularPivotBlock(RandskelError):
    """The pivot block selected from a row approximator is singular."""


class SingularSkeleton(RandskelError):
    """Selected skeleton columns/rows are not full rank."""


class SingularOmega1(RandskelError):
    """The projected test matrix lost row rank."""


class DegenerateDistribution(RandskelError):
    """All sampling scores vanished; no distribution to draw from."""


class StreamExhausted(RandskelError):
    """A one-pass input stream ended before delivering all columns."""


class EmptyTail(RandskelError, ValueError):
    """No trailing spectrum: the target rank consumes the whole spectrum."""


class TailRankDeficient(RandskelError):
    """The estimator's weighted tail block ``w2`` lost rank: an |R_ii| of its
    QR fell below ``RANK_RTOL * ||w2||_F``. It needs r - k >= l."""


class InadmissibleQ(RandskelError, ValueError):
    """Requested iteration count is outside the admissible budget range."""


class EmptyFactor(RandskelError):
    """A sparse factor vector came out all-zero repeatedly."""


class RaggedRows(RandskelError, ValueError):
    """CSV rows have inconsistent lengths."""


class NonNumericCell(RandskelError, ValueError):
    """A CSV cell outside the header could not be parsed as a number."""


class MatrixTooLarge(RandskelError, ValueError):
    """Exact dense processing was requested beyond the configured size cap."""


class UnknownMethod(RandskelError, ValueError):
    """A method name outside the supported set was requested."""


class DistortionOutOfRange(RandskelError, ValueError):
    """Distortion factors leave the bound formula undefined."""
