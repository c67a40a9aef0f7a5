"""Exception types shared across the package."""


class OcrlabError(Exception):
    """Base class for all package-specific errors."""


class InconsistentState(OcrlabError):
    """A decision state is not extendable to any feasible set."""


class PolicyViolation(OcrlabError):
    """A policy returned an action that is not currently allowed."""


class UnknownElement(OcrlabError):
    """An element id is outside the instance's ground set."""


class WrongKind(OcrlabError):
    """An operation was asked of an oracle kind that does not support it."""


class TooLarge(OcrlabError):
    """A construction or solver invocation exceeds its configured size cap."""


class ExhaustedAttempts(OcrlabError):
    """A randomized builder failed to produce a valid object within its
    attempt budget (expected outside the probable parameter regime)."""


class EncodingOverflow(OcrlabError):
    """The completion sets are too small to host an injective index encoding."""


class DecodeFailure(OcrlabError):
    """An arrival order does not identify a unique phase index."""


class MissingLabels(OcrlabError):
    """A policy needs side information that its knowledge does not carry."""


class BadThreshold(OcrlabError):
    """A threshold parameter is outside its valid range."""

