"""Exception types shared across the package, and the counts budgets compare."""
import math


def grid_count(span: float, step: float, rounding=math.ceil) -> int | float:
    """span / step rounded to a whole count, or inf if no int holds it (as for a step
    that underflowed to 0): an infinite count still compares above every cap."""
    x = span / step if step else math.inf
    return rounding(x) if x < math.inf else math.inf


class QplabError(Exception):
    """Base class for package-specific failures."""


class BudgetExceeded(QplabError):
    """A scan or search would exceed its configured resource cap."""


class StepTooCoarse(QplabError):
    """Scan step too large to certify membership at the requested epsilon."""


class GridTooCoarse(QplabError):
    """Sample resolution too coarse for the requested ball radius."""


class EmptyAlmostPeriodSet(QplabError):
    """No almost period found in the scan window; the window is too small."""


class TooFewSamples(QplabError):
    """Not enough resolved samples to fit a growth exponent."""


class TooFewScales(QplabError):
    """Not enough scales to fit a dimension."""


class PrecisionExhausted(QplabError):
    """Remaining input precision cannot certify the next partial quotient."""

    def __init__(self, message: str, certified_quotients: int = 0):
        super().__init__(message)
        self.certified_quotients = certified_quotients


class SignalParseError(QplabError):
    """Malformed signal literal; ``position`` is a character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ConfigError(QplabError):
    """Bad key or value in a run configuration."""
