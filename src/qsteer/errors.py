"""Exception types shared across the package."""


class QsteerError(Exception):
    """Base class for every error raised by this package."""


class EpisodeFinished(QsteerError):
    """step() was called on a terminal state."""


class ShapeMismatch(QsteerError):
    """Array shapes do not line up: model operands, network parameters or inputs."""


class NonFiniteLoss(QsteerError):
    """Training loss became NaN or infinite."""


class SchemaMismatch(QsteerError):
    """Checkpoint contents do not match the expected network layout."""


class BudgetExceeded(QsteerError):
    """Requested enumeration exceeds the configured budget."""


class ConfigError(QsteerError):
    """Run configuration is missing or invalid; message names the field."""


class SequenceParseError(QsteerError):
    """A sequence string could not be parsed; position counts tokens."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position
