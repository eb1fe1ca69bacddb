"""Exception types shared across the pipeline.

Grouped by the CLI exit code they map to: configuration errors (2),
data/trace errors (3), numeric and model errors (4); SinkUnavailable
maps to 5.
"""

from __future__ import annotations


class VaeguardError(Exception):
    """Base class for all vaeguard errors."""


# -- configuration --------------------------------------------------------


class InvalidConfig(VaeguardError):
    """Scenario or pipeline configuration failed validation."""


class InvalidK(InvalidConfig):
    """k-sigma multiplier must be positive."""


# -- trace / data ----------------------------------------------------------


class MalformedRecord(VaeguardError):
    """A trace line could not be parsed into a forensic event."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class OutOfOrderTimestamp(VaeguardError):
    """Event timestamps within a trace must be non-decreasing."""

    def __init__(self, index: int):
        super().__init__(f"event {index} precedes its predecessor in time")
        self.index = index


class ForeignEvent(VaeguardError):
    """Event does not belong to the interval being summarized."""


class EmptyDataset(VaeguardError):
    """An operation requiring at least one sample received none."""


class InsufficientData(VaeguardError):
    """Fewer training samples than the accumulation target."""

    def __init__(self, actual: int, required: int):
        super().__init__(f"{actual} samples accumulated, {required} required")
        self.actual = actual
        self.required = required


class UnknownContainer(VaeguardError):
    """No cached intervals exist for the requested container."""


class EmptyBatch(VaeguardError):
    """Bulk encoding requires at least one document."""


# -- numeric / model -------------------------------------------------------


class DimensionMismatch(VaeguardError):
    """Vector or matrix width differs from what the model expects."""


class NonFiniteInput(VaeguardError):
    """NaN or infinity where a finite value is required."""


class SchemaMismatch(VaeguardError):
    """Model artifact and live feature schema disagree."""


class CorruptModelFile(VaeguardError):
    """Model bundle is truncated, unparseable, or structurally invalid."""


class NotFittedError(VaeguardError):
    """Estimator method called before fit()."""


class SinkUnavailable(VaeguardError):
    """Publishing sink rejected the write. `actions` holds every action the
    sink accepted but did not deliver, oldest first; the sink has dropped
    them, and `emit` spools them when it has a spool."""

    def __init__(self, message: str, actions: tuple = ()):
        super().__init__(message)
        self.actions = tuple(actions)
