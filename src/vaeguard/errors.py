"""Exception types shared across the pipeline.

Each error class carries the CLI exit code it ends a command with and the
word its stderr line starts with: configuration errors (2), data/trace
errors (3), numeric and model errors (4), SinkUnavailable (5).
"""

from __future__ import annotations


class VaeguardError(Exception):
    """Base class for all vaeguard errors."""

    exit_code: int
    kind: str


class InvalidConfig(VaeguardError):
    """Scenario or pipeline configuration failed validation."""

    exit_code = 2
    kind = "config"


class InvalidK(InvalidConfig):
    """k-sigma multiplier must be positive."""


class DataError(VaeguardError):
    """A trace or dataset cannot be used as input."""

    exit_code = 3
    kind = "data"


class MalformedRecord(DataError):
    """A trace line could not be parsed into a forensic event."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class OutOfOrderTimestamp(DataError):
    """Event timestamps within a trace must be non-decreasing."""

    def __init__(self, index: int):
        super().__init__(f"event {index} precedes its predecessor in time")
        self.index = index


class ForeignEvent(DataError):
    """Event does not belong to the interval being summarized."""


class EmptyDataset(DataError):
    """An operation requiring at least one sample received none."""


class InsufficientData(DataError):
    """Fewer training samples than the accumulation target."""

    def __init__(self, actual: int, required: int):
        super().__init__(f"{actual} samples accumulated, {required} required")
        self.actual = actual
        self.required = required


class ModelError(VaeguardError):
    """A model or its numeric input cannot be used."""

    exit_code = 4
    kind = "model"


class DimensionMismatch(ModelError):
    """Vector or matrix width differs from what the model expects."""


class NonFiniteInput(ModelError):
    """NaN or infinity where a finite value is required."""


class SchemaMismatch(ModelError):
    """Model artifact and live feature schema disagree."""


class CorruptModelFile(ModelError):
    """Model bundle is truncated, unparseable, or structurally invalid."""


class NotFittedError(ModelError):
    """Estimator method called before fit()."""


class SinkUnavailable(VaeguardError):
    """Publishing sink rejected the write; what it had not delivered is
    dropped, not kept to resend."""

    exit_code = 5
    kind = "sink"
