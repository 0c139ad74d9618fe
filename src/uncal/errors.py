"""Exception taxonomy shared across the toolkit.

Every error raised by library code derives from UncalError so callers (and
the CLI) can distinguish validation failures from genuine bugs. The errors
here are faults of the data: the theory layer (`trajspace`) tilts every
space of a file as one flat batch and raises NumericOverflow naming the
first space whose tilt is not representable or loses support; a space on
which the mass-ratio bound does not apply is a status of its output line,
not an error. Each value is checked once, where it enters: a flag by the
`cli` parser (a usage error), and a JSON input value, a probe model's
included, by its `jsonio` table, which raises ValueError naming the field;
the table is the one check of a single field's value, and a line kind's
rule the one check across the fields of a line. The library does not check
either again. The CLI exits 1 on all of them.
"""

from __future__ import annotations


class UncalError(Exception):
    """Base class for all toolkit errors."""


class NumericOverflow(UncalError):
    """eta * reward is too large to expose linear probabilities safely."""


class MissingSignal(UncalError):
    """A record lacks a signal (confidence, probe score, ...) an operation needs."""


class EmptyBatch(UncalError):
    """A metric was requested over zero usable records."""


class DegenerateFit(UncalError):
    """A model fit cannot proceed (single class, too few records, no spread)."""


class AlignmentError(UncalError):
    """Token-aligned hidden states are missing or inconsistent with the record,
    or a sidecar row does not say which record and token it holds."""


class UndefinedMetric(UncalError):
    """A rank metric needs both classes present and finite scores."""


class ShapeError(UncalError):
    """Two arrays that must agree in shape do not."""


class UndefinedSimilarity(UncalError):
    """A similarity or drift ratio is undefined (zero variance or zero norm)."""


class CorruptInput(UncalError):
    """More than half of the lines in an input file failed validation."""


class IoError(UncalError):
    """An input or output file could not be read or written."""
