"""Exception types shared across the package, and the finite-field check
every validated dataclass runs first."""

import math
from dataclasses import fields


class FormatError(ValueError):
    """Malformed contents in an input file."""


class SpecError(ValueError):
    """Invalid grid or range configuration."""


class ShapeError(ValueError):
    """Inconsistent array shapes passed to a numeric routine."""


class ConfigError(ValueError):
    """Unusable configuration file or key."""


class InsufficientData(ValueError):
    """Not enough samples for the requested operation."""


class DecodeError(ValueError):
    """Network output decodes to a box with a non-finite field or a size
    that is not positive."""


class PlacementError(RuntimeError):
    """Scene object placement ran out of attempts."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


class OutOfGrid(ValueError):
    """Candidate footprint lies fully outside the raster grid."""


class NoGroundTruth(ValueError):
    """Evaluation needs at least one ground-truth object."""


class DegenerateInput(ValueError):
    """Statistic is undefined for the given input."""


class BadEdges(ValueError):
    """Bin edges must be strictly increasing."""


def require_finite(spec, error: type) -> None:
    """Raise ``error`` naming the first float field of a dataclass (or float
    element of a tuple field) that is nan or infinite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise error(f"{f.name} must be finite, got {v!r}")
