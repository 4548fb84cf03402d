"""Exception types raised across the package, and the checks behind them."""

import math
import numbers
import sys

import numpy as np


class PenalearnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PenalearnError):
    """Array shapes do not match the expected dimensions."""


class NonFiniteError(PenalearnError):
    """An input or an evaluated value is NaN or infinite.

    ``constraint_index`` is None when the objective itself is the offender,
    otherwise the failing constraint's column in residual order: the
    inequalities first, then the equalities.  ``sample_index`` locates
    the offending row in batch evaluations.
    """

    def __init__(self, message, constraint_index=None, sample_index=None):
        super().__init__(message)
        self.constraint_index = constraint_index
        self.sample_index = sample_index


class TraceError(PenalearnError):
    """A forward trace is inconsistent with the network it is used with."""


class RegistryError(PenalearnError):
    """Unknown problem name; the message lists the registered names."""


class ModelFormatError(PenalearnError):
    """A model file could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ModelVersionError(ModelFormatError):
    """A model file has an unsupported format version header."""


class ConfigError(PenalearnError, ValueError):
    """Invalid configuration value; ``field`` names the offending config field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require(ok, field, value, rule):
    """Raise ``ConfigError`` for ``field`` unless ``ok``; ``rule`` says what is allowed."""
    if not ok:
        raise ConfigError(f"{field} must be {rule}, got {value!r}", field)


def is_int(value):
    """True for an integer of any integral type; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(config, field, low):
    """``require`` that ``field`` on ``config`` holds an integer >= ``low``."""
    value = getattr(config, field)
    require(is_int(value) and value >= low, field, value, f"an integer >= {low}")


def real_value(field, value, above=-math.inf, at_least=-math.inf, below=math.inf):
    """``value`` as a float, once ``require`` holds that it is a finite real, not
    a bool, > above, >= at_least and < below."""
    rule = (f"in ({above:g}, {below:g})" if below < math.inf
            else f"> {above:g}" if above > -math.inf else f">= {at_least:g}")
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    require(real and abs(value) <= sys.float_info.max and above < value < below
            and value >= at_least, field, value, f"a finite real number {rule}")
    return float(value)


def require_real(config, field, **bounds):
    """``real_value`` of ``field`` on ``config``, stored back as a float."""
    object.__setattr__(config, field, real_value(field, getattr(config, field), **bounds))


def all_finite(a):
    """True when every entry of the float array ``a`` is finite.

    One dot product tests them all: a.a is finite iff every entry is, unless
    it overflowed (entries of about 1e154 and up); only then is ``a`` scanned.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


class TrainingDivergedError(PenalearnError):
    """Training produced a non-finite or runaway loss."""

    def __init__(self, message, epoch=None, sample_index=None):
        super().__init__(message)
        self.epoch = epoch
        self.sample_index = sample_index


class OracleError(PenalearnError):
    """The numerical solver failed to produce any usable iterate."""


class UnsupportedError(PenalearnError):
    """The requested operation is outside the supported problem sizes."""


class UsageError(PenalearnError):
    """Bad command-line or config-file input; maps to exit status 2."""
