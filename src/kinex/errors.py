"""Exception types shared across the package.

Every one is a :class:`KinexError`, which the CLI reports as exit code 2 and
one line.  :class:`KernelBuildError`, :class:`DrawMismatch`,
:class:`SeedMismatch` and :class:`SweepMismatch` come from loading the
compiled kernel (:func:`kernel.library`), which a run does before it
simulates, so a run that raises them has written nothing.
"""


class KinexError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(KinexError):
    """A model or fit parameter is outside its legal range."""


class InvalidSize(KinexError):
    """An ensemble or lattice size is too small to be meaningful."""


class TopologyMismatch(KinexError):
    """Pairing topology is inconsistent with the agent count."""


class ShapeError(KinexError):
    """Array arguments have incompatible shapes."""


class InsufficientData(KinexError):
    """A series is too short for the requested estimate."""


class NotDecaying(KinexError):
    """Semi-log regression produced a non-negative slope."""


class WindowContainsCrossing(KinexError):
    """The fit window contains points on both sides of (or equal to) the asymptote."""


class LogDomainError(KinexError):
    """Non-positive values in a window that must be log-transformed."""


class NoDecayWindow(KinexError):
    """No initial window of the series is distinguishable from the tail."""


class ConfigError(KinexError):
    """An experiment configuration file is missing or malformed."""


class DrawMismatch(KinexError):
    """The compiled kernel's draws disagree with numpy's Generator on this platform."""


class SeedMismatch(KinexError):
    """The compiled kernel's fresh stream states disagree with numpy's SeedSequence on this platform."""


class SweepMismatch(KinexError):
    """The compiled kernel's lattice sweep disagrees with the numpy stencil on this platform."""


class KernelBuildError(KinexError):
    """The kernel could not be compiled: no C compiler, or the compile failed."""
