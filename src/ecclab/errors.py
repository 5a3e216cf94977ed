"""Exception hierarchy shared across the library.

Every error raised by ecclab derives from :class:`EcclabError`, so callers
(most importantly the CLI) can map library failures to a single exit code.
"""


class EcclabError(Exception):
    """Base class for all ecclab errors."""


class InputError(EcclabError, ValueError):
    """Malformed arguments: bad vertex indices, self-loops, non-bijections, ..."""


class DisconnectedGraphError(EcclabError, ValueError):
    """An operation requiring a connected graph received a disconnected one."""


class UnsupportedSizeError(EcclabError, ValueError):
    """Input exceeds a documented size limit of an exact/exhaustive algorithm."""


class SizeCapError(EcclabError, RuntimeError):
    """A graph or matrix would exceed one of the size caps of ``graphs``."""


class PreconditionError(EcclabError, ValueError):
    """A theorem-specific hypothesis does not hold for the given input."""


class NoStemError(EcclabError, ValueError):
    """Stems are undefined on path graphs (no vertex of degree greater than two)."""
