"""Error hierarchy shared by every module, and the memory check behind CapacityError.

ValidationError and its subclasses map to CLI exit code 2,
CapacityError to exit code 3.
"""

from __future__ import annotations

import os


class TrotterForgeError(Exception):
    """Base class for all library errors."""


class ValidationError(TrotterForgeError):
    """Input violates a contract precondition."""


class DomainError(ValidationError):
    """A parameter is outside its mathematical domain."""


class DimensionError(ValidationError):
    """Lattice or matrix dimensions are inconsistent."""


class IndexRangeError(ValidationError):
    """A site or pair index is out of range."""


class CapacityError(TrotterForgeError):
    """Request exceeds a size cap or the physical memory of the machine."""


def check_memory(need: int, what: str) -> None:
    """Raise CapacityError if ``need`` bytes for ``what`` exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise CapacityError(
            f"{what} needs {need / 2**30:.1f} GiB,"
            f" more than the {have / 2**30:.1f} GiB of physical memory"
        )
