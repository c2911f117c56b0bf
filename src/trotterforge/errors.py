"""Error hierarchy shared by every module, and the memory check behind CapacityError.

ValidationError and its subclasses map to CLI exit code 2,
CapacityError to exit code 3.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal


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
    """Request exceeds the physical memory of the machine, or a representation limit."""


def _gib(nbytes: int) -> str:
    # Decimal divides an int of any size, where float division overflows past 2^1024
    gib = Decimal(nbytes) / 2**30
    return f"{gib:.1f} GiB" if gib < 10**6 else f"{gib:.2e} GiB"


def check_float_range(value: float, what: str) -> float:
    """``value``, or a CapacityError if it is not finite: ``what`` left the float range."""
    if not math.isfinite(value):
        raise CapacityError(f"{what} exceeds the float range")
    return value


def check_memory(need: int, what: str) -> None:
    """Raise CapacityError if ``need`` bytes for ``what`` (counted at its peak) exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise CapacityError(f"{what} needs {_gib(need)}, more than the {_gib(have)} of physical memory")
