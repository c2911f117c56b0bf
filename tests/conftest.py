import os

import pytest
from hypothesis import settings

from trotterforge.hamlib import CoeffMatrix, _entry_columns, nonzero_terms

# every hypothesis test draws the same examples on every run (derandomize also turns the example
# database off); a test's own @settings, such as its max_examples, still applies on top
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def coeff_matrix(n, entries):
    """CoeffMatrix from {(j, k): value}, parsed and scattered as a spec file's entries are."""
    return CoeffMatrix.from_pairs(n, *_entry_columns([(j, k, v) for (j, k), v in entries.items()]))


def coeff_value(mat, j, k):
    """The stored coefficient of the 1-based pair (j, k), read straight from the array; 0 at j >= k."""
    return float(mat.data[j - 1, k - 1])


def coeff_entries(mat):
    """{(j, k): value} of the nonzero pairs of a CoeffMatrix, the inverse of coeff_matrix."""
    return {(j, k): v for (j, k), v in nonzero_terms(mat.data)}


@pytest.fixture
def fake_physical_memory(monkeypatch):
    """Call with a size in GiB; errors.check_memory then sees that much physical memory."""

    def fake(gib):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": int(gib * 2**30) // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

    return fake
