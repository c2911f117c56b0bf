import os

import pytest


@pytest.fixture
def fake_physical_memory(monkeypatch):
    """Call with a size in GiB; errors.check_memory then sees that much physical memory."""

    def fake(gib):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": int(gib * 2**30) // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)

    return fake
