"""Every property test draws the same examples on every run, so a run's
outcome, time and memory are fixed as the program's bits are.  Hypothesis's
own ``--hypothesis-profile=default`` brings back the random search and its
example database.

The ``file_mode`` fixture runs a test under umask 022 and under 077 and
gives the mode a file created there should get."""

import os

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(params=[(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def file_mode(request):
    mask, mode = request.param
    old = os.umask(mask)
    try:
        yield mode
    finally:
        os.umask(old)
