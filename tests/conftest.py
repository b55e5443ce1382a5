"""Every property test draws the same examples on every run, so a run's
outcome, time and memory are fixed as the program's bits are.  Hypothesis's
own ``--hypothesis-profile=default`` brings back the random search and its
example database."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
