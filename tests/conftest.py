"""Hypothesis profiles: tier-1 draws the same examples on every run.

``tier1`` (the default) derandomizes every property and reads no example
database, so a test's result is a function of the tree alone, not of a
lucky draw nor of failures a local ``.hypothesis/`` directory replays.
``random`` draws afresh each run; select it with
``pytest --hypothesis-profile random``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")
