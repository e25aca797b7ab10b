"""Shared test settings: hypothesis runs derandomized and without a
deadline, so property and fuzz tests draw the same examples on every run
and slow shared machines do not turn timing into failures."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
