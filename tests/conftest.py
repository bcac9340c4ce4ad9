"""Shared pytest configuration."""

from hypothesis import settings

# Property tests draw the same examples on every run, and a busy machine's
# timing never fails them.
settings.register_profile("qwasser", derandomize=True, deadline=None)
settings.load_profile("qwasser")
