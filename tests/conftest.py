"""Test-session settings.

Hypothesis, where installed, runs under one deterministic profile: the
examples are derived from each test itself, not drawn at random, so CI,
local runs and `python -O` check the same inputs; no per-example deadline
applies, since big-integer cases vary with the machine; and a bounded
number of examples keeps the tier-1 time bounded. Nothing is written to
an example database.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("griforge", derandomize=True, deadline=None, max_examples=60, database=None)
    settings.load_profile("griforge")
