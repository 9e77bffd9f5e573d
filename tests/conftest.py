"""Hypothesis profiles, chosen with ``--hypothesis-profile=<name>``.

``mutation`` raises the examples each reader of ``test_mutation`` draws
from 150 to 1,000. Tests that set their own ``max_examples`` keep it.
"""

from hypothesis import settings

settings.register_profile("mutation", max_examples=1000)
