"""Hypothesis profiles for the test suite.

``tier1``, loaded here, derives every test's examples from the test itself
(``derandomize``), so two runs of the suite draw the same examples and take
comparable time, and keeps no example database.  ``explore`` draws afresh:
run it with ``--hypothesis-profile=explore --hypothesis-seed=N`` to search
new examples reproducibly from a printed seed.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)
settings.load_profile("tier1")
