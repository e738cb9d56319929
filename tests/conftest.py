"""Suite-wide hypothesis settings: the same examples are drawn on every run.

Each test still sets its own ``max_examples``; the profile only fixes the
draws (``derandomize``) and keeps no example database between runs.
"""

from hypothesis import settings

settings.register_profile("probcone", derandomize=True, database=None)
settings.load_profile("probcone")
