"""Suite-wide hypothesis settings and the traced-peak fixture.

Each test still sets its own ``max_examples``; the profile only fixes the
draws (``derandomize``) and keeps no example database between runs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("probcone", derandomize=True, database=None)
settings.load_profile("probcone")


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)`` runs ``fn`` under tracemalloc and returns ``(result, peak bytes)``.

    The package's lazy imports (scipy's ``ndtr`` extension behind the
    Gaussian CDF, the thread pool behind ``workers`` above 1) are loaded
    before tracing, so a bound holds whether or not an earlier test loaded
    them.
    """
    import concurrent.futures  # noqa: F401

    from probcone.dist import _normal_cdf

    _normal_cdf(np.zeros(1))

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return run
