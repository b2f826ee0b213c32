import os
import sys

# One BLAS thread, set before numpy loads: the tests that score on their
# own thread pools would otherwise run pool threads x BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Fixed example sequence, no example database: property tests are as
    # reproducible as the rest of the suite.
    settings.register_profile("chunknas", derandomize=True, database=None, deadline=None)
    settings.load_profile("chunknas")
