import os
import sys

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
