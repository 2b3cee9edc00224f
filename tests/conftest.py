import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail to import alone
    pass
else:
    # Every property test replays the same examples on every run.
    settings.register_profile(
        "gridwords", derandomize=True, deadline=None, database=None, max_examples=100
    )
    settings.load_profile("gridwords")
