import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import settings

from dfmm.eldf import Eldf

# Property tests draw the same examples on every run, and a slow or busy
# machine cannot fail them on a deadline.
settings.register_profile("dfmm", derandomize=True, deadline=None)
settings.load_profile("dfmm")


@pytest.fixture
def unit_curve():
    """Constant density 1 over a wide domain: value == volume."""
    def make(v_hi=10_000.0):
        return Eldf(c2=0.0, c1=0.0, c0=1.0, v_lo=0.0, v_hi=v_hi)
    return make
