"""hypothesis strategies for the model's random-parameter properties.

rho = 0 and |rho| = 1 are drawn on purpose, and means in +-20 let a*t2 pass
N3's log switch (a*t2 > 30).
"""

from hypothesis import settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
MEAN = st.floats(-20.0, 20.0)
SCALE = st.floats(0.1, 10.0)
A = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))
RHO = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
SEED = st.integers(0, 2**32 - 1)
