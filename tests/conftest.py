import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Test modules get pytest's assert rewriting; the shared helpers in cases.py
# need it too, or ``python -O`` strips their checks.
pytest.register_assert_rewrite("cases")

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
# More examples, in a fixed order, for the CI step that runs the fuzz and the
# formatter and trace-writer properties: `--hypothesis-profile=ci`.
settings.register_profile("ci", parent=settings.get_profile("suite"), max_examples=200, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
