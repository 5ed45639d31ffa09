import pytest

from cslsim import interferometer, mie, specfun


@pytest.fixture(autouse=True)
def _cold_caches():
    # The cache keys hold only the kernels' arguments, not the module
    # constants and helpers that tests monkeypatch, so each test starts cold.
    interferometer._solve_n1.cache_clear()
    mie._unit_sums.cache_clear()
    specfun._iv012_scaled.cache_clear()
