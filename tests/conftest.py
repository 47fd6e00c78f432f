import pytest
from hypothesis import HealthCheck, settings

from eulertop.invariants import bnf_via_reversion, extract_sigma
from eulertop.normalform import euler_normal_form
from eulertop.picardfuchs import assemble_beta_actions

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

KEEPING = (euler_normal_form, bnf_via_reversion, extract_sigma, assemble_beta_actions)


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with nothing kept, so no result, perturbation check or
    time gate depends on the tests that ran before it."""
    for fn in KEEPING:
        fn.cache_clear()
