"""RetryPolicy declares its bounds like every other config class.

A NaN deadline would silently disable the deadline (``remaining <= 0`` is
never true), a NaN backoff would skip every sleep, and a fractional attempt
count has no meaning: each must be a typed ConfigError at construction.
"""

import pytest

from repro.errors import ConfigError
from repro.server.client import RETRYABLE_CODES, RetryPolicy

NAN = float("nan")


@pytest.mark.parametrize("overrides, message", [
    (dict(max_attempts=0), "max_attempts must be at least 1"),
    (dict(max_attempts=2.5), "max_attempts must be an integer, got 2.5"),
    (dict(max_attempts=True), "max_attempts must be an integer, got True"),
    (dict(backoff_base_s=-1), "backoff_base_s must be non-negative"),
    (dict(backoff_base_s=NAN), "backoff_base_s must be a number, got nan"),
    (dict(backoff_cap_s=-0.5), "backoff_cap_s must be non-negative"),
    (dict(backoff_cap_s=NAN), "backoff_cap_s must be a number, got nan"),
    (dict(jitter=2.0), "jitter must be in [0, 1]"),
    (dict(jitter=NAN), "jitter must be a number, got nan"),
    (dict(deadline_s=0), "deadline_s must be positive"),
    (dict(deadline_s=NAN), "deadline_s must be a number, got nan"),
    (dict(deadline_s="5"), "deadline_s must be a number, got '5'"),
    (dict(retry_codes="overloaded"), "retry_codes must be a sequence, got 'overloaded'"),
    (dict(retry_codes=("busy", 3)), "retry_codes[1] must be a string, got 3"),
    (dict(reconnect="yes"), "reconnect must be a bool, got 'yes'"),
    (dict(seed=1.5), "seed must be an integer or None, got 1.5"),
], ids=lambda case: str(case) if isinstance(case, str) else None)
def test_a_bad_retry_policy_is_a_config_error(overrides, message):
    with pytest.raises(ConfigError) as caught:
        RetryPolicy(**overrides)
    assert str(caught.value) == message


def test_good_policies_construct_and_replace():
    policy = RetryPolicy(max_attempts=1, backoff_base_s=0.0, jitter=1.0, seed=3)
    assert policy.retry_codes == RETRYABLE_CODES
    assert policy.replace(deadline_s=0.5).deadline_s == 0.5
    assert RetryPolicy(retry_codes=()).retry_codes == ()
    with pytest.raises(ConfigError):
        policy.replace(deadline_s=NAN)


def test_positional_construction_is_refused():
    with pytest.raises(TypeError):
        RetryPolicy(3)
