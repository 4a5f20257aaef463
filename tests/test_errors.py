"""The one positive-and-finite input check."""

import math

import pytest

from coulombpacket.errors import DomainError, require_positive


@pytest.mark.parametrize("value", [1e-300, 0.5, 7, 1e300])
def test_require_positive_returns_the_float(value):
    out = require_positive("x", value)
    assert out == value and isinstance(out, float)


@pytest.mark.parametrize("value", [0.0, -0.0, -2.0, math.inf, -math.inf,
                                   math.nan])
def test_require_positive_rejects(value):
    with pytest.raises(DomainError, match="^B must be positive and finite"):
        require_positive("B", value)
