"""Minimum-error oracle: closed-form axis, gap, and success probability."""

import math

import numpy as np
import pytest

from povmlearn.errors import DegenerateEnsemble
from povmlearn.helstrom import helstrom, success_equal_priors

INV_SQRT2 = 0.7071067811865476


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        res = helstrom([0, 0, 1], [0, 0, -1])
        assert np.allclose(res.p0_axis, [0, 0, 1], atol=1e-15)
        assert res.success == pytest.approx(1.0, abs=1e-12)

    def test_reference_instance(self):
        res = helstrom([INV_SQRT2, 0, INV_SQRT2], [INV_SQRT2, 0, -INV_SQRT2])
        assert np.allclose(res.p0_axis, [0, 0, 1], atol=1e-12)
        assert res.success == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_indistinguishable_limit(self):
        res = helstrom([0.3, 0, 0.2], [0.3, 0, 0.2 + 5e-5])
        assert res.success == pytest.approx(0.5, abs=1e-4)

    def test_degenerate_is_error_for_direct_calls(self):
        with pytest.raises(DegenerateEnsemble):
            helstrom([0.3, 0, 0.2], [0.3, 0, 0.2])

    def test_success_equal_priors_shortcut(self):
        assert success_equal_priors([0, 0, 1], [0, 0, -1]) == pytest.approx(1.0, abs=1e-12)
        assert success_equal_priors([0.1, 0, 0], [0.1, 0, 0]) == 0.5

    def test_monotone_in_separation(self):
        base = np.array([0.2, 0.0, 0.1])
        last = 0.5
        for gap in np.linspace(0.01, 0.6, 20):
            s = helstrom(base + [0, 0, gap], base - [0, 0, gap]).success
            assert s >= last - 1e-15
            last = s
