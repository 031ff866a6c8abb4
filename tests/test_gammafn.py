import math

import numpy as np
import pytest
import scipy.special

from fracstep.gammafn import gamma_fn


def test_exact_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_fn(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


def test_thirteen_digits_on_unit_to_ten():
    # the accuracy contract: at least 13 significant digits on (0, 10]
    xs = np.linspace(0.01, 10.0, 2003)
    worst = max(abs(gamma_fn(x) - scipy.special.gamma(x))
                / scipy.special.gamma(x) for x in xs)
    assert worst < 1e-13


def test_reflection_negative_arguments():
    for x in (-0.09, -0.49, -1.3, -2.7):
        assert gamma_fn(x) == pytest.approx(scipy.special.gamma(x), rel=1e-12)


def test_poles_raise():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_recurrence_property():
    rng = np.random.default_rng(42)
    for x in rng.uniform(0.1, 9.0, size=50):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)
