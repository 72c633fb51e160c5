"""Coordinate and tomogram grids.

The coordinate grid is a symmetric uniform q-axis.  The tomogram grid pairs a
symmetric X-axis with a half-offset angle axis theta_j = (j + 1/2) * pi / n_theta,
which keeps sin(theta) bounded away from zero on every stored row.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError


def _raise_violations(bad):
    if bad:
        raise GridError("; ".join(bad))


def trapezoid_weights(n, h):
    """Trapezoid-rule weights of n uniform samples with spacing h."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class CoordinateGrid:
    """Uniform symmetric position grid on [-q_max, q_max]."""

    q_max: float = 8.0
    n_q: int = 512

    def __post_init__(self):
        _raise_violations(self.violations(self.q_max, self.n_q))

    @staticmethod
    def violations(q_max, n_q):
        """Messages for every bound the arguments break; empty when valid."""
        bad = []
        if not q_max > 0:
            bad.append(f"q_max must be a positive number, got {q_max}")
        elif not math.isfinite(q_max):
            bad.append(f"q_max must be finite, got {q_max}")
        if n_q < 8:
            bad.append(f"n_q must be at least 8, got {n_q}")
        return bad

    @property
    def q_min(self):
        return -self.q_max

    @cached_property
    def points(self):
        return np.linspace(-self.q_max, self.q_max, self.n_q)

    @property
    def spacing(self):
        return 2.0 * self.q_max / (self.n_q - 1)

    @cached_property
    def trapezoid_weights(self):
        return trapezoid_weights(self.n_q, self.spacing)

    @property
    def nyquist_momentum(self):
        return np.pi / self.spacing


@dataclass(frozen=True)
class TomogramGrid:
    """Product grid for optical tomograms w(X, theta).

    X runs over a symmetric uniform axis, theta over midpoints of a uniform
    partition of [0, pi).  The midpoint placement means neither theta = 0 nor
    theta = pi/2 is necessarily a stored row; use an odd n_theta when an exact
    pi/2 row is wanted.
    """

    x_max: float = 8.0
    n_x: int = 1024
    n_theta: int = 180

    def __post_init__(self):
        _raise_violations(self.violations(self.x_max, self.n_x, self.n_theta))

    @staticmethod
    def violations(x_max, n_x, n_theta):
        """Messages for every bound the arguments break; empty when valid."""
        bad = []
        if not x_max > 0:
            bad.append(f"x_max must be a positive number, got {x_max}")
        elif not math.isfinite(x_max):
            bad.append(f"x_max must be finite, got {x_max}")
        if n_x < 16:
            bad.append(f"n_x must be at least 16, got {n_x}")
        if n_theta < 8:
            bad.append(f"n_theta must be at least 8, got {n_theta}")
        return bad

    @cached_property
    def xs(self):
        return np.linspace(-self.x_max, self.x_max, self.n_x)

    @property
    def x_spacing(self):
        return 2.0 * self.x_max / (self.n_x - 1)

    @property
    def theta_spacing(self):
        return np.pi / self.n_theta

    @cached_property
    def thetas(self):
        return (np.arange(self.n_theta) + 0.5) * np.pi / self.n_theta

    @cached_property
    def x_trapezoid_weights(self):
        return trapezoid_weights(self.n_x, self.x_spacing)
