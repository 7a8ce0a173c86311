"""Parameter domains with Euclidean projections."""

from __future__ import annotations

import numpy as np


class Unconstrained:
    """All of R^d; projection is the identity."""

    def project(self, w: np.ndarray) -> np.ndarray:
        return w

    def __repr__(self) -> str:
        return "Unconstrained()"


class Ball:
    """L2 ball {w : ||w - center|| <= radius} with radial projection."""

    def __init__(self, center: np.ndarray, radius: float):
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def project(self, w: np.ndarray) -> np.ndarray:
        delta = w - self.center
        dist = float(np.linalg.norm(delta))
        if dist <= self.radius:
            return w
        return self.center + delta * (self.radius / dist)

    def __repr__(self) -> str:
        return f"Ball(center={self.center!r}, radius={self.radius!r})"


UNCONSTRAINED = Unconstrained()
