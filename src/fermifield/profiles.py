"""
Smooth cutoff templates shared by the operator and localization modules.

Everything is built from one C^infinity step sigma: sigma = 0 for t <= 0,
sigma = 1 for t >= 1, strictly increasing in between.  The plateau cutoff
equals 1 on |x| <= 1/2 and vanishes outside |x| < 1.
"""

from __future__ import annotations

import numpy as np


def _g(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t) -> np.ndarray:
    """C^infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = _g(t)
    b = _g(1.0 - t)
    return a / (a + b)


def bump(r) -> np.ndarray:
    """Mother bump exp(1 - 1/(1 - r^2)) for |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri**2))
    return out


def plateau_bump(r) -> np.ndarray:
    """Radial cutoff: 1 on |r| <= 1/2, 0 for |r| >= 1, smooth in between."""
    r = np.asarray(r, dtype=float)
    return smooth_step(2.0 * (1.0 - np.abs(r)))


def pou_pair(s):
    """Falling/rising pair (cos, sin of a smooth angle) with f^2 + g^2 = 1.

    s is the overlap coordinate in [0, 1]: the first profile falls 1 -> 0,
    the second rises 0 -> 1.
    """
    th = 0.5 * np.pi * smooth_step(np.asarray(s, dtype=float))
    return np.cos(th), np.sin(th)
