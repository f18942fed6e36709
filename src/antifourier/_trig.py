"""cos(pi*t) and sin(pi*t), exact at every multiple of one half.

Both split |t| = k + h + r exactly for every finite t (floor, rint, Sterbenz):
k an integer, h in {-1/2, 0, 1/2}, |r| <= 1/4 and h != 0 at |r| = 1/4.  Each
value is one cos or sin of pi*r with a sign, so multiples of one half give
exactly 0.0 or +-1.0.  Every exact zero is +0.0; else cospi is even, sinpi odd.
:func:`cossinpi` returns both from one split, with the same bits.
"""

import numpy as np


def _split(t):
    # pi*r and the masks h = 1/2, h = -1/2, k odd and t < 0
    t = np.asarray(t, dtype=float)
    r = np.abs(t, out=np.empty_like(t))
    r -= 2.0 * np.floor(0.5 * r)  # r mod 2, in [0, 2)
    k = np.rint(r)
    r -= k  # |r| <= 1/2
    up, down = r >= 0.25, r <= -0.25
    np.subtract(r, 0.5, out=r, where=up)
    np.add(r, 0.5, out=r, where=down)
    return np.multiply(np.pi, r, out=r), up, down, k == 1.0, t < 0.0


def _signed(w, sine, negate):
    np.cos(w, where=~sine, out=w)
    np.sin(w, where=sine, out=w)
    np.subtract(0.0, w, out=w, where=negate)  # 0 - w keeps every zero +0.0
    return w.item() if w.ndim == 0 else w


def cospi(t):
    """Return cos(pi * t); exactly 0.0 at half-integers, +-1.0 at integers."""
    w, up, down, k_odd, _ = _split(t)
    # (-1)^k times cos(pi*r), -sin(pi*r), sin(pi*r) for h = 0, 1/2, -1/2
    return _signed(w, up | down, k_odd ^ up)


def sinpi(t):
    """Return sin(pi * t); exactly 0.0 at integers, +-1.0 at half-integers."""
    w, up, down, k_odd, negative = _split(t)
    # sign(t) (-1)^k times sin(pi*r), cos(pi*r), -cos(pi*r) for h = 0, 1/2, -1/2
    return _signed(w, ~(up | down), k_odd ^ down ^ negative)


def cossinpi(t):
    """Return (cospi(t), sinpi(t)) from one split, bit for bit the two calls."""
    w, up, down, k_odd, negative = _split(t)
    half = up | down
    return _signed(w.copy(), half, k_odd ^ up), _signed(w, ~half, k_odd ^ down ^ negative)
