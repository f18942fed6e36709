"""cos(pi*t) and sin(pi*t), exact at every multiple of one half.

Both split |t| = k + h + r exactly for every finite t (floor, rint, Sterbenz):
k an integer, h in {-1/2, 0, 1/2}, |r| <= 1/4 and h != 0 at |r| = 1/4.  Each
value is one cos or sin of pi*r with a sign, so multiples of one half give
exactly 0.0 or +-1.0.  Every exact zero is +0.0; else cospi is even, sinpi odd.
Each cache-sized block of the flattened input takes the split and cos and sin
of pi*r once, unmasked, and picks each output and its sign with np.where, so
:func:`cossinpi` returns both with the bits of the two calls.
"""

import numpy as np

_BLOCK = 1 << 14  # values a block: 128 KiB a temporary


def _trig(t, sines):
    # one output for each flag of ``sines``: sinpi(t) where set, else cospi(t); floats for 0-d t
    t = np.asarray(t, dtype=float)
    flat, outs = t.reshape(-1), [np.empty(t.shape) for _ in sines]
    for start in range(0, flat.size, _BLOCK):
        a = flat[start : start + _BLOCK]
        r = np.abs(a)
        r -= 2.0 * np.floor(0.5 * r)  # r mod 2, in [0, 2)
        k = np.rint(r)
        r -= k  # |r| <= 1/2
        up, down = r >= 0.25, r <= -0.25
        r -= 0.5 * (up.view(np.int8) - down.view(np.int8))  # r - 0.0 is r where h = 0
        r *= np.pi  # sin and cos go into the buffers of k (read first) and pi*r
        k_odd, half, s, c = k == 1.0, up | down, np.sin(r, out=k), np.cos(r, out=r)
        for sine, out in zip(sines, outs):
            # cospi: (-1)^k times cos(pi*r), -sin(pi*r), sin(pi*r) for h = 0, 1/2, -1/2;
            # sinpi: sign(t) (-1)^k times sin(pi*r), cos(pi*r), -cos(pi*r); 0 - v keeps +0.0
            own, other, negate = (s, c, k_odd ^ down ^ (a < 0.0)) if sine else (c, s, k_odd ^ up)
            value = out.reshape(-1)[start : start + _BLOCK]  # the block's output
            value[...] = np.where(half, other, own)
            value[...] = np.where(negate, 0.0 - value, value)
    return [out.item() if out.ndim == 0 else out for out in outs]


def cospi(t):
    """Return cos(pi * t); exactly 0.0 at half-integers, +-1.0 at integers."""
    return _trig(t, (False,))[0]


def sinpi(t):
    """Return sin(pi * t); exactly 0.0 at integers, +-1.0 at half-integers."""
    return _trig(t, (True,))[0]


def cossinpi(t):
    """Return (cospi(t), sinpi(t)) from one split, bit for bit the two calls."""
    return tuple(_trig(t, (False, True)))
