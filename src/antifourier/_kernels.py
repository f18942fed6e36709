"""Projection of a FunctionSpec onto families of trigonometric kernels.

Every coefficient in the package is one of a family (1/L) * int_{-L}^{L}
(f(x) - shift) * K_n(x) dx over harmonics n.  A family is described by one
trig kind, "cos" or "sin", and a tuple of (amplitude, offset) pairs: K_n is
the sum of amplitude * trig((n + offset) pi x / L) over the pairs, so every
kernel of a family has one parity.  The classical series uses ((1.0, 0.0),),
the half-integer series and the heat modes ((1.0, 0.5),), and the periodic
split two pairs at offsets -1/2 and +1/2.  :func:`project` computes a set of
families in one call.  It integrates f - shift once against each distinct
(kind, multiplier n + offset) of the set, by one of two paths, and builds
every family from that one table of integrals: a coefficient is the sum of
amplitude times its atoms' integrals.  It is the one place that re-raises a
quadrature failure, tagged with the first family that reads it, n and kind.

* callable bodies: in u = x / L the symmetric integral is folded onto [0, 1]
  with the parity-matched combination of f(L u) and f(-L u), then handed to
  the composite Gauss-Legendre rule of ``integrate``.  The fold makes the
  integral of an odd integrand exactly zero in floating point (the
  combination cancels pointwise before multiplication) and removes the
  catalog sign-function jumps at the origin, where every odd kernel
  vanishes, so every catalog body and ``poly:`` spec folds to a polynomial on
  (0, 1].  A set is one several-row ``integrate`` call, one row per distinct
  multiplier of each kind, starting on the smallest even panel count above
  the largest, so a panel spans at most a half-turn of the top kernel.  Its
  panel rule (:func:`_folded_rule`) folds f once a level and takes each
  kernel as an angle sum at the panel centre and the node step: rows x
  (p + 48) basis values a pair instead of rows x 48 p, and each row keeps
  the bits of its own one-row integration on those panels.

* sampled bodies: each panel of the piecewise-linear interpolant in u is
  integrated against the cos and sin of each multiplier in closed form, by
  parts, so no quadrature error is aliased with interpolation error.  The
  value terms telescope to the two table ends; the slope terms are summed by
  parts over the nodes into one weighted sum of trig values, taken as
  two-level angle sums: at each node, ``cossinpi`` of the distinct giant and
  baby steps of the set's multipliers (ceil((N + 1) / 16) and 16 for
  harmonics 0..N at one offset).

Every series in the package is evaluated by one sum,

    shift + sum_m (c_m cos(mult_m pi x / L) + s_m sin(mult_m pi x / L)),

in :func:`trig_sum`: the classical series (shift a_0/2, mult n) and the
half-integer series (shift gamma, mult n + 1/2) from their containers'
``terms`` views, the ``compare`` ladder (the first k modes, one k per
order), and the heat solution and its x-derivative (weights scaled by
e^(lambda_n k t), one series per time) in ``heat_eval`` and
``heat_eval_dx``.  A call sums a list of series on one point set.  Each mode
is one angle sum of two ``cossinpi`` values, a giant and a baby step: the
series of a call share the baby rows, those of one origin the giant rows.
The containers share :func:`freeze_fields`, :func:`check_scalar` and
:func:`check_order`.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ._trig import cospi, cossinpi, sinpi
from .catalog import FunctionSpec, Polynomial, Sampled, evaluate
from .errors import NonConvergence, OrderExceedsTruncation, ValidationError
from .quadrature import DEFAULT_TOL, _integer, _rules, check_tol, integrate

# Baby steps of :func:`trig_sum`: mode o + BABY a + j, j < BABY, is one angle sum.
BABY = 16

# Table nodes in one block of :func:`_node_sums`; each step of a block takes
# at most BABY x _NODES products.
_NODES = 1 << 12


def _table_integrals(us, ys, mults):
    """Exact integrals of the piecewise-linear table (us, ys) against
    cos(omega u) (row 0) and sin(omega u) (row 1) over [-1, 1], omega =
    mult pi, one column for each multiplier of ``mults``.

    Each panel is integrated by parts, and the slope terms are summed by
    parts over the nodes.  With slopes s_i, T the kernel and T' its derivative,

        integral = [y T~] / omega + sum_k d_k T(omega u_k) / omega^2,
        d_k = s_(k-1) - s_k,  s_(-1) = s_P = 0,

    where T~ = sin for cos and -cos for sin is the kernel's antiderivative
    times omega, taken by ``cossinpi`` at the two table ends only, so it is
    exact at u = +-1.  Two abscissae that divide to one u make a jump dy in
    u: its panel has no slope, so it is left out of d and adds its limit
    dy T'(omega u) / omega.  The node sums are :func:`_node_sums`.  At the
    zero frequency the cosine integral is the trapezoid sum, the sine 0.
    """
    omega = mults * np.pi
    widths, dy = np.diff(us), np.diff(ys)
    jumps = widths == 0.0
    slope = np.where(jumps, 0.0, dy / np.where(jumps, 1.0, widths))
    weights = np.diff(slope, prepend=0.0, append=0.0)
    np.negative(weights, out=weights)  # d_k = s_(k-1) - s_k
    cos_e, sin_e = cossinpi(np.multiply.outer(mults, us[[0, -1]]))
    ends = np.stack((ys[-1] * sin_e[:, 1] - ys[0] * sin_e[:, 0],  # y sin / omega
                     ys[0] * cos_e[:, 0] - ys[-1] * cos_e[:, 1]))  # -y cos / omega
    if jumps.any():  # d cos = -sin and d sin = cos
        jump_cos, jump_sin = _node_sums(dy[jumps], us[:-1][jumps], mults)
        ends += (-jump_sin, jump_cos)
    values = ends / omega + _node_sums(weights, us, mults) / (omega * omega)
    values[:, omega == 0.0] = [[float((0.5 * (ys[:-1] + ys[1:]) * widths).sum())], [0.0]]
    return values


def _node_sums(weights, us, mults):
    """sum_k weights_k cos(mult pi u_k) (row 0) and the same sum of sin (row 1),
    one column for each of ``mults``, as two-level angle sums.

    A multiplier takes ``cossinpi`` of the giant step BABY trunc(mult / BABY)
    and of the baby step, the rest, each times u; each distinct step is taken
    once.  The split is anchored at the multiplier, so it keeps its basis
    values and bits whatever else is in ``mults``; and those below BABY in
    size, whose errors the integral divides by the smallest omega^2, take
    their own basis value exactly (giant step 0: cos 1, sin 0).  Then

        cos(g + b) = cg cb - sg sb,    sin(g + b) = sg cb + cg sb,

    with the weights taken into the giant rows first.  The nodes come in
    blocks of ``_NODES``: each giant row's products with the baby rows are
    summed over the block by numpy's pairwise row sum, and the blocks are
    added in order.
    """
    giant_steps = BABY * np.trunc(mults / BABY)
    giants, row = np.unique(giant_steps, return_inverse=True)
    babies, col = np.unique(mults - giant_steps, return_inverse=True)
    g, width = giants.size, babies.size
    steps = np.concatenate((giants, babies))
    sums = np.zeros((2, g, width))
    for start in range(0, us.size, _NODES):
        u, w = us[start : start + _NODES], weights[start : start + _NODES]
        cos_t, sin_t = cossinpi(np.multiply.outer(steps, u))
        cb, sb = cos_t[g:], sin_t[g:]
        wc, ws = w * cos_t[:g], w * sin_t[:g]
        group = max(1, BABY * _NODES // (width * u.size))  # giant rows a step
        for a in range(0, g, group):
            rows = slice(a, a + group)
            c, s = wc[rows, None], ws[rows, None]
            sums[0, rows] += (c * cb - s * sb).sum(axis=-1)
            sums[1, rows] += (s * cb + c * sb).sum(axis=-1)
    return sums[:, row, col]


def _panels(mults):
    """Start panels of a callable set: the smallest even count above its
    largest |multiplier|, so each panel of [0, 1] spans at most a half-turn
    of the top kernel (2 at N = 0, 32 at N = 30)."""
    return 2 * (int(np.abs(mults).max()) // 2 + 1)


def first_level_values(spec, N):
    """First-level values of a callable set over orders 0..N, for each kind:
    the start panels x (N + 1 rows + one Horner pass per term of f)."""
    terms = len(spec.body.coefficients) if isinstance(spec.body, Polynomial) else 1
    return _panels(np.array([N + 0.5])) * (N + 1 + terms)


def _folded_rule(spec, shift, rows, cut):
    """Panel rule of :func:`integrate` with one row per multiplier of
    ``rows``, a cosine kernel below row ``cut`` and a sine kernel from it:
    on each panel of [0, 1], the G32 and G16 sums of the parity-folded
    (f(L u) - shift) times the kernel, and a rounding size, the G32 sum of
    |fold|; and a flag for each row, set where it read a fold that is not
    finite, so that its sums are not finite either.

    A level evaluates f at its 48 p abscissae c + s (panel centre plus node
    step) and at their negatives once, for the fold of each kind.  A call
    takes cospi and sinpi of its rows' multipliers times the p centres and
    the 48 steps, and contracts each row's node basis with the weighted fold
    of every panel, so a row keeps its bits whatever other rows it is with."""
    nodes, w16, w32 = _rules()
    overflowed = np.zeros(rows.size, dtype=bool)
    level = {}  # (panel count, kind) -> (weighted fold [G16 | G32], G32 sums of |fold|, overflow)

    def rule(centres, half, idx):
        p = centres.size
        if (p, "cos") not in level:
            x = spec.L * (centres[:, None] + half * nodes).reshape(-1)
            level.clear()
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its rows
                pos, neg = evaluate(spec, x) - shift, evaluate(spec, -x) - shift
                for trig, parity in (("cos", 1.0), ("sin", -1.0)):  # cosine kernels are even
                    folded = (pos + parity * neg).reshape(p, -1).T
                    fold = np.zeros((folded.shape[0], 2 * p))
                    fold[:16, :p] = w16[:, None] * folded[:16]
                    fold[16:, p:] = w32[:, None] * folded[16:]
                    level[p, trig] = (fold, w32 @ np.abs(folded[16:]),
                                      not np.isfinite(folded).all())
        angles = np.concatenate((centres, half * nodes))  # the p centres, then the 48 steps
        blocks = []  # (3, rows, p) for each kind with rows in the call
        for trig, part in zip(("cos", "sin"), np.split(idx, [np.searchsorted(idx, cut)])):
            if not part.size:
                continue
            fold, size, overflowed[part] = level[p, trig]  # the fold of the rows' kind
            at = np.multiply.outer(rows[part], angles)
            basis = np.stack((cospi(at), sinpi(at)), axis=1)  # (rows, 2, p + 48)
            # each row's G16 and G32 sums of fold times cos and of fold times sin of mult s
            cb, sb = (basis[:, :, p:] @ fold).reshape(-1, 2, 2, p).transpose(1, 2, 0, 3)
            ca, sa = basis[:, 0, :p], basis[:, 1, :p]
            # cos(a + b) = ca cb - sa sb and sin(a + b) = sa cb + ca sb
            first, second = (ca, -sa) if trig == "cos" else (sa, ca)
            g16, g32 = 0.0 + (first * cb + second * sb)
            blocks.append(np.stack((g32, np.abs(g32 - g16), np.broadcast_to(size, g32.shape))))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    return rule, overflowed


def project(spec: FunctionSpec, shift: float, families, abs_tol: float = DEFAULT_TOL):
    """Return (1/L) int_{-L}^{L} (f(x) - shift) * K_n(x) dx for every n in
    ``ns``, one array for each family (trig, atoms, ns, what, kind) of a set.

    K_n(x) = sum of amplitude * trig((n + offset) pi x / L) over the
    (amplitude, offset) pairs ``atoms``; ``trig`` is "cos" or "sin".  Each
    distinct (trig, n + offset) of the set is integrated once, over u = x / L
    in [-1, 1], and a coefficient sums amplitude times its atoms' integrals.
    ``abs_tol`` bounds each callable integral's estimated error, so a
    coefficient's estimate is at most sum |amplitude| x ``abs_tol``: at most
    ``abs_tol`` for every family in the package.  A failing integral is
    reported for the first family, in set order, that reads it, at its
    lowest n that does: a quadrature failure as NonConvergence "<what> n=<n>
    did not converge: ..." with ``index=n`` and ``kind``; a table integral
    that overflows, or a callable body whose folded values do, as
    ValidationError "<what> n=<n> is not finite: ...".
    """
    check_tol(abs_tol)
    families = [(trig, atoms, np.asarray(ns, dtype=int), what, kind)
                for trig, atoms, ns, what, kind in families]
    mults = {trig: np.unique(np.concatenate([np.empty(0)] + [
        ns + offset for family_trig, atoms, ns, *_ in families if family_trig == trig
        for _, offset in atoms])) for trig in ("cos", "sin")}
    rows, cut = np.concatenate((mults["cos"], mults["sin"])), mults["cos"].size
    table = isinstance(spec.body, Sampled)
    if table:
        union, us = np.unique(rows), np.asarray(spec.body.xs, dtype=float) / spec.L
        # an overflow leaves a nan or an infinity, refused below by harmonic;
        # the zero frequency divides by zero before its own value replaces it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ys = np.asarray(spec.body.ys, dtype=float) - shift
            cos_sin = _table_integrals(us, ys, union) if union.size else np.empty((2, 0))
        values = np.concatenate([cos_sin[i, np.searchsorted(union, mults[trig])]
                                 for i, trig in enumerate(("cos", "sin"))])
    else:
        rule, overflowed = _folded_rule(spec, shift, rows, cut)
        try:
            values = integrate(rule, 0.0, 1.0, abs_tol, rows=rows.size, panels=_panels(rows)
                               ) if rows.size else rows
        except NonConvergence as exc:
            mult, trig = rows[exc.index], "cos" if exc.index < cut else "sin"
            reads = ((what, kind, np.concatenate([ns[ns + offset == mult] for _, offset in atoms]))
                     for family_trig, atoms, ns, what, kind in families if family_trig == trig)
            what, kind, n = next(  # the first family that reads the row, at its lowest n
                (what, kind, int(hits.min())) for what, kind, hits in reads if hits.size)
            if overflowed[exc.index]:
                raise ValidationError(f"{what} n={n} is not finite: "
                                      "the function's values are too large") from None
            raise NonConvergence(f"{what} n={n} did not converge: {exc}", achieved=exc.achieved,
                                 target=exc.target, index=n, kind=kind) from exc
    integrals = {"cos": values[:cut], "sin": values[cut:]}
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below by harmonic
        for trig, atoms, ns, what, _ in families:
            values = sum(amplitude * integrals[trig][np.searchsorted(mults[trig], ns + offset)]
                         for amplitude, offset in atoms)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValidationError(f"{what} n={ns[bad[0]]} is not finite: the "
                                      f"{'table' if table else 'function'}'s values are too large")
            out.append(values)
    return out


def trig_sum(L, terms, x, counts=None):
    """Return shift + sum_m (cos_w[m] cospi(mults[m] x / L) + sin_w[m] sinpi(...))
    for each series (shift, mults, cos_w, sin_w) of the list ``terms``: a
    float for scalar ``x``, an array of its shape otherwise.

    ``mults`` must be o + arange(m) (ValueError otherwise).  Mode
    o + BABY a + j (j < BABY) is one angle sum of the giant step o + BABY a
    and the baby step j, so a call takes ``cossinpi`` of one baby block, j u
    for j < min(BABY, longest m), and of the giant steps of each origin o up
    to its longest series, one origin at a time, with u = x / L.  With the
    weights in rows of w = min(BABY, m), zero-padded, a series sums to

        shift + sum_a [cg_a (Cw_a @ cb + Sw_a @ sb) + sg_a (Sw_a @ cb - Cw_a @ sb)] + 0.0,

    the giant rows added in order, from its own giant rows and the first w
    baby rows: it keeps the bits of its one-series call.  Against
    cospi(mults[m] u), a mode moves by at most pi eps |mults[m] u| plus a few
    eps of angle-sum rounding.  Where the basis is exactly 0.0 or +-1.0
    (integer or half-integer multipliers at u = +-1) every mode is exact, and
    the + 0.0 turns a -0.0 sum into +0.0.  ``counts`` gives one list of
    counts k per series: its result is then one sum per k, over its first k
    modes, stacked: shape (len(k list), *x.shape).
    """
    u = np.asarray(x, dtype=float) / L
    points, series = u.reshape(-1), []
    for shift, mults, cos_w, sin_w in terms:
        mults = np.asarray(mults, dtype=float)
        if mults.ndim != 1 or (mults != mults[:1] + np.arange(mults.size)).any():
            raise ValueError("trig_sum needs unit-step multipliers o + arange(m)")
        series.append((shift, mults, cos_w, sin_w))
    width = min(BABY, max((mults.size for _, mults, _, _ in series), default=0))
    baby = np.concatenate(cossinpi(np.multiply.outer(np.arange(width, dtype=float), points)))
    counts = [None] * len(series) if counts is None else counts
    origins = {}  # first multiplier -> the indices of its series
    for i, (_, mults, _, _) in enumerate(series):
        origins.setdefault(mults[0] if mults.size else None, []).append(i)
    sums = [None] * len(series)
    for members in origins.values():
        longest = max((series[i][1] for i in members), key=len)
        giants = cossinpi(np.multiply.outer(longest[::BABY], points))
        for i in members:
            value = _first_modes(*series[i], giants, baby, counts[i])
            sums[i] = value.reshape(u.shape if counts[i] is None else (len(counts[i]), *u.shape))
        del giants  # before the next origin's
    return [float(value) if value.ndim == 0 else value for value in sums]


def _first_modes(shift, mults, cos_w, sin_w, giants, baby, counts):
    """shift + the sum of the first k modes of one series at each point, one
    row per k of ``counts`` (None: all m), from its origin's giant rows and
    the first min(BABY, m) rows of each half of the baby block.  The giant
    rows are summed once, in order, as running totals; a k that ends inside a
    row adds that row cut (fewer than BABY modes), unless k is m."""
    m, top = mults.size, baby.shape[0] // 2
    width, g = min(BABY, m), -(-m // BABY)
    if width < top:
        baby = np.concatenate((baby[:width], baby[top : top + width]))
    cos_g, sin_g = giants[0][:g], giants[1][:g]
    weights = np.zeros((2, g * width))  # in rows of BABY, one per giant step
    weights[:, :m] = cos_w, sin_w
    cw, sw = weights.reshape(2, g, width)
    both, cross = np.concatenate((cw, sw), axis=1), np.concatenate((sw, -cw), axis=1)

    def giant(a, both, cross):  # cg_a (Cw_a @ cb + Sw_a @ sb) + sg_a (Sw_a @ cb - Cw_a @ sb)
        return cos_g[a] * (both @ baby) + sin_g[a] * (cross @ baby)

    counts = [m] if counts is None else counts
    out = np.empty((len(counts), baby.shape[1]))
    rows = giant(slice(None), both, cross)
    for a in range(1, len(rows)):  # running totals, in order and in place
        rows[a] += rows[a - 1]
    totals = [0.0, *rows]  # totals[a]: the first a rows
    for i, k in enumerate(counts):
        a, r = divmod(int(k), BABY)
        if k == m or not r:
            total = totals[-(-k // BABY)]
        else:
            keep = np.tile(np.arange(width) < r, 2)  # j < r in both halves
            cut = giant(a, np.where(keep, both[a], 0.0), np.where(keep, cross[a], 0.0))
            total = totals[a] + cut
        out[i] = shift + total + 0.0
    return out


def nonnegative(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a
    nonnegative integer and not a bool."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def check_order(M, N: int, name: str = "partial-sum order", symbol: str = "M") -> int:
    """Return the order M (None means the stored order N), a nonnegative
    integer that is not a bool and at most N.  ``name`` names the argument
    in the ValueError, ``symbol`` in the OrderExceedsTruncation message."""
    if M is None:
        return N
    M = nonnegative(M, name)
    if M > N:
        raise OrderExceedsTruncation(f"{symbol}={M} exceeds stored order N={N}")
    return M


def check_scalar(value, name: str, positive: bool = True) -> None:
    """ValueError naming ``name`` unless ``value`` is finite, and > 0 if ``positive``."""
    if not np.isfinite(value) or (positive and value <= 0.0):
        raise ValueError(f"{name} must be finite{' and positive' * positive}, got {float(value)!r}")


def freeze_fields(obj, first: str, second: str, extra: int = 0, positive=("L",)) -> None:
    """Store two fields of frozen dataclass ``obj`` as finite read-only 1-D arrays.

    ``first`` must hold ``extra`` more entries than ``second`` and at least one.
    Every other field is a scalar that must be finite, and > 0 if named in
    ``positive``.
    """
    for name in (field.name for field in fields(obj) if field.name not in (first, second)):
        check_scalar(getattr(obj, name), name, name in positive)
    arrays = {name: np.asarray(getattr(obj, name), dtype=float) for name in (first, second)}
    if any(array.ndim != 1 for array in arrays.values()):
        raise ValueError(f"{first} and {second} must be one-dimensional")
    if arrays[first].size != arrays[second].size + extra or arrays[first].size == 0:
        raise ValueError(f"expected len({first}) == len({second}) + {extra} > 0")
    if not all(np.isfinite(array).all() for array in arrays.values()):
        raise ValueError("coefficients must be finite")
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(obj, name, array)
