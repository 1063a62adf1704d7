"""Complementary error function and its inverse, implemented in-repo.

``erfc`` uses the SunPro rational minimax scheme (four intervals over
``|z|``, reflection for negative arguments), which keeps the relative error
a few ULP everywhere it matters here.  The coefficient tables below are the
published msun ``s_erf.c`` values.  Two simplifications relative to the C
original: the high/low word split feeding ``exp(-z*z)`` is dropped (the
resulting relative error is ~|z|^2 * eps, i.e. below 1e-13 for |z| <= 28,
far inside this module's 1e-12 budget), and the two exponentials of the
large-argument branch are fused into one.

The kernel, ``_erfc_core``, writes into its workspace only: four float64
rows and two bool rows as long as the largest input it serves
(``_workspace``). Row 0 is the caller's, for the arguments if it likes;
the result lands in row 1; rows 2 and 3 and the bool rows are scratch, and
Horner's scheme, the quotients and the select run in them with ``out=``.
Only the gathers allocate. A caller that evaluates many blocks passes one
workspace to every call, so the blocks reuse its pages: with fresh
temporaries each block faulted in new pages, and the temporaries
overflowed a core's L2 cache. The public ``erfc`` sizes a workspace per
call, and ``erfc_inv`` one for its three Halley steps.

The elements >= 0.84375 are gathered first and sent through the mid,
large and >= 28 branches in place, from the top down, while rows 1-3 are
free. The small-argument formula then runs over the whole input with no
gather (its overflows are silenced), and the gathered results are
scattered over it. The large-argument branch evaluates only the rational
that applies to each element. Every element goes through the same
floating-point operations in the same order wherever it sits, so the
results do not depend on how an input is split into blocks.

``erfc_inv`` starts from the classic rational approximation of the normal
quantile and polishes with three Halley iterations on ``erfc``, which is
enough to reach double-precision round trips over the whole open domain
(0, 2). Near p = 1 those steps are accurate only in absolute terms, so
for q = |1 - p| below 2^-20 the inverse is the series
sqrt(pi)/2 q (1 + pi q^2/12), whose next term is below 1e-24 relative
there.

Both functions accept a Python float or a numpy array and are pure and
stateless; parallel callers need no coordination.
"""

# The erfc coefficient tables originate from FreeBSD msun (s_erf.c):
#
#   ====================================================
#   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#
#   Developed at SunPro, a Sun Microsystems, Inc. business.
#   Permission to use, copy, modify, and distribute this
#   software is freely granted, provided that this notice
#   is preserved.
#   ====================================================

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["erfc", "erfc_inv"]

_ERX = 8.45062911510467529297e-01

# erf(x) = x + x*P(x^2)/Q(x^2) on [0, 0.84375]
_PP = (
    -2.37630166566501626084e-05,
    -5.77027029648944159157e-03,
    -2.84817495755985104766e-02,
    -3.25042107247001499370e-01,
    1.28379167095512558561e-01,
)
_QQ = (
    -3.96022827877536812320e-06,
    1.32494738004321644526e-04,
    5.08130628187576562776e-03,
    6.50222499887672944485e-02,
    3.97917223959155352819e-01,
    1.0,
)

# erf(x) = erx + P(s)/Q(s), s = |x|-1, on [0.84375, 1.25]
_PA = (
    -2.16637559486879084300e-03,
    3.54783043256182359371e-02,
    -1.10894694282396677476e-01,
    3.18346619901161753674e-01,
    -3.72207876035701323847e-01,
    4.14856118683748331666e-01,
    -2.36211856075265944077e-03,
)
_QA = (
    1.19844998467991074170e-02,
    1.36370839120290507362e-02,
    1.26171219808761642112e-01,
    7.18286544141962662868e-02,
    5.40397917702171048937e-01,
    1.06420880400844228286e-01,
    1.0,
)

# erfc(x) = exp(-x^2 - 0.5625 + R(s)/S(s))/x, s = 1/x^2, on [1.25, 1/0.35)
_RA = (
    -9.81432934416914548592e00,
    -8.12874355063065934246e01,
    -1.84605092906711035994e02,
    -1.62396669462573470355e02,
    -6.23753324503260060396e01,
    -1.05586262253232909814e01,
    -6.93858572707181764372e-01,
    -9.86494403484714822705e-03,
)
_SA = (
    -6.04244152148580987438e-02,
    6.57024977031928170135e00,
    1.08635005541779435134e02,
    4.29008140027567833386e02,
    6.45387271733267880336e02,
    4.34565877475229228821e02,
    1.37657754143519042600e02,
    1.96512716674392571292e01,
    1.0,
)

# same form on [1/0.35, 28)
_RB = (
    -4.83519191608651397019e02,
    -1.02509513161107724954e03,
    -6.37566443368389627722e02,
    -1.60636384855821916062e02,
    -1.77579549177547519889e01,
    -7.99283237680523006574e-01,
    -9.86494292470009928597e-03,
)
_SB = (
    -2.24409524465858183362e01,
    4.74528541206955367215e02,
    2.55305040643316442583e03,
    3.19985821950859553908e03,
    1.53672958608443695994e03,
    3.25792512996573918826e02,
    3.03380607434824582924e01,
    1.0,
)

_TWO_OVER_SQRT_PI = 1.12837916709551257390
_SQRT_PI_OVER_2 = 0.886226925452758013649
_SERIES_Q = 2.0 ** -20  # below 1.85e-5, the least q in digest.py's fit draws


def _workspace(size: int) -> tuple:
    """Buffers for erfc on up to `size` elements (see module docstring)."""
    return np.empty((4, size)), np.empty((2, size), dtype=bool)


def _polyval(coeffs, x, out):
    # Horner, highest degree first, evaluated in place in `out`; the same
    # operations in the same order as acc = acc * x + c.
    np.multiply(x, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _rational(num, den, s, y, d):
    """num(s) / den(s) into y; d is scratch."""
    _polyval(num, s, y)
    y /= _polyval(den, s, d)
    return y


def _erfc_small(x, z, y, xy, mask):
    """erfc on |x| < 0.84375 into z; y, xy and mask are scratch like x."""
    np.multiply(x, x, out=z)
    _rational(_PP, _QQ, z, y, xy)
    np.multiply(x, y, out=xy)
    # Below 1/4 plain subtraction is exact enough; above it the
    # half-based ordering avoids the cancellation in 1 - erf.
    np.add(x, xy, out=z)
    np.subtract(1.0, z, out=z)  # 1 - (x + x*y)
    np.subtract(x, 0.5, out=y)
    y += xy
    np.subtract(0.5, y, out=y)  # 0.5 - (x*y + (x - 0.5))
    np.copyto(z, y, where=np.greater_equal(x, 0.25, out=mask))
    return z


def _erfc_large(x, s, y, d, num, den):
    """erfc on [1.25, 28) into s: exp(-x^2 - 0.5625 + num(s)/den(s))/x,
    s = 1/x^2, with the rational num/den for x's interval."""
    np.multiply(x, x, out=s)
    np.divide(1.0, s, out=s)
    ratio = _rational(num, den, s, y, d)
    e = np.negative(x, out=s)
    e *= x
    e -= 0.5625
    e += ratio
    np.exp(e, out=e)
    e /= x
    return e


def _erfc_rest(g: np.ndarray, s, y, d, sel) -> None:
    """erfc in place over a 1-d g >= 0.84375; s, y, d and sel are scratch
    rows at least as long as g.

    The branches run from the top down, and each writes its results over
    its own arguments. Those results are below 0.84375, so no later branch
    picks one up, and one comparison selects each branch.
    """
    sel = sel[:g.size]
    g[np.greater_equal(g, 28.0, out=sel)] = 0.0  # underflows past 5e-324
    for lo, num, den in ((1.0 / 0.35, _RB, _SB), (1.25, _RA, _SA)):
        x = g[np.greater_equal(g, lo, out=sel)]
        if x.size:
            g[sel] = _erfc_large(x, s[:x.size], y[:x.size], d[:x.size],
                                 num, den)
    x = g[np.greater_equal(g, 0.84375, out=sel)]
    if x.size:  # erf(x) = erx + P(x - 1)/Q(x - 1)
        x -= 1.0
        y = _rational(_PA, _QA, x, y[:x.size], d[:x.size])
        g[sel] = np.subtract(1.0 - _ERX, y, out=y)


def _erfc_core(a: np.ndarray, ws=None) -> np.ndarray:
    """erfc on non-negative arguments, elementwise, in the workspace `ws`
    (one of its own if None). The result is a view of `ws`; `a` is only
    read, and may be row 0 of `ws`."""
    a = np.asarray(a)
    if a.ndim == 0:
        return _erfc_core(a.reshape(1), ws).reshape(())
    n, shape = a.size, a.shape
    floats, masks = _workspace(n) if ws is None else ws
    r1, r2, r3 = floats[1:, :n]
    out = r1.reshape(shape)
    rest, sel = masks[0, :n].reshape(shape), masks[1, :n]
    g = a[np.greater_equal(a, 0.84375, out=rest)]
    _erfc_rest(g, r1, r2, r3, sel)  # first, while rows 1-3 are free
    with np.errstate(all="ignore"):  # overwritten where a >= 0.84375
        _erfc_small(a, out, *(b.reshape(shape) for b in (r2, r3, sel)))
    out[rest] = g
    return out


def erfc(z):
    """Complementary error function.

    Accepts a float or ndarray; returns the same kind.  Raises
    :class:`DomainError` on non-finite input.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("erfc requires finite input")
    neg = arr < 0.0
    res = _erfc_core(np.abs(arr))
    res = np.where(neg, 2.0 - res, res)
    if arr.ndim == 0:
        return float(res)
    return res


def erfc_inv(p):
    """Inverse of :func:`erfc` on the open interval (0, 2).

    ``erfc_inv(1)`` is exactly 0.  Raises :class:`DomainError` outside
    (0, 2), at the poles 0 and 2 and on non-finite input.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 2.0)).all():
        raise DomainError("erfc_inv requires p in (0, 2)")

    pp = np.where(arr > 1.0, 2.0 - arr, arr)

    # Rational first guess for the equivalent normal quantile, then Halley.
    t = np.sqrt(-2.0 * np.log(pp / 2.0))
    x = -0.70711 * (
        (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    )
    ws = _workspace(x.size)
    for _ in range(3):
        err = _erfc_core(x, ws) - pp
        x = x + err / (_TWO_OVER_SQRT_PI * np.exp(-x * x) - x * err)

    q = 1.0 - pp  # exact, as pp >= 1/2 wherever the series is taken
    x = np.where(q < _SERIES_Q,
                 _SQRT_PI_OVER_2 * q * (1.0 + np.pi / 12.0 * q * q), x)
    x = np.where(arr > 1.0, -x, x)
    if arr.ndim == 0:
        return float(x)
    return x
