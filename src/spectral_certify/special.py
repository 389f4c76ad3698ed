"""Bessel functions of the first kind, any real order nu >= 0, and their zeros.

Values are scipy.special's jv and jvp.  A zero is found by marching in steps
shorter than the smallest zero gap to the requested sign change, then
bisecting its bracket down to adjacent floats.  scipy.special is imported
inside the functions, which only the disk oracle and the tests call: at
module level it would add 0.04-0.07 s to every command.
"""

from __future__ import annotations

import numpy as np

# abscissa step for sign-change marching; consecutive zeros of J_nu (and of
# J_nu') are never closer than ~2.9 for the orders used here, zeros of J_0
# start pi apart and gaps only grow with nu
_MARCH_STEP = 1.5


def _check_order(nu: float) -> None:
    if nu < 0:
        raise ValueError("order must be >= 0")


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for nu >= 0, x >= 0."""
    from scipy.special import jv

    _check_order(nu)
    if x < 0:
        raise ValueError("argument must be >= 0")
    return float(jv(nu, x))


def bessel_j_derivative(nu: float, x: float) -> float:
    """d/dx J_nu(x) for nu >= 0, x > 0."""
    from scipy.special import jvp

    _check_order(nu)
    if x <= 0:
        raise ValueError("derivative evaluation needs x > 0")
    return float(jvp(nu, x))


def _kth_zero(f, start: float, k: int) -> float:
    """k-th zero of f past start, where f > 0: march in fixed steps to the
    k-th sign change, halve its bracket down to adjacent floats, and return
    the end where |f| is smaller."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("zero index must be an integer >= 1")
    lo, f_lo = start, f(start)
    if f_lo <= 0.0:
        raise ValueError("marching must start where the function is positive")
    for _ in range(100000):
        hi = lo + _MARCH_STEP
        f_hi = f(hi)
        if f_hi == 0.0 or (f_hi > 0) != (f_lo > 0):
            k -= 1
            if k == 0:
                break
        lo, f_lo = hi, f_hi
    else:
        raise ValueError("sign-change search did not locate the requested zero")
    while f_hi != 0.0 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid != 0.0 and (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return hi if abs(f_hi) <= abs(f_lo) else lo


def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu (k >= 1)."""
    from scipy.special import jv

    nu = float(nu)
    _check_order(nu)
    # J_nu > 0 on (0, j_{nu,1}); start past any underflow region but below
    # the first zero, which always exceeds nu
    return _kth_zero(lambda x: jv(nu, x), nu + 1e-3, k)


def bessel_derivative_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu' (k >= 1), with the convention that for
    nu = 0 the trivial critical point at 0 is not counted, so the zeros of
    J_0' are exactly the zeros of J_1."""
    from scipy.special import jvp

    nu = float(nu)
    _check_order(nu)
    if nu == 0.0:
        return bessel_zero(1.0, k)
    # J_nu' > 0 on (0, j'_{nu,1}) for nu > 0
    return _kth_zero(lambda x: jvp(nu, x), max(1e-3, 0.25 * nu), k)
