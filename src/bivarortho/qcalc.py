"""Pochhammer and q-Pochhammer symbols.

All routines are plain scalar helpers used by the radial and bivariate
construction code.  Infinite q-products are truncated with a certified
geometric tail bound; qproduct_terms gives the number of factors it keeps,
which the array products of the Askey-Wilson module share.
"""

import math

# Truncation target for infinite q-products.  The remaining tail of
# log(a;q)_inf after the last retained factor is bounded by
# |a q^K| / (1 - |q|); we stop once that bound drops below this epsilon.
TRUNCATION_EPS = 1e-17

_MAX_QPRODUCT_TERMS = 100000


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) for integer n >= 0.

    Uses a log-gamma evaluation for long products with a > 0 to avoid
    accumulating rounding error, and a direct product otherwise (which is
    exact for the sign pattern of nonpositive arguments, including the
    terminating zeros).
    """
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if n == 0:
        return 1.0
    if a > 0 and n > 20:
        return math.exp(math.lgamma(a + n) - math.lgamma(a))
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def qpochhammer(a, q, n=None):
    """q-Pochhammer symbol (a; q)_n = prod_{k<n} (1 - a q^k).

    ``n=None`` gives the infinite product, which requires |q| < 1; the
    product is truncated once the geometric bound on the dropped log-tail,
    |a q^K| / (1 - |q|), falls below TRUNCATION_EPS.  Complex ``a`` is
    supported (used for unit-circle arguments).
    """
    if n is not None:
        if n < 0:
            raise ValueError("q-Pochhammer order must be nonnegative")
        out = 1.0
        aq = a
        for _ in range(n):
            out = out * (1.0 - aq)
            aq = aq * q
        return out
    out = 1.0
    aq = a
    for _ in range(qproduct_terms(a, q)):
        out = out * (1.0 - aq)
        aq = aq * q
    return out


def qpochhammer_prefix(a, q, n):
    """[(a; q)_0, ..., (a; q)_n] as one running product in qpochhammer's
    own order, so that entry m equals qpochhammer(a, q, m) bit for bit."""
    out, aq = 1.0, a
    prefix = [out]
    for _ in range(n):
        out = out * (1.0 - aq)
        aq = aq * q
        prefix.append(out)
    return prefix


def qproduct_terms(a, q):
    """Number K of factors kept by the truncated infinite product
    (a; q)_inf: the smallest K with |a| |q|^K / (1 - |q|) < TRUNCATION_EPS.

    It depends on a only through |a|, so one K serves a whole array of
    arguments a e^(i theta) on a circle.
    """
    r = abs(q)
    if r >= 1:
        raise ValueError("infinite q-product needs |q| < 1")
    size = abs(a) / (1.0 - r)
    if size < TRUNCATION_EPS:
        return 0
    if r == 0.0:
        return 1
    k = max(math.ceil(math.log(TRUNCATION_EPS / size) / math.log(r)), 1)
    if k > _MAX_QPRODUCT_TERMS:
        raise RuntimeError("infinite q-product did not converge")
    # settle the rounding of the logarithms at the boundary
    while size * r ** k >= TRUNCATION_EPS:
        k += 1
    while size * r ** (k - 1) < TRUNCATION_EPS:
        k -= 1
    return k

