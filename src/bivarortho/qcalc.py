"""Pochhammer and q-Pochhammer symbols, and the one bounded array product.

pochhammer and qpochhammer are scalar helpers of the radial and bivariate
construction code.  Infinite q-products are truncated with a certified
geometric tail bound; qproduct_terms gives the number of factors it keeps.
products forms many long products at once, as running products in array
steps of at most MAX_ENTRIES entries: the masses and q-ratio products of
the radial norms and the q-products of the Askey-Wilson module all go
through it.  MAX_ENTRIES is the package's one working-set bound: every
array pass that takes its work in groups (the Gauss rules, the lattice
walk, the zero-circle checks, the generating-function sums) reads it.
"""

import math

import numpy as np

# Truncation target for infinite q-products.  The remaining tail of
# log(a;q)_inf after the last retained factor is bounded by
# |a q^K| / (1 - |q|); we stop once that bound drops below this epsilon.
TRUNCATION_EPS = 1e-17

_MAX_QPRODUCT_TERMS = 100000

# entries of one array step of a grouped pass: its memory bound
MAX_ENTRIES = 1 << 16


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
    if n is None:
        n = qproduct_terms(a, q)
    elif n < 0:
        raise ValueError("q-Pochhammer order must be nonnegative")
    out = 1.0
    aq = a
    for _ in range(n):
        out = out * (1.0 - aq)
        aq = aq * q
    return out


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


def products(factors, counts, dtype=float, shape=None):
    """The running products prod_(k < counts[e]) factors(k)[e] for every
    entry e of the integer array ``counts`` (any shape), as an array of
    that shape and ``dtype``; with ``shape``, ``counts`` is one int shared
    by every entry of that shape, the lean path: no count is searched and
    no factor masked.

    factors(k) takes a column of consecutive indices k, of shape (len(k),)
    + (1,) * ndim, and returns the factors of every entry at them, of shape
    (len(k),) + the entries' shape; it is called once per array step, in k
    order, so it may carry a running state from one step to the next.  Each
    entry is the product of its factors in k order, ((1 f_0) f_1) ..., and
    a factor past the entry's own count is an exact 1.  A step takes as
    many k as keep it within MAX_ENTRIES entries, at least one, and
    continues every product where the last step left it, so any chunking
    gives the same bits.  Only a step past the smallest count masks its
    factors.  (numpy multiplies the complex factors of a single entry in
    its reduce loop, whose rounding can differ from its elementwise loop's
    at several entries.)"""
    if shape is None:
        counts = np.asarray(counts)
        shape = counts.shape
        top = int(counts.max(initial=0))
        low = int(counts.min(initial=top))
    else:
        top = low = counts
    step = max(1, MAX_ENTRIES // max(math.prod(shape), 1))
    out = None
    for lo in range(0, top, step):
        k = np.arange(lo, min(lo + step, top)).reshape((-1,) + (1,) * len(shape))
        f = np.asarray(factors(k), dtype)
        if lo + len(k) > low:
            f = np.where(k < counts, f, 1)
        if out is not None:
            f = np.concatenate((out[None], f))
        out = np.multiply.reduce(f, axis=0)
    return np.ones(shape, dtype) if out is None else out
