"""The Bhattacharya-Mesner ternary product and its relatives.

``bm_product`` contracts one axis of each of three conformable legs:

    Prod(A0, A1, A2)[i0, i1, i2] = sum_j A0[i0, j, i2] A1[i0, i1, j] A2[j, i1, i2]

``general_bm_product`` weights a triple sum by a cubic background
hypermatrix; the plain product is the Kronecker-delta background, and
the rank-one backgrounds delta_t pick out single outer products.

Both products run on one kernel, ``_contract``: it loops over the
summation terms in order and computes each term for every output entry
at once.  GF(q) sums the canonical integer entries, reduced mod q at
the end, and Q sums integer numerators over common denominators, so
both are exact: a product of at most ``SMALL_CONTRACTION`` multiply-adds
sums in plain Python and imports no numpy, and a larger one sums on
numpy arrays.  C uses split real and imaginary float64 arrays with
CPython's complex product, so every entry is bit-identical to the
per-scalar sum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import Hypermatrix, SliceSpec, numerators
from .errors import ConformabilityError
from .scalars import COMPLEX_KIND

# The contracted axis of legs 0, 1 and 2 (see :func:`conformability`):
# term t of a triple is its column, depth and row slices at index t.
CONTRACTED_AXES = (1, 2, 0)

# The most multiply-adds (n0 n1 n2 per term) that an exact product sums in
# plain Python rather than on numpy arrays.  The selection is by size:
# with numpy loaded, arrays are faster from under 100 multiply-adds, but
# up to this size the Python sums cost at most about 0.15 ms more, while
# importing numpy costs about 100 ms.  Every product the CLI re-verifies
# on its corpus (729 multiply-adds at most) stays below it, so those
# commands never import numpy.  CI's "Product kernel crossover" step
# prints both kernels' times.
SMALL_CONTRACTION = 1024


def conformability(a0: Hypermatrix, a1: Hypermatrix, a2: Hypermatrix):
    """Validate a triple, returning (n0, n1, n2, ell).

    Convention: leg 0 is (n0, ell, n2), leg 1 is (n0, n1, ell),
    leg 2 is (ell, n1, n2).  Errors name the failing leg and the
    expected versus found extent.
    """
    a0.domain.check_same(a1.domain)
    a0.domain.check_same(a2.domain)
    n0, ell, n2 = a0.shape
    if a1.shape[0] != n0:
        raise ConformabilityError(
            f"leg 1 extent 0 should be {n0} (leg 0 extent 0), found {a1.shape[0]}",
            leg=1,
        )
    if a1.shape[2] != ell:
        raise ConformabilityError(
            f"leg 1 extent 2 should be the contracted dimension {ell}, "
            f"found {a1.shape[2]}",
            leg=1,
        )
    n1 = a1.shape[1]
    if a2.shape[0] != ell:
        raise ConformabilityError(
            f"leg 2 extent 0 should be the contracted dimension {ell}, "
            f"found {a2.shape[0]}",
            leg=2,
        )
    if a2.shape[1] != n1:
        raise ConformabilityError(
            f"leg 2 extent 1 should be {n1} (leg 1 extent 1), found {a2.shape[1]}",
            leg=2,
        )
    if a2.shape[2] != n2:
        raise ConformabilityError(
            f"leg 2 extent 2 should be {n2} (leg 0 extent 2), found {a2.shape[2]}",
            leg=2,
        )
    return n0, n1, n2, ell


def bm_product(a0: Hypermatrix, a1: Hypermatrix, a2: Hypermatrix) -> Hypermatrix:
    """Ternary product of a conformable triple; exact in exact domains."""
    n0, n1, n2, ell = conformability(a0, a1, a2)
    terms = [(j, j, j, None) for j in range(ell)]
    return _contract(a0, a1, a2, (n0, n1, n2), terms)


def general_bm_product(
    a0: Hypermatrix, a1: Hypermatrix, a2: Hypermatrix, background: Hypermatrix
) -> Hypermatrix:
    """Triple-sum product weighted by a cubic background of side ell."""
    n0, n1, n2, ell = conformability(a0, a1, a2)
    a0.domain.check_same(background.domain)
    if background.shape != (ell, ell, ell):
        raise ConformabilityError(
            f"background must be cubic of side {ell}, found {background.shape}",
            leg="background",
        )
    dom = a0.domain
    # skip zero background entries; delta-like backgrounds are the common case
    cells = itertools.product(range(ell), repeat=3)
    support = [(*c, w) for c, w in zip(cells, background.data) if not dom.is_zero(w)]
    return _contract(a0, a1, a2, (n0, n1, n2), support)


def _contract(a0, a1, a2, shape, terms):
    """Sum over ``terms`` (j0, j1, j2, w), in their order, of

        ((a0[i0, j0, i2] * a1[i0, i1, j1]) * a2[j2, i1, i2]) * w

    for every (i0, i1, i2) at once; ``w`` None means no weight factor.

    Q and GF(q) sum exact integers, so the order of the sums is free:
    over GF(q) the stored canonical entries, leaving the reduction mod q
    to the ``Hypermatrix`` constructor, and over Q the numerators over
    one common denominator per leg.  Every zero entry of a Q result is
    one shared ``Fraction(0)``, which skips the gcd of
    ``Fraction(0, den)``.  A product of at most ``SMALL_CONTRACTION``
    multiply-adds (n0 n1 n2 per term) sums in Python, in
    :func:`_small_sums`, and imports no numpy; a larger one sums on
    numpy arrays, int64 over GF(q) (each term is below 251^4 < 2^32 for
    q <= 251, so the sum overflows only past 2^31 terms) and object
    arrays of Python ints over Q.  C works on separate float64 real and
    imaginary arrays with CPython's complex product and accumulates from
    +0.0 in term order, so every entry has the bits of the per-scalar
    sum; complex128 ufuncs and einsum round differently in the last
    bits.
    """
    dom = a0.domain
    legs = (a0, a1, a2)
    if dom.kind == COMPLEX_KIND:
        import numpy as np
        zs = [np.array(a.data, dtype=complex).reshape(a.shape) for a in legs]
        re0, re1, re2 = (z.real for z in zs)
        im0, im1, im2 = (z.imag for z in zs)
        acc_re, acc_im = np.zeros(shape), np.zeros(shape)
        for j0, j1, j2, w in terms:
            re, im = _cmul(re0[:, j0, None], im0[:, j0, None],
                           re1[:, :, j1, None], im1[:, :, j1, None])
            re, im = _cmul(re, im, re2[j2], im2[j2])
            if w is not None:
                re, im = _cmul(re, im, w.real, w.imag)
            acc_re += re
            acc_im += im
        out = acc_re.astype(complex)
        out.imag = acc_im
        return Hypermatrix(shape, out.ravel().tolist(), dom)
    q = dom.q  # None over Q
    weights = [w for *_, w in terms if w is not None]
    if q is None:
        (x0, d0), (x1, d1), (x2, d2) = (numerators(a.data) for a in legs)
        weights, dw = numerators(weights)
    else:
        # stored GF(q) entries are already canonical
        x0, x1, x2 = (a.data for a in legs)
    n0, n1, n2 = shape
    if n0 * n1 * n2 * len(terms) <= SMALL_CONTRACTION:
        acc = _small_sums(x0, x1, x2, legs, terms, weights)
    else:
        import numpy as np
        dtype = object if q is None else np.int64
        x0, x1, x2 = (np.array(x, dtype=dtype).reshape(a.shape)
                      for x, a in zip((x0, x1, x2), legs))
        weights = iter(weights)
        acc = np.zeros(shape, dtype=dtype)
        for j0, j1, j2, w in terms:
            t = x0[:, j0, None] * x1[:, :, j1, None] * x2[j2]
            if w is not None:
                t *= next(weights)
            acc += t
        acc = acc.ravel().tolist()
    if q is not None:
        return Hypermatrix(shape, acc, dom)
    den = d0 * d1 * d2 * dw
    zero = Fraction(0)
    return Hypermatrix(shape, [Fraction(v, den) if v else zero for v in acc], dom)


def _small_sums(x0, x1, x2, legs, terms, weights):
    """The integer sums of :func:`_contract` in plain Python, flat in
    row-major (i0, i1, i2) order.

    Slice j of each leg is first spread over that flat index by slice
    copies: leg 0's (i0, j, i2) along i1, leg 1's (i0, i1, j) along i2
    and leg 2's (j, i1, i2) along i0.  Each term is then one pass of
    multiply-adds over its three spread slices.
    """
    (n0, e0, n2), (_, n1, e1), (e2, _, _) = (a.shape for a in legs)
    plane = n1 * n2
    size = n0 * plane
    spread0 = [[0] * size for _ in range(e0)]
    for j, f in enumerate(spread0):
        for i1 in range(n1):
            for i2 in range(n2):
                f[i1 * n2 + i2::plane] = x0[j * n2 + i2::e0 * n2]
    spread1 = [[0] * size for _ in range(e1)]
    for j, f in enumerate(spread1):
        for i2 in range(n2):
            f[i2::n2] = x1[j::e1]
    spread2 = [x2[j * plane:(j + 1) * plane] * n0 for j in range(e2)]
    weights = iter(weights)
    acc = [0] * size
    for j0, j1, j2, w in terms:
        f0, f1, f2 = spread0[j0], spread1[j1], spread2[j2]
        if w is None:
            acc = [s + u * v * x for s, u, v, x in zip(acc, f0, f1, f2)]
        else:
            w = next(weights)
            acc = [s + u * v * x * w for s, u, v, x in zip(acc, f0, f1, f2)]
    return acc


def _cmul(ar, ai, br, bi):
    """CPython's complex product on split real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def kronecker_delta(n, domain) -> Hypermatrix:
    """Cubic hypermatrix with ones exactly on the main space diagonal."""
    one, zero = domain.one(), domain.zero()
    return Hypermatrix.from_function(
        (n, n, n), domain, lambda i, j, k: one if i == j == k else zero
    )


def delta_t(n, t, domain) -> Hypermatrix:
    """Rank-one background with a single one at position (t, t, t)."""
    if not (0 <= t < n):
        raise ConformabilityError(f"delta index {t} out of range for side {n}")
    one, zero = domain.one(), domain.zero()
    return Hypermatrix.from_function(
        (n, n, n), domain, lambda i, j, k: one if i == j == k == t else zero
    )


def identity_pair(m, n, p, domain):
    """The sandwich identity pair (J0, J1): Prod(J0, A, J1) = A for every
    (m, n, p) hypermatrix A.

    J0 is (m, p, p) with J0[i,t,k] = 1 iff t == k; J1 is (p, n, p) with
    J1[t,j,k] = 1 iff t == k.
    """
    one, zero = domain.one(), domain.zero()
    j0 = Hypermatrix.from_function(
        (m, p, p), domain, lambda i, t, k: one if t == k else zero
    )
    j1 = Hypermatrix.from_function(
        (p, n, p), domain, lambda t, j, k: one if t == k else zero
    )
    return j0, j1


def outer_product(
    colslice: Hypermatrix, depthslice: Hypermatrix, rowslice: Hypermatrix
) -> Hypermatrix:
    """Product of one column slice, one depth slice and one row slice.

    Shapes (n0,1,n2), (n0,n1,1), (1,n1,n2); equals the ternary product
    with contracted dimension 1.
    """
    if colslice.shape[1] != 1:
        raise ConformabilityError(
            f"column slice must have extent 1 on axis 1, found {colslice.shape}",
            leg=0,
        )
    if depthslice.shape[2] != 1:
        raise ConformabilityError(
            f"depth slice must have extent 1 on axis 2, found {depthslice.shape}",
            leg=1,
        )
    if rowslice.shape[0] != 1:
        raise ConformabilityError(
            f"row slice must have extent 1 on axis 0, found {rowslice.shape}",
            leg=2,
        )
    return bm_product(colslice, depthslice, rowslice)


def outer_product_at(
    a0: Hypermatrix, a1: Hypermatrix, a2: Hypermatrix, t: int
) -> Hypermatrix:
    """The t-th outer product of a triple: slices extracted at index t."""
    return outer_product(
        *(leg.slice(SliceSpec(axis, t)) for leg, axis in zip((a0, a1, a2), CONTRACTED_AXES))
    )


def cp_embed(x, y, z, domain):
    """Lift vectors x (len m), y (len n), z (len p) to outer-product-ready
    slices (X, Y, Z) so that outer_product(X, Y, Z)[i,j,k] = x[i] y[j] z[k].

    X is constant along axis 2, Y along axis 0, Z along axis 1; this is
    the constrained-slice form whose outer products are exactly the
    rank-one Kronecker products.
    """
    xs = [domain.coerce(v) for v in x]
    ys = [domain.coerce(v) for v in y]
    zs = [domain.coerce(v) for v in z]
    m, n, p = len(xs), len(ys), len(zs)
    big_x = Hypermatrix.from_function((m, 1, p), domain, lambda i, _, k: xs[i])
    big_y = Hypermatrix.from_function((m, n, 1), domain, lambda i, j, _: ys[j])
    big_z = Hypermatrix.from_function((1, n, p), domain, lambda _, j, k: zs[k])
    return big_x, big_y, big_z


def kron3(x, y, z, domain) -> Hypermatrix:
    """Plain rank-one Kronecker product x (x) y (x) z as a hypermatrix."""
    xs = [domain.coerce(v) for v in x]
    ys = [domain.coerce(v) for v in y]
    zs = [domain.coerce(v) for v in z]
    return Hypermatrix.from_function(
        (len(xs), len(ys), len(zs)),
        domain,
        lambda i, j, k: domain.mul(domain.mul(xs[i], ys[j]), zs[k]),
    )


def general_linear_residual(
    a: Hypermatrix, x: Hypermatrix, b: Hypermatrix, c: Hypermatrix
) -> Hypermatrix:
    """Residual Prod(a, x, b) - c of a general linear system.

    a is (1, ell, n2), x is (1, 1, ell), b is (ell, 1, n2) and c is
    (1, 1, n2); the residual vanishes exactly when x solves the system.
    """
    if a.shape[0] != 1:
        raise ConformabilityError(
            f"left coefficients must be (1, ell, n2), found {a.shape}", leg=0
        )
    if x.shape[0] != 1 or x.shape[1] != 1:
        raise ConformabilityError(
            f"unknown vector must be (1, 1, ell), found {x.shape}", leg=1
        )
    if b.shape[1] != 1:
        raise ConformabilityError(
            f"right coefficients must be (ell, 1, n2), found {b.shape}", leg=2
        )
    prod = bm_product(a, x, b)
    if c.shape != prod.shape:
        raise ConformabilityError(
            f"right-hand side shape {c.shape} does not match system shape {prod.shape}"
        )
    return prod.sub(c)
