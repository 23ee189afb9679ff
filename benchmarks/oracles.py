"""Result checkers that share no code with ``bmalg``.

Every checker reads only a result's public data (``shape``, ``data``,
``domain.kind``/``domain.q``, certificate fields) and recomputes the
claim with numpy or plain Python integers and fractions.  A checker
returns ``None`` when the result is right and a one-line reason when it
is wrong.  None of this runs inside a timed span.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

# c07 and c12 acceptance bounds for numeric certificates and witnesses
NUMERIC_RESIDUAL_BOUND = 1e-8
# relative entry tolerance for complex results recomputed in another order
COMPLEX_RTOL = 1e-9
# the CLI's own slack for a numerically zero depth slice
ZERO_SLICE_SLACK = 100.0
_INT64_SAFE = 2**62


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------


def kind_of(x):
    dom = x.domain
    return dom.kind, getattr(dom, "q", None)


def as_array(x):
    """Entries as an ndarray: int64 for GF(q), complex128 for complex,
    Fractions (object) for rationals."""
    kind, _ = kind_of(x)
    data = list(x.data)
    if kind == "gf":
        arr = np.array([int(v) for v in data], dtype=np.int64)
    elif kind == "complex":
        arr = np.array([complex(v) for v in data], dtype=complex)
    else:
        arr = np.empty(len(data), dtype=object)
        arr[:] = [Fraction(v) for v in data]
    return arr.reshape(tuple(x.shape))


def integer_parts(frac_arr):
    """(numerators, common denominator) of a Fraction array."""
    den = 1
    for v in frac_arr.flat:
        den = lcm(den, v.denominator)
    nums = np.empty(frac_arr.shape, dtype=object)
    nums.flat[:] = [v.numerator * (den // v.denominator) for v in frac_arr.flat]
    return nums, den


def _exact_einsum(spec, int_arrays, terms):
    """einsum over Python-int arrays, in int64 when no sum can overflow."""
    bound = terms
    for a in int_arrays:
        bound *= max((abs(int(v)) for v in a.flat), default=0) or 1
    if bound < _INT64_SAFE:
        out = np.einsum(spec, *[a.astype(np.int64) for a in int_arrays])
        return out.astype(object)
    return np.einsum(spec, *int_arrays)


PRODUCT_SPEC = "ajc,abj,jbc->abc"
GENERAL_SPEC = "ajc,abk,lbc,jkl->abc"


def product_reference(legs, background=None):
    """The BM product of the legs (optionally background-weighted),
    computed with np.einsum in the legs' domain."""
    kind, q = kind_of(legs[0])
    arrays = [as_array(x) for x in legs]
    spec = PRODUCT_SPEC
    ell = legs[0].shape[1]
    terms = ell
    if background is not None:
        arrays.append(as_array(background))
        spec = GENERAL_SPEC
        terms = ell**3
    if kind == "complex":
        return np.einsum(spec, *arrays)
    if kind == "gf":
        return np.einsum(spec, *arrays) % q
    parts = [integer_parts(a) for a in arrays]
    nums = _exact_einsum(spec, [p[0] for p in parts], terms)
    den = 1
    for _, d in parts:
        den *= d
    out = np.empty(nums.shape, dtype=object)
    out.flat[:] = [Fraction(int(v), den) for v in nums.flat]
    return out


def compare(result_arr, expected, kind, what):
    """None when equal (complex: within COMPLEX_RTOL entry-wise)."""
    if result_arr.shape != expected.shape:
        return f"{what}: shape {result_arr.shape} != {expected.shape}"
    if kind == "complex":
        dev = np.abs(result_arr - expected)
        limit = COMPLEX_RTOL * (1.0 + np.maximum(np.abs(result_arr), np.abs(expected)))
        if not np.all(dev <= limit):
            return f"{what}: max deviation {float(dev.max()):.3e}"
        return None
    if not all(a == b for a, b in zip(result_arr.flat, expected.flat)):
        return f"{what}: entries differ from the reference"
    return None


def check_product(result, legs, background=None):
    expected = product_reference(legs, background)
    kind, _ = kind_of(legs[0])
    return compare(as_array(result), expected, kind, "product")


def check_transpose(result, source):
    kind, _ = kind_of(source)
    return compare(as_array(result), as_array(source).transpose(1, 2, 0), kind,
                   "cyclic transpose")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def exact_det(rows):
    """Determinant of a square matrix of Fractions/ints by fraction
    Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _matmul(kind, q, a, b):
    out = a.dot(b)
    return out % q if kind == "gf" else out


def _identity(kind, n):
    eye = np.eye(n, dtype=np.int64)
    if kind == "complex":
        return eye.astype(complex)
    if kind == "rational":
        out = np.empty((n, n), dtype=object)
        out.flat[:] = [Fraction(int(v)) for v in eye.flat]
        return out
    return eye


def check_det(result, matrix):
    kind, q = kind_of(matrix)
    arr = as_array(matrix)
    if kind == "complex":
        ref = complex(np.linalg.det(arr))
        if abs(complex(result) - ref) > 1e-8 * (1.0 + abs(ref)):
            return f"det {complex(result)} != numpy {ref}"
        return None
    ref = exact_det(arr.tolist())
    if kind == "gf":
        ref = int(ref) % q
    return None if result == ref else f"det {result} != {ref}"


def check_inverse(result, matrix):
    kind, q = kind_of(matrix)
    a = as_array(matrix)
    prod = _matmul(kind, q, a, as_array(result))
    eye = _identity(kind, a.shape[0])
    if kind == "complex":
        scale = 1.0 + np.abs(a).max() * np.abs(as_array(result)).max() * a.shape[0]
        dev = float(np.abs(prod - eye).max())
        return None if dev <= 1e-9 * scale else f"A.inv(A) deviates by {dev:.3e}"
    return None if np.array_equal(prod, eye) else "A.inv(A) != I"


def check_solve(result, matrix, rhs):
    kind, q = kind_of(matrix)
    if result is None:
        return "solve reported an inconsistent system for a nonsingular matrix"
    a = as_array(matrix)
    x = np.array(result[0], dtype=a.dtype)
    b = np.array(rhs, dtype=a.dtype)
    lhs = _matmul(kind, q, a, x)
    if kind == "complex":
        dev = float(np.abs(lhs - b).max())
        scale = 1.0 + np.abs(a).max() * np.abs(x).max() * a.shape[0]
        return None if dev <= 1e-9 * scale else f"A.x deviates from b by {dev:.3e}"
    return None if all(u == v for u, v in zip(lhs, b)) else "A.x != b"


# ---------------------------------------------------------------------------
# inverse pairs and nullity certificates
# ---------------------------------------------------------------------------


def composed_action_blocks(a, b, c, d):
    """G_ij . F_ij for every position: F_ij[k, s] = A[i,s,k] B[s,j,k]
    is the pair's action on the fiber X[i,j,:], G_ij the same for (C, D).
    The outer pair inverts the inner one iff every product is I."""
    kind, q = kind_of(a)
    fa = np.einsum("isk,sjk->ijks", as_array(a), as_array(b))
    gc = np.einsum("itk,tjk->ijkt", as_array(c), as_array(d))
    out = np.einsum("ijkt,ijts->ijks", gc, fa)
    return (out % q if kind == "gf" else out), kind


def check_outer_inverse(pair_a, pair_b, c, d):
    out, kind = composed_action_blocks(pair_a, pair_b, c, d)
    p = out.shape[-1]
    eye = _identity(kind, p)
    target = np.broadcast_to(eye, out.shape)
    if kind == "complex":
        dev = float(np.abs(out - target).max())
        return None if dev <= 1e-7 else f"(C, D) inverts (A, B) only to {dev:.3e}"
    ok = all(u == v for u, v in zip(out.flat, target.flat))
    return None if ok else "(C, D) does not invert (A, B)"


def orient(arr, transposes):
    for _ in range(transposes):
        arr = arr.transpose(1, 2, 0)
    return arr


def check_nullity_certificate(cert, source, expected=None):
    """The pair maps the (oriented) input to something whose claimed
    depth slices are zero, and the outer inverse undoes the pair."""
    kind, q = kind_of(source)
    if expected is not None and cert.nullity != expected:
        return f"nullity {cert.nullity} != expected {expected}"
    if cert.nullity != len(cert.zero_set):
        return f"nullity {cert.nullity} but {len(cert.zero_set)} zero slices"
    x = orient(as_array(source), cert.transposes_applied)
    a, b = as_array(cert.pair.a), as_array(cert.pair.b)
    acted = np.einsum("isk,ijs,sjk->ijk", a, x, b)
    if kind == "gf":
        acted = acted % q
    for k in cert.zero_set:
        sl = acted[:, :, k]
        if kind == "complex":
            limit = 1e-9 * (1.0 + float(np.linalg.norm(x))) * ZERO_SLICE_SLACK
            if float(np.linalg.norm(sl)) > limit:
                return f"claimed zero slice {k} has norm {float(np.linalg.norm(sl)):.3e}"
        elif any(v != 0 for v in sl.flat):
            return f"claimed zero slice {k} is not zero"
    inv = cert.outer_inverse
    return check_outer_inverse(cert.pair.a, cert.pair.b, inv.c, inv.d)


# ---------------------------------------------------------------------------
# rank certificates
# ---------------------------------------------------------------------------


def decomposition_reference(triple):
    return product_reference([triple.x0, triple.x1, triple.x2])


def check_rank_certificate(cert, target, expected_r=None):
    """Exact certificates: the triple reconstructs the target exactly."""
    if expected_r is not None and cert.r != expected_r:
        return f"rank {cert.r} != known {expected_r}"
    if cert.triple is None:
        return None if cert.r == 0 and not np.any(as_array(target)) else "no triple"
    kind, _ = kind_of(target)
    return compare(decomposition_reference(cert.triple), as_array(target), kind,
                   "rank certificate reconstruction")


def check_numeric_rank(cert, target, expected_r):
    """c07: rank expected_r with residual below 1e-8, recomputed here."""
    if cert.r != expected_r:
        return f"pipeline stopped at r={cert.r}, expected {expected_r}"
    b = as_array(target)
    rec = decomposition_reference(cert.triple)
    res = float(np.linalg.norm(rec - b)) / (1.0 + float(np.linalg.norm(b)))
    if not res < NUMERIC_RESIDUAL_BOUND:
        return f"recomputed residual {res:.3e} >= {NUMERIC_RESIDUAL_BOUND}"
    if cert.residual is None or not cert.residual < NUMERIC_RESIDUAL_BOUND:
        return f"certificate residual {cert.residual} >= {NUMERIC_RESIDUAL_BOUND}"
    return None


class RankOneTable:
    """All rank-one 2x2x2 hypermatrices over GF(q) (as byte strings),
    for deciding the BM rank of a 2x2x2 input: 0 if zero, 1 if listed,
    2 otherwise (the identity pair always gives 2)."""

    def __init__(self, q):
        self.q = q
        mats = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.int64)
        mats = mats.reshape(-1, 2, 2)
        found = set()
        # A[i, j, k] = X[i, k] Y[i, j] Z[j, k] for one outer product
        for x in mats:
            left = np.einsum("ik,nij->nijk", x, mats)
            full = np.einsum("nijk,mjk->nmijk", left, mats) % q
            found.update(row.tobytes() for row in full.reshape(-1, 8))
        self.rank_one = found

    def rank(self, arr):
        flat = (np.asarray(arr, dtype=np.int64) % self.q).reshape(8)
        if not flat.any():
            return 0
        return 1 if flat.tobytes() in self.rank_one else 2


# ---------------------------------------------------------------------------
# diagonal dependence
# ---------------------------------------------------------------------------


def _terms(mats, xs, ys):
    """diag(x_t) . M_t . diag(y_t) for a stacked (p, m, n) family."""
    x = np.array(xs, dtype=mats.dtype)
    y = np.array(ys, dtype=mats.dtype)
    return x[:, :, None] * mats * y[:, None, :]


def _stack(family):
    return np.stack([as_array(m) for m in family])


def check_exact_witness(witness, family):
    kind, q = kind_of(family[0])
    if witness is None:
        return None if exact_independent(family) else "missed a dependence witness"
    terms = _terms(_stack(family), witness.xs, witness.ys) % q
    if np.any(terms.sum(axis=0) % q):
        return "witness combination is not zero"
    if not terms.any():
        return "witness is trivial"
    return None


def exact_independent(family, chunk=1 << 12):
    """Brute force over all diagonal coefficient vectors mod q."""
    _, q = kind_of(family[0])
    mats = _stack(family)
    p, m, n = mats.shape
    digits = p * (m + n)
    powers = q ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    total = q**digits
    for start in range(0, total, chunk):
        idx = np.arange(start, min(total, start + chunk), dtype=np.int64)
        assign = (idx[:, None] // powers) % q
        x = assign[:, : p * m].reshape(-1, p, m)
        y = assign[:, p * m :].reshape(-1, p, n)
        terms = x[:, :, :, None] * mats[None] * y[:, :, None, :] % q
        zero_sum = ~np.any(terms.sum(axis=1) % q, axis=(1, 2))
        nontrivial = np.any(terms, axis=(1, 2, 3))
        if np.any(zero_sum & nontrivial):
            return False
    return True


def check_numeric_witness(witness, family, mats=None):
    """Residual below 1e-8 (c12) and some term clearly nonzero."""
    if witness is None:
        return "no witness found for a family that is always dependent"
    mats = _stack(family) if mats is None else mats
    terms = _terms(mats, witness.xs, witness.ys)
    res = float(np.linalg.norm(terms.sum(axis=0)))
    if not res < NUMERIC_RESIDUAL_BOUND:
        return f"witness residual {res:.3e} >= {NUMERIC_RESIDUAL_BOUND}"
    scale = 1.0 + max(float(np.linalg.norm(m)) for m in mats)
    if max(float(np.linalg.norm(t)) for t in terms) <= 1e-6 * scale:
        return "witness is numerically trivial"
    return None


def check_slice_dependence(found, target, max_size):
    if found is None:
        return "no dependent depth-slice subfamily found"
    if len(found.slice_indices) > max_size:
        return f"subfamily of size {len(found.slice_indices)} > {max_size}"
    slices = as_array(target)[:, :, list(found.slice_indices)].transpose(2, 0, 1)
    return check_numeric_witness(found.witness, None, mats=slices)
