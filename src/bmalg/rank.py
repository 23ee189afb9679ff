"""Rank machinery for the ternary product.

The rank of a hypermatrix is the minimum number of outer products that
sum to it.  This module builds and checks the certificates: trivial
min-extent upper bounds through the identity pair, slice-reduction
rewrites that lower a decomposition's contracted dimension by one,
numeric witnesses for the generic cubic bound, the BM-rank-one test
(whose 2x2x2 case is the hyperdeterminant), and exhaustive exact rank
search over tiny prime fields (plain and CP-constrained).

An all-nonzero B has BM rank at most one iff every multiplicative
third difference vanishes,
B[i,j,k] B[i,0,0] B[0,j,0] B[0,0,k] = B[0,0,0] B[i,j,0] B[i,0,k] B[0,j,k].
The exact two-slice dependence test is this identity on two depth
slices: B[:,:,1] = diag(u) . B[:,:,0] . diag(v) holds for an
all-nonzero m x n x 2 input iff B has BM rank one, and u and v are
read off its ell = 1 legs (see :func:`two_slice_witness`).
The numeric pipeline decides r = 1 by the same test and reduces other
inputs only down to ell = 2 (see :func:`generic_rank_pipeline`).

The exhaustive GF(q) searches (:func:`iter_bm_decompositions`, which
serves :func:`bm_rank_exhaustive` and via-rank nullity, and
:func:`cp_rank_exhaustive`) enumerate two legs in lexicographic order
and solve for the third fiber by fiber through one scalar solver, all in
plain Python.  A BM fiber reads one slice of each enumerated leg, so its
consistency and its solutions depend on those two slices and its right
side alone: int bitmasks over the inner slice's values rule an outer-leg
value out, or give the inner values to walk lazily, and each surviving
pair reads its solutions from a table that the solver fills on a miss;
both tables live in the cache of :func:`_bm_layout`.  The CP search
walks its terms depth first, normalised and sorted, cuts a prefix whose
span with the input's fibers exceeds r dimensions, and solves its depth
fibers against one coefficient matrix.  Both skip only pairs that cannot
come first; survivors keep their order and the scalar solver's
solutions, as in a candidate-by-candidate scan.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass, field

from .core import (DEFAULT_PIPELINE_ITERS, DEFAULT_PIPELINE_RESTARTS, DEFAULT_RANK_BUDGET,
                   Hypermatrix, Matrix, echelon)
from .errors import (
    BudgetExceededError,
    CertificateError,
    ReductionHypothesisError,
    ShapeError,
)
from .products import (CONTRACTED_AXES, bm_product, conformability, identity_pair,
                       outer_product_at)

# Over C the reduction check accepts a rewrite whose product deviation
# is at most REDUCTION_ACCEPT * tol * scale, and reports the first entry
# above REDUCTION_ENTRY * tol * scale.
REDUCTION_ACCEPT = 100
REDUCTION_ENTRY = 10


@dataclass
class DecompositionTriple:
    """A conformable triple with a declared support set S.

    reconstruct() sums the outer products at the supported indices;
    slices outside S along each leg's contracted axis are zeroed on
    construction (``Hypermatrix.restack``), so the certificate is
    canonical and the full ternary product of the legs equals the
    supported sum.
    """

    x0: Hypermatrix
    x1: Hypermatrix
    x2: Hypermatrix
    support: tuple

    def __post_init__(self):
        ell = conformability(self.x0, self.x1, self.x2)[3]
        support = tuple(sorted(set(self.support)))
        if support and not (0 <= support[0] and support[-1] < ell):
            raise ShapeError(f"support {support} out of range for ell={ell}")
        object.__setattr__(self, "support", support)
        if len(support) < ell:
            picks = [t if t in support else None for t in range(ell)]
            for name, axis in zip(("x0", "x1", "x2"), CONTRACTED_AXES):
                object.__setattr__(self, name, getattr(self, name).restack(axis, picks))

    @property
    def ell(self):
        return self.x0.shape[1]

    @property
    def r(self):
        return len(self.support)

    def legs(self):
        return self.x0, self.x1, self.x2

    def reconstruct(self) -> Hypermatrix:
        return bm_product(self.x0, self.x1, self.x2)

    def deviation(self, target: Hypermatrix) -> float:
        """The reconstruction's deviation from ``target``, the one rule of
        every check: 0.0 or inf over exact domains, else
        ||product - target|| / (1 + ||target||)."""
        rec = self.reconstruct()
        if target.domain.is_exact:
            return 0.0 if rec.equals(target) else float("inf")
        return rec.sub(target).norm() / (1.0 + target.norm())

    def to_json(self):
        return {
            "x0": self.x0.to_json(),
            "x1": self.x1.to_json(),
            "x2": self.x2.to_json(),
            "support": list(self.support),
        }

    @staticmethod
    def from_json(obj):
        return DecompositionTriple(
            Hypermatrix.from_json(obj["x0"]),
            Hypermatrix.from_json(obj["x1"]),
            Hypermatrix.from_json(obj["x2"]),
            tuple(obj["support"]),
        )


@dataclass
class RankCertificate:
    """A rank claim with its evidence.

    kind "upper-bound": the triple reconstructs the target, so rank <= r.
    kind "exact": additionally, exhaustive search proved no decomposition
    below r exists (params records the search).  Numeric certificates
    carry their reconstruction residual; exact ones carry None.
    """

    kind: str
    r: int
    triple: DecompositionTriple | None = None
    residual: float | None = None
    params: dict = field(default_factory=dict)

    def verify(self, target: Hypermatrix) -> float:
        """``triple.deviation(target)``; at r = 0, 0.0 iff ``target`` is zero."""
        if self.triple is None:
            if self.r == 0:
                return 0.0 if target.is_zero() else float("inf")
            raise CertificateError("certificate carries no decomposition")
        return self.triple.deviation(target)

    def to_json(self):
        return {
            "kind": self.kind,
            "r": self.r,
            "ell": self.triple.ell if self.triple else 0,
            "support": list(self.triple.support) if self.triple else [],
            "triple": self.triple.to_json() if self.triple else None,
            "residual": self.residual,
            "params": {k: v for k, v in sorted(self.params.items())},
        }


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def orient_depth_min(a: Hypermatrix):
    """Transpose 0, 1 or 2 times so the depth extent is minimal; ties
    keep the depth axis, then prefer the row axis."""
    m, n, p = a.shape
    mn = min(a.shape)
    if p == mn:
        return a, 0
    if m == mn:
        return a.transpose(), 1
    return a.transpose().transpose(), 2


def _untransposed(legs, times):
    """Map legs of ``a.transpose_times(times)`` back to legs of ``a``: by
    T(Prod(A, B, C)) = Prod(T(B), T(C), T(A)), k = -times % 3 more
    transposes rotate the legs by k and transpose each one k times."""
    k = -times % 3
    return tuple(leg.transpose_times(k) for leg in legs[k:] + legs[:k])


def rank_upper_min(a: Hypermatrix) -> RankCertificate:
    """The min-extent upper bound: a decomposition of ``a`` itself with
    r = min(m, n, p) terms, the identity pair around ``a`` oriented by
    :func:`orient_depth_min`, mapped back through the transpose
    identities."""
    oriented, times = orient_depth_min(a)
    m, n, r = oriented.shape
    j0, j1 = identity_pair(m, n, r, a.domain)
    legs = _untransposed((j0, oriented, j1), times)
    triple = DecompositionTriple(*legs, tuple(range(r)))
    if triple.deviation(a) != 0.0:
        raise CertificateError("identity-pair reconstruction failed")
    return RankCertificate(kind="upper-bound", r=r, triple=triple,
                           residual=None if a.domain.is_exact else 0.0)


def delta_sum(n, r, domain) -> Hypermatrix:
    """The target sum of the first r rank-one backgrounds."""
    if not (0 < r <= n):
        raise ShapeError(f"need 0 < r <= n, got r={r}, n={n}")
    one, zero = domain.one(), domain.zero()
    return Hypermatrix.from_function((n, n, n), domain,
                                     lambda i, j, k: one if i == j == k < r else zero)


def _delta_sum_certificate(n, r, domain, column, depth) -> RankCertificate:
    """Single-term certificate for sum_{t<r} delta_t with the column
    slice x[i,0,k] = [column(i, k)], the depth slice
    y[i,j,0] = [depth(i, j)] and the row slice z[0,j,k] = [j == k]."""
    if not (0 < r <= n):
        raise ShapeError(f"need 0 < r <= n, got r={r}, n={n}")
    one, zero = domain.one(), domain.zero()

    def leg(shape, mask):
        cells = itertools.product(range(n), repeat=2)
        return Hypermatrix(shape, [one if mask(*c) else zero for c in cells], domain)

    legs = [leg((n, 1, n), column), leg((n, n, 1), depth), leg((1, n, n), operator.eq)]
    triple = DecompositionTriple(*legs, (0,))
    if triple.deviation(delta_sum(n, r, domain)) != 0.0:
        raise CertificateError("delta-sum reconstruction failed")
    return RankCertificate(kind="upper-bound", r=1, triple=triple)


def delta_sum_certificate(n, r, domain) -> RankCertificate:
    """Single-outer-product certificate for sum_{t<r} delta_t: the column
    slice [i==k][i<r], depth slice [i==j], row slice [j==k]."""
    return _delta_sum_certificate(
        n, r, domain, lambda i, k: i == k and i < r, operator.eq
    )


def delta_sum_certificate_ones(n, r, domain) -> RankCertificate:
    """Equivalent single-term certificate for the same target whose first
    leg is all ones.  Unlike the canonical certificate its legs admit an
    invertible completion, which the rank-nullity construction needs."""
    return _delta_sum_certificate(
        n, r, domain, lambda i, k: True, lambda i, j: i == j and i < r
    )


# ---------------------------------------------------------------------------
# slice reductions
# ---------------------------------------------------------------------------


def matrix_slice_reduce(x: Matrix, y: Matrix, tau, us):
    """Matrix analog of the reduction: when row tau of y is the
    combination sum_{t != tau} us[t] * y[t, :], drop one outer product.

    Returns (x', y') with contracted dimension ell - 1 and the same
    product; raises ShapeError when some t != tau has no us[t], and
    ReductionHypothesisError when the row hypothesis fails (row tau !=
    u y').
    """
    dom = x.domain
    m, ell = x.shape
    if y.shape[0] != ell:
        raise ShapeError(f"y must have {ell} rows, found {y.shape[0]}")
    n = y.shape[1]
    if ell < 2:
        raise ShapeError("cannot reduce a contracted dimension of 1")
    if not (0 <= tau < ell):
        raise ShapeError(f"tau {tau} out of range")
    others = [t for t in range(ell) if t != tau]
    u = []
    for t in others:
        try:
            c = us[t]
        except LookupError:
            raise ShapeError(f"us[{t}] is missing: each t != tau needs one") from None
        u.append(dom.coerce(c))
    new_y = Matrix((ell - 1, n), [a for t in others for a in y.row(t)], dom)
    combo = Matrix((1, ell - 1), u, dom).matmul(new_y)
    for j, (a, b) in enumerate(zip(combo.data, y.row(tau))):
        if not dom.eq(a, b):
            raise ReductionHypothesisError(
                f"row hypothesis fails at column {j}", entry=j
            )
    new_x = Matrix((m, ell - 1), [dom.add(row[t], dom.mul(c, row[tau]))
                                  for row in x.to_rows() for t, c in zip(others, u)], dom)
    return new_x, new_y


@dataclass
class SliceRewriteData:
    """Coefficient families for one hypermatrix slice reduction: pivot
    index tau, u-vectors (length m) and v-vectors (length n) for each
    t != tau."""

    tau: int
    us: dict
    vs: dict


def check_reduction_hypothesis(legs, reduced, tau):
    """Validate the reduction hypothesis of the rewrite of ``legs`` into
    ``reduced`` for every depth index; raises ReductionHypothesisError
    carrying the first offending (k, entry), k outermost, then i, then j.

    The hypothesis equates the pivot outer product ``lhs`` (the terms
    the rewrite drops) with ``rhs``, what the rewritten slices add to
    the other terms.  Their difference is Prod(legs) - Prod(reduced),
    so the hypothesis holds at (i, j, k) exactly when the rewrite
    preserves the product there.  Over C the deviation is judged
    against the scale 1 + ||lhs|| + ||rhs||.
    """
    dom = legs[0].domain
    before, after = bm_product(*legs), bm_product(*reduced)
    m, n, p = before.shape
    cells = [(k, i, j) for k in range(p) for i in range(m) for j in range(n)]
    if dom.is_exact:
        for k, i, j in cells:
            if not dom.eq(before[i, j, k], after[i, j, k]):
                raise ReductionHypothesisError(
                    f"hypothesis fails at depth {k}, entry ({i},{j})",
                    k=k,
                    entry=(i, j),
                )
        return 0.0
    diff = before.sub(after)
    lhs = outer_product_at(*legs, tau)
    dev = diff.norm()
    scale = 1.0 + lhs.norm() + lhs.sub(diff).norm()
    if dev > dom.tol * scale * REDUCTION_ACCEPT:
        for k, i, j in cells:
            if abs(diff[i, j, k]) > dom.tol * scale * REDUCTION_ENTRY:
                raise ReductionHypothesisError(
                    f"hypothesis fails at depth {k}, entry ({i},{j}), "
                    f"deviation {abs(diff[i, j, k]):.3e}",
                    k=k,
                    entry=(i, j),
                )
        raise ReductionHypothesisError(
            f"hypothesis deviation {dev:.3e} exceeds tolerance", k=None, entry=None
        )
    return dev


def hyper_slice_reduce(x0, x1, x2, rewrite: SliceRewriteData):
    """Rewrite a conformable triple into one with contracted dimension
    ell - 1 and the same product.

    The elementary slice operations fold the pivot slices into the
    others:

        x0'[:, t, k] = us[t] o x0[:, tau, k] + x0[:, t, k]
        x2'[t, :, k] = x2[t, :, k] + x2[tau, :, k] o vs[t]

    and leg 1 simply drops depth slice tau.  Each t != tau needs a u
    of length m and a v of length n, else ShapeError.  The hypothesis
    is checked for every depth index before the rewritten legs are
    returned.
    """
    dom = x0.domain
    m, ell, p = x0.shape
    n = x1.shape[1]
    if ell < 2:
        raise ShapeError("cannot reduce a contracted dimension of 1")
    tau = rewrite.tau
    if not (0 <= tau < ell):
        raise ShapeError(f"tau {tau} out of range")
    others = [t for t in range(ell) if t != tau]
    for name, vecs, size in (("us", rewrite.us, m), ("vs", rewrite.vs, n)):
        for t in others:
            if t not in vecs or len(vecs[t]) != size:
                found = f"length {len(vecs[t])}" if t in vecs else "no vector"
                raise ShapeError(f"rewrite {name}[{t}] needs length {size}, found {found}")
    # the u and v multiplier of each entry of x0' and x2', in flat order
    us = [u for i in range(m) for t in others for u in [dom.coerce(rewrite.us[t][i])] * p]
    vs = [v for t in others for c in rewrite.vs[t] for v in [dom.coerce(c)] * p]
    pivots = [tau] * len(others)
    # GF(q) results are reduced by the constructor
    new_x0 = Hypermatrix((m, ell - 1, p), [u * a + b for u, a, b in zip(
        us, x0.restack(1, pivots).data, x0.restack(1, others).data)], dom)
    new_x2 = Hypermatrix((ell - 1, n, p), [b + a * v for v, a, b in zip(
        vs, x2.restack(0, pivots).data, x2.restack(0, others).data)], dom)
    reduced = (new_x0, x1.restack(2, others), new_x2)
    check_reduction_hypothesis((x0, x1, x2), reduced, tau)
    return reduced


# ---------------------------------------------------------------------------
# depth-slice witnesses
# ---------------------------------------------------------------------------


@dataclass
class DepthSliceWitness:
    """Numeric solution of B[:,:,tau] = sum_{t != tau}
    diag(U[:,t]) . B[:,:,t] . diag(V[t,:])."""

    tau: int
    u_cols: dict
    v_rows: dict
    residual: float

    def rewrite(self) -> SliceRewriteData:
        return SliceRewriteData(tau=self.tau, us=self.u_cols, vs=self.v_rows)


def _lstsq_errstate():
    """The error state ``np.linalg.lstsq`` solves under: gelsd failing raises."""
    import numpy as np

    def fail(err, flag):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _batched_lstsq():
    """The solve (a, rhs, cut) -> x[s] = lstsq(a[s], rhs[s, :, 0]) for all s, in one
    gelsd call; at ``np.linalg.lstsq``'s cutoff eps * max(a.shape[1:]), its bits."""
    from numpy.linalg._umath_linalg import lstsq as gelsd  # numpy >= 2.0
    return lambda a, rhs, cut: gelsd(a, rhs, cut, signature="DDd->Ddid")[0][..., 0]


def depth_slice_witness(b: Hypermatrix, tau, restarts=50, iters=500, seed=0):
    """Alternating least squares for the affine depth-slice dependence.

    With V fixed the relation is linear in each row of U and decouples
    row by row; with U fixed it decouples column by column.  Each
    half-sweep solves its m row systems, or its n column systems, in one
    call of :func:`_batched_lstsq`'s solve.  Random restarts with fresh V
    initializations; the first restart whose residual reaches tol * ||B||_F
    (the domain's tol, 1e-9 when zero) is the witness, None if none does.

    A sweep does only what changes between sweeps: the slice cuts, the
    right sides, the lstsq cutoffs and the gelsd gufunc are fixed once
    per call.  Every product keeps the operand order of the per-row,
    per-column and per-slice loops it replaces, because numpy's complex
    multiply need not be commutative bit for bit (SIMD loops that fuse
    a multiply-add are not), so u, v and the residual keep their bits.

    Requires the complex domain, at least two depth slices and
    entry-wise nonzero input (the genericity proxy; zero entries break
    the Hadamard-inverse step in the analysis and empirically strand
    the solver).  Raises OverflowError when ||B||_F is not finite.
    """
    dom = b.domain
    if dom.kind != "complex":
        raise ValueError("depth_slice_witness needs the complex domain")
    tol = dom.tol or 1e-9
    m, n, p = b.shape
    if not (0 <= tau < p):
        raise ShapeError(f"tau {tau} out of range")
    if p < 2:
        raise ShapeError("depth_slice_witness needs at least two depth slices")
    for idx, v in enumerate(b.data):
        if abs(v) <= dom.tol:
            raise ZeroDivisionError(
                f"entry {idx} is zero within tolerance; input must be generic"
            )
    import numpy as np
    arr = b.to_numpy()
    target = arr[:, :, tau]
    with np.errstate(over="ignore"):
        target_norm = float(np.linalg.norm(arr))
        if not np.isfinite(target_norm):
            raise OverflowError(
                f"||B||_F of the {b.shape} input overflows floats (largest entry "
                f"magnitude {np.abs(arr).max():.3e}); the residual test cannot "
                f"be scaled"
            )
    others = [t for t in range(p) if t != tau]
    no = len(others)
    # Per-call invariants: row i's coefficients are sub[i] * v.T (n, no),
    # column j's are sub_t[j] * u (m, no); the right sides carry gelsd's
    # trailing axis; the cutoffs are np.linalg.lstsq's defaults.
    sub = arr[:, :, others]
    sub_t = arr.transpose(1, 0, 2)[:, :, others]
    rows_rhs, cols_rhs = target[:, :, None], target.T[:, :, None]
    rows_cut, cols_cut = (sys.float_info.epsilon * max(k, no) for k in (n, m))
    solve, rng = _batched_lstsq(), random.Random(seed)
    with _lstsq_errstate():
        for restart in range(max(1, restarts)):
            vt = np.array(
                [[dom.random_nonzero(rng) for _ in range(n)] for _ in others],
                dtype=complex,
            ).T
            prev = None
            for it in range(max(1, iters)):
                u = solve(sub * vt, rows_rhs, rows_cut)
                vt = solve(sub_t * u, cols_rhs, cols_cut)
                # term t is u[:, t] B_t v[t, :], operands in the order of
                # the per-slice loop; summing from the first term rather
                # than from zeros moves only the signs of zero sums, which
                # the squared norm drops
                terms = u[:, None, :] * sub * vt
                acc = terms[:, :, 0]
                for idx in range(1, no):
                    acc = acc + terms[:, :, idx]
                # ||target - acc||_F as np.linalg.norm computes it
                diff = (target - acc).ravel()
                re, im = diff.real, diff.imag
                res = math.sqrt(re.dot(re) + im.dot(im))
                if res <= tol * target_norm:
                    us = dict(zip(others, u.T.tolist()))
                    vs = dict(zip(others, vt.T.tolist()))
                    return DepthSliceWitness(
                        tau=tau, u_cols=us, v_rows=vs, residual=res
                    )
                if prev is not None and prev - res < 1e-4 * prev and it > 20:
                    break
                prev = res
    return None


def two_slice_witness(b: Hypermatrix, tau=1):
    """Exact depth-slice dependence test for two slices.

    For all-nonzero B of shape m x n x 2 the relation
    B[:,:,tau] = diag(u) . B[:,:,other] . diag(v) holds iff B with its
    slices ordered (other, tau) has BM rank one (:func:`bm_rank_one`);
    then u[i] = x0[i,0,1] and v[j] = x2[0,j,1] from its legs.  Returns
    (u, v) or None.
    """
    if b.shape[2] != 2:
        raise ShapeError("two_slice_witness needs exactly two depth slices")
    if tau not in (0, 1):
        raise ShapeError(f"tau must be 0 or 1, got {tau}")
    _, legs = bm_rank_one(b.restack(2, [1 - tau, tau]))
    if legs is None:
        return None
    x0, _, x2 = legs
    return x0.data[1::2], x2.data[1::2]


def _third_difference(b: Hypermatrix, i, j, k):
    """The two sides of the multiplicative third difference at (i, j, k),
    L = (B[0,0,k] B[0,j,0]) (B[i,0,0] B[i,j,k]) and
    R = (B[i,0,k] B[i,j,0]) (B[0,0,0] B[0,j,k]); L = R whenever B has
    BM rank at most one."""
    mul = b.domain.mul
    return (
        mul(mul(b[0, 0, k], b[0, j, 0]), mul(b[i, 0, 0], b[i, j, k])),
        mul(mul(b[i, 0, k], b[i, j, 0]), mul(b[0, 0, 0], b[0, j, k])),
    )


def hyperdet_2x2x2(b: Hypermatrix):
    """b001 b010 b100 b111 - b101 b110 b000 b011, the (1,1,1) third
    difference L - R; vanishing characterizes depth-slice diagonal
    dependence of an all-nonzero 2x2x2 (and BM rank at most one)."""
    if b.shape != (2, 2, 2):
        raise ShapeError(f"need a 2x2x2 hypermatrix, found {b.shape}")
    return b.domain.sub(*_third_difference(b, 1, 1, 1))


def bm_rank_one(b: Hypermatrix):
    """BM-rank-one test of an all-nonzero hypermatrix, with its legs.

    Returns ``(d, legs)``: d = max |L/R - 1| over the third differences
    (0 for an empty maximum), with the trivial absolute value over GF(q)
    (0 when L = R, else 1).  The identity holds when d = 0, over C when
    d <= tol; then ``legs`` is the ell = 1 triple
    x0[i,0,k] = B[i,0,k] B[0,0,0] / (B[i,0,0] B[0,0,k]),
    x1[i,j,0] = B[i,j,0] and x2[0,j,k] = B[0,j,k] / B[0,j,0],
    whose product is B; otherwise ``legs`` is None.  Raises
    ZeroDivisionError on a zero entry (within tolerance over C).
    """
    dom = b.domain
    m, n, p = b.shape
    for idx, v in enumerate(b.data):
        if dom.is_zero(v):
            raise ZeroDivisionError(
                f"entry {idx} is zero within tolerance; input must be all-nonzero"
            )
    # Outside GF(q) divide plainly: the divisors are products of nonzero
    # entries, which over C may lie below the zero tolerance.
    div = dom.div if dom.kind == "gf" else operator.truediv
    # cells with an index 0 hold trivially
    d = 0.0 if dom.kind == "complex" else dom.zero()
    for i in range(1, m):
        for j in range(1, n):
            for k in range(1, p):
                lhs, rhs = _third_difference(b, i, j, k)
                if dom.kind == "gf":
                    dev = int(lhs != rhs)
                else:
                    dev = abs(lhs / rhs - 1)
                d = max(d, dev)
    if d > dom.tol:
        return d, None
    mul, data = dom.mul, b.data
    # flat (i, j, k) is (i*n + j)*p + k
    x0 = Hypermatrix(
        (m, 1, p),
        [
            div(mul(data[i * n * p + k], data[0]), mul(data[i * n * p], data[k]))
            for i in range(m)
            for k in range(p)
        ],
        dom,
    )
    x1 = b.restack(2, [0])
    x2 = Hypermatrix(
        (1, n, p),
        [div(data[j * p + k], data[j * p]) for j in range(n) for k in range(p)],
        dom,
    )
    return d, (x0, x1, x2)


def generic_rank_bound(n) -> int:
    """Generic cubic rank upper bound: 2 at side 2, n - 1 above."""
    if n < 2:
        raise ShapeError("side must be at least 2")
    return 2 if n == 2 else n - 1


# ---------------------------------------------------------------------------
# exhaustive exact rank over GF(q)
# ---------------------------------------------------------------------------


def _fiber_solutions(rows, rhs, domain, r):
    """Solutions of one fiber system over GF(q), lazily in lexicographic
    free-assignment order (the free-variables-zero one first), or None
    when it is inconsistent.  ``rows`` is not changed."""
    q = domain.q
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivots, _ = echelon(aug, r, domain)
    for row in aug[len(pivots):]:
        if row[r]:
            return None
    free = [c for c in range(r) if c not in pivots]
    solved = [(pc, row, pow(row[pc], q - 2, q)) for pc, row in zip(pivots, aug)]

    def solution(assign):
        sol = [0] * r
        for fc, v in zip(free, assign):
            sol[fc] = v
        for pc, row, inv in solved:
            acc = row[r]
            for fc, v in zip(free, assign):
                acc -= row[fc] * v
            sol[pc] = acc * inv % q
        return sol

    return map(solution, itertools.product(range(q), repeat=len(free)))


def _extend_span(basis, vectors, q):
    """``basis``, pairs of a pivot and a vector over GF(q) with entry 1
    there and 0 at every earlier pair's pivot, extended by ``vectors``:
    each is reduced against it and appended when a nonzero entry is left.
    The input list is not changed."""
    for v in vectors:
        for pivot, row in basis:
            c = v[pivot]
            if c:
                v = [(x - c * y) % q for x, y in zip(v, row)]
        pivot = next((at for at, c in enumerate(v) if c), None)
        if pivot is not None:
            inv = pow(v[pivot], q - 2, q)
            basis = basis + [(pivot, [x * inv % q for x in v])]
    return basis


def _fiber_masks(q, pattern, outer):
    """Which inner-part values leave a BM fiber consistent, per right side.

    ``pattern`` is (rows_a, rows_b, width): the fiber's row i reads
    outer[rows_a[i][t]] * inner[rows_b[i][t]] as its coefficient on the
    unknown t, ``outer`` and ``inner`` being the values of the fiber's
    outer and inner parts, and the inner part has ``width`` digits.  The
    table maps each right side to the int whose bit u is set iff inner
    value u (its digits read base q, the first most significant) leaves
    the fiber consistent, that is, when the right side lies in the column
    span of the fiber's coefficients; a right side it lacks has no such
    inner value.  A table has at most q^rows right sides.
    """
    rows_a, rows_b, width = pattern
    coef = [[(outer[x], y) for x, y in zip(ra, rb)] for ra, rb in zip(rows_a, rows_b)]
    unknowns = list(itertools.product(range(q), repeat=len(rows_a[0])))
    table = {}
    for at, inner in enumerate(itertools.product(range(q), repeat=width)):
        rows = [[c * inner[y] for c, y in row] for row in coef]
        bit = 1 << at
        for rhs in {tuple(sum(map(operator.mul, row, s)) % q for row in rows)
                    for s in unknowns}:
            table[rhs] = table.get(rhs, 0) | bit
    return table


def _pattern_rows(q, pattern, outer, inner):
    """The coefficient rows of a fiber of ``pattern`` whose outer and inner
    parts take the values ``outer`` and ``inner`` (read as in
    :func:`_fiber_masks`)."""
    rows_a, rows_b, _ = pattern
    return [[outer[x] * inner[y] % q for x, y in zip(ra, rb)]
            for ra, rb in zip(rows_a, rows_b)]


def _lex_walk(masks, digits, q):
    """Lazily yield, in lexicographic order, every value of a leg whose
    parts all take a value allowed by ``masks`` (bit u of ``masks[b]``
    allows value u of part b, read as in :func:`_fiber_masks`).  Digit d
    of the leg is digit ``digits[d] = (b, w)`` of part b, with w = q^(the
    part's digits after it): a prefix of the part's digits leaves its
    value in a run of w, and a digit is tried only while that run holds
    an allowed value, so every branch reaches a yield."""
    leg = [0] * len(digits)
    prefix = [0] * len(masks)

    def extend(d):
        if d == len(digits):
            yield tuple(leg)
            return
        part, weight = digits[d]
        window = (1 << weight) - 1
        base = prefix[part] * q
        for v in range(q):
            if masks[part] >> (base + v) * weight & window:
                leg[d] = v
                prefix[part] = base + v
                yield from extend(d + 1)
        prefix[part] = base // q

    return extend(0)


@functools.cache
def _bm_layout(m, n, p, r, q, solve_leg):
    """The fibers of the BM search at this shape, r and q, with x_{solve_leg}
    the solved leg, as plain lists shared by every input.

    A fiber fixes the two axes of ``a`` that the solved leg shares, and
    its rows run over the third; per fiber, ``rhs_at`` holds the flat
    positions in ``a`` of its right side and ``solved_at`` those of its
    unknowns in the solved leg.  A fiber reads one slice of each
    enumerated leg, its outer and inner part (fiber (j, k) reads
    x0[:, :, k] and x1[:, j, :] when x2 is solved), so the fibers form a
    grid of outer by inner parts, and every fiber reads its parts in one
    ``pattern`` (see :func:`_fiber_masks`).  ``getters`` and
    ``inner_getters`` read each outer and inner part's value off its leg,
    ``grid[a][b]`` is the fiber of outer part a and inner part b,
    ``fiber_parts[f]`` is fiber f's (a, b), and ``digits`` places each
    inner-leg digit in its part, as :func:`_lex_walk` reads it.

    The last two entries, filled by :func:`iter_bm_decompositions`, live
    as long as this cache.  ``tables`` maps each outer-part value visited
    to its :func:`_fiber_masks` table, so it holds at most (outer parts
    visited) x q^rows entries, a fiber having rows rows.  ``solutions``
    maps (outer-part value, inner-part value, right side) of a survivor's
    fiber to every solution, as :func:`_fiber_solutions` yields them.
    The lists of one (outer, inner) pair split the q^r values of the r
    unknowns by right side, so ``solutions`` holds at most (outer parts
    in ``tables``) x q^width x min(q^r, q^rows) entries, the inner part
    having width digits.
    """
    pos = {0: lambda i, j, k, t: (i * r + t) * p + k,
           1: lambda i, j, k, t: (i * n + j) * r + t,
           2: lambda i, j, k, t: (t * n + j) * p + k}
    outer_leg, inner_leg = (leg for leg in (0, 1, 2) if leg != solve_leg)
    # the two axes a fiber fixes; its rows run over the third
    fixed = {0: (0, 2), 1: (0, 1), 2: (1, 2)}[solve_leg]
    fibers = {}
    for ijk in itertools.product(range(m), range(n), range(p)):
        fibers.setdefault(tuple(ijk[axis] for axis in fixed), []).append(ijk)
    ia, ib, rhs_at, solved_at = [], [], [], []
    for rows in fibers.values():
        ia.append([[pos[outer_leg](*ijk, t) for t in range(r)] for ijk in rows])
        ib.append([[pos[inner_leg](*ijk, t) for t in range(r)] for ijk in rows])
        rhs_at.append([(i * n + j) * p + k for i, j, k in rows])
        solved_at.append([pos[solve_leg](*rows[0], t) for t in range(r)])

    def parts(leg_rows):
        # the parts (leg positions in flat order), each fiber's part and
        # its rows as indices into the part
        ids, fiber_ids, local = {}, [], []
        for rows in leg_rows:
            part = tuple(sorted({x for row in rows for x in row}))
            fiber_ids.append(ids.setdefault(part, len(ids)))
            local.append(tuple(tuple(map(part.index, row)) for row in rows))
        return list(ids), fiber_ids, local

    outer_parts, fiber_a, local_a = parts(ia)
    inner_parts, fiber_b, local_b = parts(ib)
    pattern = (local_a[0], local_b[0], len(inner_parts[0]))
    getters, inner_getters = (
        [operator.itemgetter(*part) if len(part) > 1
         else (lambda leg, x=part[0]: (leg[x],)) for part in leg_parts]
        for leg_parts in (outer_parts, inner_parts))
    fiber_parts = list(zip(fiber_a, fiber_b))
    grid = [[None] * len(inner_parts) for _ in outer_parts]
    for f, (fa, fb) in enumerate(fiber_parts):
        grid[fa][fb] = f
    digits = [None] * (len(inner_parts) * len(inner_parts[0]))
    for b, part in enumerate(inner_parts):
        for at, x in enumerate(part):
            digits[x] = (b, q ** (len(part) - 1 - at))
    return (rhs_at, solved_at, pattern, getters, inner_getters, fiber_parts, grid,
            digits, {}, {})


def iter_bm_decompositions(a: Hypermatrix, r, budget=DEFAULT_RANK_BUDGET):
    """Lazily yield every contracted-dimension-r decomposition of ``a``
    over GF(q), in lexicographic order of the two enumerated legs.

    The two smaller legs are enumerated entry by entry; for each
    candidate the remaining leg is solved fiber-wise (the constraints
    are linear in it), and every solution of the solved leg is yielded,
    in lexicographic order of the fibers' solutions.  So a candidate's
    first yield pins every free entry to zero, and the first yield of
    the search is the lex-first candidate's.

    Whether a fiber is consistent depends only on the values of its
    outer and inner parts (see :func:`_bm_layout`).  For each outer
    value, in order, the masks of :func:`_fiber_masks` of each inner
    part's fibers are ANDed into the inner-part values that leave them
    all consistent; an empty one rules the outer value out, and
    otherwise :func:`_lex_walk` walks the allowed inner values in order.
    Each survivor reads its fibers' solutions from the solution table of
    :func:`_bm_layout`, which :func:`_fiber_solutions` fills on a miss,
    so the decompositions are those of a candidate-by-candidate scan.
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
    if r < 1:
        raise ShapeError(f"contracted dimension r must be at least 1, got {r}")
    q = dom.q
    m, n, p = a.shape
    sizes = {0: m * r * p, 1: m * n * r, 2: r * n * p}
    solve_leg = max(sizes, key=lambda leg: (sizes[leg], leg))
    enum_legs = [leg for leg in (0, 1, 2) if leg != solve_leg]
    total_digits = sum(sizes[leg] for leg in enum_legs)
    if q**total_digits > budget:
        raise BudgetExceededError(
            f"enumeration q^{total_digits} exceeds budget {budget}"
        )
    (rhs_at, solved_at, pattern, getters, inner_getters, fiber_parts, grid,
     digits, tables, solutions) = _bm_layout(m, n, p, r, q, solve_leg)
    rhs = [tuple(a.data[x] for x in at) for at in rhs_at]
    # per outer part: its value -> the masks of its fibers, one per inner part
    seen = [{} for _ in grid]
    for flat_a in itertools.product(range(q), repeat=sizes[enum_legs[0]]):
        masks = None
        for get, fibers, known in zip(getters, grid, seen):
            value = get(flat_a)
            row = known.get(value)
            if row is None:
                table = tables.get(value)
                if table is None:
                    table = tables[value] = _fiber_masks(q, pattern, value)
                row = known[value] = tuple(table.get(rhs[f], 0) for f in fibers)
            masks = row if masks is None else tuple(map(operator.and_, masks, row))
            if not all(masks):
                break
        else:
            outer = [get(flat_a) for get in getters]
            for flat_b in _lex_walk(masks, digits, q):
                inner = [get(flat_b) for get in inner_getters]
                options = []
                for (fa, fb), right in zip(fiber_parts, rhs):
                    key = (outer[fa], inner[fb], right)
                    sols = solutions.get(key)
                    if sols is None:
                        rows = _pattern_rows(q, pattern, outer[fa], inner[fb])
                        sols = solutions[key] = list(_fiber_solutions(rows, right, dom, r))
                    options.append(sols)
                for combo in itertools.product(*options):
                    flat = [0] * sizes[solve_leg]
                    for at, sol in zip(solved_at, combo):
                        for x, v in zip(at, sol):
                            flat[x] = v
                    legs = {enum_legs[0]: flat_a, enum_legs[1]: flat_b, solve_leg: flat}
                    yield _assemble_triple(a, r, legs[0], legs[1], legs[2])


def _assemble_triple(a, r, flat0, flat1, flat2):
    dom = a.domain
    m, n, p = a.shape
    x0 = Hypermatrix((m, r, p), flat0, dom)
    x1 = Hypermatrix((m, n, r), flat1, dom)
    x2 = Hypermatrix((r, n, p), flat2, dom)
    return DecompositionTriple(x0, x1, x2, tuple(range(r)))


def _exact_certificate(a, triple, **params) -> RankCertificate:
    """The "exact" certificate of ``triple``, found after every term count
    below its r was exhausted; raises when it does not reconstruct ``a``."""
    if triple.deviation(a) != 0.0:
        raise CertificateError("search returned a bad decomposition")
    params["exhausted_below"] = triple.r
    return RankCertificate(kind="exact", r=triple.r, triple=triple, params=params)


def bm_rank_exhaustive(a: Hypermatrix, budget=DEFAULT_RANK_BUDGET) -> RankCertificate:
    """Exact rank over GF(q) by exhausting contracted dimensions from
    below.

    At r = min(m, n, p) the identity-pair certificate stands in for the
    enumeration: exhaustion below already proves minimality and the
    sandwich decomposition always exists.
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
    if a.is_zero():
        return RankCertificate(
            kind="exact", r=0, triple=None, params={"q": dom.q, "budget": budget}
        )
    for r in range(1, min(a.shape)):
        found = next(iter_bm_decompositions(a, r, budget=budget), None)
        if found is not None:
            return _exact_certificate(a, found, q=dom.q, budget=budget)
    return _exact_certificate(a, rank_upper_min(a).triple, q=dom.q, budget=budget)


def cp_rank_exhaustive(a: Hypermatrix, budget=DEFAULT_RANK_BUDGET) -> RankCertificate:
    """Exact CP-constrained rank over GF(q): the slice legs are pinned to
    the rank-one Kronecker form, so this exhausts vector triples.

    At each r the terms x_t, then y_t, are walked depth first in
    lexicographic order of (x, y); the depth fibers' unknowns z_k of the
    first consistent pair are solved by the scalar path and certified,
    as by a candidate-by-candidate scan.  The walk visits only pairs that
    can be the lex-first one: z_t absorbs a scale, so each x_t and y_t
    has its first nonzero entry 1; no term is zero, since r - 1 terms
    were exhausted; and x_t <= x_{t+1}, with y_t <= y_{t+1} where the
    two x are equal.  The x_t span the columns a[:, j, k], the y_t the
    rows a[i, :, k] and the x_t (x) y_t the depth slices a[:, :, k], so
    a prefix whose span with these exceeds r dimensions is cut; each
    span is a reduced basis that a step extends by one vector.
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
    q = dom.q
    m, n, p = a.shape
    if a.is_zero():
        return RankCertificate(kind="exact", r=0, params={"q": q, "cp": True})
    # fiber k, the depth slice a[:, :, k] flat in (i, j) order, has one row
    # per (i, j): coefficient xs[t*m + i] * ys[t*n + j] on z_k[t]
    rhs = [a.data[k::p] for k in range(p)]
    cols = _extend_span([], [s[j::n] for s in rhs for j in range(n)], q)
    rows = _extend_span([], [s[i * n:(i + 1) * n] for s in rhs for i in range(m)], q)
    depth = _extend_span([], rhs, q)
    # the vectors whose first nonzero entry is 1, in lexicographic order
    xs_all, ys_all = ([v for v in itertools.product(range(q), repeat=size)
                       if next(filter(None, v), 0) == 1] for size in (m, n))
    cap = p * min(m, n)
    for r in range(1, cap + 1):
        digits = r * (m + n)
        if q**digits > budget:
            raise BudgetExceededError(
                f"CP enumeration q^{digits} exceeds budget {budget}"
            )
        # every depth fiber has these coefficients, read as by _pattern_rows
        pattern = ([[t * m + i for t in range(r)] for i in range(m) for _ in range(n)],
                   [[t * n + j for t in range(r)] for _ in range(m) for j in range(n)], r * n)
        picks = [0] * (2 * r)  # x_0 .. x_{r-1} in xs_all, then y_0 .. y_{r-1} in ys_all

        def walk(t, spans):
            if t == 2 * r:
                xs = [c for at in picks[:r] for c in xs_all[at]]
                ys = [c for at in picks[r:] for c in ys_all[at]]
                coef = _pattern_rows(q, pattern, xs, ys)
                # each depth fiber's first solution, up to the first inconsistent one
                sols = (_fiber_solutions(coef, right, dom, r) for right in rhs)
                zs = [next(z) for z in itertools.takewhile(operator.truth, sols)]
                return len(zs) == p and (xs, ys, zs)
            cands = xs_all if t < r else ys_all
            # terms sort by x_t, then by y_t
            ordered = t % r and (t < r or picks[t - r] == picks[t - r - 1])
            for pick in range(picks[t - 1] if ordered else 0, len(cands)):
                if t < r:
                    grown = [_extend_span(spans[0], [cands[pick]], q), *spans[1:]]
                else:
                    x, y = xs_all[picks[t - r]], cands[pick]
                    grown = [spans[0], _extend_span(spans[1], [y], q),
                             _extend_span(spans[2], [[u * v % q for u in x for v in y]], q)]
                if max(map(len, grown)) <= r:
                    picks[t] = pick
                    found = walk(t + 1, grown)
                    if found:
                        return found
            return None

        found = walk(0, [cols, rows, depth])
        if found:
            xs, ys, zs = found
            triple = _assemble_triple(
                a,
                r,
                [xs[t * m + i] for i in range(m) for t in range(r) for _ in range(p)],
                [ys[t * n + j] for _ in range(m) for j in range(n) for t in range(r)],
                [zs[k][t] for t in range(r) for _ in range(n) for k in range(p)],
            )
            return _exact_certificate(a, triple, q=q, cp=True)
    raise CertificateError("CP search exhausted its rank cap without success")


# ---------------------------------------------------------------------------
# generic numeric pipeline
# ---------------------------------------------------------------------------


def triple_reduction_witness(b: Hypermatrix, kept, tau, restarts=20, iters=200, seed=0):
    """The legs of ``b`` over S' = ``kept`` less ``kept[tau]``, or None.

    Each depth slice k outside S' needs a witness B[:,:,k] =
    sum_{s in S'} diag(u^k_s) . B[:,:,s] . diag(v^k_s), solved by
    Levenberg-Marquardt: the Jacobian in (u, v) is a dense complex matrix
    with m n rows and |S'| (m + n) columns, and a step solves
    (J^H J + lam diag(J^H J)) d = J^H r, whose damping keeps it regular
    along the gauge (u_s c, v_s / c).  A step that lowers the residual is
    taken and divides lam by 3; any other multiplies it by 4.  Restarts
    from u and v drawn from ``random.Random(seed)`` run side by side.
    Each stops at a residual of tol * ||B||_F, as in
    :func:`depth_slice_witness`, after step 21 once ten steps gained
    under 1e-3 relative, after ``iters`` steps, or once an earlier one
    has converged.  The first converged one is the witness.

    x1 is ``b`` restacked to S'; x0[i,s,k] and x2[s,j,k] are 1 at k = S'[s],
    u^k_s[i] and v^k_s[j] at k outside S', and 0 otherwise.  The legs
    stand when their deviation from ``b`` is at most REDUCTION_ACCEPT * tol.
    """
    dom = b.domain
    if dom.kind != "complex":
        raise ValueError("triple_reduction_witness needs the complex domain")
    if not 0 <= tau < len(kept):
        raise ShapeError(f"tau {tau} out of range")
    import numpy as np
    tol = dom.tol or 1e-9
    smaller = kept[:tau] + kept[tau + 1:]
    m, n, p = b.shape
    q, size = len(smaller), m + n
    arr = b.to_numpy()
    goal = tol * float(np.linalg.norm(arr))
    slices = arr[:, :, smaller].transpose(2, 0, 1)
    # row (i, j) of J meets column (s, i) of u_s and column (s, m + j) of v_s
    at_s, at_i, at_j = np.indices((q, m, n)).reshape(3, -1)
    row, col_u, col_v = at_i * n + at_j, at_s * size + at_i, at_s * size + m + at_j
    rng = random.Random(seed)

    def witness(target):
        def residuals(x):
            return target - np.einsum("rsi,sij,rsj->rij", x[..., :m], slices, x[..., m:])

        draws = [dom.random_nonzero(rng) for _ in range(max(1, restarts) * q * size)]
        x = np.array(draws).reshape(-1, q, size)
        res_vec = residuals(x)
        history = [np.linalg.norm(res_vec.reshape(len(x), -1), axis=1)]
        res, lam, live = history[0].copy(), np.full(len(x), 1e-3), np.arange(len(x))
        for it in range(max(1, iters)):
            xl = x[live]
            jac = np.zeros((live.size, m * n, q * size), dtype=complex)
            jac[:, row, col_u] = (slices * xl[:, :, None, m:]).reshape(live.size, -1)
            jac[:, row, col_v] = (xl[:, :, :m, None] * slices).reshape(live.size, -1)
            jac_h = jac.conj().transpose(0, 2, 1)
            normal = jac_h @ jac
            np.einsum("rii->ri", normal)[...] *= 1 + lam[live, None]  # + lam diag(J^H J)
            grad = jac_h @ res_vec[live].reshape(live.size, -1, 1)
            trial = xl + np.linalg.solve(normal, grad).reshape(xl.shape)
            trial_vec = residuals(trial)
            trial_res = np.linalg.norm(trial_vec.reshape(live.size, -1), axis=1)
            ok = trial_res < res[live]
            took = live[ok]
            x[took], res_vec[took], res[took] = trial[ok], trial_vec[ok], trial_res[ok]
            lam[live] *= np.where(ok, 1 / 3, 4.0)
            history.append(res.copy())
            met = res[live] <= goal
            before = history[-11][live] if it > 20 else np.inf
            stop = met | (before - res[live] < 1e-3 * before)
            if met.any():  # a later restart can no longer be chosen
                stop |= live >= live[met][0]
            live = live[~stop]
            if not live.size:
                break
        hits = np.flatnonzero(res <= goal)
        return x[hits[0]] if hits.size else None

    x0, x2 = np.zeros((m, q, p), dtype=complex), np.zeros((q, n, p), dtype=complex)
    x0[:, range(q), smaller] = x2[range(q), :, smaller] = 1
    for k in range(p):
        if k not in smaller:
            found = witness(arr[:, :, k])
            if found is None:
                return None
            x0[:, :, k], x2[:, :, k] = found[:, :m].T, found[:, m:]
    legs = (Hypermatrix(x0.shape, x0.ravel().tolist(), dom), b.restack(2, smaller),
            Hypermatrix(x2.shape, x2.ravel().tolist(), dom))
    deviation = DecompositionTriple(*legs, tuple(range(q))).deviation(b)
    return legs if deviation <= REDUCTION_ACCEPT * tol else None


def generic_rank_pipeline(b: Hypermatrix, tau=None, restarts=DEFAULT_PIPELINE_RESTARTS,
                          iters=DEFAULT_PIPELINE_ITERS, seed=0) -> RankCertificate:
    """Numeric upper-bound certificate for an entry-wise nonzero
    hypermatrix of any shape (m, n, p), with r <= min(m, n, p).

    When ``b`` has BM rank one (:func:`bm_rank_one` at the domain
    tolerance) the certificate is its ell = 1 legs.  Otherwise the
    identity-pair decomposition of ``b`` oriented by
    :func:`orient_depth_min` keeps all its depth slices, and each step
    drops one, the last first: step 0 by :func:`depth_slice_witness` and
    :func:`hyper_slice_reduce`, later steps by
    :func:`triple_reduction_witness` on half the step-0 budget (at least
    5 restarts and 50 iterations) and seed ``seed + step``.  Reducing
    stops at a step that drops nothing, or at two kept slices, since one
    would give ``b`` BM rank one.  The legs reached are mapped back to
    ``b`` through the transpose identities.

    Everything reads the domain tolerance (1e-9 when it is zero).  A
    pinned ``tau`` is a position in the kept set below min(m, n, p)
    (else ShapeError); reducing stops once it names no kept slice.

    An input with an entry zero within tolerance gets the identity-pair
    certificate it would start from (:func:`rank_upper_min`, residual
    0.0): the rank-one test and the depth-slice witness divide by its
    entries, so it reduces no further without a witness.
    """
    dom = b.domain
    if dom.kind != "complex":
        raise ValueError("generic_rank_pipeline needs the complex domain")
    if tau is not None and not 0 <= tau < min(b.shape):
        raise ShapeError(f"tau {tau} out of range")
    if any(map(dom.is_zero, b.data)):
        return rank_upper_min(b)
    _, legs = bm_rank_one(b)
    oriented, times = b, 0
    if legs is None:
        oriented, times = orient_depth_min(b)
        j0, j1 = identity_pair(*oriented.shape, dom)
        legs = (j0, oriented, j1)
    kept = list(range(legs[0].shape[1]))
    step = 0
    while len(kept) > 2 and (tau is None or tau < len(kept)):
        reduced = None
        for pick in [tau] if tau is not None else range(len(kept) - 1, -1, -1):
            if step > 0:
                reduced = triple_reduction_witness(
                    oriented, kept, pick, restarts=max(restarts // 2, 5),
                    iters=max(iters // 2, 50), seed=seed + step)
            elif witness := depth_slice_witness(oriented, pick, restarts=restarts,
                                                iters=iters, seed=seed):
                try:
                    reduced = hyper_slice_reduce(*legs, witness.rewrite())
                except ReductionHypothesisError:
                    pass
            if reduced is not None:
                break
        if reduced is None:
            break
        legs = reduced
        del kept[pick]
        step += 1
    triple = DecompositionTriple(*_untransposed(legs, times), tuple(range(len(kept))))
    cert = RankCertificate(kind="upper-bound", r=len(kept), triple=triple)
    cert.residual = cert.verify(b)
    return cert
