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
The numeric pipeline uses this to stop at a proven bound: it drops an
ell = 2 -> 1 pivot when the worst relative third difference d of the
current product P exceeds (1 - E / min |P|)^-8 - 1, where E is the
largest deviation the reduction check accepts at that pivot, because
then no rewrite the check accepts exists (see
:func:`generic_rank_pipeline`).

The exhaustive GF(q) searches (:func:`iter_bm_decompositions`, which
serves :func:`bm_rank_exhaustive` and via-rank nullity, and
:func:`cp_rank_exhaustive`) enumerate two legs in lexicographic order
and solve for the third fiber by fiber.  For each value of the outer
enumerated leg, a numpy filter tests blocks of inner candidates (at
most ``core.BATCH_ENTRIES`` array entries each) against all q^r values
of a fiber's unknowns and drops exactly the candidates with an
inconsistent fiber; the survivors keep their order and go through the
scalar solver, so the decompositions found are those of a
candidate-by-candidate scan.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import Hypermatrix, Matrix, echelon, lex_filter
from .errors import (
    BudgetExceededError,
    CertificateError,
    ReductionHypothesisError,
    ShapeError,
)
from .products import bm_product, delta_t, identity_pair, outer_product_at

DEFAULT_RANK_BUDGET = 10_000_000

# Over C the reduction check accepts a rewrite whose product deviation
# is at most REDUCTION_ACCEPT * tol * scale, and reports the first entry
# above REDUCTION_ENTRY * tol * scale; the pipeline's rank-one bound
# reads the same factor.
REDUCTION_ACCEPT = 100
REDUCTION_ENTRY = 10


@dataclass
class DecompositionTriple:
    """A conformable triple with a declared support set S.

    reconstruct() sums the outer products at the supported indices;
    slices outside S are zeroed on construction so the certificate is
    canonical and the full ternary product of the legs equals the
    supported sum.
    """

    x0: Hypermatrix
    x1: Hypermatrix
    x2: Hypermatrix
    support: tuple

    def __post_init__(self):
        n0, ell, n2 = self.x0.shape
        if self.x1.shape != (n0, self.x1.shape[1], ell):
            raise ShapeError(f"leg 1 shape {self.x1.shape} not conformable")
        n1 = self.x1.shape[1]
        if self.x2.shape != (ell, n1, n2):
            raise ShapeError(f"leg 2 shape {self.x2.shape} not conformable")
        support = tuple(sorted(set(self.support)))
        if support and not (0 <= support[0] and support[-1] < ell):
            raise ShapeError(f"support {support} out of range for ell={ell}")
        object.__setattr__(self, "support", support)
        if len(support) < ell:
            keep = set(support)
            dom = self.x0.domain
            zero = dom.zero()
            # slice t of a leg holds the flat entries with
            # idx // stride % ell == t
            for name, stride in (("x0", n2), ("x1", 1), ("x2", n1 * n2)):
                leg = getattr(self, name)
                data = [
                    v if idx // stride % ell in keep else zero
                    for idx, v in enumerate(leg.data)
                ]
                object.__setattr__(self, name, Hypermatrix(leg.shape, data, dom))

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
        """Re-run the reconstruction check; returns the deviation."""
        if self.triple is None:
            if self.r == 0:
                return 0.0 if target.is_zero() else float("inf")
            raise CertificateError("certificate carries no decomposition")
        rec = self.triple.reconstruct()
        if target.domain.is_exact:
            return 0.0 if rec.equals(target) else float("inf")
        dev = rec.sub(target).norm()
        return dev / (1.0 + target.norm())

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


def rank_upper_min(a: Hypermatrix) -> RankCertificate:
    """The min-extent upper bound: a decomposition of ``a`` itself with
    r = min(m, n, p) terms, built from the identity pair, routed through
    the transpose identities when the minimum is not the depth extent."""
    m, n, p = a.shape
    dom = a.domain
    r = min(m, n, p)
    if p == r:
        j0, j1 = identity_pair(m, n, p, dom)
        triple = DecompositionTriple(j0, a, j1, tuple(range(p)))
    elif n == r:
        # a is the transpose of some hypermatrix whose depth extent is minimal
        j0, j1 = identity_pair(p, m, n, dom)
        triple = DecompositionTriple(
            a, j1.transpose(), j0.transpose(), tuple(range(r))
        )
    else:
        j0, j1 = identity_pair(n, p, m, dom)
        triple = DecompositionTriple(
            j1.transpose().transpose(),
            j0.transpose().transpose(),
            a,
            tuple(range(r)),
        )
    cert = RankCertificate(kind="upper-bound", r=r, triple=triple)
    if not triple.reconstruct().equals(a):
        raise CertificateError("identity-pair reconstruction failed")
    cert.residual = None if dom.is_exact else 0.0
    return cert


def delta_sum(n, r, domain) -> Hypermatrix:
    """The target sum of the first r rank-one backgrounds."""
    if not (0 < r <= n):
        raise ShapeError(f"need 0 < r <= n, got r={r}, n={n}")
    acc = Hypermatrix.zeros((n, n, n), domain)
    for t in range(r):
        acc = acc.add(delta_t(n, t, domain))
    return acc


def delta_sum_certificate(n, r, domain) -> RankCertificate:
    """Single-outer-product certificate for sum_{t<r} delta_t: the column
    slice [i==k][i<r], depth slice [i==j], row slice [j==k]."""
    if not (0 < r <= n):
        raise ShapeError(f"need 0 < r <= n, got r={r}, n={n}")
    one, zero = domain.one(), domain.zero()
    x = Hypermatrix.from_function(
        (n, 1, n), domain, lambda i, _, k: one if (i == k and i < r) else zero
    )
    y = Hypermatrix.from_function(
        (n, n, 1), domain, lambda i, j, _: one if i == j else zero
    )
    z = Hypermatrix.from_function(
        (1, n, n), domain, lambda _, j, k: one if j == k else zero
    )
    triple = DecompositionTriple(x, y, z, (0,))
    cert = RankCertificate(kind="upper-bound", r=1, triple=triple)
    if not triple.reconstruct().equals(delta_sum(n, r, domain)):
        raise CertificateError("delta-sum reconstruction failed")
    return cert


def delta_sum_certificate_ones(n, r, domain) -> RankCertificate:
    """Equivalent single-term certificate for the same target whose first
    leg is all ones.  Unlike the canonical certificate its legs admit an
    invertible completion, which the rank-nullity construction needs."""
    one, zero = domain.one(), domain.zero()
    x = Hypermatrix.from_function((n, 1, n), domain, lambda i, _, k: one)
    y = Hypermatrix.from_function(
        (n, n, 1), domain, lambda i, j, _: one if (i == j and i < r) else zero
    )
    z = Hypermatrix.from_function(
        (1, n, n), domain, lambda _, j, k: one if j == k else zero
    )
    triple = DecompositionTriple(x, y, z, (0,))
    cert = RankCertificate(kind="upper-bound", r=1, triple=triple)
    if not triple.reconstruct().equals(delta_sum(n, r, domain)):
        raise CertificateError("delta-sum reconstruction failed")
    return cert


# ---------------------------------------------------------------------------
# slice reductions
# ---------------------------------------------------------------------------


def matrix_slice_reduce(x: Matrix, y: Matrix, tau, us):
    """Matrix analog of the reduction: when row tau of y is the
    combination sum_{t != tau} us[t] * y[t, :], drop one outer product.

    Returns (x', y') with contracted dimension ell - 1 and the same
    product; raises when the row hypothesis fails.
    """
    dom = x.domain
    m, ell = x.shape
    if y.shape[0] != ell:
        raise ShapeError(f"y must have {ell} rows, found {y.shape[0]}")
    n = y.shape[1]
    if not (0 <= tau < ell):
        raise ShapeError(f"tau {tau} out of range")
    others = [t for t in range(ell) if t != tau]
    for j in range(n):
        acc = dom.zero()
        for t in others:
            acc = dom.add(acc, dom.mul(dom.coerce(us[t]), y[t, j]))
        if not dom.eq(acc, y[tau, j]):
            raise ReductionHypothesisError(
                f"row hypothesis fails at column {j}", entry=j
            )
    new_x = Matrix.from_function(
        m,
        ell - 1,
        dom,
        lambda i, t_new: dom.add(
            x[i, others[t_new]], dom.mul(dom.coerce(us[others[t_new]]), x[i, tau])
        ),
    )
    new_y = Matrix.from_function(ell - 1, n, dom, lambda t_new, j: y[others[t_new], j])
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

    and leg 1 simply drops depth slice tau.  The hypothesis is checked
    for every depth index before the rewritten legs are returned.
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
    us = {t: [dom.coerce(c) for c in rewrite.us[t][:m]] for t in others}
    vs = {t: [dom.coerce(c) for c in rewrite.vs[t][:n]] for t in others}
    d0, d1, d2 = x0.data, x1.data, x2.data
    # flat (i, t, k) of x0 is (i*ell + t)*p + k, (i, j, t) of x1 is
    # (i*n + j)*ell + t and (t, j, k) of x2 is (t*n + j)*p + k; GF(q)
    # results are reduced by the constructor
    new_x0 = Hypermatrix(
        (m, ell - 1, p),
        [
            us[t][i] * d0[(i * ell + tau) * p + k] + d0[(i * ell + t) * p + k]
            for i in range(m)
            for t in others
            for k in range(p)
        ],
        dom,
    )
    new_x1 = Hypermatrix(
        (m, n, ell - 1),
        [d1[ij * ell + t] for ij in range(m * n) for t in others],
        dom,
    )
    new_x2 = Hypermatrix(
        (ell - 1, n, p),
        [
            d2[(t * n + j) * p + k] + d2[(tau * n + j) * p + k] * vs[t][j]
            for t in others
            for j in range(n)
            for k in range(p)
        ],
        dom,
    )
    reduced = (new_x0, new_x1, new_x2)
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


def depth_slice_witness(
    b: Hypermatrix, tau, tol=None, restarts=50, iters=500, seed=0
):
    """Alternating least squares for the affine depth-slice dependence.

    With V fixed the relation is linear in each row of U and decouples
    row by row; with U fixed it decouples column by column.  Random
    restarts with fresh V initializations; None when no candidate
    reaches residual below tol * ||B||_F within the budget.

    Requires the complex domain and entry-wise nonzero input (the
    genericity proxy; zero entries break the Hadamard-inverse step in
    the analysis and empirically strand the solver).
    """
    dom = b.domain
    if dom.kind != "complex":
        raise ValueError("depth_slice_witness needs the complex domain")
    if tol is None:
        tol = dom.tol or 1e-9
    m, n, p = b.shape
    if not (0 <= tau < p):
        raise ShapeError(f"tau {tau} out of range")
    for idx, v in enumerate(b.data):
        if abs(v) <= dom.tol:
            raise ZeroDivisionError(
                f"entry {idx} is zero within tolerance; input must be generic"
            )
    arr = b.to_numpy()
    target = arr[:, :, tau]
    target_norm = float(np.linalg.norm(arr))
    others = [t for t in range(p) if t != tau]
    rng = random.Random(seed)

    def residual_of(u, v):
        acc = np.zeros((m, n), dtype=complex)
        for idx, t in enumerate(others):
            acc += u[:, idx, None] * arr[:, :, t] * v[None, idx, :]
        return float(np.linalg.norm(target - acc)), acc

    best = None
    for restart in range(max(1, restarts)):
        v = np.array(
            [[dom.random_nonzero(rng) for _ in range(n)] for _ in others],
            dtype=complex,
        )
        u = np.zeros((m, len(others)), dtype=complex)
        prev = None
        for it in range(max(1, iters)):
            for i in range(m):
                g = (arr[i, :, :][:, others] * v.T).astype(complex)  # (n, len(others))
                u[i], *_ = np.linalg.lstsq(g, target[i], rcond=None)
            for j in range(n):
                h = (arr[:, j, :][:, others] * u).astype(complex)  # (m, len(others))
                v[:, j], *_ = np.linalg.lstsq(h, target[:, j], rcond=None)
            res, _ = residual_of(u, v)
            if res <= tol * target_norm:
                break
            if prev is not None and prev - res < 1e-4 * prev and it > 20:
                break
            prev = res
        res, _ = residual_of(u, v)
        if best is None or res < best[0]:
            best = (res, u.copy(), v.copy())
        if res <= tol * target_norm:
            break
    res, u, v = best
    if res > tol * target_norm:
        return None
    return DepthSliceWitness(
        tau=tau,
        u_cols={t: [complex(x) for x in u[:, idx]] for idx, t in enumerate(others)},
        v_rows={t: [complex(x) for x in v[idx, :]] for idx, t in enumerate(others)},
        residual=res,
    )


def two_slice_witness(b: Hypermatrix, tau=1):
    """Exact depth-slice dependence test for two slices.

    For all-nonzero B of shape m x n x 2 the relation
    B[:,:,tau] = diag(u) . B[:,:,other] . diag(v) holds iff the
    entry-wise ratio matrix is rank one; returns (u, v) or None.
    """
    m, n, p = b.shape
    if p != 2:
        raise ShapeError("two_slice_witness needs exactly two depth slices")
    dom = b.domain
    other = 1 - tau
    for i in range(m):
        for j in range(n):
            if dom.is_zero(b[i, j, 0]) or dom.is_zero(b[i, j, 1]):
                raise ZeroDivisionError(
                    f"entries must be nonzero; ({i},{j}) has a zero"
                )
    ratio = Matrix.from_function(
        m, n, dom, lambda i, j: dom.div(b[i, j, tau], b[i, j, other])
    )
    anchor = ratio[0, 0]
    for i in range(m):
        for j in range(n):
            if not dom.eq(
                dom.mul(ratio[i, j], anchor), dom.mul(ratio[i, 0], ratio[0, j])
            ):
                return None
    u = [dom.div(ratio[i, 0], anchor) for i in range(m)]
    v = [ratio[0, j] for j in range(n)]
    return u, v


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
    x1 = Hypermatrix((m, n, 1), data[::p], dom)
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


def _fiber_solutions(rows, rhs, domain, r, all_solutions):
    """Solutions of one fiber system over GF(q), or None when it is
    inconsistent: the free-variables-zero one, or every solution in
    lexicographic free-assignment order."""
    q = domain.q
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivots, _ = echelon(aug, r, domain)
    for row in aug[len(pivots):]:
        if row[r]:
            return None
    free = [c for c in range(r) if c not in pivots]
    if not all_solutions or not free:
        sol = [0] * r
        for pc, row in zip(pivots, aug):
            sol[pc] = row[r] * pow(row[pc], q - 2, q) % q
        return [sol]
    solved = [(pc, row, pow(row[pc], q - 2, q)) for pc, row in zip(pivots, aug)]
    out = []
    for assign in itertools.product(range(q), repeat=len(free)):
        sol = [0] * r
        for fc, v in zip(free, assign):
            sol[fc] = v
        for pc, row, inv in solved:
            acc = row[r]
            for fc, v in zip(free, assign):
                acc -= row[fc] * v
            sol[pc] = acc * inv % q
        out.append(sol)
    return out


def _fiber_search(outer_len, inner_len, ia, ib, rhs, domain, r, all_solutions):
    """Yield (outer, inner, per-fiber solution lists) for every pair of
    enumerated legs whose fiber systems are all consistent, in
    lexicographic order of (outer, inner).

    Fiber f's system in the solved leg s has rows
    sum_t outer[ia[f, row, t]] * inner[ib[f, row, t]] * s[t] = rhs[f, row]
    (``ia``/``ib`` may broadcast over f).  For one outer value a numpy
    filter tries all q^r values of s on a block of inner candidates at
    once (see :func:`bmalg.core.lex_filter`); only the survivors go
    through the scalar solver :func:`_fiber_solutions`, which gives the
    solutions.
    """
    q = domain.q
    values = np.array(list(itertools.product(range(q), repeat=r)), dtype=np.int64)
    want = rhs[..., None, None]
    per_candidate = rhs.size * len(values)
    ia_rows, ib_rows = (np.broadcast_to(x, rhs.shape + (r,)).tolist() for x in (ia, ib))
    rhs_rows = rhs.tolist()

    # candidates run along the last axis, so every reduction below is
    # elementwise across them
    def consistent(outer, block):
        hits = values @ (block[ib] * outer[ia][..., None]) % q == want
        return hits.all(axis=1).any(axis=1).all(axis=0)

    for outer, inner in lex_filter(q, outer_len, inner_len, per_candidate, consistent):
        options = []
        for fa, fb, frhs in zip(ia_rows, ib_rows, rhs_rows):
            rows = [
                [outer[x] * inner[y] % q for x, y in zip(ra, rb)]
                for ra, rb in zip(fa, fb)
            ]
            sols = _fiber_solutions(rows, frhs, domain, r, all_solutions)
            if sols is None:
                break
            options.append(sols)
        else:
            yield outer, inner, options


def iter_bm_decompositions(a: Hypermatrix, r, budget=DEFAULT_RANK_BUDGET,
                           all_solutions=False):
    """Yield contracted-dimension-r decompositions of ``a`` over GF(q),
    in lexicographic order of the two enumerated legs.

    The two smaller legs are enumerated entry by entry; for each
    candidate the remaining leg is solved fiber-wise (the constraints
    are linear in it).  By default each consistent candidate yields one
    decomposition (free entries pinned to zero); with ``all_solutions``
    every solution of the solved leg is yielded.  Either way the scan
    visits a decomposition iff one exists for the enumerated prefix, so
    rank detection is complete.

    For each value of the first enumerated leg, a numpy filter tests
    the second leg's candidates in blocks of at most
    ``core.BATCH_ENTRIES`` array entries against every value of each
    fiber's unknowns, and skips exactly the inconsistent ones; the
    survivors keep their lexicographic order and are solved by
    :func:`_fiber_solutions` as before (see :func:`_fiber_search`).
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
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
    # flat position of each leg's entry on the grid (i, j, k, t), laid
    # out as (fiber, row, t): a fiber fixes the two axes of a that the
    # solved leg shares, and its rows run over the third
    i, j, k, t = np.ogrid[:m, :n, :p, :r]
    pos = {0: (i * r + t) * p + k, 1: (i * n + j) * r + t, 2: (t * n + j) * p + k}
    order = {0: (0, 2, 1, 3), 1: (0, 1, 2, 3), 2: (1, 2, 0, 3)}[solve_leg]

    def layout(idx):
        grid = np.broadcast_to(idx, (m, n, p, r)).transpose(order)
        return grid.reshape(grid.shape[0] * grid.shape[1], grid.shape[2], r)

    rhs = np.array(a.data, dtype=np.int64).reshape(m, n, p).transpose(order[:3])
    rhs = rhs.reshape(-1, rhs.shape[2])
    solved_at = layout(pos[solve_leg])[:, 0, :].tolist()
    found = _fiber_search(
        sizes[enum_legs[0]], sizes[enum_legs[1]], layout(pos[enum_legs[0]]),
        layout(pos[enum_legs[1]]), rhs, dom, r, all_solutions,
    )
    for flat_a, flat_b, options in found:
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
    x0 = Hypermatrix((m, r, p), list(flat0), dom)
    x1 = Hypermatrix((m, n, r), list(flat1), dom)
    x2 = Hypermatrix((r, n, p), list(flat2), dom)
    return DecompositionTriple(x0, x1, x2, tuple(range(r)))


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
    cap = min(a.shape)
    for r in range(1, cap + 1):
        if r == cap:
            cert = rank_upper_min(a)
            return RankCertificate(
                kind="exact",
                r=r,
                triple=cert.triple,
                params={"q": dom.q, "budget": budget, "exhausted_below": r},
            )
        found = next(iter_bm_decompositions(a, r, budget=budget), None)
        if found is not None:
            if not found.reconstruct().equals(a):
                raise CertificateError("search returned a bad decomposition")
            return RankCertificate(
                kind="exact",
                r=r,
                triple=found,
                params={"q": dom.q, "budget": budget, "exhausted_below": r},
            )
    raise AssertionError("unreachable: identity-pair level always succeeds")


def cp_rank_exhaustive(a: Hypermatrix, budget=DEFAULT_RANK_BUDGET) -> RankCertificate:
    """Exact CP-constrained rank over GF(q): the slice legs are pinned to
    the rank-one Kronecker form, so this exhausts vector triples.

    At each r the x vectors are enumerated in lexicographic order and,
    for each, the y vectors in blocks that the numpy filter of
    :func:`_fiber_search` tests against every value of the depth
    fibers' unknowns z_k; the first consistent (x, y) is solved by the
    scalar path and certified, as by a candidate-by-candidate scan.
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
    q = dom.q
    m, n, p = a.shape
    if a.is_zero():
        return RankCertificate(kind="exact", r=0, params={"q": q, "cp": True})
    cap = p * min(m, n)
    # fiber k has one row per (i, j): coefficient xs[t*m + i] * ys[t*n + j]
    # on z_k[t], right side a[i, j, k]
    rhs = np.array(a.data, dtype=np.int64).reshape(m * n, p).T
    for r in range(1, cap + 1):
        digits = r * (m + n)
        if q**digits > budget:
            raise BudgetExceededError(
                f"CP enumeration q^{digits} exceeds budget {budget}"
            )
        gi, gj, gt = np.ogrid[:m, :n, :r]
        ia = np.broadcast_to(gt * m + gi, (m, n, r)).reshape(1, m * n, r)
        ib = np.broadcast_to(gt * n + gj, (m, n, r)).reshape(1, m * n, r)
        for xs, ys, zsol in _fiber_search(r * m, r * n, ia, ib, rhs, dom, r, False):
            triple = _assemble_triple(
                a,
                r,
                [xs[t * m + i] for i in range(m) for t in range(r) for _ in range(p)],
                [ys[t * n + j] for _ in range(m) for j in range(n) for t in range(r)],
                [zsol[k][0][t] for t in range(r) for _ in range(n) for k in range(p)],
            )
            if not triple.reconstruct().equals(a):
                raise CertificateError("CP search returned a bad decomposition")
            return RankCertificate(
                kind="exact",
                r=r,
                triple=triple,
                params={"q": q, "cp": True, "exhausted_below": r},
            )
    raise CertificateError("CP search exhausted its rank cap without success")


# ---------------------------------------------------------------------------
# generic numeric pipeline
# ---------------------------------------------------------------------------


_EPS = float(np.finfo(float).eps)


def _stacked_lstsq(a, b):
    """Min-norm least-squares solutions x[s] of the stacked systems
    a[s] x = b[s], with ``np.linalg.lstsq``'s default cutoff: singular
    values at most eps * max(M, N) * sigma_max count as zero."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > _EPS * max(a.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    ub = (u.conj().transpose(0, 2, 1) @ b[:, :, None])[:, :, 0]
    return (vh.conj().transpose(0, 2, 1) @ (inv * ub)[:, :, None])[:, :, 0]


def triple_reduction_witness(
    x0, x1, x2, tau, tol=None, restarts=20, iters=200, seed=0
):
    """Alternating least squares for the general reduction hypothesis of
    an arbitrary conformable triple (not just the identity-pair form).

    The right side is linear in the u-family for fixed v (decoupled by
    row) and linear in the v-family for fixed u (decoupled by column).
    The restarts run side by side: each u half-sweep stacks the systems
    of all m rows of every live restart and each v half-sweep those of
    the n columns, and one stacked min-norm least-squares solve (SVD,
    with ``np.linalg.lstsq``'s cutoff) answers them all.  Every restart
    starts from v drawn from ``random.Random(seed)`` in restart order
    and u = 0, and stops on its own when its residual reaches
    tol * (1 + ||lhs||_F), or after sweep 21 when a sweep improves it
    by less than 1e-4 relative, or after ``iters`` sweeps.

    Returns the SliceRewriteData of the first converged restart in
    index order, or None when none converges.  Restart 0 runs alone
    first, since it usually converges when any does; the rest run in
    chunks of at most ``core.BATCH_ENTRIES`` stacked coefficients
    (m n p (ell - 1) per restart).  No chunk runs after one that
    converged, and a restart stops as soon as an earlier one has
    converged, so neither can change the result.
    """
    dom = x0.domain
    if dom.kind != "complex":
        raise ValueError("triple_reduction_witness needs the complex domain")
    if tol is None:
        tol = dom.tol or 1e-9
    m, ell, p = x0.shape
    n = x1.shape[1]
    if not (0 <= tau < ell):
        raise ShapeError(f"tau {tau} out of range")
    if ell < 2:
        return None
    others = [t for t in range(ell) if t != tau]
    no = len(others)
    ax = x0.to_numpy()
    ay = x1.to_numpy()
    az = x2.to_numpy()
    lhs = np.einsum("ik,ij,jk->ijk", ax[:, tau, :], ay[:, :, tau], az[tau, :, :])
    goal = tol * (1.0 + float(np.linalg.norm(lhs)))
    # broadcast over (restart, i, j, k, index of t in others)
    y = ay[None, :, :, None, others]
    x_tau = ax[None, :, None, tau, :, None]
    x_t = ax[:, others, :].transpose(0, 2, 1)[None, :, None]
    z_tau = az[None, None, tau, :, :, None]
    z_t = az[others].transpose(1, 2, 0)[None, None]
    rng = random.Random(seed)
    inits = [
        [[dom.random(rng) for _ in range(n)] for _ in others]
        for _ in range(max(1, restarts))
    ]
    cap = max(1, core.BATCH_ENTRIES // (m * n * p * no))
    edges = [0, *range(1, len(inits), cap), len(inits)]
    for start, end in zip(edges, edges[1:]):
        v = np.array(inits[start:end], dtype=complex)  # (R, no, n)
        u = np.zeros((len(v), m, no), dtype=complex)
        res = np.full(len(v), np.inf)
        prev = np.full(len(v), np.nan)
        live = np.arange(len(v))
        for it in range(max(1, iters)):
            if not live.size:
                break
            # u half-sweep: row i's system has equations (j, k)
            vb = v[live].transpose(0, 2, 1)[:, None, :, None, :]
            g = y * x_tau * (z_tau * vb + z_t)
            rhs = lhs - (y * x_t * z_tau * vb).sum(-1)
            ul = _stacked_lstsq(
                g.reshape(-1, n * p, no), rhs.reshape(-1, n * p)
            ).reshape(-1, m, no)
            # v half-sweep: column j's system has equations (i, k)
            ub = ul[:, :, None, None, :]
            h = y * z_tau * (ub * x_tau + x_t)
            const = (y * ub * x_tau * z_t).sum(-1)
            vl = _stacked_lstsq(
                h.transpose(0, 2, 1, 3, 4).reshape(-1, m * p, no),
                (lhs - const).transpose(0, 2, 1, 3).reshape(-1, m * p),
            ).reshape(-1, n, no)
            acc = (h * vl[:, None, :, None, :]).sum(-1) + const
            rl = np.linalg.norm((lhs - acc).reshape(len(live), -1), axis=1)
            u[live], v[live], res[live] = ul, vl.transpose(0, 2, 1), rl
            stall = (it > 20) & (prev[live] - rl < 1e-4 * prev[live])
            prev[live] = rl
            live = live[~((rl <= goal) | stall)]
            hits = np.flatnonzero(res <= goal)
            if hits.size:  # a later restart can no longer be chosen
                live = live[live < hits[0]]
        hits = np.flatnonzero(res <= goal)
        if hits.size:
            break
    else:
        return None
    u, v = u[hits[0]], v[hits[0]]
    return SliceRewriteData(
        tau=tau,
        us={t: [complex(x) for x in u[:, idx]] for idx, t in enumerate(others)},
        vs={t: [complex(x) for x in v[idx, :]] for idx, t in enumerate(others)},
    )


def _rank_one_out_of_reach(legs):
    """Pivots tau of an ell = 2 triple for which no rewrite to ell = 1
    can pass :func:`check_reduction_hypothesis`.

    The check accepts a rewrite only when its product P1 satisfies
    ||P - P1||_F <= E_tau = A tol (1 + 2 ||outer_product_at(legs, tau)||)
    / (1 - A tol), where P is the product of ``legs`` and A is
    REDUCTION_ACCEPT.  With mu = min |P| and delta = E_tau / mu < 1,
    every entry of P1 is P (1 + eps) with |eps| <= delta, so P1 is
    all-nonzero; having ell = 1 it has BM rank one and satisfies the
    third-difference identity exactly.  Hence P's worst relative third
    difference d is at most (1 - delta)^-8 - 1, and a larger d rules
    the pivot out.  ``slack`` covers the rounding: about one ulp per
    entry in the check's norms, a few in the ell = 1 product and in
    the eight-fold products of d.
    """
    accept = REDUCTION_ACCEPT * legs[0].domain.tol
    prod = bm_product(*legs)
    mu = min(abs(v) for v in prod.data)
    if accept >= 1.0 or mu == 0.0:
        return set()
    slack = (len(prod.data) + 16) * np.finfo(float).eps
    d = None
    out = set()
    for t in range(2):
        lhs_norm = outer_product_at(*legs, t).norm()
        bound = accept * (1.0 + 2.0 * lhs_norm) / (1.0 - accept)
        delta = bound / mu * (1.0 + slack) + slack
        if delta >= 1.0:
            continue
        if d is None:
            d, _ = bm_rank_one(prod)
        limit = (1.0 - delta) ** -8 - 1.0
        if d > limit * (1.0 + slack) + slack:
            out.add(t)
    return out


def generic_rank_pipeline(
    b: Hypermatrix, tau=None, tol=None, restarts=50, iters=500, seed=0
) -> RankCertificate:
    """Numeric upper-bound certificate for an entry-wise nonzero
    hypermatrix of any shape (m, n, p).

    Starts from the identity-pair decomposition with contracted
    dimension p, which exists for every shape, and keeps reducing while
    a depth-slice witness (first step) or a general reduction witness
    (later steps) is found; stalls return the best certificate so far,
    residual included.

    Before an ell = 2 -> 1 step (the first step on a depth-2 input) it
    stops at a proven bound: it drops every pivot tau for which no
    rewrite that :func:`check_reduction_hypothesis` accepts can exist.
    Such a rewrite has a BM-rank-one product within E_tau, the check's
    largest accepted deviation, of the current product P, so the pivot
    is dropped when E_tau < mu = min |P| and P's worst relative third
    difference exceeds (1 - E_tau / mu)^-8 - 1 (see
    :func:`_rank_one_out_of_reach`).  No search that could succeed is
    skipped, so the certificate is the same as with every pivot tried.

    A pinned ``tau`` must index a depth slice of ``b`` (else
    ShapeError); once ell has shrunk to ``tau`` or below, the pinned
    pivot names no slice, and reducing stops as when no pivot succeeds.
    """
    dom = b.domain
    if dom.kind != "complex":
        raise ValueError("generic_rank_pipeline needs the complex domain")
    if tol is None:
        tol = dom.tol or 1e-9
    m, n, p = b.shape
    for idx, v in enumerate(b.data):
        if abs(v) <= dom.tol:
            raise ZeroDivisionError("entries must be nonzero (genericity proxy)")
    j0, j1 = identity_pair(m, n, p, dom)
    legs = (j0, b, j1)
    ell = p
    norm_b = b.norm()

    def certificate(legs, ell):
        triple = DecompositionTriple(legs[0], legs[1], legs[2], tuple(range(ell)))
        res = triple.reconstruct().sub(b).norm() / (1.0 + norm_b)
        return RankCertificate(
            kind="upper-bound", r=ell, triple=triple, residual=res
        )

    step = 0
    while ell > 1:
        if step and tau is not None and tau >= ell:
            break  # the pinned pivot no longer names a slice
        taus = [tau] if tau is not None else list(range(ell - 1, -1, -1))
        if ell == 2:
            out_of_reach = _rank_one_out_of_reach(legs)
            taus = [t for t in taus if t not in out_of_reach]
        reduced = None
        for t_pick in taus:
            if step == 0:
                witness = depth_slice_witness(
                    b, t_pick, tol=tol, restarts=restarts, iters=iters, seed=seed
                )
                rewrite = witness.rewrite() if witness else None
            else:
                rewrite = triple_reduction_witness(
                    *legs, t_pick, tol=tol, restarts=max(restarts // 2, 5),
                    iters=max(iters // 2, 50), seed=seed + step,
                )
            if rewrite is None:
                continue
            try:
                reduced = hyper_slice_reduce(*legs, rewrite)
                break
            except ReductionHypothesisError:
                continue
        if reduced is None:
            break
        legs = reduced
        ell -= 1
        step += 1
    return certificate(legs, ell)
