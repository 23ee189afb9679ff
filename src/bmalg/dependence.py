"""Left-right diagonal dependence of matrix families.

A family {M_t} is diagonally dependent when some diagonal matrices
{diag(x_t)}, {diag(y_t)} give

    0 = sum_t diag(x_t) . M_t . diag(y_t)

with at least one term nonzero.  This module provides the residual of a
candidate witness, an exhaustive exact solver over GF(q), a numeric
solver over complex doubles, the single division-free elimination round
for diagonal-coefficient systems, the determinantal residuals of the
rank-(r+1) feasibility analysis, and the feasibility inequality itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .core import Hypermatrix, Matrix, lex_filter
from .errors import BudgetExceededError, ShapeError
from .scalars import ScalarDomain

DEFAULT_SEARCH_BUDGET = 10_000_000


def check_family(family):
    if not family:
        raise ShapeError("matrix family must be nonempty")
    shape = family[0].shape
    dom = family[0].domain
    for m in family[1:]:
        dom.check_same(m.domain)
        if m.shape != shape:
            raise ShapeError("family matrices must share one shape")
    return shape, dom


@dataclass
class DiagonalWitness:
    """Vector families x_t (length m) and y_t (length n), one pair per
    family member.  A witness certifies dependence when the combination
    residual vanishes and at least one term diag(x_t).M_t.diag(y_t) is
    nonzero."""

    xs: list
    ys: list
    residual: float | None = None

    def to_json(self, domain):
        return {
            "x": [[domain.encode(v) for v in vec] for vec in self.xs],
            "y": [[domain.encode(v) for v in vec] for vec in self.ys],
            "residual": self.residual,
        }


def term(family, witness, t) -> Matrix:
    """diag(x_t) . M_t . diag(y_t), computed entry-wise."""
    m = family[t]
    dom = m.domain
    rows, cols = m.shape
    x, y = witness.xs[t], witness.ys[t]
    return Matrix.from_function(
        rows, cols, dom, lambda i, j: dom.mul(dom.mul(x[i], m[i, j]), y[j])
    )


def combination_residual(family, witness) -> Matrix:
    """Sum of all witness terms; the zero matrix certifies dependence
    (given nontriviality)."""
    shape, dom = check_family(family)
    if len(witness.xs) != len(family) or len(witness.ys) != len(family):
        raise ShapeError("witness length must match the family")
    acc = Matrix.zeros(shape[0], shape[1], dom)
    for t in range(len(family)):
        if len(witness.xs[t]) != shape[0] or len(witness.ys[t]) != shape[1]:
            raise ShapeError("witness vector lengths must match the matrices")
        acc = acc.add(term(family, witness, t))
    return acc


def witness_is_nontrivial(family, witness, tol=0.0) -> bool:
    """True when some individual term is nonzero (beyond tol numerically)."""
    shape, dom = check_family(family)
    scale = 1.0 + max((m.norm() for m in family), default=0.0)
    for t in range(len(family)):
        mat = term(family, witness, t)
        if dom.is_exact:
            if not mat.is_zero():
                return True
        elif mat.norm() > tol * scale:
            return True
    return False


# ---------------------------------------------------------------------------
# exact exhaustive solver over GF(q)
# ---------------------------------------------------------------------------


def is_dependent_exact(family, budget=DEFAULT_SEARCH_BUDGET):
    """Exhaustive witness search over GF(q).

    Returns the first nontrivial witness with zero residual in
    lexicographic assignment order, or None, which over a finite field
    proves the family independent.  Families of size one are independent
    by definition (the single term must itself vanish).

    For each assignment of the x vectors, a numpy test checks the y
    assignments in lexicographic blocks of at most ``core.BATCH_ENTRIES``
    array entries (zero residual and some nonzero term) and the first
    hit is returned, the one a one-by-one scan would find.
    """
    (m, n), dom = check_family(family)
    if dom.kind != "gf":
        raise ValueError("exhaustive dependence search needs a GF(q) domain")
    p = len(family)
    if p == 1:
        return None
    q = dom.q
    digits = p * (m + n)
    if q**digits > budget:
        raise BudgetExceededError(
            f"search space q^(p(m+n)) = {q}^{digits} exceeds budget {budget}"
        )
    mats = np.array([fam.data for fam in family], dtype=np.int64).reshape(p, m, n)

    def witnesses(flat_x, block):
        # terms[t, i, j, c] of candidate c; reductions run across candidates
        left = flat_x.reshape(p, m, 1, 1) * mats[..., None]
        terms = left * block.reshape(p, 1, n, -1) % q
        ok = ~(terms.sum(axis=0) % q).any(axis=(0, 1))
        return ok & terms.any(axis=(0, 1, 2))

    for flat_x, flat_y in lex_filter(q, p * m, p * n, p * m * n, witnesses):
        xs = [list(flat_x[t * m : (t + 1) * m]) for t in range(p)]
        ys = [list(flat_y[t * n : (t + 1) * n]) for t in range(p)]
        return DiagonalWitness(xs, ys, residual=0.0)
    return None


# ---------------------------------------------------------------------------
# numeric solver over complex doubles
# ---------------------------------------------------------------------------


def _null_vector(row):
    """A unit vector orthogonal to a single complex row (len >= 2)."""
    p = len(row)
    nrm = np.linalg.norm(row)
    if nrm == 0.0:
        e = np.zeros(p, dtype=complex)
        e[0] = 1.0
        return e
    # complete the normalized row to an orthonormal basis and take any
    # later column
    q_mat, _ = np.linalg.qr(
        np.column_stack([np.conj(row) / nrm, np.eye(p, dtype=complex)])
    )
    return q_mat[:, 1]


def is_dependent_numeric(family, tol=None, restarts=50, iters=500, seed=0):
    """Numeric witness search over complex doubles.

    Strategy: anchor the x-block on one row of the family (unit-norm
    gauge on the x-block excludes the all-zero witness), then each
    column constraint becomes a single homogeneous equation in the p
    unknowns y_t[j], solved exactly by a null vector; random restarts
    vary the anchor row and the anchor coefficients.  A general
    alternating smallest-singular-vector refinement handles families
    whose zero patterns defeat the anchored construction.

    None means no witness was found within the budget; it is NOT a
    proof of independence.
    """
    (m, n), dom = check_family(family)
    if dom.kind != "complex":
        raise ValueError("numeric dependence search needs the complex domain")
    if tol is None:
        tol = dom.tol or 1e-9
    p = len(family)
    if p == 1:
        return None
    rng = random.Random(seed)
    mats = np.stack([fam.to_numpy() for fam in family])  # (p, m, n)
    scale = 1.0 + float(np.max(np.abs(mats)))

    def package(xs_arr, ys_arr):
        xs = [[complex(v) for v in xs_arr[t]] for t in range(p)]
        ys = [[complex(v) for v in ys_arr[t]] for t in range(p)]
        w = DiagonalWitness(xs, ys)
        res = combination_residual(family, w)
        w.residual = res.norm()
        if w.residual <= tol * scale * (m * n) ** 0.5 and witness_is_nontrivial(
            family, w, tol
        ):
            return w
        return None

    # anchored construction: witness supported on a single row
    anchors = list(range(m))
    for attempt in range(max(1, restarts)):
        if attempt:
            rng.shuffle(anchors)
        for i_star in anchors:
            if attempt == 0:
                coeff = np.ones(p, dtype=complex)
            else:
                coeff = np.array(
                    [dom.random_nonzero(rng) for _ in range(p)], dtype=complex
                )
            coeff /= np.linalg.norm(coeff)
            xs_arr = np.zeros((p, m), dtype=complex)
            xs_arr[:, i_star] = coeff
            ys_arr = np.zeros((p, n), dtype=complex)
            for j in range(n):
                row = coeff * mats[:, i_star, j]
                ys_arr[:, j] = _null_vector(row)
            w = package(xs_arr, ys_arr)
            if w is not None:
                return w

    # alternating refinement for zero-pattern families
    for _ in range(max(1, restarts)):
        ys_arr = np.array(
            [[dom.random(rng) for _ in range(n)] for _ in range(p)], dtype=complex
        )
        xs_arr = np.zeros((p, m), dtype=complex)
        for _ in range(iters):
            # x-step: per-row smallest singular vector, gauge on the best row
            best = None
            for i in range(m):
                g = (mats[:, i, :] * ys_arr).T  # (n, p)
                _, s, vh = np.linalg.svd(g)
                sv = s[-1] if len(s) >= g.shape[1] else 0.0
                if best is None or sv < best[0]:
                    best = (sv, i, np.conj(vh[-1]))
            xs_arr[:] = 0.0
            xs_arr[:, best[1]] = best[2]
            # y-step: per-column null vector where achievable, zero otherwise
            new_ys = np.zeros((p, n), dtype=complex)
            for j in range(n):
                h = (mats[:, :, j] * xs_arr).T  # (m, p)
                u, s, vh = np.linalg.svd(h)
                if s[-1] <= tol * scale * 10 or h.shape[0] < h.shape[1]:
                    new_ys[:, j] = np.conj(vh[-1])
            if np.allclose(new_ys, ys_arr, atol=tol):
                ys_arr = new_ys
                break
            ys_arr = new_ys
        w = package(xs_arr, ys_arr)
        if w is not None:
            return w
    return None


def find_dependence(family, budget=DEFAULT_SEARCH_BUDGET, **numeric_opts):
    """Dispatch on the family's domain: exhaustive for GF(q), numeric for
    complex; rational families are searched numerically after casting."""
    (_, _), dom = check_family(family)
    if dom.kind == "gf":
        return is_dependent_exact(family, budget=budget)
    if dom.kind == "rational":
        from .scalars import complex_doubles

        cdom = complex_doubles()
        cast = [
            Matrix.from_function(
                m.shape[0], m.shape[1], cdom, lambda i, j, mm=m: complex(mm[i, j])
            )
            for m in family
        ]
        return is_dependent_numeric(cast, **numeric_opts)
    return is_dependent_numeric(family, **numeric_opts)


# ---------------------------------------------------------------------------
# division-free elimination round
# ---------------------------------------------------------------------------


@dataclass
class SystemRow:
    """One constraint of a diagonal-coefficient general linear system.

    ``coeffs[t]`` is a list of (left, right) diagonal-vector pairs whose
    sandwich sum multiplies the unknown matrix x_t; ``rhs`` is a list of
    (left, right, source) triples combining the original right-hand
    sides.  Fresh systems carry a single pair per coefficient; one
    elimination round produces pair lists.
    """

    coeffs: list
    rhs: list


@dataclass
class DiagonalSystem:
    m: int
    n: int
    domain: ScalarDomain
    rows: list = field(default_factory=list)

    @staticmethod
    def from_legs(u: Hypermatrix, w: Hypermatrix):
        """System for the depth slices of a product: row k states
        sum_t diag(U[:,t,k]) . X_t . diag(W[t,:,k]) = C_k."""
        u.domain.check_same(w.domain)
        m, ell, p = u.shape
        if w.shape[0] != ell or w.shape[2] != p:
            raise ShapeError(
                f"legs disagree: U is {u.shape}, W is {w.shape}"
            )
        n = w.shape[1]
        dom = u.domain
        ones_m = [dom.one()] * m
        ones_n = [dom.one()] * n
        rows = []
        for k in range(p):
            coeffs = [
                [([u[i, t, k] for i in range(m)], [w[t, j, k] for j in range(n)])]
                for t in range(ell)
            ]
            rows.append(SystemRow(coeffs=coeffs, rhs=[(ones_m, ones_n, k)]))
        return DiagonalSystem(m=m, n=n, domain=dom, rows=rows)

    def num_vars(self):
        return len(self.rows[0].coeffs) if self.rows else 0


def _vec_mul(dom, a, b):
    return [dom.mul(x, y) for x, y in zip(a, b)]


def _vec_neg(dom, a):
    return [dom.neg(x) for x in a]


def _vec_eq(dom, a, b):
    return all(dom.eq(x, y) for x, y in zip(a, b))


def _cancel_pairs(dom, pairs):
    """Drop pairs that are exact negatives of each other (either side)."""
    out = list(pairs)
    changed = True
    while changed:
        changed = False
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                la, ra = out[a][:2]
                lb, rb = out[b][:2]
                if len(out[a]) != len(out[b]):
                    continue
                same_src = len(out[a]) == 2 or out[a][2] == out[b][2]
                if not same_src:
                    continue
                if (_vec_eq(dom, la, _vec_neg(dom, lb)) and _vec_eq(dom, ra, rb)) or (
                    _vec_eq(dom, la, lb) and _vec_eq(dom, ra, _vec_neg(dom, rb))
                ):
                    del out[b]
                    del out[a]
                    changed = True
                    break
            if changed:
                break
    return out


def eliminate_round(system: DiagonalSystem, pivot=(0, 0)) -> DiagonalSystem:
    """One division-free elimination round.

    With pivot variable t* and pivot row k*, every other row k is
    replaced by (-1) . L_k . R_{k*} . R_k-sandwich combination

        (-coeff_k-left) row_{k*} (coeff_k-right) + (coeff_{k*}-left) row_k (coeff_{k*}-right)

    where coeff_k is row k's (left, right) pair for the pivot variable.
    All produced coefficients are entry-wise products of the input
    diagonals; no scalar division happens anywhere.  The pivot variable
    cancels exactly from every transformed row because diagonal products
    commute.
    """
    t_star, k_star = pivot
    dom = system.domain
    if not system.rows:
        raise ShapeError("empty system")
    nvars = system.num_vars()
    if not (0 <= t_star < nvars) or not (0 <= k_star < len(system.rows)):
        raise ShapeError(f"pivot {pivot} out of range")
    for k, row in enumerate(system.rows):
        if len(row.coeffs[t_star]) != 1:
            raise ShapeError(
                "eliminate_round expects single-pair pivot coefficients "
                f"(row {k} has {len(row.coeffs[t_star])}); only one round is supported"
            )
    lp, rp = system.rows[k_star].coeffs[t_star][0]
    if all(dom.is_zero(v) for v in lp) and all(dom.is_zero(v) for v in rp):
        raise ZeroDivisionError("degenerate pivot: both coefficient diagonals zero")

    def sandwich_pairs(pairs, left, right, negate):
        out = []
        for entry in pairs:
            l, r = entry[:2]
            new_l = _vec_mul(dom, left, l)
            if negate:
                new_l = _vec_neg(dom, new_l)
            new_r = _vec_mul(dom, r, right)
            out.append((new_l, new_r, *entry[2:]))
        return out

    pivot_row = system.rows[k_star]
    new_rows = []
    for k, row in enumerate(system.rows):
        if k == k_star:
            new_rows.append(SystemRow(coeffs=[list(c) for c in row.coeffs],
                                      rhs=list(row.rhs)))
            continue
        lk, rk = row.coeffs[t_star][0]
        coeffs = []
        for t in range(nvars):
            pairs = sandwich_pairs(pivot_row.coeffs[t], lk, rk, negate=True)
            pairs += sandwich_pairs(row.coeffs[t], lp, rp, negate=False)
            pairs = [(l, r) for (l, r, *_) in pairs]
            pairs = _cancel_pairs(dom, pairs)
            if t == t_star and pairs:
                raise AssertionError("pivot variable failed to cancel")
            coeffs.append(pairs)
        rhs = sandwich_pairs(pivot_row.rhs, lk, rk, negate=True)
        rhs += sandwich_pairs(row.rhs, lp, rp, negate=False)
        rhs = _cancel_pairs(dom, rhs)
        new_rows.append(SystemRow(coeffs=coeffs, rhs=rhs))
    return DiagonalSystem(m=system.m, n=system.n, domain=dom, rows=new_rows)


def eval_row_lhs(system: DiagonalSystem, row: SystemRow, xs) -> Matrix:
    """Evaluate the left side of a row at concrete unknown matrices."""
    dom = system.domain
    acc = Matrix.zeros(system.m, system.n, dom)
    for t, pairs in enumerate(row.coeffs):
        for l, r in pairs:
            x = xs[t]
            acc = acc.add(
                Matrix.from_function(
                    system.m,
                    system.n,
                    dom,
                    lambda i, j, l=l, r=r, x=x: dom.mul(dom.mul(l[i], x[i, j]), r[j]),
                )
            )
    return acc


def eval_row_rhs(system: DiagonalSystem, row: SystemRow, cs) -> Matrix:
    dom = system.domain
    acc = Matrix.zeros(system.m, system.n, dom)
    for l, r, src in row.rhs:
        c = cs[src]
        acc = acc.add(
            Matrix.from_function(
                system.m,
                system.n,
                dom,
                lambda i, j, l=l, r=r, c=c: dom.mul(dom.mul(l[i], c[i, j]), r[j]),
            )
        )
    return acc


def row_residual(system, row, xs, cs) -> Matrix:
    return eval_row_lhs(system, row, xs).sub(eval_row_rhs(system, row, cs))


# ---------------------------------------------------------------------------
# dependence relation guaranteed by a thin decomposition
# ---------------------------------------------------------------------------


@dataclass
class SliceDependence:
    """A dependent subfamily of depth slices with its witness."""

    slice_indices: tuple
    witness: DiagonalWitness


def dependent_slice_family(h: Hypermatrix, decomposition, budget=DEFAULT_SEARCH_BUDGET,
                 **numeric_opts):
    """Find a dependent (ell+1)-subset of depth slices of a hypermatrix
    that admits a decomposition with contracted dimension ell below
    min(m, n, p).

    The decomposition is verified to reconstruct ``h`` first.  A zero
    depth slice short-circuits: it forms a dependent singleton on its
    own (the degenerate case where nontriviality is waived).  Returns
    None when no subset yields a witness within budget; existence is
    only guaranteed when ell is the exact rank.
    """
    from .rank import DecompositionTriple  # local to avoid an import cycle

    if not isinstance(decomposition, DecompositionTriple):
        raise TypeError("expected a DecompositionTriple")
    m, n, p = h.shape
    ell = min(decomposition.ell, len(decomposition.support))
    if ell >= min(m, n, p):
        raise ShapeError(
            f"contracted dimension {ell} must be below min{h.shape} for a "
            "guaranteed depth-slice dependence"
        )
    if not decomposition.reconstruct().equals(h):
        raise ValueError("decomposition does not reconstruct the hypermatrix")
    dom = h.domain
    slices = h.depth_matrices()
    for k, mat in enumerate(slices):
        if mat.is_zero():
            ones_m = [dom.one()] * m
            ones_n = [dom.one()] * n
            return SliceDependence(
                (k,), DiagonalWitness([ones_m], [ones_n], residual=0.0)
            )
    for subset in itertools.combinations(range(p), ell + 1):
        family = [slices[k] for k in subset]
        witness = find_dependence(family, budget=budget, **numeric_opts)
        if witness is not None:
            return SliceDependence(tuple(subset), witness)
    return None


# ---------------------------------------------------------------------------
# determinantal constraints and the feasibility inequality
# ---------------------------------------------------------------------------


def determinantal_residual(b: Hypermatrix, x: Hypermatrix, y: Hypermatrix,
                           i0, i1, j0, j1):
    """One 2x2 determinantal constraint for rank-(r+1) feasibility.

    For B of shape m x n x (r+1) with an all-nonzero first depth slice,
    the eliminated system lives in the ratio entries

        g[i, j] = B[i,j,r]/B[i,j,0]
                  + sum_{0<t<r} X[i,t,0] (B[i,j,t]/B[i,j,0]) Y[t,j,0]

    and this returns det of the 2x2 submatrix of g on rows {i0, i1},
    columns {j0, j1}; simultaneous vanishing over all index choices
    says g is a rank-one (sign-flipped) product, the eliminated form of
    the slice-dependence constraints.
    """
    m, n, rp1 = b.shape
    r = rp1 - 1
    if r < 1:
        raise ShapeError("need at least two depth slices")
    if x.shape != (m, r, 1):
        raise ShapeError(f"X must be ({m},{r},1), found {x.shape}")
    if y.shape != (r, n, 1):
        raise ShapeError(f"Y must be ({r},{n},1), found {y.shape}")
    if not (0 <= i0 < i1 < m and 0 <= j0 < j1 < n):
        raise ShapeError("need 0 <= i0 < i1 < m and 0 <= j0 < j1 < n")
    dom = b.domain
    for i in range(m):
        for j in range(n):
            if dom.is_zero(b[i, j, 0]):
                raise ZeroDivisionError(
                    f"first depth slice must be entry-wise nonzero; ({i},{j}) is zero"
                )

    def g(i, j):
        base = dom.div(b[i, j, r], b[i, j, 0])
        for t in range(1, r):
            base = dom.add(
                base,
                dom.mul(
                    dom.mul(x[i, t, 0], dom.div(b[i, j, t], b[i, j, 0])),
                    y[t, j, 0],
                ),
            )
        return base

    return dom.sub(dom.mul(g(i0, j0), g(i1, j1)), dom.mul(g(i0, j1), g(i1, j0)))


def rank_feasibility(m, n, r) -> bool:
    """True when a generic m x n x (r+1) hypermatrix can have rank r+1,
    i.e. (m+n)(r-1) < (m-1)(n-1)."""
    if r < 1:
        raise ShapeError("r must be at least 1")
    if r >= min(m, n):
        raise ShapeError(f"r must be below min(m, n) = {min(m, n)}")
    return (m + n) * (r - 1) < (m - 1) * (n - 1)
