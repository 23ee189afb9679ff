"""Left-right diagonal dependence of matrix families.

A family {M_t} is diagonally dependent when some diagonal matrices
{diag(x_t)}, {diag(y_t)} give

    0 = sum_t diag(x_t) . M_t . diag(y_t)

with at least one term nonzero.  A nonzero term must cancel against
another member's term at the same entry, and two members nonzero at one
entry always cancel there, so a family is dependent exactly when two of
its members share a nonzero entry.  This module provides the residual of
a candidate witness, the witness that such a shared entry gives (exact
over GF(q) and the rationals, over GF(q) the first one an exhaustive
scan would find, over complex doubles the first one that passes the
numeric acceptance test), the one search for a dependent k-subset of a
hypermatrix's depth slices, the single
division-free elimination round for diagonal-coefficient systems, the
determinantal residuals of the rank-(r+1) feasibility analysis, and the
feasibility inequality itself.  No search here enumerates assignments,
so none takes a budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Hypermatrix, Matrix
from .errors import ShapeError
from .scalars import ScalarDomain


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


def _sandwich(left, mat: Matrix, right) -> Matrix:
    """diag(left) . mat . diag(right), entry (l_i M_ij) r_j."""
    dom = mat.domain
    mul, coerce, data = dom.mul, dom.coerce, mat.data
    rows, cols = mat.shape
    return Matrix(
        mat.shape,
        [
            coerce(mul(mul(left[i], data[i * cols + j]), right[j]))
            for i in range(rows)
            for j in range(cols)
        ],
        dom,
    )


def term(family, witness, t) -> Matrix:
    """diag(x_t) . M_t . diag(y_t), computed entry-wise."""
    return _sandwich(witness.xs[t], family[t], witness.ys[t])


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
# two-member witnesses: the exact and the numeric search
# ---------------------------------------------------------------------------


def _shared_entry_witnesses(family, term=None):
    """Yield a witness for every two members that share a nonzero entry.

    A nonzero term at entry (i, j) cancels only against another member
    nonzero at (i, j), and members t1 < t2 with entries a and b there
    cancel with x_t1 = x_t2 = e_i, y_t1 = (c / a) e_j and
    y_t2 = -(c / b) e_j, which makes both terms +-c at (i, j).  So a
    family is dependent exactly when this generator yields something.
    ``term`` is c; by default c = a, so y_t1 = e_j.  Candidates come
    with t1*m + i descending, then t2, then j descending: over GF(q) the
    first default one is the lexicographically first witness of the
    assignment order (all x entries, then all y entries, member by
    member).
    """
    (m, n), dom = check_family(family)
    p = len(family)
    for t1 in reversed(range(p)):
        for i in reversed(range(m)):
            for t2 in reversed(range(t1 + 1, p)):
                for j in reversed(range(n)):
                    a, b = family[t1][i, j], family[t2][i, j]
                    if dom.is_zero(a) or dom.is_zero(b):
                        continue
                    xs = [[dom.zero()] * m for _ in range(p)]
                    ys = [[dom.zero()] * n for _ in range(p)]
                    xs[t1][i] = xs[t2][i] = dom.one()
                    c = a if term is None else term
                    ys[t1][j] = dom.div(c, a)
                    ys[t2][j] = dom.neg(dom.div(c, b))
                    yield DiagonalWitness(xs, ys)


def is_dependent_exact(family):
    """Witness search over an exact domain (GF(q) or the rationals).

    Returns a nontrivial witness with zero residual, or None, which
    proves the family independent.  Families of size one are
    independent by definition (the single term must itself vanish).
    The witness is read off the last shared nonzero entry
    (:func:`_shared_entry_witnesses`); over GF(q) it is the
    lexicographically first witness in the assignment order (all x
    entries, then all y entries), found without enumerating the
    q^(p(m+n)) assignments.
    """
    (_, _), dom = check_family(family)
    if not dom.is_exact:
        raise ValueError("exact dependence search needs an exact domain")
    if len(family) == 1:
        return None
    witness = next(_shared_entry_witnesses(family), None)
    if witness is not None:
        witness.residual = 0.0
    return witness


def is_dependent_numeric(family, seed=0):
    """Witness search over complex doubles at tol = dom.tol or 1e-9.

    Returns the first two-member witness of :func:`_shared_entry_witnesses`
    whose residual is at most tol * (1 + max |entry|) * sqrt(mn) and whose
    terms are nontrivial beyond ``tol``, or None.  Each witness is scaled
    so that both of its terms have norm 1 + max ||M_t||, the scale the
    nontriviality test measures against, so for 2 eps <= tol < 1 a
    witness is found exactly when two members share an entry above the
    domain tolerance.  ``seed`` no longer changes the result; it is kept
    for the callers that pass it.
    """
    (m, n), dom = check_family(family)
    if dom.kind != "complex":
        raise ValueError("numeric dependence search needs the complex domain")
    tol = dom.tol or 1e-9
    if len(family) == 1:
        return None
    scale = 1.0 + max(abs(v) for mat in family for v in mat.data)
    term_norm = dom.coerce(1.0 + max(mat.norm() for mat in family))
    for witness in _shared_entry_witnesses(family, term=term_norm):
        witness.residual = combination_residual(family, witness).norm()
        if witness.residual <= tol * scale * (m * n) ** 0.5 and witness_is_nontrivial(
            family, witness, tol
        ):
            return witness
    return None


def find_dependence(family):
    """Dispatch on the family's domain: exact for GF(q) and the
    rationals, numeric for complex."""
    (_, _), dom = check_family(family)
    if dom.is_exact:
        return is_dependent_exact(family)
    return is_dependent_numeric(family)


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
    """Drop pairs that are exact negatives of each other (either side).

    One pass: after a deletion the scan goes on at the same index, since
    the entries before it had no partner and deleting creates none."""
    out = list(pairs)
    a = 0
    while a < len(out):
        la, ra = out[a][:2]
        for b in range(a + 1, len(out)):
            lb, rb = out[b][:2]
            if len(out[a]) != len(out[b]):
                continue
            same_src = len(out[a]) == 2 or out[a][2] == out[b][2]
            if not same_src:
                continue
            if (_vec_eq(dom, la, _vec_neg(dom, lb)) and _vec_eq(dom, ra, rb)) or (
                _vec_eq(dom, la, lb) and _vec_eq(dom, ra, _vec_neg(dom, rb))
            ):
                del out[b], out[a]
                break
        else:
            a += 1
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
    acc = Matrix.zeros(system.m, system.n, system.domain)
    for t, pairs in enumerate(row.coeffs):
        for l, r in pairs:
            acc = acc.add(_sandwich(l, xs[t], r))
    return acc


def eval_row_rhs(system: DiagonalSystem, row: SystemRow, cs) -> Matrix:
    acc = Matrix.zeros(system.m, system.n, system.domain)
    for l, r, src in row.rhs:
        acc = acc.add(_sandwich(l, cs[src], r))
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


def dependent_depth_subset(h: Hypermatrix, k):
    """The first k-subset of depth slices of ``h``, in
    ``itertools.combinations`` order, whose family has a witness
    (:func:`find_dependence`), or None.

    A k outside [1, p] names no subset, so "none found" would be a false
    proof of independence; it raises :class:`ShapeError` instead.
    """
    p = h.shape[2]
    if not 1 <= k <= p:
        raise ShapeError(f"subset size {k} outside [1, {p}]")
    slices = h.depth_matrices()
    for subset in itertools.combinations(range(p), k):
        witness = find_dependence([slices[t] for t in subset])
        if witness is not None:
            return SliceDependence(subset, witness)
    return None


def dependent_slice_family(h: Hypermatrix, decomposition, seed=0):
    """Find a dependent (ell+1)-subset of depth slices of a hypermatrix
    that admits a decomposition with contracted dimension ell below
    min(m, n, p).

    The decomposition is verified to reconstruct ``h`` first.  A zero
    depth slice short-circuits: it forms a dependent singleton on its
    own (the degenerate case where nontriviality is waived).  Otherwise
    this is :func:`dependent_depth_subset` at k = ell + 1, which returns
    None when no subset has a witness; existence is only guaranteed
    when ell is the exact rank.  ``seed`` does not change the result; it
    is kept for the callers that pass it.
    """
    from .rank import DecompositionTriple
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
    for k, mat in enumerate(h.depth_matrices()):
        if mat.is_zero():
            ones_m = [dom.one()] * m
            ones_n = [dom.one()] * n
            return SliceDependence(
                (k,), DiagonalWitness([ones_m], [ones_n], residual=0.0)
            )
    return dependent_depth_subset(h, ell + 1)


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
