"""Reference implementations kept as test oracles.

These are the per-caller elimination routines, the direct-search
action enumeration built on the modular block inverse with the
action-by-action scoring loop that ``bmalg.nullity`` ran before it
scored every cached action in one array product (the winner's outer
inverse recovered from its pair), that array-product pick
(``best_action_by_stack``) as it was before the pick read int bitsets
over the actions, and the
three-identity sandwich check that ``bmalg`` used before every solve
went through ``bmalg.core.echelon``, the per-scalar ternary products
that ``bmalg.products`` used before its array kernel, and the
hand-expanded slice-reduction hypothesis check that ``bmalg.rank``
used before it compared the products of the original and rewritten
legs, the inverse-pair layer of ``bmalg.inverse`` as it was before
its flattening blocks and inverse slices were read from the flat data
(entry by entry through ``from_function``), and the via-rank nullity of
``bmalg.nullity`` as it was before its transfer loop found the rank
itself and its completions shared the direct search's block test, and
the hyperdeterminant, the slice rewrite (its legs built entry by entry
through ``from_function``) and the generic pipeline of ``bmalg.rank``
as they were before the hyperdeterminant became a cell of the
third-difference test and the pipeline dropped the ell = 2 -> 1 pivots
that test rules out, the general reduction witness of ``bmalg.rank``
as it was before its restarts ran side by side through one stacked
least-squares solve per half-sweep (the reference pipeline calls this
copy), and the exhaustive GF(q) searches
(``iter_bm_decompositions`` and ``cp_rank_exhaustive`` of
``bmalg.rank``, ``is_dependent_exact`` of ``bmalg.dependence``) as they
were before a numpy filter screened their candidates in blocks, the
depth-slice witness of ``bmalg.rank`` as it was before each half-sweep
solved its row or column systems in one batched gelsd call (one
``np.linalg.lstsq`` call per row and per column here; the reference
pipeline calls this copy), the two-slice witness as it was before it
ran on ``bm_rank_one``, the batched exhaustive GF(q) and the
numeric dependence searches of ``bmalg.dependence`` as they were before
both read their witness off a shared nonzero entry (the batched copy is
named ``is_dependent_exact_batched`` here, because ``is_dependent_exact``
is the scalar one) with the block scan ``lex_filter`` it ran on, which
``bmalg.core`` kept until ``rank._fiber_search`` took the scan into its
own loop, and the one-probe-at-a-time sandwich check of
``bmalg.inverse`` (``sandwich_check_per_probe``, because
``sandwich_check`` here is the three-identity one) and the dense
``max_deviation`` as they were before the probes ran stacked and equal
exact entries skipped their subtraction, and the min-extent bound
``rank_upper_min`` of ``bmalg.rank`` as it was before it built the
identity pair of the input oriented by ``orient_depth_min`` (three
hand-expanded transpose branches here, which break the tie m == n < p
by the column axis; the via-rank nullity copy calls it on oriented
inputs only).  The bodies are kept as they were; the former
``Matrix`` methods take the matrix as an explicit first argument, the
nullity copies import the rank pipeline from ``bmalg.rank`` instead of
relatively, and the slice-rewrite copy calls the current
product-preservation check under the name
``check_product_preservation``, because ``check_reduction_hypothesis``
here is the hand-expanded check it replaced.  The search copies solve
their fibers with the former solver ``_fiber_solutions`` kept here, not
with the library's.  The nullity copies run on the entry-wise
inverse-pair layer above, which the inverse-layer tests hold equal to ``bmalg.inverse``,
and the via-rank copy on the scalar ``iter_bm_decompositions`` copy.
The necessity copy still tries a repeated random completion again, but
its error names the distinct completions tried, as ``bmalg.nullity``
does now that it skips the repeats.

The next-to-last section keeps the slice cuts as they were before every one
went through ``Hypermatrix.restack``: the stride zeroing of the
``DecompositionTriple`` constructor (``zero_outside_support_by_strides``,
its ``__post_init__`` body with the legs in a dict instead of on
``self``), the run padding of ``nullity._pad_triple``
(``pad_triple_by_runs``), the offset rewrite of
``rank.hyper_slice_reduce`` (``hyper_slice_reduce_by_offsets``), the
reordering comprehension of ``rank.two_slice_witness``
(``two_slice_witness_by_reorder``) and the three-branch
``Hypermatrix.slice`` (``slice_by_offsets``, the hypermatrix as an
explicit first argument), all under new names because the older copies
above keep theirs.  Beside them is ``dependence._cancel_pairs`` as it
was before it cancelled in one pass (it restarted its scan after each
deletion).

The closing section keeps the sums that were written out by hand
before they went through one ``Matrix.matmul`` or one flat
construction: ``Matrix.matmul`` reading every factor entry through
``other[t, j]`` (``matmul_by_entries``, the matrix as an explicit
first argument), ``nullity.MatrixDecomposition.reconstruct`` adding
one rank-one matrix per support index (``reconstruct_by_rank_one_sums``,
the decomposition as an explicit first argument),
``rank.matrix_slice_reduce`` summing the row hypothesis column by
column (``matrix_slice_reduce_by_columns``), ``rank.delta_sum`` adding
r ``delta_t`` cubes (``delta_sum_by_additions``) and
``products.general_bm_product`` reading each background entry through
``__getitem__`` (``general_bm_product_by_getitem``, on the current
``products._contract``).

The last sections keep the read-outs of ``Matrix.inverse`` and
``Matrix.solve`` as they were before each Q entry became one
``Fraction(a, pivot)``: every entry of a row is the pivot's ``dom.inv``
times the entry (``inverse_by_pivot_inverses`` and
``solve_by_pivot_inverses``, on the current ``bmalg.core.echelon``,
the matrix as an explicit first argument).
"""

import itertools
import operator
import random

import numpy as np

from bmalg import core
from bmalg.core import Hypermatrix, Matrix
from bmalg.dependence import _vec_eq, _vec_neg
from bmalg.dependence import (
    DiagonalWitness,
    check_family,
    combination_residual,
    witness_is_nontrivial,
)
from bmalg.errors import (
    BudgetExceededError,
    CertificateError,
    CompletionError,
    ConformabilityError,
    FactorabilityError,
    ReductionHypothesisError,
    ShapeError,
)
from bmalg.inverse import (
    FlatteningMatrix,
    HyperPair,
    InvertibilityReport,
    OuterInversePair,
)
from bmalg.nullity import (
    DEFAULT_COMPLETION_RETRIES,
    DEFAULT_DECOMPOSITION_ATTEMPTS,
    DEFAULT_EXHAUSTIVE_COMPLETIONS,
    NullityCertificate,
    _slice_is_zero,
    _zero_pair_certificate,
    orient_depth_min,
)
from bmalg.products import _contract, bm_product, conformability, delta_t, identity_pair
from bmalg.rank import (
    DEFAULT_RANK_BUDGET,
    DecompositionTriple,
    DepthSliceWitness,
    RankCertificate,
    SliceRewriteData,
    bm_rank_exhaustive,
)
from bmalg.rank import _assemble_triple, bm_rank_one
from bmalg.rank import check_reduction_hypothesis as check_product_preservation

# the bound on q^(p(m+n)) assignments that the exhaustive dependence scans
# below refuse past, as ``bmalg.dependence`` had it before its witness was
# read off a shared entry
DEFAULT_SEARCH_BUDGET = 10_000_000


# -- former min-extent upper bound (rank) -------------------------------------


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


# -- former Matrix elimination methods ----------------------------------------


def _echelon(self, augment=None):
    """Row echelon form via Gaussian elimination over the domain.

    Exact domains pivot on the first nonzero entry; the complex
    domain pivots on the entry of largest modulus.  Returns
    (rows, aug_rows, pivot_cols, swap_parity).
    """
    dom = self.domain
    m, n = self.shape
    rows = [list(self.row(i)) for i in range(m)]
    aug = [list(r) for r in augment] if augment is not None else None
    pivot_cols = []
    parity = 1
    pr = 0
    for pc in range(n):
        best = None
        if dom.is_exact:
            for i in range(pr, m):
                if not dom.is_zero(rows[i][pc]):
                    best = i
                    break
        else:
            mag, best = 0.0, None
            for i in range(pr, m):
                a = abs(rows[i][pc])
                if a > mag and not dom.is_zero(rows[i][pc]):
                    mag, best = a, i
        if best is None:
            continue
        if best != pr:
            rows[pr], rows[best] = rows[best], rows[pr]
            if aug is not None:
                aug[pr], aug[best] = aug[best], aug[pr]
            parity = -parity
        inv_p = dom.inv(rows[pr][pc])
        for i in range(m):
            if i == pr or dom.is_zero(rows[i][pc]):
                continue
            f = dom.mul(rows[i][pc], inv_p)
            rows[i] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(rows[i], rows[pr])]
            if aug is not None:
                aug[i] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(aug[i], aug[pr])]
        pivot_cols.append(pc)
        pr += 1
        if pr == m:
            break
    return rows, aug, pivot_cols, parity


def rank(self) -> int:
    return len(_echelon(self)[2])


def det(self):
    m, n = self.shape
    if m != n:
        raise ShapeError("determinant needs a square matrix")
    dom = self.domain
    rows, _, pivots, parity = _echelon(self)
    if len(pivots) < n:
        return dom.zero()
    d = dom.one() if parity == 1 else dom.neg(dom.one())
    for r, c in enumerate(pivots):
        d = dom.mul(d, rows[r][c])
    return d


def inverse(self):
    m, n = self.shape
    if m != n:
        raise ShapeError("inverse needs a square matrix")
    dom = self.domain
    ident = Matrix.identity(n, dom)
    rows, aug, pivots, _ = _echelon(self, augment=ident.to_rows())
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    out = [[None] * n for _ in range(n)]
    for r, c in enumerate(pivots):
        f = dom.inv(rows[r][c])
        out[c] = [dom.mul(f, a) for a in aug[r]]
    return Matrix.from_rows(out, dom)


def solve(self, rhs_cols):
    """Solve self @ X = RHS for each rhs column; None if inconsistent.

    Free variables are set to zero, making the solution deterministic.
    ``rhs_cols`` is a list of columns; returns a list of solution
    columns (length n each).
    """
    dom = self.domain
    m, n = self.shape
    aug = [[col[i] for col in rhs_cols] for i in range(m)]
    rows, aug, pivots, _ = _echelon(self, augment=aug)
    nrhs = len(rhs_cols)
    # inconsistency: zero row with nonzero rhs
    for i in range(len(pivots), m):
        if any(not dom.is_zero(a) for a in aug[i]):
            return None
    sols = [[dom.zero()] * n for _ in range(nrhs)]
    for r, c in enumerate(pivots):
        f = dom.inv(rows[r][c])
        for s in range(nrhs):
            sols[s][c] = dom.mul(f, aug[r][s])
    return sols


def nullspace(self):
    """Basis of {x : self @ x = 0}, deterministic free-variable pattern."""
    dom = self.domain
    m, n = self.shape
    rows, _, pivots, _ = _echelon(self)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = [dom.zero()] * n
        x[fc] = dom.one()
        for r, c in enumerate(pivots):
            # rows[r] is zero left of c; solve rows[r] . x = 0
            acc = rows[r][fc]
            x[c] = dom.neg(dom.mul(dom.inv(rows[r][c]), acc))
        basis.append(x)
    return basis


# -- former GF(q) fiber solver (rank) ------------------------------------------


def _reduce_fiber(rows, rhs, q, r):
    """Row-reduce an (len(rows) x r) system mod prime q.

    Returns (reduced_rows, reduced_rhs, pivot_cols, free_cols) or None
    when inconsistent.
    """
    m = len(rows)
    aug = [list(rows[i]) + [rhs[i] % q] for i in range(m)]
    piv_cols = []
    pr = 0
    for pc in range(r):
        sel = None
        for i in range(pr, m):
            if aug[i][pc] % q:
                sel = i
                break
        if sel is None:
            continue
        aug[pr], aug[sel] = aug[sel], aug[pr]
        inv = pow(aug[pr][pc], q - 2, q)
        aug[pr] = [(v * inv) % q for v in aug[pr]]
        for i in range(m):
            if i == pr or aug[i][pc] % q == 0:
                continue
            f = aug[i][pc]
            aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[pr])]
        piv_cols.append(pc)
        pr += 1
        if pr == m:
            break
    for i in range(pr, m):
        if aug[i][r] % q:
            return None
    free_cols = [c for c in range(r) if c not in piv_cols]
    return aug[: len(piv_cols)], piv_cols, free_cols


def _fiber_solutions(rows, rhs, q, r, all_solutions):
    """Solutions of one fiber system: the free-variables-zero one, or
    every solution in lexicographic free-assignment order."""
    red = _reduce_fiber(rows, rhs, q, r)
    if red is None:
        return None
    reduced, piv_cols, free_cols = red
    if not all_solutions or not free_cols:
        sol = [0] * r
        for row, pc in zip(reduced, piv_cols):
            sol[pc] = row[r]
        return [sol]
    out = []
    for assign in itertools.product(range(q), repeat=len(free_cols)):
        sol = [0] * r
        for fc, v in zip(free_cols, assign):
            sol[fc] = v
        for row, pc in zip(reduced, piv_cols):
            acc = row[r]
            for fc, v in zip(free_cols, assign):
                acc -= row[fc] * v
            sol[pc] = acc % q
        out.append(sol)
    return out


# -- former flattening-block inverse (nullity) ---------------------------------


def _int_inverse_mod(rows, q):
    """Inverse of a small integer matrix mod prime q, or None."""
    p = len(rows)
    aug = [list(rows[i]) + [1 if i == j else 0 for j in range(p)] for i in range(p)]
    pr = 0
    for pc in range(p):
        sel = None
        for i in range(pr, p):
            if aug[i][pc] % q:
                sel = i
                break
        if sel is None:
            return None
        aug[pr], aug[sel] = aug[sel], aug[pr]
        inv = pow(aug[pr][pc], q - 2, q)
        aug[pr] = [(v * inv) % q for v in aug[pr]]
        for i in range(p):
            if i != pr and aug[i][pc] % q:
                f = aug[i][pc]
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[pr])]
        pr += 1
    return [row[p:] for row in aug]


_ACTION_CACHE = {}


def _invertible_actions(m, n, p, domain, budget):
    """All distinct invertible-pair actions over a small prime field.

    Enumerates every (X0, X1) candidate in integer form, keeps those
    whose flattening blocks are all invertible with rank-one inverse
    slices, and dedupes by the block tuple (which determines the
    action).  Returns a list of (blocks, flat0, flat1); cached per
    signature.
    """
    key = (m, n, p, domain.q)
    if key in _ACTION_CACHE:
        return _ACTION_CACHE[key]
    q = domain.q
    digits = m * p * p + p * n * p
    if q**digits > budget:
        raise BudgetExceededError(
            f"direct search needs q^{digits} pair candidates, over budget {budget}"
        )
    flat1_all = list(itertools.product(range(q), repeat=p * n * p))
    actions = {}
    pairs_idx = list(itertools.product(range(m), range(n)))
    for flat0 in itertools.product(range(q), repeat=m * p * p):
        for flat1 in flat1_all:
            blocks = []
            singular = False
            inverses = []
            for i, j in pairs_idx:
                rows = [
                    [
                        (flat0[(i * p + s) * p + t] * flat1[(s * n + j) * p + t]) % q
                        for s in range(p)
                    ]
                    for t in range(p)
                ]
                inv = _int_inverse_mod(rows, q)
                if inv is None:
                    singular = True
                    break
                blocks.append(tuple(v for row in rows for v in row))
                inverses.append(inv)
            if singular:
                continue
            blocks = tuple(blocks)
            if blocks in actions:
                continue
            # rank-one factorability of every inverse slice
            factorable = True
            for t in range(p):
                if not factorable:
                    break
                for k in range(p):
                    g = [
                        [inverses[i * n + j][k][t] for j in range(n)]
                        for i in range(m)
                    ]
                    for i0 in range(m):
                        for i1 in range(i0 + 1, m):
                            for j0 in range(n):
                                for j1 in range(j0 + 1, n):
                                    if (
                                        g[i0][j0] * g[i1][j1]
                                        - g[i0][j1] * g[i1][j0]
                                    ) % q:
                                        factorable = False
                    if not factorable:
                        break
            if factorable:
                actions[blocks] = (flat0, flat1)
    out = [(blocks, f0, f1) for blocks, (f0, f1) in actions.items()]
    _ACTION_CACHE[key] = out
    return out


def nullity_direct_search(a: Hypermatrix, budget=DEFAULT_EXHAUSTIVE_COMPLETIONS):
    """Oracle: exhaust invertible pairs over GF(q) and maximize the
    number of zero depth slices of the pair's action on ``a``, scoring
    one action at a time; the winner's outer inverse is recovered from
    its pair."""
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("direct search needs a GF(q) domain")
    oriented, tcount = orient_depth_min(a)
    m, n, p = oriented.shape
    q = dom.q
    av = oriented.data
    fibers = [av[ij * p : (ij + 1) * p] for ij in range(m * n)]
    best = None
    for blocks, flat0, flat1 in _invertible_actions(m, n, p, dom, budget):
        # entry (i, j, k) of the action is row k of block (i, j) times the
        # input fiber at (i, j)
        zero_slices = []
        for k in range(p):
            for fij, fiber in zip(blocks, fibers):
                if sum(map(operator.mul, fij[k * p : (k + 1) * p], fiber)) % q:
                    break
            else:
                zero_slices.append(k)
        if best is None or len(zero_slices) > len(best[1]):
            best = ((flat0, flat1), zero_slices)
    (flat0, flat1), zero_slices = best
    pair = HyperPair(
        Hypermatrix((m, p, p), list(flat0), dom),
        Hypermatrix((p, n, p), list(flat1), dom),
    )
    return NullityCertificate(
        pair=pair, outer_inverse=recover_outer_inverse(pair),
        zero_set=tuple(zero_slices), nullity=len(zero_slices),
        strategy="direct-search", transposes_applied=tcount,
    )


def best_action_by_stack(blocks, data, m, n, p, q):
    """The pick of the direct search as it was when it scored the action
    stack in one int64 array product: the first argmax of the actions'
    zero-slice counts on the input with flat ``data``, and that action's
    zero slices.  ``blocks`` holds each action's tuple of flat blocks."""
    stack = np.array(list(blocks), dtype=np.int64).reshape(-1, m * n, p, p)
    fibers = np.array(data, dtype=np.int64).reshape(m * n, p, 1)
    zero = (stack @ fibers % q == 0).all(axis=1)[..., 0]
    best = int(zero.sum(axis=1).argmax())
    return best, zero[best].nonzero()[0].tolist()


# -- former three-identity sandwich check (inverse) ----------------------------


def sandwich_check(pair, inverse, probes) -> float:
    """Max deviation over probes of Prod(C, Prod(A, X, B), D) from X,
    including the two transpose conjugation identities."""
    a, b = pair.a, pair.b
    c, d = inverse.c, inverse.d
    worst = 0.0
    for x in probes:
        direct = bm_product(c, bm_product(a, x, b), d)
        worst = max(worst, direct.max_deviation(x))
        xt = x.transpose()
        left = bm_product(
            bm_product(xt, b.transpose(), a.transpose()), d.transpose(), c.transpose()
        )
        worst = max(worst, left.max_deviation(xt))
        xt2 = xt.transpose()
        right = bm_product(
            d.transpose().transpose(),
            c.transpose().transpose(),
            bm_product(b.transpose().transpose(), a.transpose().transpose(), xt2),
        )
        worst = max(worst, right.max_deviation(xt2))
    return worst


# -- former per-probe sandwich check and deviation (inverse, core) -------------


def sandwich_check_per_probe(pair, inverse, probes) -> float:
    """Max deviation over probes of Prod(C, Prod(A, X, B), D) from X.

    The transpose conjugates of this identity need no probe of their
    own: T(Prod(A, B, C)) = Prod(T(B), T(C), T(A)), so they re-index the
    same equations.
    """
    a, b = pair.a, pair.b
    c, d = inverse.c, inverse.d
    worst = 0.0
    for x in probes:
        worst = max(worst, bm_product(c, bm_product(a, x, b), d).max_deviation(x))
    return worst


def max_deviation(self, other) -> float:
    self._check_binary(other)
    magnitude = self.domain.magnitude
    return max(
        (magnitude(a - b) for a, b in zip(self.data, other.data)), default=0.0
    )


# -- former per-scalar ternary products (products) ----------------------------


def scalar_bm_product(a0: Hypermatrix, a1: Hypermatrix, a2: Hypermatrix) -> Hypermatrix:
    """Ternary product of a conformable triple; exact in exact domains."""
    n0, n1, n2, ell = conformability(a0, a1, a2)
    dom = a0.domain
    add, mul = dom.add, dom.mul
    out = []
    for i0 in range(n0):
        for i1 in range(n1):
            for i2 in range(n2):
                acc = dom.zero()
                for j in range(ell):
                    acc = add(
                        acc,
                        mul(mul(a0[i0, j, i2], a1[i0, i1, j]), a2[j, i1, i2]),
                    )
                out.append(acc)
    return Hypermatrix((n0, n1, n2), out, dom)


def scalar_general_bm_product(
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
    add, mul = dom.add, dom.mul
    zero = dom.zero()
    # skip zero background entries; delta-like backgrounds are the common case
    support = [
        (j0, j1, j2, background[j0, j1, j2])
        for j0 in range(ell)
        for j1 in range(ell)
        for j2 in range(ell)
        if not dom.is_zero(background[j0, j1, j2])
    ]
    out = []
    for i0 in range(n0):
        for i1 in range(n1):
            for i2 in range(n2):
                acc = zero
                for j0, j1, j2, w in support:
                    acc = add(
                        acc,
                        mul(
                            mul(mul(a0[i0, j0, i2], a1[i0, i1, j1]), a2[j2, i1, i2]),
                            w,
                        ),
                    )
                out.append(acc)
    return Hypermatrix((n0, n1, n2), out, dom)


# -- former slice-reduction hypothesis check ---------------------------------


def _reduction_sides(x0, x1, x2, rewrite):
    """Left and right sides of the reduction hypothesis per depth index."""
    dom = x0.domain
    m, ell, p = x0.shape
    n = x1.shape[1]
    tau = rewrite.tau
    others = [t for t in range(ell) if t != tau]
    us, vs = rewrite.us, rewrite.vs
    lhs, rhs = [], []
    for k in range(p):
        lmat = Matrix.from_function(
            m,
            n,
            dom,
            lambda i, j: dom.mul(
                dom.mul(x0[i, tau, k], x1[i, j, tau]), x2[tau, j, k]
            ),
        )

        def rentry(i, j, k=k):
            acc = dom.zero()
            for t in others:
                u = dom.coerce(us[t][i])
                v = dom.coerce(vs[t][j])
                inner = dom.add(
                    dom.add(
                        dom.mul(dom.mul(u, x0[i, tau, k]), dom.mul(x2[tau, j, k], v)),
                        dom.mul(dom.mul(u, x0[i, tau, k]), x2[t, j, k]),
                    ),
                    dom.mul(dom.mul(x0[i, t, k], x2[tau, j, k]), v),
                )
                acc = dom.add(acc, dom.mul(x1[i, j, t], inner))
            return acc

        rhs.append(Matrix.from_function(m, n, dom, rentry))
        lhs.append(lmat)
    return lhs, rhs


def check_reduction_hypothesis(x0, x1, x2, rewrite):
    """Validate the reduction hypothesis for every depth index; raises
    ReductionHypothesisError carrying the first offending (k, entry)."""
    dom = x0.domain
    lhs, rhs = _reduction_sides(x0, x1, x2, rewrite)
    if dom.is_exact:
        for k, (lm, rm) in enumerate(zip(lhs, rhs)):
            if not lm.equals(rm):
                for i in range(lm.shape[0]):
                    for j in range(lm.shape[1]):
                        if not dom.eq(lm[i, j], rm[i, j]):
                            raise ReductionHypothesisError(
                                f"hypothesis fails at depth {k}, entry ({i},{j})",
                                k=k,
                                entry=(i, j),
                            )
        return 0.0
    dev = sum(lm.sub(rm).norm() ** 2 for lm, rm in zip(lhs, rhs)) ** 0.5
    scale = (
        1.0
        + sum(lm.norm() ** 2 for lm in lhs) ** 0.5
        + sum(rm.norm() ** 2 for rm in rhs) ** 0.5
    )
    if dev > dom.tol * scale * 100:
        for k, (lm, rm) in enumerate(zip(lhs, rhs)):
            for i in range(lm.shape[0]):
                for j in range(lm.shape[1]):
                    if abs(lm[i, j] - rm[i, j]) > dom.tol * scale * 10:
                        raise ReductionHypothesisError(
                            f"hypothesis fails at depth {k}, entry ({i},{j}), "
                            f"deviation {abs(lm[i, j] - rm[i, j]):.3e}",
                            k=k,
                            entry=(i, j),
                        )
        raise ReductionHypothesisError(
            f"hypothesis deviation {dev:.3e} exceeds tolerance", k=None, entry=None
        )
    return dev


# -- former entry-wise inverse-pair layer (inverse) -----------------------------


def flatten(pair: HyperPair) -> FlatteningMatrix:
    m, n, p = pair.dims
    dom = pair.domain
    blocks = []
    for i in range(m):
        for j in range(n):
            blocks.append(
                Matrix.from_function(
                    p,
                    p,
                    dom,
                    lambda t, s, i=i, j=j: dom.mul(pair.a[i, s, t], pair.b[s, j, t]),
                )
            )
    return FlatteningMatrix(m=m, n=n, p=p, blocks=blocks)


def _rank_one_violation(g: Matrix, tol):
    """First nonzero 2x2 minor of g, or None when rank <= 1."""
    dom = g.domain
    m, n = g.shape
    for i0 in range(m):
        for i1 in range(i0 + 1, m):
            for j0 in range(n):
                for j1 in range(j0 + 1, n):
                    t1 = dom.mul(g[i0, j0], g[i1, j1])
                    t2 = dom.mul(g[i0, j1], g[i1, j0])
                    minor = dom.sub(t1, t2)
                    if dom.is_exact:
                        bad = not dom.is_zero(minor)
                    else:
                        bad = abs(minor) > tol * (1.0 + abs(t1) + abs(t2))
                    if bad:
                        return (i0, i1, j0, j1)
    return None


def _inverse_blocks(flat: FlatteningMatrix):
    """Per-block inverses; (None, (i, j)) on the first singular block."""
    inv = []
    for i in range(flat.m):
        for j in range(flat.n):
            blk = flat.block(i, j)
            dom = blk.domain
            try:
                candidate = blk.inverse()
            except ZeroDivisionError:
                return None, (i, j)
            if not dom.is_exact:
                check = blk.matmul(candidate)
                if check.max_deviation(Matrix.identity(flat.p, dom)) > max(
                    dom.tol, 1e-12
                ) * 1e3 * (1.0 + blk.norm()):
                    return None, (i, j)
            inv.append(candidate)
    return inv, None


def _factor_slices(pair: HyperPair, inv_blocks):
    """The m x n matrices G_{t,k}[i,j] = block(i,j)^{-1}[k, t]."""
    m, n, p = pair.dims
    dom = pair.domain
    out = {}
    for t in range(p):
        for k in range(p):
            out[(t, k)] = Matrix.from_function(
                m, n, dom, lambda i, j, t=t, k=k: inv_blocks[i * n + j][k, t]
            )
    return out


def pair_invertible(pair: HyperPair) -> InvertibilityReport:
    """Decide membership in the hypermatrix general linear set.

    True iff every flattening block has nonzero determinant and, for
    every (t, k), the m x n matrix of inverse-block entries
    G_{t,k}[i,j] = F^{-1}_{(i,j)}[k,t] is rank one or zero.  The
    diagnostics name the first singular block or the first nonzero
    2x2 minor of a failing G_{t,k}.
    """
    flat = flatten(pair)
    inv_blocks, bad = _inverse_blocks(flat)
    if inv_blocks is None:
        return InvertibilityReport(
            invertible=False,
            reason=f"flattening block {bad} is singular",
            singular_block=bad,
        )
    dom = pair.domain
    tol = dom.tol if not dom.is_exact else 0.0
    for (t, k), g in _factor_slices(pair, inv_blocks).items():
        violation = _rank_one_violation(g, tol)
        if violation is not None:
            return InvertibilityReport(
                invertible=False,
                reason=(
                    f"inverse-block slice (t={t}, k={k}) is not rank one: "
                    f"nonzero minor at rows {violation[:2]}, cols {violation[2:]}"
                ),
                bad_minor={"t": t, "k": k, "indices": list(violation)},
            )
    return InvertibilityReport(invertible=True)


def _factor_rank_one(g: Matrix, tol):
    """Factor a rank-<=1 matrix as (c_i) x (d_j), d gauge-normalized so
    its first nonzero entry (scanning columns ascending) is one."""
    dom = g.domain
    m, n = g.shape
    j_star = None
    i_star = None
    for j in range(n):
        for i in range(m):
            if not dom.is_zero(g[i, j]):
                j_star, i_star = j, i
                break
        if j_star is not None:
            break
    if j_star is None:
        return [dom.zero()] * m, [dom.zero()] * n
    anchor = g[i_star, j_star]
    c = [g[i, j_star] for i in range(m)]
    d = [dom.div(g[i_star, j], anchor) for j in range(n)]
    for i in range(m):
        for j in range(n):
            prod = dom.mul(c[i], d[j])
            if dom.is_exact:
                ok = dom.eq(prod, g[i, j])
            else:
                ok = abs(prod - g[i, j]) <= tol * (1.0 + abs(prod) + abs(g[i, j]))
            if not ok:
                raise FactorabilityError(
                    f"entries do not factor: position ({i},{j})",
                    minor=(i, j),
                )
    return c, d


def recover_outer_inverse(pair: HyperPair) -> OuterInversePair:
    """Recover (C, D) from the inverse flattening blocks.

    Each slice G_{t,k} factors as C[:,t,k] x D[t,:,k]; the gauge scale
    cancels in every product C[i,t,k] D[t,j,k], which is all the
    sandwich identity sees, so the fixed first-nonzero-d convention is
    harmless.  Raises FactorabilityError when a slice is not rank one.
    """
    m, n, p = pair.dims
    dom = pair.domain
    flat = flatten(pair)
    inv_blocks, bad = _inverse_blocks(flat)
    if inv_blocks is None:
        raise FactorabilityError(
            f"flattening block {bad} is singular; pair not invertible", block=bad
        )
    tol = dom.tol if not dom.is_exact else 0.0
    c_entries = {}
    d_entries = {}
    for (t, k), g in _factor_slices(pair, inv_blocks).items():
        try:
            c_vec, d_vec = _factor_rank_one(g, tol)
        except FactorabilityError as exc:
            raise FactorabilityError(
                f"slice (t={t}, k={k}) is not rank one; pair not invertible",
                block=(t, k),
                minor=exc.minor,
            ) from exc
        for i in range(m):
            c_entries[(i, t, k)] = c_vec[i]
        for j in range(n):
            d_entries[(t, j, k)] = d_vec[j]
    c = Hypermatrix.from_function(
        (m, p, p), dom, lambda i, t, k: c_entries[(i, t, k)]
    )
    d = Hypermatrix.from_function(
        (p, n, p), dom, lambda t, j, k: d_entries[(t, j, k)]
    )
    return OuterInversePair(c, d)


# -- former via-rank nullity (nullity) ---------------------------------------


def _pad_triple(d: DecompositionTriple, p) -> DecompositionTriple:
    if d.ell == p:
        return d
    if d.ell > p:
        raise ShapeError(
            f"decomposition has contracted dimension {d.ell} above the depth "
            f"extent {p}; transpose-reduce first"
        )
    dom = d.x0.domain
    m = d.x0.shape[0]
    n = d.x1.shape[1]
    zero = dom.zero()
    ell = d.ell
    x0 = Hypermatrix.from_function(
        (m, p, p), dom, lambda i, t, k: d.x0[i, t, k] if t < ell else zero
    )
    x1 = Hypermatrix.from_function(
        (m, n, p), dom, lambda i, j, t: d.x1[i, j, t] if t < ell else zero
    )
    x2 = Hypermatrix.from_function(
        (p, n, p), dom, lambda t, j, k: d.x2[t, j, k] if t < ell else zero
    )
    return DecompositionTriple(x0, x1, x2, d.support)


def _completion_candidates(m, n, p, unused, domain, retries, exhaustive, seed):
    """Yield (u_fill, w_fill) dictionaries: per unused slice index, the
    column slice for the first leg (m x p values) and the row slice for
    the third leg (n x p values).

    Order: the identity pattern first (the given legs alone when no
    slice is unused); with ``exhaustive`` every assignment over GF(q) in
    lexicographic order; otherwise seeded uniform-style random slices
    (constant along the free index), which keep the flattening inverse
    factorable whenever anything does.
    """
    one, zero = domain.one(), domain.zero()
    ident_u = {
        t: [[one if t == k else zero for k in range(p)] for _ in range(m)]
        for t in unused
    }
    ident_w = {
        t: [[one if t == k else zero for k in range(p)] for _ in range(n)]
        for t in unused
    }
    yield ident_u, ident_w
    if not unused:
        return
    if exhaustive:
        q = domain.q
        per_u = m * p
        per_w = n * p
        for flat in itertools.product(range(q), repeat=len(unused) * (per_u + per_w)):
            u_fill, w_fill = {}, {}
            off = 0
            for t in unused:
                u_fill[t] = [
                    list(flat[off + i * p : off + (i + 1) * p]) for i in range(m)
                ]
                off += per_u
            for t in unused:
                w_fill[t] = [
                    list(flat[off + j * p : off + (j + 1) * p]) for j in range(n)
                ]
                off += per_w
            yield u_fill, w_fill
        return
    rng = random.Random(seed)
    for _ in range(retries):
        u_fill, w_fill = {}, {}
        for t in unused:
            row = [domain.random_nonzero(rng) for _ in range(p)]
            u_fill[t] = [list(row) for _ in range(m)]
            row_w = [domain.random_nonzero(rng) for _ in range(p)]
            w_fill[t] = [list(row_w) for _ in range(n)]
        yield u_fill, w_fill


def hyper_nullity_necessity(
    a: Hypermatrix,
    decomp: DecompositionTriple,
    retries=DEFAULT_COMPLETION_RETRIES,
    exhaustive_budget=DEFAULT_EXHAUSTIVE_COMPLETIONS,
    seed=0,
    strategy_label="via-rank",
    transposes_applied=0,
) -> NullityCertificate:
    """From an r-term decomposition of ``a`` build a certificate pair
    exhibiting p - r zero depth slices.

    The unused column slices of the first leg and row slices of the
    third leg are completed until the completed pair is invertible; its
    recovered outer inverse is the certificate pair, which maps ``a``
    to the (zero-padded) middle leg.  Completion failure is surfaced as
    CompletionError, never silently accepted.
    """
    m, n, p = a.shape
    if p != min(a.shape):
        raise ShapeError(
            f"necessity expects the depth extent to be minimal, shape {a.shape}"
        )
    dom = a.domain
    d = _pad_triple(decomp, p)
    rec = d.reconstruct()
    tol_scale = 0.0 if dom.is_exact else dom.tol * (1.0 + a.norm()) * 1e3
    if dom.is_exact:
        if not rec.equals(a):
            raise CertificateError("decomposition does not reconstruct the input")
    elif rec.sub(a).norm() > tol_scale:
        raise CertificateError(
            f"decomposition residual {rec.sub(a).norm():.3e} too large"
        )
    s = d.support
    for t in s:
        term_zero = (
            all(dom.is_zero(d.x1[i, j, t]) for i in range(m) for j in range(n))
            or all(dom.is_zero(d.x0[i, t, k]) for i in range(m) for k in range(p))
            or all(dom.is_zero(d.x2[t, j, k]) for j in range(n) for k in range(p))
        )
        if term_zero:
            raise CertificateError(
                f"support term {t} is degenerate (a zero slice); the "
                "certificate overstates the rank"
            )
    unused = [t for t in range(p) if t not in s]
    zero_set = tuple(unused)
    # column t of flattening block (i, j) reads only slice t of both legs,
    # so a zero support column can never be fixed by completing the
    # unused slices: reject such decompositions early
    for idx, block in enumerate(flatten(HyperPair(d.x0, d.x2)).blocks):
        for t_sup in s:
            if all(map(dom.is_zero, block.data[t_sup::p])):
                i, j = divmod(idx, n)
                raise CompletionError(
                    f"flattening block ({i},{j}) has a structurally zero "
                    f"support column {t_sup}; no completion is invertible"
                )
    exhaustive = (
        dom.kind == "gf" and dom.q ** (len(unused) * p * (m + n)) <= exhaustive_budget
    )
    # the error names the distinct completions tried, the identity included
    distinct = set()
    for u_fill, w_fill in _completion_candidates(
        m, n, p, unused, dom, retries, exhaustive, seed
    ):
        u_data, w_data = list(d.x0.data), list(d.x2.data)
        for t in unused:
            for i in range(m):
                u_data[(i * p + t) * p : (i * p + t + 1) * p] = u_fill[t][i]
            for j in range(n):
                w_data[(t * n + j) * p : (t * n + j + 1) * p] = w_fill[t][j]
        distinct.add((tuple(u_data), tuple(w_data)))
        u = Hypermatrix((m, p, p), u_data, dom)
        w = Hypermatrix((p, n, p), w_data, dom)
        candidate = HyperPair(u, w)
        if not pair_invertible(candidate):
            continue
        certificate_pair_inv = recover_outer_inverse(candidate)
        cert_pair = HyperPair(certificate_pair_inv.c, certificate_pair_inv.d)
        if not pair_invertible(cert_pair):
            continue
        g = cert_pair.act(a)
        bad = [
            k for k in zero_set if not _slice_is_zero(g, k, max(tol_scale, dom.tol))
        ]
        if bad:
            if dom.is_exact:
                raise CertificateError(
                    f"substitution broke the identity at slices {bad}"
                )
            continue
        residual = None if dom.is_exact else g.sub(d.x1).norm() / (1.0 + a.norm())
        return NullityCertificate(
            pair=cert_pair,
            outer_inverse=OuterInversePair(u, w, gauge="completed-legs"),
            zero_set=zero_set,
            nullity=len(zero_set),
            strategy=strategy_label,
            transposes_applied=transposes_applied,
            residual=residual,
        )
    if not unused:
        tried = "only the given legs, since no slice is unused"
    elif exhaustive:
        tried = "identity and every assignment of the unused slices"
    else:
        tried = f"identity and {len(distinct) - 1} distinct uniform-random completions"
    raise CompletionError(
        f"no invertible completion of the decomposition legs was found; tried {tried}"
    )


def nullity(
    a: Hypermatrix,
    strategy="via-rank",
    budget=DEFAULT_EXHAUSTIVE_COMPLETIONS,
    decomposition: DecompositionTriple | None = None,
    attempts=DEFAULT_DECOMPOSITION_ATTEMPTS,
    seed=0,
    **pipeline_opts,
) -> NullityCertificate:
    """Compute a nullity certificate for ``a``.

    "via-rank" converts a rank certificate: exhaustive exact rank over
    GF(q) (retrying across decompositions until one admits an
    invertible completion), the numeric reduction pipeline over complex
    doubles (for any shape: it starts from the identity-pair
    decomposition), or a caller-provided decomposition; over the rationals
    without one, only the zero depth slices of the input itself are
    certified (there is no exact rational rank oracle here, so this is
    a lower bound).  "direct-search" is the exhaustive oracle over tiny
    prime fields.  ``budget`` caps every exhaustive enumeration either
    strategy runs over GF(q).
    """
    oriented, tcount = orient_depth_min(a)
    m, n, p = oriented.shape
    dom = a.domain
    if strategy == "direct-search":
        return nullity_direct_search(a, budget=budget)
    if strategy != "via-rank":
        raise ValueError(f"unknown strategy {strategy!r}")
    if oriented.is_zero():
        return _zero_pair_certificate(oriented, tcount)
    if decomposition is not None:
        return hyper_nullity_necessity(
            oriented, decomposition, seed=seed, transposes_applied=tcount
        )
    if dom.kind == "gf":
        cert = bm_rank_exhaustive(oriented, budget=budget)
        r = cert.r
        # The rank-to-nullity transfer needs a decomposition whose legs
        # admit an invertible completion.  Over a tiny finite field that
        # can fail at the exact rank (no genericity to lean on), in which
        # case the true nullity is smaller: climb through the term counts
        # until a completion exists.  A pair achieving z zero slices
        # always yields a completable (p - z)-term decomposition, so the
        # first level that completes matches the exhaustive oracle.
        for r_level in range(max(r, 1), p + 1):
            if r_level == p:
                full = rank_upper_min(oriented)
                out = hyper_nullity_necessity(
                    oriented, full.triple, seed=seed, transposes_applied=tcount
                )
                out.strategy = f"via-rank (rank {r}, transfer level {r_level})"
                return out
            tried = 0
            found = None
            for triple in iter_bm_decompositions(
                oriented, r_level, budget=budget, all_solutions=True
            ):
                tried += 1
                if tried > attempts:
                    break
                try:
                    found = hyper_nullity_necessity(
                        oriented, triple, seed=seed, transposes_applied=tcount
                    )
                    break
                except CompletionError:
                    continue
            if found is not None:
                found.strategy = f"via-rank (rank {r}, transfer level {r_level})"
                return found
        raise CompletionError(
            f"no decomposition at any term count r..{p} admitted an "
            "invertible completion"
        )
    if dom.kind == "complex":
        from bmalg.rank import generic_rank_pipeline

        cert = generic_rank_pipeline(oriented, seed=seed, **pipeline_opts)
        return hyper_nullity_necessity(
            oriented, cert.triple, seed=seed, transposes_applied=tcount
        )
    # rational: certify the visible zero depth slices through the
    # identity-pair decomposition restricted to the nonzero ones
    j0, j1 = identity_pair(m, n, p, dom)
    support = tuple(
        k
        for k in range(p)
        if not all(
            dom.is_zero(oriented[i, j, k]) for i in range(m) for j in range(n)
        )
    )
    triple = DecompositionTriple(j0, oriented, j1, support)
    return hyper_nullity_necessity(
        oriented, triple, seed=seed, transposes_applied=tcount,
        strategy_label="via-rank (zero-slice lower bound)",
    )


# -- former hyperdeterminant, slice rewrite and pipeline (rank) ---------------


def hyperdet_2x2x2(b: Hypermatrix):
    """b001 b010 b100 b111 - b101 b110 b000 b011; vanishing characterizes
    depth-slice diagonal dependence of an all-nonzero 2x2x2."""
    if b.shape != (2, 2, 2):
        raise ShapeError(f"need a 2x2x2 hypermatrix, found {b.shape}")
    dom = b.domain
    pos = dom.mul(
        dom.mul(b[0, 0, 1], b[0, 1, 0]), dom.mul(b[1, 0, 0], b[1, 1, 1])
    )
    neg = dom.mul(
        dom.mul(b[1, 0, 1], b[1, 1, 0]), dom.mul(b[0, 0, 0], b[0, 1, 1])
    )
    return dom.sub(pos, neg)


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
    us, vs = rewrite.us, rewrite.vs
    new_x0 = Hypermatrix.from_function(
        (m, ell - 1, p),
        dom,
        lambda i, tn, k: dom.add(
            dom.mul(dom.coerce(us[others[tn]][i]), x0[i, tau, k]),
            x0[i, others[tn], k],
        ),
    )
    new_x1 = Hypermatrix.from_function(
        (m, n, ell - 1), dom, lambda i, j, tn: x1[i, j, others[tn]]
    )
    new_x2 = Hypermatrix.from_function(
        (ell - 1, n, p),
        dom,
        lambda tn, j, k: dom.add(
            x2[others[tn], j, k],
            dom.mul(x2[tau, j, k], dom.coerce(vs[others[tn]][j])),
        ),
    )
    reduced = (new_x0, new_x1, new_x2)
    check_product_preservation((x0, x1, x2), reduced, tau)
    return reduced


def triple_reduction_witness(
    x0, x1, x2, tau, tol=None, restarts=20, iters=200, seed=0
):
    """Alternating least squares for the general reduction hypothesis of
    an arbitrary conformable triple (not just the identity-pair form).

    The right side is linear in the u-family for fixed v (decoupled by
    row) and linear in the v-family for fixed u (decoupled by column).
    Returns SliceRewriteData or None.
    """
    dom = x0.domain
    if dom.kind != "complex":
        raise ValueError("triple_reduction_witness needs the complex domain")
    if tol is None:
        tol = dom.tol or 1e-9
    m, ell, p = x0.shape
    n = x1.shape[1]
    if ell < 2:
        return None
    others = [t for t in range(ell) if t != tau]
    no = len(others)
    ax = x0.to_numpy()
    ay = x1.to_numpy()
    az = x2.to_numpy()
    lhs = np.einsum("ik,ij,jk->ijk", ax[:, tau, :], ay[:, :, tau], az[tau, :, :])
    scale = 1.0 + float(np.linalg.norm(lhs))
    rng = random.Random(seed)

    def residual_of(u, v):
        acc = np.zeros((m, n, p), dtype=complex)
        for idx, t in enumerate(others):
            term = (
                u[:, idx, None, None] * ax[:, None, tau, :] * az[None, tau, :, :]
                * v[None, idx, :, None]
                + u[:, idx, None, None] * ax[:, None, tau, :] * az[None, t, :, :]
                + ax[:, None, t, :] * az[None, tau, :, :] * v[None, idx, :, None]
            )
            acc += ay[:, :, t, None] * term
        return float(np.linalg.norm(lhs - acc))

    best = None
    for _ in range(max(1, restarts)):
        v = np.array(
            [[dom.random(rng) for _ in range(n)] for _ in others], dtype=complex
        )
        u = np.zeros((m, no), dtype=complex)
        prev = None
        for it in range(max(1, iters)):
            for i in range(m):
                cols = []
                for idx, t in enumerate(others):
                    coef = ay[i, :, t, None] * ax[i, tau, None, :] * (
                        az[tau, :, :] * v[idx, :, None] + az[t, :, :]
                    )
                    cols.append(coef.ravel())
                const = np.zeros((n, p), dtype=complex)
                for idx, t in enumerate(others):
                    const += (
                        ay[i, :, t, None]
                        * ax[i, t, None, :]
                        * az[tau, :, :]
                        * v[idx, :, None]
                    )
                g = np.column_stack(cols)
                u[i], *_ = np.linalg.lstsq(
                    g, (lhs[i] - const).ravel(), rcond=None
                )
            for j in range(n):
                cols = []
                for idx, t in enumerate(others):
                    coef = ay[:, j, t, None] * az[None, tau, j, :] * (
                        u[:, idx, None] * ax[:, tau, :] + ax[:, t, :]
                    )
                    cols.append(coef.ravel())
                const = np.zeros((m, p), dtype=complex)
                for idx, t in enumerate(others):
                    const += (
                        ay[:, j, t, None]
                        * u[:, idx, None]
                        * ax[:, tau, :]
                        * az[None, t, j, :]
                    )
                h = np.column_stack(cols)
                v[:, j], *_ = np.linalg.lstsq(
                    h, (lhs[:, j, :] - const).ravel(), rcond=None
                )
            res = residual_of(u, v)
            if res <= tol * scale:
                break
            if prev is not None and prev - res < 1e-4 * prev and it > 20:
                break
            prev = res
        res = residual_of(u, v)
        if best is None or res < best[0]:
            best = (res, u.copy(), v.copy())
        if res <= tol * scale:
            break
    res, u, v = best
    if res > tol * scale:
        return None
    return SliceRewriteData(
        tau=tau,
        us={t: [complex(x) for x in u[:, idx]] for idx, t in enumerate(others)},
        vs={t: [complex(x) for x in v[idx, :]] for idx, t in enumerate(others)},
    )


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
        taus = [tau] if tau is not None else list(range(ell - 1, -1, -1))
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


# -- former scalar exhaustive searches (rank, dependence) -----------------------


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
    av = a.data  # ints mod q, flat (i, j, k)

    def entry(i, j, k):
        return av[(i * n + j) * p + k]

    # fiber layouts per solved leg: (fiber keys, row builder, rhs builder,
    # flat assembler)
    if solve_leg == 2:
        fiber_keys = [(j, k) for j in range(n) for k in range(p)]

        def fiber(legs, key):
            j, k = key
            x0, x1 = legs[0], legs[1]
            rows = [
                [(x0[(i * r + t) * p + k] * x1[(i * n + j) * r + t]) % q
                 for t in range(r)]
                for i in range(m)
            ]
            return rows, [entry(i, j, k) for i in range(m)]

        def assemble(legs, sol):
            flat = tuple(
                sol[(j, k)][t] for t in range(r) for j in range(n) for k in range(p)
            )
            return _assemble_triple(a, r, legs[0], legs[1], flat)

    elif solve_leg == 1:
        fiber_keys = [(i, j) for i in range(m) for j in range(n)]

        def fiber(legs, key):
            i, j = key
            x0, x2 = legs[0], legs[2]
            rows = [
                [(x0[(i * r + t) * p + k] * x2[(t * n + j) * p + k]) % q
                 for t in range(r)]
                for k in range(p)
            ]
            return rows, [entry(i, j, k) for k in range(p)]

        def assemble(legs, sol):
            flat = tuple(
                sol[(i, j)][t] for i in range(m) for j in range(n) for t in range(r)
            )
            return _assemble_triple(a, r, legs[0], flat, legs[2])

    else:
        fiber_keys = [(i, k) for i in range(m) for k in range(p)]

        def fiber(legs, key):
            i, k = key
            x1, x2 = legs[1], legs[2]
            rows = [
                [(x1[(i * n + j) * r + t] * x2[(t * n + j) * p + k]) % q
                 for t in range(r)]
                for j in range(n)
            ]
            return rows, [entry(i, j, k) for j in range(n)]

        def assemble(legs, sol):
            flat = tuple(
                sol[(i, k)][t] for i in range(m) for t in range(r) for k in range(p)
            )
            return _assemble_triple(a, r, flat, legs[1], legs[2])

    for flat_a in itertools.product(range(q), repeat=sizes[enum_legs[0]]):
        for flat_b in itertools.product(range(q), repeat=sizes[enum_legs[1]]):
            legs = {enum_legs[0]: flat_a, enum_legs[1]: flat_b}
            options = []
            ok = True
            for key in fiber_keys:
                rows, rhs = fiber(legs, key)
                sols = _fiber_solutions(rows, rhs, q, r, all_solutions)
                if sols is None:
                    ok = False
                    break
                options.append([(key, s) for s in sols])
            if not ok:
                continue
            for combo in itertools.product(*options):
                yield assemble(legs, dict(combo))


def cp_rank_exhaustive(a: Hypermatrix, budget=DEFAULT_RANK_BUDGET) -> RankCertificate:
    """Exact CP-constrained rank over GF(q): the slice legs are pinned to
    the rank-one Kronecker form, so this exhausts vector triples."""
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("exhaustive rank search needs a GF(q) domain")
    q = dom.q
    m, n, p = a.shape
    if a.is_zero():
        return RankCertificate(kind="exact", r=0, params={"q": q, "cp": True})
    av = a.data
    cap = p * min(m, n)
    for r in range(1, cap + 1):
        digits = r * (m + n)
        if q**digits > budget:
            raise BudgetExceededError(
                f"CP enumeration q^{digits} exceeds budget {budget}"
            )
        for xs in itertools.product(range(q), repeat=r * m):
            for ys in itertools.product(range(q), repeat=r * n):
                zsol = {}
                ok = True
                for k in range(p):
                    rows = [
                        [(xs[t * m + i] * ys[t * n + j]) % q for t in range(r)]
                        for i in range(m)
                        for j in range(n)
                    ]
                    rhs = [av[(i * n + j) * p + k] for i in range(m) for j in range(n)]
                    sols = _fiber_solutions(rows, rhs, q, r, False)
                    if sols is None:
                        ok = False
                        break
                    zsol[k] = sols[0]
                if not ok:
                    continue
                x0 = Hypermatrix.from_function(
                    (m, r, p), dom, lambda i, t, k: xs[t * m + i]
                )
                x1 = Hypermatrix.from_function(
                    (m, n, r), dom, lambda i, j, t: ys[t * n + j]
                )
                x2 = Hypermatrix.from_function(
                    (r, n, p), dom, lambda t, j, k: zsol[k][t]
                )
                triple = DecompositionTriple(x0, x1, x2, tuple(range(r)))
                if not triple.reconstruct().equals(a):
                    raise CertificateError("CP search returned a bad decomposition")
                return RankCertificate(
                    kind="exact",
                    r=r,
                    triple=triple,
                    params={"q": q, "cp": True, "exhausted_below": r},
                )
    raise CertificateError("CP search exhausted its rank cap without success")


def is_dependent_exact(family, budget=DEFAULT_SEARCH_BUDGET):
    """Exhaustive witness search over GF(q).

    Returns the first nontrivial witness with zero residual in
    lexicographic assignment order, or None, which over a finite field
    proves the family independent.  Families of size one are independent
    by definition (the single term must itself vanish).
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
    slices = [[fam[i, j] for i in range(m) for j in range(n)] for fam in family]
    for assignment in itertools.product(range(q), repeat=digits):
        xs = [list(assignment[t * m : (t + 1) * m]) for t in range(p)]
        off = p * m
        ys = [list(assignment[off + t * n : off + (t + 1) * n]) for t in range(p)]
        nontrivial = False
        ok = True
        for i in range(m):
            if not ok:
                break
            for j in range(n):
                acc = 0
                for t in range(p):
                    v = xs[t][i] * slices[t][i * n + j] * ys[t][j]
                    if v % q:
                        nontrivial = True
                    acc += v
                if acc % q:
                    ok = False
                    break
        if ok and nontrivial:
            return DiagonalWitness(xs, ys, residual=0.0)
    return None


# -- former depth-slice and two-slice witnesses (rank) -------------------------


def depth_slice_witness(
    b: Hypermatrix, tau, tol=None, restarts=50, iters=500, seed=0
):
    """Alternating least squares for the affine depth-slice dependence.

    With V fixed the relation is linear in each row of U and decouples
    row by row; with U fixed it decouples column by column.  Random
    restarts with fresh V initializations; the first restart whose
    residual reaches tol * ||B||_F is the witness, None when none does
    within the budget.

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
        return float(np.linalg.norm(target - acc))

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
            res = residual_of(u, v)
            if res <= tol * target_norm:
                us, vs = dict(zip(others, u.T.tolist())), dict(zip(others, v.tolist()))
                return DepthSliceWitness(tau=tau, u_cols=us, v_rows=vs, residual=res)
            if prev is not None and prev - res < 1e-4 * prev and it > 20:
                break
            prev = res
    return None


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


# -- former batched candidate scan (core) -------------------------------------

# Most array entries per block of candidates in the batched scans below.
BATCH_ENTRIES = 1 << 16


def lex_filter(q, outer_len, inner_len, per_candidate, test):
    """Yield the pairs (outer, inner) of digit tuples over ``range(q)``,
    of lengths ``outer_len`` and ``inner_len``, for which
    ``test(outer, block)`` passes ``inner``, in lexicographic order of
    ``outer + inner``.

    ``test`` gets ``outer`` as an int64 vector and a block of inner
    candidates, one per column of an int64 array, and returns a boolean
    mask over the columns.  A block holds the q^k candidates that share
    all but their last k digits, k as large as keeps ``per_candidate``
    entries each within ``BATCH_ENTRIES`` (one candidate when a
    single one exceeds it), so memory stays bounded however long the
    inner leg is.
    """
    k = 0
    while k < inner_len and q ** (k + 1) * per_candidate <= BATCH_ENTRIES:
        k += 1
    cut = inner_len - k
    tails = list(itertools.product(range(q), repeat=k))
    block = np.empty((inner_len, len(tails)), dtype=np.int64)
    block.T[:, cut:] = np.reshape(tails, (len(tails), k))
    for outer in itertools.product(range(q), repeat=outer_len):
        row = np.array(outer, dtype=np.int64)
        for prefix in itertools.product(range(q), repeat=cut):
            block.T[:, :cut] = prefix
            for idx in test(row, block).nonzero()[0].tolist():
                yield outer, prefix + tails[idx]


# -- former batched GF(q) and numeric dependence searches (dependence) ----------


def is_dependent_exact_batched(family, budget=DEFAULT_SEARCH_BUDGET):
    """Exhaustive witness search over GF(q).

    Returns the first nontrivial witness with zero residual in
    lexicographic assignment order, or None, which over a finite field
    proves the family independent.  Families of size one are independent
    by definition (the single term must itself vanish).

    For each assignment of the x vectors, a numpy test checks the y
    assignments in lexicographic blocks of at most ``BATCH_ENTRIES``
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


# -- former slice offsets (rank, nullity, core) and pair cancellation ---------


def zero_outside_support_by_strides(x0, x1, x2, support):
    """The legs and support that ``DecompositionTriple(x0, x1, x2,
    support)`` held after its constructor zeroed the slices outside
    the support by strides."""
    legs = {"x0": x0, "x1": x1, "x2": x2}
    _, n1, n2, ell = conformability(legs["x0"], legs["x1"], legs["x2"])
    support = tuple(sorted(set(support)))
    if support and not (0 <= support[0] and support[-1] < ell):
        raise ShapeError(f"support {support} out of range for ell={ell}")
    if len(support) < ell:
        keep = set(support)
        dom = legs["x0"].domain
        zero = dom.zero()
        # slice t of a leg holds the flat entries with
        # idx // stride % ell == t
        for name, stride in (("x0", n2), ("x1", 1), ("x2", n1 * n2)):
            leg = legs[name]
            data = [
                v if idx // stride % ell in keep else zero
                for idx, v in enumerate(leg.data)
            ]
            legs[name] = Hypermatrix(leg.shape, data, dom)
    return legs["x0"], legs["x1"], legs["x2"], support


def pad_triple_by_runs(d: DecompositionTriple, p) -> DecompositionTriple:
    if d.ell == p:
        return d
    if d.ell > p:
        raise ShapeError(
            f"decomposition has contracted dimension {d.ell} above the depth "
            f"extent {p}; transpose-reduce first"
        )
    dom = d.x0.domain
    m = d.x0.shape[0]
    n = d.x1.shape[1]
    zero = dom.zero()
    ell = d.ell

    def pad(leg, shape, run):
        # each run of entries over slices 0..ell-1 is followed by the
        # zero entries of slices ell..p-1
        data = []
        for start in range(0, len(leg.data), run):
            data += leg.data[start : start + run]
            data += [zero] * (run // ell * (p - ell))
        return Hypermatrix(shape, data, dom)

    x0 = pad(d.x0, (m, p, p), ell * p)
    x1 = pad(d.x1, (m, n, p), ell)
    x2 = pad(d.x2, (p, n, p), ell * n * p)
    return DecompositionTriple(x0, x1, x2, d.support)


def hyper_slice_reduce_by_offsets(x0, x1, x2, rewrite: SliceRewriteData):
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
    check_product_preservation((x0, x1, x2), reduced, tau)
    return reduced


def two_slice_witness_by_reorder(b: Hypermatrix, tau=1):
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
    data = b.data
    ordered = [data[ij + k] for ij in range(0, len(data), 2) for k in (1 - tau, tau)]
    _, legs = bm_rank_one(Hypermatrix(b.shape, ordered, b.domain))
    if legs is None:
        return None
    x0, _, x2 = legs
    return x0.data[1::2], x2.data[1::2]


def slice_by_offsets(self, spec):
    """Copy out a degenerate-axis sub-hypermatrix with one index pinned."""
    n0, n1, n2 = self.shape
    axis, idx = spec.axis, spec.index
    extent = self.shape[axis]
    if not (0 <= idx < extent):
        raise ShapeError(f"slice index {idx} out of range for axis {axis}")
    data = self.data
    if axis == 0:
        return Hypermatrix(
            (1, n1, n2), data[idx * n1 * n2 : (idx + 1) * n1 * n2], self.domain
        )
    if axis == 1:
        return Hypermatrix(
            (n0, 1, n2),
            [v for a in range(n0)
             for v in data[(a * n1 + idx) * n2 : (a * n1 + idx + 1) * n2]],
            self.domain,
        )
    return Hypermatrix((n0, n1, 1), data[idx::n2], self.domain)


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


# -- former hand-written sums (core, nullity, rank, products) -----------------


def matmul_by_entries(self, other):
    self.domain.check_same(other.domain)
    m, k1 = self.shape
    k2, n = other.shape
    if k1 != k2:
        raise ShapeError(f"matmul mismatch {self.shape} x {other.shape}")
    dom = self.domain
    out = []
    for i in range(m):
        ri = self.row(i)
        for j in range(n):
            acc = dom.zero()
            for t in range(k1):
                acc = acc + ri[t] * other[t, j]
            out.append(acc)
    # GF(q) entries are reduced by the constructor
    return Matrix((m, n), out, dom)


def reconstruct_by_rank_one_sums(self) -> Matrix:
    dom = self.u.domain
    m = self.u.shape[0]
    n = self.v.shape[1]
    acc = Matrix.zeros(m, n, dom)
    for t in self.support:
        col = self.u.col(t)
        row = self.v.row(t)
        acc = acc.add(
            Matrix.from_function(
                m, n, dom, lambda i, j, c=col, r=row: dom.mul(c[i], r[j])
            )
        )
    return acc


def matrix_slice_reduce_by_columns(x: Matrix, y: Matrix, tau, us):
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


def delta_sum_by_additions(n, r, domain) -> Hypermatrix:
    """The target sum of the first r rank-one backgrounds."""
    if not (0 < r <= n):
        raise ShapeError(f"need 0 < r <= n, got r={r}, n={n}")
    acc = Hypermatrix.zeros((n, n, n), domain)
    for t in range(r):
        acc = acc.add(delta_t(n, t, domain))
    return acc


def general_bm_product_by_getitem(
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
    support = [
        (j0, j1, j2, background[j0, j1, j2])
        for j0 in range(ell)
        for j1 in range(ell)
        for j2 in range(ell)
        if not dom.is_zero(background[j0, j1, j2])
    ]
    return _contract(a0, a1, a2, (n0, n1, n2), support)


# -- former inverse read-out (core) ---------------------------------------------


def inverse_by_pivot_inverses(self):
    m, n = self.shape
    if m != n:
        raise ShapeError("inverse needs a square matrix")
    dom = self.domain
    one, zero = dom.one(), dom.zero()
    rows = [
        self.row(i) + [one if i == j else zero for j in range(n)] for i in range(n)
    ]
    pivots, _ = core.echelon(rows, n, dom)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    # full rank puts pivot r in row r; GF(q) entries are reduced by the
    # constructor
    data = []
    for r, row in enumerate(rows):
        f = dom.inv(row[r])
        data.extend(f * a for a in row[n:])
    return Matrix((n, n), data, dom)


# -- former solve read-out (core) -----------------------------------------------


def solve_by_pivot_inverses(self, rhs_cols):
    dom = self.domain
    m, n = self.shape
    for col in rhs_cols:
        if len(col) != m:
            raise ShapeError(
                f"rhs column of length {len(col)} for a matrix of shape {self.shape}"
            )
    rows = [self.row(i) + [col[i] for col in rhs_cols] for i in range(m)]
    pivots, _ = core.echelon(rows, n, dom)
    nrhs = len(rhs_cols)
    # inconsistency: zero row with nonzero rhs
    for row in rows[len(pivots):]:
        if any(not dom.is_zero(a) for a in row[n:]):
            return None
    sols = [[dom.zero()] * n for _ in range(nrhs)]
    for r, c in enumerate(pivots):
        f = dom.inv(rows[r][c])
        for s in range(nrhs):
            sols[s][c] = dom.mul(f, rows[r][n + s])
    return sols
