"""Rank-nullity: the matrix reference constructions and their
hypermatrix analogs.  An r-term matrix decomposition reconstructs as
the one product U_S V_S (``Matrix.matmul``).

Nullity is operationalized as the maximum number of zero depth slices
of Prod(X0, A, X1) over invertible pairs (X0, X1).  Sufficiency turns a
pair exhibiting z zero slices into a (p - z)-term decomposition through
the pair's outer inverse; necessity turns an r-term decomposition into
a certificate pair exhibiting p - r zero slices, completing the unused
slices of the decomposition's own outer legs, cut once and never
padded, until the completed pair is invertible.  Over GF(q) the
via-rank nullity climbs the term counts once, no higher than the p - z
terms of the zero-slice triple of an input with z zero depth slices:
the first level with a decomposition is the rank, the first that
completes gives the nullity; outer legs that failed to complete once
are not tried again.  Direct search scores every cached action on an
input at once, through int bitsets over the actions.
Completions and direct-search candidates are leg slices, tested by the
block test of ``inverse`` (``_invertible_blocks``); a pair is
invertible exactly when its inverse slices then factor
(``inverse._outer_inverse``), and the factors are kept: the certificate
pair of a completion, the outer inverse of a direct-search action.  Both
enumerations over GF(q), the completion sweep and the direct-search
pairs, visit only candidates whose blocks all invert, found by ANDing
int bitsets over the second leg's candidates (``_invertible_pairings``),
each distinct block built and inverted once per search.  The outcome of
an exhaustive completion sweep, which reads only the outer legs' values
on the support, is kept per field and shared across calls
(``_COMPLETIONS``), as flat tuples from which every certificate builds
hypermatrices of its own; every other outcome lives for one call.  Only
:func:`nullity` labels via-rank certificates with their strategy and
transpose count.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace

from .core import DEFAULT_EXHAUSTIVE_COMPLETIONS, Hypermatrix, Matrix, complete_to_basis
from .errors import (
    BudgetExceededError,
    CertificateError,
    CompletionError,
    FactorabilityError,
    ShapeError,
)
from .inverse import (
    HyperPair,
    OuterInversePair,
    _col_slices,
    _invertible_blocks,
    _outer_inverse,
    _row_slices,
    recover_outer_inverse,
)
from .products import bm_product, identity_pair
from .rank import (
    DecompositionTriple,
    bm_rank_one,
    generic_rank_pipeline,
    iter_bm_decompositions,
    orient_depth_min,
)

DEFAULT_COMPLETION_RETRIES = 32
DEFAULT_DECOMPOSITION_ATTEMPTS = 4096


# ---------------------------------------------------------------------------
# matrix reference implementation
# ---------------------------------------------------------------------------


@dataclass
class MatrixDecomposition:
    """A = sum over the support of column-row outer products of (u, v)."""

    u: Matrix
    v: Matrix
    support: tuple

    def __post_init__(self):
        ell = self.u.shape[1]
        if ell != self.v.shape[0]:
            raise ShapeError(
                f"inner dimensions disagree: {self.u.shape} vs {self.v.shape}"
            )
        support = tuple(sorted(set(self.support)))
        if support and not (0 <= support[0] and support[-1] < ell):
            raise ShapeError(f"support {support} out of range for ell={ell}")
        object.__setattr__(self, "support", support)

    @property
    def r(self):
        return len(self.support)

    def reconstruct(self) -> Matrix:
        """U_S V_S: the support columns of u times the support rows of v."""
        u, v, s = self.u, self.v, self.support
        m, n = u.shape[0], v.shape[1]
        if not s:
            return Matrix.zeros(m, n, u.domain)
        u_s = Matrix((m, len(s)), [row[t] for row in u.to_rows() for t in s], u.domain)
        v_s = Matrix((len(s), n), [a for t in s for a in v.row(t)], v.domain)
        return u_s.matmul(v_s)


def matrix_nullity_sufficiency(a: Matrix, x: Matrix, r=None) -> MatrixDecomposition:
    """From an invertible x whose action reveals zero columns of a @ x,
    produce the decomposition a = sum_{t in S} col_t(a@x) row_t(x^-1).

    With r given, columns r..n-1 of a @ x must be zero; otherwise the
    support is the set of nonzero columns of a @ x.
    """
    m, n = a.shape
    if x.shape != (n, n):
        raise ShapeError(f"x must be {n} x {n}, found {x.shape}")
    dom = a.domain
    x_inv = x.inverse()  # raises on singular x
    ax = a.matmul(x)
    zero_cols = {j for j in range(n) if all(map(dom.is_zero, ax.data[j::n]))}
    if r is not None:
        missing = [j for j in range(r, n) if j not in zero_cols]
        if missing:
            raise CertificateError(
                f"columns {missing} of a@x are not zero; hypothesis fails"
            )
        support = tuple(t for t in range(r) if t not in zero_cols)
    else:
        support = tuple(t for t in range(n) if t not in zero_cols)
    decomp = MatrixDecomposition(u=ax, v=x_inv, support=support)
    if not decomp.reconstruct().equals(a):
        raise CertificateError("sufficiency reconstruction failed")
    return decomp


def matrix_nullity_necessity(a: Matrix, decomp: MatrixDecomposition) -> Matrix:
    """From an r-term decomposition, produce an invertible v' whose
    inverse maps a to a matrix with zero columns outside the support.

    The unused rows of v are replaced by unit rows completing the
    support rows to a basis; dependent support rows mean the
    decomposition overstates the rank and are rejected.
    """
    dom = a.domain
    if not decomp.reconstruct().equals(a):
        raise CertificateError("decomposition does not reconstruct the matrix")
    n = decomp.v.shape[0]
    if decomp.v.shape[1] != n:
        raise ShapeError("necessity expects a square v leg")
    s = decomp.support
    rows_s = [decomp.v.row(t) for t in s]
    try:
        extra_cols = complete_to_basis(rows_s, n, dom)
    except ValueError as exc:
        raise CertificateError(
            "support rows of v are linearly dependent; the certificate "
            "overstates the rank"
        ) from exc
    unused = [t for t in range(n) if t not in s]
    fill = dict(zip(unused, extra_cols))
    one, zero = dom.one(), dom.zero()
    v_prime = Matrix.from_function(
        n,
        n,
        dom,
        lambda t, j: decomp.v[t, j]
        if t in s
        else (one if j == fill[t] else zero),
    )
    if dom.is_zero(v_prime.det()):
        raise CertificateError("completion failed to produce an invertible v")
    image = a.matmul(v_prime.inverse())
    for t in unused:
        if not all(map(dom.is_zero, image.data[t::n])):
            raise CertificateError(f"column {t} of a v'^-1 is not zero; internal error")
    return v_prime


# ---------------------------------------------------------------------------
# hypermatrix certificates
# ---------------------------------------------------------------------------


@dataclass
class NullityCertificate:
    """An invertible pair mapping the input to something with |Z| zero
    depth slices, together with the pair's outer inverse."""

    pair: HyperPair
    outer_inverse: OuterInversePair
    zero_set: tuple
    nullity: int
    strategy: str
    transposes_applied: int = 0
    residual: float | None = None

    def to_json(self):
        return {
            "nullity": self.nullity,
            "zero_slices": list(self.zero_set),
            "pair": self.pair.to_json(),
            "outer_inverse": self.outer_inverse.to_json(),
            "strategy": self.strategy,
            "transposes_applied": self.transposes_applied,
            "residual": self.residual,
        }


def _slice_is_zero(g: Hypermatrix, k, tol_scale=0.0):
    dom = g.domain
    depth = g.data[k :: g.shape[2]]
    if dom.is_exact:
        return all(map(dom.is_zero, depth))
    return sum(abs(v) ** 2 for v in depth) ** 0.5 <= tol_scale


def first_nonzero_slice(g: Hypermatrix, a: Hypermatrix, zero_set):
    """The first k of ``zero_set`` whose depth slice of ``g`` (a pair's
    action on ``a``) has norm above tol * (1 + ||a||) * 100, or None."""
    dom = a.domain
    tol_scale = 0.0 if dom.is_exact else dom.tol * (1.0 + a.norm()) * 100
    return next((k for k in zero_set if not _slice_is_zero(g, k, tol_scale)), None)


def _check_reconstruction(rec: Hypermatrix, a: Hypermatrix, what):
    """Raise CertificateError unless ``rec`` reconstructs ``a``: equal
    over exact domains, ||rec - a|| <= tol (1 + ||a||) 1e3 over C.
    Returns that scale, 0.0 over exact domains."""
    dom = a.domain
    if dom.is_exact:
        if not rec.equals(a):
            raise CertificateError(f"{what} does not reconstruct the input")
        return 0.0
    tol_scale = dom.tol * (1.0 + a.norm()) * 1e3
    if rec.sub(a).norm() > tol_scale:
        raise CertificateError(f"{what} residual {rec.sub(a).norm():.3e} too large")
    return tol_scale


def hyper_nullity_sufficiency(
    a: Hypermatrix, pair: HyperPair, zero_set
) -> DecompositionTriple:
    """Convert an invertible pair exhibiting zero depth slices into a
    decomposition of ``a`` with p - |Z| terms.  Every index of
    ``zero_set`` must name a depth slice (else ShapeError)."""
    m, n, p = a.shape
    zero_set = tuple(sorted(set(zero_set)))
    for k in zero_set:
        if not 0 <= k < p:
            raise ShapeError(f"zero slice index {k} out of range for depth {p}")
    try:
        inv = recover_outer_inverse(pair)
    except FactorabilityError as exc:
        raise CertificateError(str(exc)) from exc
    g = pair.act(a)  # of a's shape, or ConformabilityError
    bad = first_nonzero_slice(g, a, zero_set)
    if bad is not None:
        raise CertificateError(f"claimed zero depth slice {bad} is not zero")
    support = tuple(t for t in range(p) if t not in zero_set)
    triple = DecompositionTriple(inv.c, g, inv.d, support)
    _check_reconstruction(triple.reconstruct(), a, "sufficiency decomposition")
    return triple


def _degenerate_term(x0, x1, x2, support):
    """The first index of ``support`` whose term is zero because a leg's
    slice along its contracted axis is, or None."""
    m, ell, p = x0.shape
    n = x1.shape[1]
    zero = x0.domain.is_zero
    for t in support:
        if (all(map(zero, x1.data[t::ell]))
                or all(zero(v) for i in range(m)
                       for v in x0.data[(i * ell + t) * p:(i * ell + t + 1) * p])
                or all(map(zero, x2.data[t * n * p:(t + 1) * n * p]))):
            return t
    return None


def _invertible_pairings(row_sets, col_sets, memo, domain):
    """Yield (rows, b) for each tuple ``rows`` of :func:`inverse._row_slices`
    that ``row_sets`` yields, in turn, and each index b, ascending, of
    the tuples of column slices ``col_sets`` whose flattening blocks
    with ``rows`` all invert (``inverse._invertible_blocks`` with
    ``memo``).  Block
    (i, j) reads only rows[i] and column slice j, so per column j each
    column slice maps to the int bitset over ``col_sets`` of the tuples
    holding it; each distinct row slice, on first use, to the AND over j
    of the ORs of the bitsets of the column slices whose block with it
    inverts; and ``rows`` admits the AND over its row slices."""
    n = len(col_sets[0])
    holding = [{} for _ in range(n)]
    for at, cols in enumerate(col_sets):
        for j, col in enumerate(cols):
            holding[j][col] = holding[j].get(col, 0) | 1 << at
    inverting = {}
    for rows in row_sets:
        live = -1
        for row in rows:
            if row not in inverting:
                inverting[row] = functools.reduce(operator.and_, (
                    functools.reduce(operator.or_, (
                        bits for col, bits in column.items()
                        if _invertible_blocks([row], [col], memo, domain)[0]), 0)
                    for column in holding))
            live &= inverting[row]
            if not live:
                break
        while live:
            low = live & -live
            live ^= low
            yield rows, low.bit_length() - 1


# Necessity's exhaustive GF(q) completion outcomes, shared across calls:
# (q, (m, n, p), support, the outer legs' values on the support) -> the flat
# data (C, D, U, W) of the first completion that inverts and factors, or the
# CompletionError message (:func:`_completions`).  A sweep is exhaustive
# when it has an unused slice and at most q^(|unused| p (m + n)) <=
# DEFAULT_EXHAUSTIVE_COMPLETIONS fills, with m, n >= p, so only at p <= 2,
# where |support| <= |unused|: the table holds at most
# q^(|support| p (m + n)) <= DEFAULT_EXHAUSTIVE_COMPLETIONS entries per
# (q, m, n, support).
_COMPLETIONS = {}


def _completion_table(a, decomp, local):
    """(exhaustive, table, key) of necessity on ``decomp``: whether the
    sweep of its completions is exhaustive (over GF(q), with an unused
    slice and at most ``DEFAULT_EXHAUSTIVE_COMPLETIONS`` fills of the
    unused slices); the table that keeps its outcome, ``_COMPLETIONS``
    when it is and ``local`` otherwise; and its key there: q, the shape
    of ``a``, the support, and the outer legs' values on the support in
    flat order, which is all an exhaustive outcome reads, since every
    completion overwrites the unused slices."""
    m, n, p = a.shape
    dom, s, ell = a.domain, decomp.support, decomp.ell
    unused = p - len(s)
    exhaustive = (dom.kind == "gf" and unused > 0
                  and dom.q ** (unused * p * (m + n)) <= DEFAULT_EXHAUSTIVE_COMPLETIONS)
    x0, x2 = tuple(decomp.x0.data), tuple(decomp.x2.data)
    if len(s) < ell:
        x0 = tuple(v for i in range(m) for t in s
                   for v in x0[(i * ell + t) * p : (i * ell + t + 1) * p])
        x2 = tuple(v for t in s for v in x2[t * n * p : (t + 1) * n * p])
    return exhaustive, _COMPLETIONS if exhaustive else local, (dom.q, a.shape, s, x0, x2)


def _completion_candidates(rows, cols, p, domain, memo, unused, exhaustive, seed):
    """Yield the outer legs' cut, the ell-slice (rows, cols) of
    ``inverse._row_slices`` and ``_col_slices``, completed to p slices:
    per unused t, each U[i, t, :] and each W[t, j, :] (p values each).

    Order: the identity pattern first (the given legs alone when no
    slice is unused); with ``exhaustive`` the assignments over GF(q) in
    lexicographic order, first-leg fills as the outer loop and the
    third-leg fills, built once, as the inner one, of which only those
    whose flattening blocks all invert are yielded
    (:func:`_invertible_pairings`, through ``memo``, the caller's block
    memo for one call), and the identity fill not again:
    necessity accepts the first candidate that inverts and factors, and
    returns or raises on it over GF(q), so dropping candidates it would
    reject leaves its outcome as the full sweep's.  Otherwise seeded
    uniform-style random slices (constant along the free index), which
    keep the flattening inverse factorable whenever anything does, each
    distinct fill once (over GF(2) every random slice is all ones).
    """
    m, n = len(rows), len(cols)

    def fill(slices, values):
        # values: per unused t, then per slice, the p values of slice t;
        # t ascends and every t >= ell is unused, so an ell-slice cut gets
        # slices ell..p-1 appended
        values, out = iter(values), [list(cut) for cut in slices]
        for t in unused:
            for cut in out:
                cut[t * p : (t + 1) * p] = itertools.islice(values, p)
        return tuple(tuple(cut) for cut in out)

    one, zero = domain.one(), domain.zero()
    units = [[one if t == k else zero for k in range(p)] for t in unused]
    identity = (fill(rows, [v for e in units for v in e * m]),
                fill(cols, [v for e in units for v in e * n]))
    yield identity
    if not unused:
        return
    if exhaustive:
        digits, size = range(domain.q), len(unused) * p
        w_fills = [fill(cols, w) for w in itertools.product(digits, repeat=size * n)]
        u_fills = (fill(rows, u) for u in itertools.product(digits, repeat=size * m))
        again = identity[0], w_fills.index(identity[1])
        for u_rows, at in _invertible_pairings(u_fills, w_fills, memo, domain):
            if (u_rows, at) != again:
                yield u_rows, w_fills[at]
        return
    rng = random.Random(seed)
    seen = {identity}
    for _ in range(DEFAULT_COMPLETION_RETRIES):
        u_values, w_values = [], []
        for _ in unused:
            u_values += [domain.random_nonzero(rng) for _ in range(p)] * m
            w_values += [domain.random_nonzero(rng) for _ in range(p)] * n
        candidate = fill(rows, u_values), fill(cols, w_values)
        if candidate not in seen:
            seen.add(candidate)
            yield candidate


def _completions(a, decomp, exhaustive, seed):
    """Necessity's outcomes on the outer legs of ``decomp``, lazily: the
    flat data (C, D, U, W) of each completion of
    :func:`_completion_candidates` whose blocks invert
    (``inverse._invertible_blocks``, each distinct block built and
    inverted once per call) and whose inverse slices factor
    (``inverse._outer_inverse``), in candidate order, then the message of
    the CompletionError that no other completion inverts.  A structurally
    zero support column yields that message alone."""
    m, n, p = a.shape
    domain, support = a.domain, decomp.support
    rows, cols = _row_slices(decomp.x0.data, m), _col_slices(decomp.x2.data, n, p)
    # column t of flattening block (i, j) is X0[i, t, :] * X2[t, j, :]
    # entrywise, so a zero support column can never be fixed by
    # completing the unused slices: reject such decompositions early
    for (i, row), (j, col), t in itertools.product(enumerate(rows), enumerate(cols), support):
        cut = slice(t * p, (t + 1) * p)
        if all(domain.is_zero(domain.mul(u, w)) for u, w in zip(row[cut], col[cut])):
            yield (f"flattening block ({i},{j}) has a structurally zero "
                   f"support column {t}; no completion is invertible")
            return
    unused = [t for t in range(p) if t not in support]
    memo = {}
    candidates = _completion_candidates(rows, cols, p, domain, memo, unused, exhaustive, seed)
    for count, (u_rows, w_cols) in enumerate(candidates, 1):
        blocks, inv_blocks = _invertible_blocks(u_rows, w_cols, memo, domain)
        factored = blocks is not None and _outer_inverse(inv_blocks, m, n, domain)[0]
        if factored:
            # U is the rows in turn; W[t, j, k] is w_cols[j][t p + k]
            yield (tuple(factored.c.data), tuple(factored.d.data),
                   tuple(itertools.chain(*u_rows)),
                   tuple(col[t * p + k] for t in range(p) for col in w_cols for k in range(p)))
    if not unused:
        tried = "only the given legs, since no slice is unused"
    elif exhaustive:
        tried = "identity and every assignment of the unused slices"
    else:
        tried = f"identity and {count - 1} distinct uniform-random completions"
    yield f"no invertible completion of the decomposition legs was found; tried {tried}"


def hyper_nullity_necessity(a: Hypermatrix, decomp: DecompositionTriple,
                            seed=0) -> NullityCertificate:
    """From an r-term decomposition of ``a`` build a certificate pair
    exhibiting p - r zero depth slices.

    The decomposition's own legs (ell <= p slices, never padded) are
    checked, and the outer legs cut once into the slices of ``inverse``,
    which every completion fills: the unused slices, ell..p-1 among them,
    are completed until the completed pair is invertible, each tested by
    the block test ``inverse._invertible_blocks`` and the factorization
    of its inverse slices (``inverse._outer_inverse``), in
    :func:`_completions`.  The exhaustive GF(q) sweep yields only
    completions whose blocks all invert, and its outcome, which reads
    only q, the shape, the support and the outer legs' values on it, is
    kept per field (``_COMPLETIONS``): the sweep runs only on a miss.
    Every other outcome is found anew on each call.  The factors (C, D)
    of the first invertible completion are the certificate pair, which
    maps ``a`` to the middle leg padded to p slices.  (C, D) undoes the
    completion's action, and a left inverse on a finite-dimensional space
    is a right inverse, so (C, D) is invertible with outer inverse the
    completed legs, and is not tested again.  Each certificate gets
    hypermatrices of its own, built from the kept flat data.  Completion
    failure is surfaced as CompletionError, never silently accepted.  The
    certificate reads strategy "via-rank" with no transposes applied;
    :func:`nullity` relabels its own.
    """
    m, n, p = a.shape
    if p != min(a.shape):
        raise ShapeError(
            f"necessity expects the depth extent to be minimal, shape {a.shape}"
        )
    if decomp.ell > p:
        raise ShapeError(
            f"decomposition has contracted dimension {decomp.ell} above the depth "
            f"extent {p}; transpose-reduce first"
        )
    dom = a.domain
    x0, x1, x2 = decomp.legs()
    tol_scale = _check_reconstruction(bm_product(x0, x1, x2), a, "decomposition")
    s = decomp.support
    t = _degenerate_term(x0, x1, x2, s)
    if t is not None:
        raise CertificateError(
            f"support term {t} is degenerate (a zero slice); the "
            "certificate overstates the rank"
        )
    zero_set = tuple(t for t in range(p) if t not in s)
    exhaustive, table, key = _completion_table(a, decomp, {})
    outcomes = (table[key],) if key in table else _completions(a, decomp, exhaustive, seed)
    for outcome in outcomes:
        table.setdefault(key, outcome)
        if isinstance(outcome, str):
            raise CompletionError(outcome)
        c_data, d_data, u_data, w_data = outcome
        cert_pair = HyperPair(Hypermatrix((m, p, p), c_data, dom),
                              Hypermatrix((p, n, p), d_data, dom))
        g = cert_pair.act(a)
        bad = [k for k in zero_set if not _slice_is_zero(g, k, tol_scale)]
        if bad:
            if dom.is_exact:
                raise CertificateError(
                    f"substitution broke the identity at slices {bad}"
                )
            continue
        pad = [*range(decomp.ell)] + [None] * (p - decomp.ell)  # x1 to p slices
        residual = None if dom.is_exact else g.sub(x1.restack(2, pad)).norm() / (1 + a.norm())
        return NullityCertificate(
            pair=cert_pair,
            outer_inverse=OuterInversePair(Hypermatrix((m, p, p), u_data, dom),
                                           Hypermatrix((p, n, p), w_data, dom),
                                           gauge="completed-legs"),
            zero_set=zero_set,
            nullity=len(zero_set),
            strategy="via-rank",
            residual=residual,
        )


# ---------------------------------------------------------------------------
# top-level nullity
# ---------------------------------------------------------------------------


@functools.cache
def _invertible_actions(m, n, p, domain):
    """All distinct invertible-pair actions over a small prime field.

    Enumerates every (X0, X1) candidate in integer form and keeps those
    that pass the test of ``inverse.pair_invertible``: every flattening
    block inverts (``inverse._invertible_blocks``, each distinct block
    built and inverted once per call) and every inverse slice factors
    (``inverse._outer_inverse``).  Only the X1 whose blocks with an X0
    all invert are visited, in order, through the int bitsets of
    :func:`_invertible_pairings`.  Candidates are deduped by the block
    tuple (which determines the action) before the factorization.  Returns
    (actions, zeros): ``actions`` a list of (blocks, flat0, flat1,
    inverse), ``inverse`` the factored (C, D), and ``zeros`` their
    :func:`_zero_bitsets`; cached per signature, whose budget callers
    check first against the q^(m p p + p n p) candidates.
    """
    q = domain.q
    legs1 = list(itertools.product(range(q), repeat=p * n * p))
    legs0 = itertools.product(range(q), repeat=m * p * p)
    cols_of = [_col_slices(flat1, n, p) for flat1 in legs1]
    memo, actions = {}, {}
    for rows, at in _invertible_pairings((_row_slices(flat0, m) for flat0 in legs0),
                                         cols_of, memo, domain):
        blocks, inv_blocks = _invertible_blocks(rows, cols_of[at], memo, domain)
        if blocks in actions:
            continue
        inverse = _outer_inverse(inv_blocks, m, n, domain)[0]
        if inverse is not None:
            actions[blocks] = (blocks, sum(rows, ()), legs1[at], inverse)
    return list(actions.values()), _zero_bitsets(list(actions), m * n, p, q)


def _zero_bitsets(blocks, count, p, q):
    """Per block index ij < ``count`` and fiber value v in GF(q)^p, the p
    int bitsets over ``blocks`` (one tuple of flat p x p blocks per
    action) whose bit a is set in the k-th when row k of action a's
    block ij maps v to 0."""
    zeros = []
    for ij in range(count):
        # per row k: row value -> bitset of the actions whose block ij has it
        having = [{} for _ in range(p)]
        for at, action in enumerate(blocks):
            for k in range(p):
                row = action[ij][k * p : (k + 1) * p]
                having[k][row] = having[k].get(row, 0) | 1 << at
        zeros.append({
            v: tuple(functools.reduce(operator.or_, (
                bits for row, bits in having[k].items()
                if not sum(map(operator.mul, row, v)) % q), 0) for k in range(p))
            for v in itertools.product(range(q), repeat=p)
        })
    return zeros


def _best_action(zeros, data, p):
    """The index of the first action with the most zero depth slices on
    the input with flat ``data``, and those slices.  Slice k is zero
    under the actions in the AND over (i, j) of ``zeros[ij][fiber ij][k]``,
    so the most zero slices are the largest set S whose slices' bitsets
    share an action, and the first such action is the lowest bit set in
    the AND over S of any S of that size: the pick of an action-by-action
    scan that keeps strict improvements."""
    zero = [-1] * p
    for ij, table in enumerate(zeros):
        for k, bits in enumerate(table[tuple(data[ij * p : (ij + 1) * p])]):
            zero[k] &= bits
    for size in range(p, 0, -1):
        lowest = [both & -both for ks in itertools.combinations(zero, size)
                  if (both := functools.reduce(operator.and_, ks))]
        if lowest:
            best = min(lowest).bit_length() - 1
            return best, [k for k in range(p) if zero[k] >> best & 1]
    return 0, []


def nullity_direct_search(a: Hypermatrix, budget=DEFAULT_EXHAUSTIVE_COMPLETIONS):
    """Oracle: exhaust invertible pairs over GF(q) and maximize the
    number of zero depth slices of the pair's action on ``a``.

    Entry (i, j, k) of an action is row k of its flattening block (i, j)
    times the input fiber at (i, j), so the cached bitsets of
    :func:`_invertible_actions` score every action at once in m n p
    ANDs; the first action with the most zero slices wins
    (:func:`_best_action`), as in an action-by-action scan that keeps
    strict improvements.  The budget is checked before the cache is
    read, so a call over it raises even when the actions are cached.
    """
    dom = a.domain
    if dom.kind != "gf":
        raise ValueError("direct search needs a GF(q) domain")
    oriented, tcount = orient_depth_min(a)
    m, n, p = oriented.shape
    digits = m * p * p + p * n * p
    if dom.q**digits > budget:
        raise BudgetExceededError(
            f"direct search needs q^{digits} pair candidates, over budget {budget}"
        )
    actions, zeros = _invertible_actions(m, n, p, dom)
    best, zero_slices = _best_action(zeros, oriented.data, p)
    _, flat0, flat1, inverse = actions[best]
    pair = HyperPair(
        Hypermatrix((m, p, p), flat0, dom),
        Hypermatrix((p, n, p), flat1, dom),
    )
    # the cached inverse is shared: the certificate gets copies of its own
    own = replace(inverse, c=Hypermatrix(inverse.c.shape, inverse.c.data, dom),
                  d=Hypermatrix(inverse.d.shape, inverse.d.data, dom))
    return _pair_certificate(pair, own, zero_slices, "direct-search", tcount)


def _pair_certificate(pair, inverse, zero_set, strategy, tcount):
    """The certificate of ``pair`` with its outer inverse ``inverse``."""
    return NullityCertificate(
        pair=pair, outer_inverse=inverse, zero_set=tuple(zero_set),
        nullity=len(zero_set), strategy=strategy, transposes_applied=tcount,
    )


def _zero_pair_certificate(a, tcount):
    pair = HyperPair(*identity_pair(*a.shape, a.domain))
    return _pair_certificate(
        pair, recover_outer_inverse(pair), range(a.shape[2]), "zero-input", tcount
    )


def _zero_slice_triple(a: Hypermatrix) -> DecompositionTriple:
    """The identity-pair decomposition of ``a`` restricted to its nonzero
    depth slices, which certifies the zero ones."""
    j0, j1 = identity_pair(*a.shape, a.domain)
    support = tuple(k for k in range(a.shape[2]) if not _slice_is_zero(a, k))
    return DecompositionTriple(j0, a, j1, support)


def _via_rank_over_gf(oriented, budget, seed):
    """The GF(q) rank-to-nullity transfer and its strategy label.  It
    needs a decomposition whose legs admit an invertible completion; over
    a tiny field that can fail at the exact rank (no genericity to lean
    on), and then the true nullity is smaller: climb the term counts
    until a completion exists.  A pair with z zero slices always yields a
    completable (p - z)-term decomposition, so the first level that
    completes matches the exhaustive oracle, as long as the per-level cap
    of ``DEFAULT_DECOMPOSITION_ATTEMPTS`` decompositions does not bind.
    With z zero depth slices the zero-slice triple has p - z terms and
    always completes, so the climb stops at level min(p - z, p - 1) and
    that triple stands in at level p - z: no higher level can certify
    more.  The climb also finds the rank: the first level with a
    decomposition, p - z when none below has.

    Necessity's ``CompletionError`` depends only on the values of the
    outer legs (x0, x2) on the support, so a decomposition whose key
    (:func:`_completion_table`) its table records as failing is skipped
    before necessity runs: across calls when the sweep is exhaustive
    (``_COMPLETIONS``), within this call otherwise; so are decompositions
    with a zero term, which necessity refuses.  Every yield counts
    towards the cap.
    """
    p = oriented.shape[2]
    top = p - sum(_slice_is_zero(oriented, k) for k in range(p))
    r = None
    local = {}
    for r_level in range(1, min(top, p - 1) + 1):
        decompositions = iter_bm_decompositions(oriented, r_level, budget=budget)
        for tried, triple in enumerate(decompositions, 1):
            if r is None:
                r = r_level
            if tried > DEFAULT_DECOMPOSITION_ATTEMPTS:
                break
            _, table, key = _completion_table(oriented, triple, local)
            if (isinstance(table.get(key), str)
                    or _degenerate_term(*triple.legs(), triple.support) is not None):
                continue
            try:
                found = hyper_nullity_necessity(oriented, triple, seed=seed)
            except CompletionError as exc:
                table[key] = str(exc)
                continue
            return found, f"via-rank (rank {r}, transfer level {r_level})"
    found = hyper_nullity_necessity(oriented, _zero_slice_triple(oriented), seed=seed)
    return found, f"via-rank (rank {r or top}, transfer level {top})"


def nullity(
    a: Hypermatrix,
    strategy="via-rank",
    budget=DEFAULT_EXHAUSTIVE_COMPLETIONS,
    seed=0,
) -> NullityCertificate:
    """Compute a nullity certificate for ``a``.

    Either strategy works on ``a`` oriented by ``rank.orient_depth_min``
    (the certificate's ``transposes_applied``), whose depth extent is
    min(m, n, p), and counts that input's zero depth slices.
    "via-rank" converts a rank certificate: over GF(q) the exhaustive
    decompositions of each term count from one up, whose first level is
    the exact rank (retrying across decompositions and levels until one
    admits an invertible completion); over complex doubles the numeric
    reduction pipeline; over the rationals the legs of ``rank.bm_rank_one``
    when it finds BM rank one ("via-rank (rank 1)").  Other rational
    inputs, and complex ones with a zero entry (the rank-one test divides
    by entries), certify only their zero depth slices, a lower bound.
    "direct-search" is the exhaustive oracle over tiny prime fields.
    ``budget`` caps every exhaustive enumeration either strategy runs
    over GF(q).  A caller that already holds a decomposition calls
    :func:`hyper_nullity_necessity`.

    The relation computed is rank + nullity <= p, not an equality:
    sufficiency turns z zero slices into a (p - z)-term decomposition.
    Equality fails on 8 of the 256 GF(2) 2x2x2 inputs, each of rank one
    and nullity 0 (``tests/test_census.py``).
    """
    if strategy == "direct-search":
        return nullity_direct_search(a, budget=budget)
    if strategy != "via-rank":
        raise ValueError(f"unknown strategy {strategy!r}")
    oriented, tcount = orient_depth_min(a)
    dom = a.domain
    if oriented.is_zero():
        return _zero_pair_certificate(oriented, tcount)
    label = "via-rank"
    if dom.kind == "gf":
        found, label = _via_rank_over_gf(oriented, budget, seed)
    elif dom.kind == "complex" and not any(map(dom.is_zero, oriented.data)):
        triple = generic_rank_pipeline(oriented, seed=seed).triple
        found = hyper_nullity_necessity(oriented, triple, seed=seed)
    elif (dom.kind == "rational" and not any(map(dom.is_zero, oriented.data))
          and (legs := bm_rank_one(oriented)[1])):
        found = hyper_nullity_necessity(oriented, DecompositionTriple(*legs, (0,)), seed=seed)
        label = "via-rank (rank 1)"
    else:
        # any other input: certify the visible zero depth slices
        found = hyper_nullity_necessity(oriented, _zero_slice_triple(oriented), seed=seed)
        label = "via-rank (zero-slice lower bound)"
    return replace(found, strategy=label, transposes_applied=tcount)
