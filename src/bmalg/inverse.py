"""Inverse pairs of hypermatrices.

A pair (A, B) with A of shape (m, p, p) and B of shape (p, n, p) acts on
every (m, n, p) hypermatrix X through the sandwich Prod(A, X, B).  The
pair is invertible when some (C, D) of the same shapes undoes the
action: Prod(C, Prod(A, X, B), D) = X for all X.  Flattening the
composed action gives a block-diagonal matrix with one p x p block per
position (i, j).  The pair is invertible exactly when every block
inverts and every slice G_{t,k} of the inverse blocks factors as a
column times a row; the factors are (C, D).

This module states that test once, in one block loop:
:func:`_invertible_blocks` builds block (i, j) (:func:`_flattening_block`)
from the slices A[i, :, :] of :func:`_row_slices` and B[:, j, :] of
:func:`_col_slices` and inverts each (:func:`_invert_block`), and
:func:`_outer_inverse` factors the inverse slices (at the domain
tolerance over C).  :func:`pair_invertible` and
:func:`recover_outer_inverse`, through :func:`_recover`, and the nullity
module's candidate pairs, given as slices, all decide through these
helpers; :func:`flatten` builds the same blocks only as the public
:class:`FlatteningMatrix` view, and a 2x2 minor
(:func:`_rank_one_violation`) only names a slice that fails.  A caller
decides a pair with one run: the report of :func:`pair_invertible`
carries the recovered (C, D) of an invertible pair, and the nullity
module keeps the factors it accepted.

:func:`sandwich_check` checks a claimed (C, D) on probes and shares no
code with the block loop, since the CLI uses it to re-verify what the
loop recovered.  Over Q and GF(q) it composes, from the four legs' flat
data, the p x p action of the sandwich on each fibre X[i, j, :] once,
and reads every probe's deviation off it exactly; over C it runs each
probe through its own two ternary products.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from . import core
from .core import Hypermatrix, Matrix
from .errors import FactorabilityError, ShapeError
from .products import bm_product, conformability

SCALING_PATTERN = "scaling"
RECOVERED_GAUGE = "first-nonzero-d-entry-is-one"


@dataclass(frozen=True)
class HyperPair:
    """A sandwich-action pair: a is (m, p, p), b is (p, n, p)."""

    a: Hypermatrix
    b: Hypermatrix

    def __post_init__(self):
        self.a.domain.check_same(self.b.domain)
        m, p1, p2 = self.a.shape
        if p1 != p2:
            raise ShapeError(f"left member must be (m, p, p), found {self.a.shape}")
        q0, n, q2 = self.b.shape
        if q0 != p1 or q2 != p1:
            raise ShapeError(
                f"right member must be (p, n, p) with p={p1}, found {self.b.shape}"
            )

    @property
    def dims(self):
        m = self.a.shape[0]
        n = self.b.shape[1]
        p = self.a.shape[1]
        return m, n, p

    @property
    def domain(self):
        return self.a.domain

    def act(self, x: Hypermatrix) -> Hypermatrix:
        return bm_product(self.a, x, self.b)

    def to_json(self):
        return {"A": self.a.to_json(), "B": self.b.to_json()}

    @staticmethod
    def from_json(obj):
        return HyperPair(
            Hypermatrix.from_json(obj["A"]), Hypermatrix.from_json(obj["B"])
        )


@dataclass(frozen=True)
class OuterInversePair:
    """The recovered (C, D) with its gauge convention marker."""

    c: Hypermatrix
    d: Hypermatrix
    gauge: str = RECOVERED_GAUGE

    def act(self, x: Hypermatrix) -> Hypermatrix:
        return bm_product(self.c, x, self.d)

    def to_json(self):
        return {"C": self.c.to_json(), "D": self.d.to_json(), "gauge": self.gauge}


def _scaling_positions(m, n, p):
    """Flat positions of A[i, t, t] (row-major over (i, t)) and of
    B[t, j, t] (row-major over (t, j)): the support of a scaling pair."""
    return (
        [idx * p + idx % p for idx in range(m * p)],
        [idx * p + idx // n for idx in range(p * n)],
    )


def _scaling_legs(alpha_data, beta_data, m, n, p, dom):
    """The (m, p, p) and (p, n, p) legs carrying the flat entries of
    alpha and beta on the scaling support, zero elsewhere."""
    a_at, b_at = _scaling_positions(m, n, p)
    zero = dom.zero()
    a, b = [zero] * (m * p * p), [zero] * (p * n * p)
    for at, v in zip(a_at, alpha_data):
        a[at] = v
    for at, v in zip(b_at, beta_data):
        b[at] = v
    return Hypermatrix((m, p, p), a, dom), Hypermatrix((p, n, p), b, dom)


def scaling_pair(alpha: Matrix, beta: Matrix) -> HyperPair:
    """The entry-scaling family: A[i,t,k] = alpha[i,t] on t == k,
    B[t,j,k] = beta[t,j] on t == k, zero off the diagonal pattern.

    The action is Prod(A, X, B)[i,j,k] = alpha[i,k] X[i,j,k] beta[k,j];
    all alpha, beta entries must be nonzero.
    """
    alpha.domain.check_same(beta.domain)
    dom = alpha.domain
    m, p = alpha.shape
    p2, n = beta.shape
    if p2 != p:
        raise ShapeError(
            f"alpha is {alpha.shape} so beta must have {p} rows, found {beta.shape}"
        )
    for idx, v in enumerate(alpha.data):
        if dom.is_zero(v):
            raise ZeroDivisionError(f"alpha entry {idx} is zero")
    for idx, v in enumerate(beta.data):
        if dom.is_zero(v):
            raise ZeroDivisionError(f"beta entry {idx} is zero")
    return HyperPair(*_scaling_legs(alpha.data, beta.data, m, n, p, dom))


def extract_scaling(pair: HyperPair):
    """The (alpha, beta) of a scaling pair; raises when the support
    pattern is violated or a diagonal entry vanishes."""
    m, n, p = pair.dims
    dom = pair.domain
    a_at, b_at = _scaling_positions(m, n, p)
    # scan A, then B, in flat order for the first entry off the pattern
    for name, leg, support in (("A", pair.a, a_at), ("B", pair.b, b_at)):
        on = set(support)
        _, e1, e2 = leg.shape
        for idx, v in enumerate(leg.data):
            if (idx in on) == dom.is_zero(v):
                at = f"{name}[{idx // (e1 * e2)},{idx // e2 % e1},{idx % e2}]"
                if idx in on:
                    raise ZeroDivisionError(f"scaling pattern needs nonzero {at}")
                raise ShapeError(f"not a scaling pair: {at} is nonzero off pattern")
    alpha = Matrix((m, p), [pair.a.data[at] for at in a_at], dom)
    beta = Matrix((p, n), [pair.b.data[at] for at in b_at], dom)
    return alpha, beta


def scaling_inverse(pair: HyperPair) -> OuterInversePair:
    """Invert a scaling pair by inverting its nonzero entries."""
    alpha, beta = extract_scaling(pair)
    dom = pair.domain
    m, n, p = pair.dims
    c, d = _scaling_legs(
        [dom.inv(v) for v in alpha.data], [dom.inv(v) for v in beta.data],
        m, n, p, dom,
    )
    return OuterInversePair(c, d, gauge=SCALING_PATTERN)


@dataclass
class FlatteningMatrix:
    """Block-diagonal flattening of the composed sandwich action.

    Block (i, j) is the p x p matrix with entry [t, s] =
    A[i, s, t] * B[s, j, t]; off-block entries are identically zero and
    never stored.
    """

    m: int
    n: int
    p: int
    blocks: list  # row-major over (i, j)

    def block(self, i, j) -> Matrix:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ShapeError(f"block ({i},{j}) out of range")
        return self.blocks[i * self.n + j]


def _row_slices(flat0, m):
    """The m slices A[i, :, :] of an (m, ell, p) leg's flat data, as
    tuples in (s, t) order: A[i, s, :] is the s-th run of p entries."""
    size = len(flat0) // m
    return [tuple(flat0[at : at + size]) for at in range(0, len(flat0), size)]


def _col_slices(flat1, n, p):
    """The slices B[:, j, :] of an (ell, n, p) leg's flat data, as tuples
    in (s, t) order: B[s, j, :] is the (s n + j)-th run of p entries."""
    runs = [flat1[at : at + p] for at in range(0, len(flat1), p)]
    return [tuple(itertools.chain.from_iterable(runs[j::n])) for j in range(n)]


def _flattening_block(row, col, dom) -> Matrix:
    """Block (i, j) from row = A[i, :, :] and col = B[:, j, :], both flat
    in (s, t) order: entry [t, s] is A[i, s, t] * B[s, j, t], reduced
    by the constructor over GF(q)."""
    p = math.isqrt(len(row))
    return Matrix(
        (p, p), [row[at] * col[at] for t in range(p) for at in range(t, p * p, p)], dom
    )


def flatten(pair: HyperPair) -> FlatteningMatrix:
    m, n, p = pair.dims
    dom, rows = pair.domain, _row_slices(pair.a.data, m)
    cols = _col_slices(pair.b.data, n, p)
    blocks = [_flattening_block(row, col, dom) for row in rows for col in cols]
    return FlatteningMatrix(m=m, n=n, p=p, blocks=blocks)


@dataclass
class InvertibilityReport:
    invertible: bool
    reason: str | None = None
    singular_block: tuple | None = None
    bad_minor: dict | None = None
    inverse: OuterInversePair | None = None  # the recovered (C, D); not serialized

    def __bool__(self):
        return self.invertible

    def to_json(self):
        return {
            "invertible": self.invertible,
            "reason": self.reason,
            "singular_block": list(self.singular_block)
            if self.singular_block
            else None,
            "bad_minor": self.bad_minor,
        }


def _rank_one_violation(g: Matrix, tol):
    """First nonzero 2x2 minor of g, or None when rank <= 1."""
    dom = g.domain
    m, n = g.shape
    v = g.data
    for i0 in range(m):
        for i1 in range(i0 + 1, m):
            for j0 in range(n):
                for j1 in range(j0 + 1, n):
                    t1 = dom.mul(v[i0 * n + j0], v[i1 * n + j1])
                    t2 = dom.mul(v[i0 * n + j1], v[i1 * n + j0])
                    minor = dom.sub(t1, t2)
                    if dom.is_exact:
                        bad = not dom.is_zero(minor)
                    else:
                        bad = abs(minor) > tol * (1.0 + abs(t1) + abs(t2))
                    if bad:
                        return (i0, i1, j0, j1)
    return None


def _invert_block(blk: Matrix):
    """The inverse of a flattening block, or None when it is singular;
    over C also when ||blk inv - I|| > max(tol, 1e-12) 1e3 (1 + ||blk||)."""
    dom = blk.domain
    try:
        inv = blk.inverse()
    except ZeroDivisionError:
        return None
    if not dom.is_exact:
        check = blk.matmul(inv)
        if check.max_deviation(Matrix.identity(blk.shape[0], dom)) > max(
            dom.tol, 1e-12
        ) * 1e3 * (1.0 + blk.norm()):
            return None
    return inv


def _invertible_blocks(rows, cols, memo, domain):
    """The flattening blocks of a pair from its :func:`_row_slices` and
    :func:`_col_slices`, row-major over (i, j), and the flat data of their
    inverses, all as tuples, or (None, (i, j)) at the first singular
    block.  Block (i, j) reads only rows[i] and cols[j], so each distinct
    (row, col) is built and inverted once per ``memo``.  A search over
    many candidates passes a dict that lives for the search (one
    necessity completion sweep, or the direct-search enumeration); one
    pair passes None, since hashing its slices (Fractions over Q) costs
    more than the blocks it would share."""
    blocks, inv_blocks = [], []
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            found = None if memo is None else memo.get((row, col))
            if found is None:
                blk = _flattening_block(row, col, domain)
                inv = _invert_block(blk)
                found = (tuple(blk.data), inv and tuple(inv.data))
                if memo is not None:
                    memo[row, col] = found
            if found[1] is None:
                return None, (i, j)
            blocks.append(found[0])
            inv_blocks.append(found[1])
    return tuple(blocks), inv_blocks


def _factor_rank_one(g: Matrix, tol):
    """Factor a rank-<=1 matrix as (c_i) x (d_j), d gauge-normalized so
    its first nonzero entry (scanning columns ascending) is one."""
    dom = g.domain
    m, n = g.shape
    v = g.data
    column_order = (i * n + j for j in range(n) for i in range(m))
    star = next((idx for idx in column_order if not dom.is_zero(v[idx])), None)
    if star is None:
        return [dom.zero()] * m, [dom.zero()] * n
    i_star, j_star = divmod(star, n)
    anchor = v[star]
    c = v[j_star::n]
    d = [dom.div(x, anchor) for x in v[i_star * n : (i_star + 1) * n]]
    for i in range(m):
        for j in range(n):
            prod = dom.mul(c[i], d[j])
            gij = v[i * n + j]
            if dom.is_exact:
                ok = dom.eq(prod, gij)
            else:
                ok = abs(prod - gij) <= tol * (1.0 + abs(prod) + abs(gij))
            if not ok:
                raise FactorabilityError(
                    f"entries do not factor: position ({i},{j})",
                    minor=(i, j),
                )
    return c, d


def _outer_inverse(inv_blocks, m, n, dom):
    """Factor each slice G_{t,k}[i,j] = block(i,j)^{-1}[k, t] of the
    inverse blocks (flat data, row-major over (i, j)) as C[:,t,k] x
    D[t,:,k]: ((C, D), None), or (None, (t, k, G_{t,k}, failing (i, j)))
    at the first slice in row-major (t, k) order that does not factor."""
    p = math.isqrt(len(inv_blocks[0]))
    c_data, d_data = [None] * (m * p * p), [None] * (p * n * p)
    for t in range(p):
        for k in range(p):
            g = Matrix((m, n), [d[k * p + t] for d in inv_blocks], dom)
            try:
                c_vec, d_vec = _factor_rank_one(g, dom.tol)
            except FactorabilityError as exc:
                return None, (t, k, g, exc.minor)
            c_data[t * p + k :: p * p] = c_vec  # C[i, t, k] over i
            d_data[t * n * p + k : (t + 1) * n * p : p] = d_vec  # D[t, j, k] over j
    return OuterInversePair(
        Hypermatrix((m, p, p), c_data, dom), Hypermatrix((p, n, p), d_data, dom)
    ), None


def _recover(pair: HyperPair):
    """The one invertibility test: (inverse, None), or (None, the first
    singular block (i, j) or the failure of :func:`_outer_inverse`)."""
    m, n, p = pair.dims
    rows, cols = _row_slices(pair.a.data, m), _col_slices(pair.b.data, n, p)
    blocks, found = _invertible_blocks(rows, cols, None, pair.domain)
    if blocks is None:
        return None, found
    return _outer_inverse(found, m, n, pair.domain)


def pair_invertible(pair: HyperPair) -> InvertibilityReport:
    """Decide membership in the hypermatrix general linear set.

    True iff every flattening block has nonzero determinant and, for
    every (t, k), the m x n matrix of inverse-block entries
    G_{t,k}[i,j] = F^{-1}_{(i,j)}[k,t] factors as a column times a row:
    exactly when :func:`recover_outer_inverse` returns.  The diagnostics
    name the first singular block or the first slice that does not
    factor, with its first nonzero 2x2 minor, which decides nothing.
    An invertible report carries the recovered (C, D) as ``inverse``.
    """
    inverse, failure = _recover(pair)
    if failure is None:
        return InvertibilityReport(invertible=True, inverse=inverse)
    if len(failure) == 2:
        return InvertibilityReport(
            invertible=False,
            reason=f"flattening block {failure} is singular",
            singular_block=failure,
        )
    t, k, g, position = failure
    # the first minor above the tolerance, else (over C) the first nonzero
    # one; none when only rounding fails a zero tolerance
    found = _rank_one_violation(g, pair.domain.tol) or _rank_one_violation(g, 0.0)
    return InvertibilityReport(
        invertible=False,
        reason=f"inverse-block slice (t={t}, k={k}) is not rank one: " + (
            f"nonzero minor at rows {found[:2]}, cols {found[2:]}" if found
            else f"entries do not factor at position {position}"
        ),
        bad_minor={"t": t, "k": k, "indices": found and list(found)},
    )


def recover_outer_inverse(pair: HyperPair) -> OuterInversePair:
    """Recover (C, D) from the inverse flattening blocks.

    Each slice G_{t,k} factors as C[:,t,k] x D[t,:,k]; the gauge scale
    cancels in every product C[i,t,k] D[t,j,k], which is all the
    sandwich identity sees, so the fixed first-nonzero-d convention is
    harmless.  Raises FactorabilityError when the pair is not invertible.
    """
    inverse, failure = _recover(pair)
    if failure is None:
        return inverse
    if len(failure) == 2:
        raise FactorabilityError(
            f"flattening block {failure} is singular; pair not invertible",
            block=failure,
        )
    t, k, _, position = failure
    raise FactorabilityError(
        f"slice (t={t}, k={k}) is not rank one; pair not invertible",
        block=(t, k),
        minor=position,
    )


def unit_probe_basis(m, n, p, domain):
    """All m*n*p unit hypermatrices; by linearity of the sandwich in X,
    passing on this basis is passing on every X."""
    size = m * n * p
    one, zero = domain.one(), domain.zero()
    probes = []
    for idx in range(size):
        data = [zero] * size
        data[idx] = one
        probes.append(Hypermatrix((m, n, p), data, domain))
    return probes


def sandwich_check(pair: HyperPair, inverse: OuterInversePair, probes) -> float:
    """Max deviation over probes of Prod(C, Prod(A, X, B), D) from X.

    Each probe is checked for conformability, in order, as its own two
    products would check it, and the first probe also against the depth
    of (C, D), as its deviation from X would check it; an empty probe
    list reads neither leg.

    The sandwich acts fibre by fibre: Prod(C, Prod(A, X, B), D)[i, j, :]
    is a p x p matrix times X[i, j, :].  Over Q and GF(q) that action is
    composed once (:func:`_composed_action`) and each probe's deviation
    read off it exactly (:func:`_composed_check`), with no product.
    Over C each probe runs through its own two products, since composing
    reassociates the float sums; the deviations fold in probe order from
    0.0, so a probe whose deviation is NaN is dropped.

    The transpose conjugates of this identity need no probe of their
    own: T(Prod(A, B, C)) = Prod(T(B), T(C), T(A)), so they re-index the
    same equations.
    """
    probes = _conformed(pair, inverse, probes)
    first = next(probes, None)
    if first is None:
        return 0.0
    depth = inverse.c.shape[2]
    if depth != first.shape[2]:
        raise ShapeError(f"shape mismatch {first.shape[:2] + (depth,)} vs {first.shape}")
    probes = itertools.chain([first], probes)
    if pair.domain.is_exact:
        return _composed_check(pair, inverse, probes)
    worst = 0.0
    for x in probes:
        worst = max(worst, inverse.act(pair.act(x)).max_deviation(x))
    return worst


def _conformed(pair, inverse, probes):
    """The probes, each checked for conformability as it is reached."""
    for x in probes:
        conformability(pair.a, x, pair.b)
        # Prod(A, X, B) has the shape and domain of X
        conformability(inverse.c, x, inverse.d)
        yield x


def _composed_action(pair, inverse):
    """E_ij[k, t] = sum_s C[i,s,k] D[s,j,k] A[i,t,s] B[t,j,s] - den [k == t]
    from the legs' flat data, as Python ints: (the nonzero rows E_ij[k, :],
    each with the flat offset of fibre X[i, j, :], and den).

    Over Q each leg is read as integer numerators over its own common
    denominator, and den is the product of the four; over GF(q) the
    canonical entries are used, den is 1 and every row is reduced mod q.
    So Prod(C, Prod(A, X, B), D) - X is E_ij X[i, j, :] / den on fibre
    (i, j).
    """
    m, n, p = pair.dims
    q = pair.domain.q  # None over Q
    legs = [leg.data for leg in (pair.a, pair.b, inverse.c, inverse.d)]
    if q is None:
        legs, dens = zip(*map(core.numerators, legs))
        den = math.prod(dens)
    else:
        den = 1
    a, b, c, d = legs
    square, run = p * p, n * p
    rows = []
    for i in range(m):
        a_i, c_i = a[i * square : (i + 1) * square], c[i * square : (i + 1) * square]
        for j in range(n):
            # ab[t][s] = A[i,t,s] B[t,j,s] and cd[k][s] = C[i,s,k] D[s,j,k]
            ab = [list(map(operator.mul, a_i[t * p : (t + 1) * p],
                           b[t * run + j * p : t * run + (j + 1) * p]))
                  for t in range(p)]
            cd = [list(map(operator.mul, c_i[k::p], d[j * p + k :: run]))
                  for k in range(p)]
            for k, cd_k in enumerate(cd):
                row = [sum(map(operator.mul, cd_k, ab_t)) for ab_t in ab]
                row[k] -= den
                if q is not None:
                    row = [v % q for v in row]
                if any(row):
                    rows.append(((i * n + j) * p, row))
    return rows, den


def _composed_check(pair, inverse, probes) -> float:
    """The deviation of each probe, read off :func:`_composed_action`.

    When E is zero every probe deviates by exactly 0.0, and no probe
    entry is read.  Otherwise over Q a probe's deviation is the float of
    the exact max |E_ij X[i, j, :]| / (den den_x), den_x the common
    denominator of the probe's numerators: float rounding is monotone,
    so it is the max of the entries' float deviations.  Over GF(q) it is
    1.0 when some entry of E_ij X[i, j, :] is nonzero mod q, and once
    one probe deviates the rest are only checked for conformability.
    """
    rows, den = _composed_action(pair, inverse)
    q = pair.domain.q
    p = pair.dims[2]
    worst = 0.0
    for x in probes:
        if rows and q is None:
            xs, den_x = core.numerators(x.data)
            top = max(abs(sum(map(operator.mul, row, xs[at : at + p])))
                      for at, row in rows)
            worst = max(worst, top / (den * den_x))
        elif rows and not worst:
            xs = x.data
            worst = float(any(sum(map(operator.mul, row, xs[at : at + p])) % q
                              for at, row in rows))
    return worst


def random_pair(m, n, p, domain, rng: random.Random) -> HyperPair:
    """A random scaling pair, the known invertible family that tests and
    the verification suites sample."""
    alpha = Matrix.random(m, p, domain, rng, nonzero=True)
    beta = Matrix.random(p, n, domain, rng, nonzero=True)
    return scaling_pair(alpha, beta)
