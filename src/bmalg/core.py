"""Dense order-3 hypermatrices and the matrix/vector bridge.

:class:`Hypermatrix` and :class:`Matrix` share one dense base class:
a flat row-major scalar list with a shape and a domain, so entry
``A[i0, i1, i2]`` of an ``(n0, n1, n2)`` hypermatrix lives at flat
index ``i0*n1*n2 + i1*n2 + i2``.  The base constructor checks the
extents and the data length and stores each GF(q) entry as
``ScalarDomain.coerce`` casts it; the base also states the entry-wise
algebra, the comparisons and the JSON codec once.  The subclasses add
indexing and their constructors, plus transposes and
``Hypermatrix.restack``, which cuts, pads, drops and reorders the slices
along one axis by copying runs of the flat data (``Hypermatrix``), or
the elimination kernels and ``Matrix.matmul``, the one matrix product,
which folds each row against a column slice of the flat data in index
order (``Matrix``).  All values are immutable; slicing copies.

:func:`echelon` is the one elimination routine in the package.  The
``Matrix`` rank, determinant, inverse, solve and nullspace kernels and
:func:`complete_to_basis` call it, as does the GF(q) fiber solver of
the exhaustive rank search (``rank._fiber_solutions``).  Flattening
blocks of inverse pairs, those of the direct-search nullity included,
are inverted through ``Matrix.inverse``.  Over Q it eliminates
fraction-free on integer rows (Bareiss, Math. Comp. 22, 1968), so its
loop does Python-int arithmetic only; the kernels read ratios of those
integers and return the same Fractions as elimination over Fractions.

``BATCH_ENTRIES`` bounds the numpy arrays of two batched scans: the
candidate batches (outer-leg values times an inner-leg block) of the
exhaustive GF(q) rank searches (``rank._fiber_search``) and the probe
stacks of ``inverse.sandwich_check``.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass

from .errors import ShapeError
from .scalars import RATIONAL_KIND, ScalarDomain

# Most array entries per batch (512 KiB of int64) of rank._fiber_search
# and inverse.sandwich_check.
BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SliceSpec:
    """Pin one axis of a hypermatrix: row (axis 0), column (axis 1) or
    depth (axis 2)."""

    axis: int
    index: int

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ShapeError(f"axis must be 0, 1 or 2, got {self.axis}")

    @staticmethod
    def row(index):
        return SliceSpec(0, index)

    @staticmethod
    def column(index):
        return SliceSpec(1, index)

    @staticmethod
    def depth(index):
        return SliceSpec(2, index)


class _Dense:
    """Flat row-major scalar storage shared by :class:`Hypermatrix` and
    :class:`Matrix`, with the entry-wise algebra and the JSON codec.

    The constructor is the one place that checks the extents and the
    data length and that stores GF(q) entries as canonical
    representatives in ``[0, q)``, through ``ScalarDomain.coerce``.
    """

    __slots__ = ("shape", "data", "domain")
    NDIM = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each subclass holds the codec in its own namespace, ``from_json``
        # as a staticmethod fixed to the subclass: benchmarks/tracing.py
        # patches the methods it finds in a class ``__dict__``.
        cls.to_json = _Dense.to_json
        cls.from_json = staticmethod(functools.partial(_Dense.from_json.__func__, cls))

    def __init__(self, shape, data, domain: ScalarDomain):
        shape = tuple(shape)
        if len(shape) != self.NDIM:
            raise ShapeError(
                f"{type(self).__name__} shape must have {self.NDIM} extents, "
                f"got {shape}"
            )
        size = 1
        for extent in shape:
            if extent <= 0:
                raise ShapeError(f"extents must be positive, got {shape}")
            size *= extent
        q = domain.q  # None outside GF(q)
        data = (list(data) if q is None else
                [v % q if type(v) is int else domain.coerce(v) for v in data])
        if len(data) != size:
            raise ShapeError(
                f"data length {len(data)} does not match shape {shape}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- entry-wise algebra ------------------------------------------------------
    # GF(q) results are reduced by the constructor.

    def add(self, other):
        self._check_binary(other)
        return type(self)(
            self.shape, [a + b for a, b in zip(self.data, other.data)], self.domain
        )

    def sub(self, other):
        self._check_binary(other)
        return type(self)(
            self.shape, [a - b for a, b in zip(self.data, other.data)], self.domain
        )

    def scale(self, c):
        c = self.domain.coerce(c)
        return type(self)(self.shape, [c * a for a in self.data], self.domain)

    def _check_binary(self, other):
        self.domain.check_same(other.domain)
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")

    def equals(self, other):
        self._check_binary(other)
        return all(map(self.domain.eq, self.data, other.data))

    def is_zero(self):
        return all(map(self.domain.is_zero, self.data))

    def max_deviation(self, other) -> float:
        self._check_binary(other)
        magnitude = self.domain.magnitude
        # Equal exact entries deviate by 0.0 without a subtraction; the
        # zero stays in the sequence, so max() sees what it saw before.
        # Complex entries always subtract: inf == inf, but inf - inf is nan.
        exact = self.domain.is_exact
        return max(
            (0.0 if exact and a == b else magnitude(a - b)
             for a, b in zip(self.data, other.data)),
            default=0.0,
        )

    def norm(self) -> float:
        magnitude = self.domain.magnitude
        try:
            return sum(magnitude(a) ** 2 for a in self.data) ** 0.5
        except OverflowError:
            for idx, a in enumerate(self.data):
                size = magnitude(a)
                try:
                    size ** 2
                except OverflowError:
                    raise OverflowError(
                        f"{type(self).__name__} of shape {self.shape}: the square "
                        f"of entry {idx} (magnitude {size:.3e}) overflows the "
                        f"Frobenius norm"
                    ) from None
            raise

    # -- interop -----------------------------------------------------------------

    def to_numpy(self):
        import numpy as np
        return np.array([complex(a) for a in self.data], dtype=complex).reshape(
            self.shape
        )

    def to_json(self):
        dom = self.domain
        return {
            "domain": dom.to_json(),
            "shape": list(self.shape),
            "data": [dom.encode(a) for a in self.data],
        }

    @classmethod
    def from_json(cls, obj):
        dom = ScalarDomain.from_json(obj["domain"])
        return cls(obj["shape"], [dom.decode(a) for a in obj["data"]], dom)

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.shape}, domain={self.domain.kind})"


class Hypermatrix(_Dense):
    __slots__ = ()
    NDIM = 3

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_function(shape, domain, fn):
        n0, n1, n2 = shape
        data = [
            domain.coerce(fn(i, j, k))
            for i in range(n0)
            for j in range(n1)
            for k in range(n2)
        ]
        return Hypermatrix(shape, data, domain)

    @staticmethod
    def zeros(shape, domain):
        n0, n1, n2 = shape
        return Hypermatrix(shape, [domain.zero()] * (n0 * n1 * n2), domain)

    @staticmethod
    def from_nested(nested, domain):
        n0 = len(nested)
        n1 = len(nested[0])
        n2 = len(nested[0][0])
        data = [
            domain.coerce(nested[i][j][k])
            for i in range(n0)
            for j in range(n1)
            for k in range(n2)
        ]
        return Hypermatrix((n0, n1, n2), data, domain)

    @staticmethod
    def random(shape, domain, rng: random.Random, nonzero=False):
        pick = domain.random_nonzero if nonzero else domain.random
        n0, n1, n2 = shape
        return Hypermatrix(
            shape, [pick(rng) for _ in range(n0 * n1 * n2)], domain
        )

    # -- access ---------------------------------------------------------------

    def flat_index(self, i0, i1, i2):
        n0, n1, n2 = self.shape
        if not (0 <= i0 < n0 and 0 <= i1 < n1 and 0 <= i2 < n2):
            raise ShapeError(f"index ({i0},{i1},{i2}) out of range for {self.shape}")
        return i0 * n1 * n2 + i1 * n2 + i2

    def __getitem__(self, idx):
        return self.data[self.flat_index(*idx)]

    def to_nested(self):
        n0, n1, n2 = self.shape
        return [
            [[self[i, j, k] for k in range(n2)] for j in range(n1)]
            for i in range(n0)
        ]

    # -- transposition and slicing ---------------------------------------------

    def transpose(self):
        """Cyclic transpose: result shape (n1, n2, n0) with
        result[i0, i1, i2] = self[i2, i0, i1]."""
        n0, n1, n2 = self.shape
        step = n1 * n2
        data = self.data
        return Hypermatrix(
            (n1, n2, n0),
            [v for ab in range(step) for v in data[ab::step]],
            self.domain,
        )

    def transpose_times(self, times):
        out = self
        for _ in range(times % 3):
            out = out.transpose()
        return out

    def restack(self, axis, picks):
        """Slice s along ``axis`` of the result is slice ``picks[s]`` of
        self, or a zero slice where the pick is None; the other extents
        are unchanged.  Copies contiguous runs, outer x picks x inner."""
        extent = self.shape[axis] if axis in (0, 1, 2) else 0
        if not extent or not picks or set(picks).difference([None], range(extent)):
            raise ShapeError(f"restack of shape {self.shape} needs axis 0, 1 or 2 and "
                             f"nonempty picks, each None or in range({extent}); got "
                             f"axis {axis}, picks {picks}")
        inner = math.prod(self.shape[axis + 1:])
        zeros, data, out = [self.domain.zero()] * inner, self.data, []
        for base in range(0, len(data), extent * inner):
            for t in picks:
                out += zeros if t is None else data[base + t * inner : base + (t + 1) * inner]
        shape = self.shape[:axis] + (len(picks),) + self.shape[axis + 1:]
        return Hypermatrix(shape, out, self.domain)

    def slice(self, spec: SliceSpec):
        """Copy out a degenerate-axis sub-hypermatrix with one index pinned."""
        axis, idx = spec.axis, spec.index
        if not (0 <= idx < self.shape[axis]):
            raise ShapeError(f"slice index {idx} out of range for axis {axis}")
        return self.restack(axis, [idx])

    def mat_of_depth(self, k) -> "Matrix":
        """The depth matrix slice: rows x cols = n0 x n1, entry [i,j] = A[i,j,k]."""
        n0, n1, n2 = self.shape
        if not (0 <= k < n2):
            raise ShapeError(f"depth index {k} out of range (n2={n2})")
        return Matrix((n0, n1), self.data[k::n2], self.domain)

    def depth_matrices(self):
        return [self.mat_of_depth(k) for k in range(self.shape[2])]


def reassemble_depth(matrices, domain=None) -> Hypermatrix:
    """Inverse of depth_matrices: stack n0 x n1 matrices along axis 2."""
    dom = domain or matrices[0].domain
    n0, n1 = matrices[0].shape
    n2 = len(matrices)
    for m in matrices:
        if m.shape != (n0, n1):
            raise ShapeError("depth matrices must share one shape")
    return Hypermatrix.from_function(
        (n0, n1, n2), dom, lambda i, j, k: matrices[k][i, j]
    )


def numerators(values):
    """Integer numerators of the rationals ``values`` over their least
    common denominator, and that denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def echelon(rows, ncols, domain: ScalarDomain):
    """Gauss-Jordan elimination of ``rows`` in place over ``domain``.

    Pivots are taken only in the first ``ncols`` columns; trailing
    columns ride along as the augmentation.  Exact domains pivot on the
    first nonzero entry, the complex domain on the entry of largest
    modulus above ``tol``.  Pivot rows are not normalised: row ``r``
    ends with a nonzero ``rows[r][pivot_cols[r]]``, zero (within
    ``tol`` over C) above and below it, and rows past
    ``len(pivot_cols)`` are zero in the first ``ncols`` columns.
    Returns (pivot_cols, sign).

    Over GF(q) and C, ``sign`` is the swap parity, +1 or -1.  Over Q
    the elimination is fraction-free (Bareiss): each row, augmentation
    included, is first multiplied by the lcm of its denominators, and
    every update ``(p * row - f * pivot_row) // previous_pivot`` divides
    exactly, since the entries stay minors of the scaled rows.  The
    rows come back as ints, each a nonzero multiple of the row that
    Fraction elimination would leave, and every pivot equals the last
    one.  ``sign`` is the swap parity times the product of the row
    scales, so a nonsingular square input with no augmentation has
    determinant ``rows[-1][-1] / sign``.
    """
    m = len(rows)
    q = domain.q  # None outside GF(q)
    exact = domain.is_exact
    rational = domain.kind == RATIONAL_KIND
    # exact zeros are falsy, so the exact test needs no method call
    is_zero = operator.not_ if exact else domain.is_zero
    pivot_cols = []
    sign = 1
    if rational:
        for i, row in enumerate(rows):
            rows[i], scale = numerators(row)
            sign *= scale
        prev = 1
    pr = 0
    for pc in range(ncols):
        best = None
        if exact:
            for i in range(pr, m):
                if not is_zero(rows[i][pc]):
                    best = i
                    break
        else:
            mag = 0.0
            for i in range(pr, m):
                a = abs(rows[i][pc])
                if a > mag and not is_zero(rows[i][pc]):
                    mag, best = a, i
        if best is None:
            continue
        if best != pr:
            rows[pr], rows[best] = rows[best], rows[pr]
            sign = -sign
        pivot = rows[pr]
        if rational:
            # every row moves to the next minors, those with f == 0 too
            p = pivot[pc]
            for i in range(m):
                if i != pr:
                    f = rows[i][pc]
                    rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], pivot)]
            prev = p
        else:
            inv_p = domain.inv(pivot[pc])
            for i in range(m):
                if i == pr or is_zero(rows[i][pc]):
                    continue
                f = rows[i][pc] * inv_p
                if q is None:
                    rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
                else:
                    rows[i] = [(a - f * b) % q for a, b in zip(rows[i], pivot)]
        pivot_cols.append(pc)
        pr += 1
        if pr == m:
            break
    return pivot_cols, sign


class Matrix(_Dense):
    __slots__ = ()
    NDIM = 2

    @staticmethod
    def from_function(m, n, domain, fn):
        data = [domain.coerce(fn(i, j)) for i in range(m) for j in range(n)]
        return Matrix((m, n), data, domain)

    @staticmethod
    def from_rows(rows, domain):
        m = len(rows)
        n = len(rows[0])
        return Matrix.from_function(m, n, domain, lambda i, j: rows[i][j])

    @staticmethod
    def zeros(m, n, domain):
        return Matrix((m, n), [domain.zero()] * (m * n), domain)

    @staticmethod
    def identity(n, domain):
        one, zero = domain.one(), domain.zero()
        data = [one if i == j else zero for i in range(n) for j in range(n)]
        return Matrix((n, n), data, domain)

    @staticmethod
    def random(m, n, domain, rng, nonzero=False):
        pick = domain.random_nonzero if nonzero else domain.random
        return Matrix((m, n), [pick(rng) for _ in range(m * n)], domain)

    def __getitem__(self, idx):
        i, j = idx
        m, n = self.shape
        if not (0 <= i < m and 0 <= j < n):
            raise ShapeError(f"index ({i},{j}) out of range for {self.shape}")
        return self.data[i * n + j]

    def row(self, i):
        m, n = self.shape
        return self.data[i * n : (i + 1) * n]

    def col(self, j):
        m, n = self.shape
        return [self.data[i * n + j] for i in range(m)]

    def to_rows(self):
        return [self.row(i) for i in range(self.shape[0])]

    def matmul(self, other):
        self.domain.check_same(other.domain)
        m, k1 = self.shape
        k2, n = other.shape
        if k1 != k2:
            raise ShapeError(f"matmul mismatch {self.shape} x {other.shape}")
        # sum() would round floats differently from 3.12 on: fold in t order
        zero, cols = self.domain.zero(), [other.data[j::n] for j in range(n)]
        out = [functools.reduce(operator.add, map(operator.mul, row, col), zero)
               for row in self.to_rows() for col in cols]
        # GF(q) entries are reduced by the constructor
        return Matrix((m, n), out, self.domain)

    # -- elimination-based kernels ------------------------------------------------

    def rank(self) -> int:
        return len(echelon(self.to_rows(), self.shape[1], self.domain)[0])

    def det(self):
        m, n = self.shape
        if m != n:
            raise ShapeError("determinant needs a square matrix")
        dom = self.domain
        rows = self.to_rows()
        pivots, sign = echelon(rows, n, dom)
        if len(pivots) < n:
            return dom.zero()
        if dom.kind == RATIONAL_KIND:
            return dom.div(rows[-1][-1], sign)
        d = dom.one() if sign == 1 else dom.neg(dom.one())
        for r, c in enumerate(pivots):
            d = dom.mul(d, rows[r][c])
        return d

    def inverse(self):
        m, n = self.shape
        if m != n:
            raise ShapeError("inverse needs a square matrix")
        dom = self.domain
        one, zero = dom.one(), dom.zero()
        rows = [
            self.row(i) + [one if i == j else zero for j in range(n)] for i in range(n)
        ]
        pivots, _ = echelon(rows, n, dom)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        # full rank puts pivot r in row r; GF(q) entries are reduced by the
        # constructor
        data = []
        for r, row in enumerate(rows):
            f = dom.inv(row[r])
            data.extend(f * a for a in row[n:])
        return Matrix((n, n), data, dom)

    def solve(self, rhs_cols):
        """Solve self @ X = RHS for each rhs column; None if inconsistent.

        Free variables are set to zero, making the solution deterministic.
        ``rhs_cols`` is a list of columns; returns a list of solution
        columns (length n each).
        """
        dom = self.domain
        m, n = self.shape
        for col in rhs_cols:
            if len(col) != m:
                raise ShapeError(
                    f"rhs column of length {len(col)} for a matrix of shape {self.shape}"
                )
        rows = [self.row(i) + [col[i] for col in rhs_cols] for i in range(m)]
        pivots, _ = echelon(rows, n, dom)
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

    def nullspace(self):
        """Basis of {x : self @ x = 0}, deterministic free-variable pattern."""
        dom = self.domain
        m, n = self.shape
        rows = self.to_rows()
        pivots, _ = echelon(rows, n, dom)
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


def diag(vector, domain) -> Matrix:
    """Square matrix with the given vector on the diagonal."""
    n = len(vector)
    vec = [domain.coerce(v) for v in vector]
    zero = domain.zero()
    return Matrix.from_function(
        n, n, domain, lambda i, j: vec[i] if i == j else zero
    )


def complete_to_basis(rows, n, domain):
    """Indices of identity rows extending independent ``rows`` to a basis.

    The returned column indices are the non-pivot columns of the row
    matrix, so appending those unit rows always restores full rank.
    """
    for row in rows:
        if len(row) != n:
            raise ShapeError(f"row of length {len(row)} in a basis of length {n}")
    if not rows:
        return list(range(n))
    mat = Matrix.from_rows(rows, domain)
    pivots, _ = echelon(mat.to_rows(), n, domain)
    if len(pivots) < len(rows):
        raise ValueError("given rows are linearly dependent")
    return [c for c in range(n) if c not in pivots]
