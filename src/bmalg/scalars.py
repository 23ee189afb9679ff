"""Scalar domains: exact rationals, prime fields GF(q), complex doubles.

Scalar values are plain Python objects (``Fraction``, ``int`` in
``[0, q)``, ``complex``); a :class:`ScalarDomain` carries the arithmetic,
the equality policy and the JSON encoding for those values.  Exact
domains compare by canonical representation; the complex domain uses a
relative tolerance ``|a - b| <= tol * (1 + max(|a|, |b|))``.

:meth:`ScalarDomain.coerce` is the one cast rule: a rational p/d lands in
GF(q) as p * d^{-1} mod q and a float only when integral, else ValueError.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatchError

MAX_PRIME_FIELD = 251
DEFAULT_COMPLEX_TOL = 1e-9

RATIONAL_KIND = "rational"
GF_KIND = "gf"
COMPLEX_KIND = "complex"


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ScalarDomain:
    """One of the three scalar domains every other module works over."""

    kind: str
    q: int | None = None
    tol: float = 0.0

    def __post_init__(self):
        if self.kind == RATIONAL_KIND:
            if self.q is not None or self.tol != 0.0:
                raise ValueError("rational domain takes no modulus and tol 0")
        elif self.kind == GF_KIND:
            if not isinstance(self.q, int) or not _is_prime(self.q):
                raise ValueError(f"GF modulus must be a prime int, got {self.q!r}")
            if self.q > MAX_PRIME_FIELD:
                raise ValueError(f"GF modulus limited to {MAX_PRIME_FIELD}")
            if self.tol != 0.0:
                raise ValueError("exact domains use tol 0")
        elif self.kind == COMPLEX_KIND:
            if self.q is not None:
                raise ValueError("complex domain takes no modulus")
            if not 0.0 <= self.tol < math.inf:
                raise ValueError(
                    f"non-finite or negative complex tolerance {self.tol!r}"
                )
        else:
            raise ValueError(f"unknown scalar domain kind {self.kind!r}")

    # -- construction -----------------------------------------------------

    @property
    def is_exact(self):
        return self.kind != COMPLEX_KIND

    def check_same(self, other):
        if self != other:
            raise DomainMismatchError(f"domain mismatch: {self} vs {other}")

    def coerce(self, value):
        """Bring an int/str/float/Fraction/complex into this domain; ValueError when
        GF(q) has no image: a denominator divisible by q, or a non-integral float."""
        if self.kind == RATIONAL_KIND:
            return Fraction(value)
        if self.kind == GF_KIND:
            if isinstance(value, int):
                return value % self.q
            if isinstance(value, Fraction):
                d = value.denominator
                if d % self.q == 0:
                    raise ValueError(f"denominator {d} not invertible mod {self.q}")
                return value.numerator * pow(d, -1, self.q) % self.q
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"GF({self.q}) needs an integral entry, got {value!r}")
            return int(value) % self.q
        if isinstance(value, (list, tuple)):
            return complex(value[0], value[1])
        return complex(value)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        if self.kind == GF_KIND:
            return (a + b) % self.q
        return a + b

    def sub(self, a, b):
        if self.kind == GF_KIND:
            return (a - b) % self.q
        return a - b

    def mul(self, a, b):
        if self.kind == GF_KIND:
            return (a * b) % self.q
        return a * b

    def neg(self, a):
        if self.kind == GF_KIND:
            return (-a) % self.q
        return -a

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on (near-)zero."""
        if self.is_zero(a):
            raise ZeroDivisionError("scalar not invertible (zero within tolerance)")
        if self.kind == GF_KIND:
            return pow(a, self.q - 2, self.q)
        if self.kind == RATIONAL_KIND:
            return Fraction(1) / a
        return 1.0 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- comparison ---------------------------------------------------------

    def eq(self, a, b):
        if self.kind == COMPLEX_KIND:
            return abs(a - b) <= self.tol * (1.0 + max(abs(a), abs(b)))
        return a == b

    def is_zero(self, a):
        if self.kind == COMPLEX_KIND:
            return abs(a) <= self.tol
        return a == 0

    def magnitude(self, a):
        """A float size proxy used only for residual reporting."""
        if self.kind == RATIONAL_KIND:
            return float(abs(a))
        if self.kind == GF_KIND:
            return 0.0 if a == 0 else 1.0
        return abs(a)

    # -- sampling ------------------------------------------------------------

    def random(self, rng: random.Random):
        if self.kind == RATIONAL_KIND:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if self.kind == GF_KIND:
            return rng.randrange(self.q)
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

    def random_nonzero(self, rng: random.Random):
        if self.kind == RATIONAL_KIND:
            num = rng.choice([n for n in range(-9, 10) if n != 0])
            return Fraction(num, rng.randint(1, 9))
        if self.kind == GF_KIND:
            return rng.randrange(1, self.q)
        # modulus in [0.5, 1.5] keeps entries bounded away from zero
        r = 0.5 + rng.random()
        theta = rng.uniform(0.0, 6.283185307179586)
        return r * cmath.exp(1j * theta)

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        if self.kind == RATIONAL_KIND:
            return {"kind": RATIONAL_KIND}
        if self.kind == GF_KIND:
            return {"kind": GF_KIND, "q": self.q}
        return {"kind": COMPLEX_KIND, "tol": self.tol}

    @staticmethod
    def from_json(obj):
        kind = obj["kind"]
        if kind == RATIONAL_KIND:
            return rational()
        if kind == GF_KIND:
            return gf(obj["q"])
        if kind == COMPLEX_KIND:
            return complex_doubles(obj.get("tol", DEFAULT_COMPLEX_TOL))
        raise ValueError(f"unknown scalar domain kind {kind!r}")

    def encode(self, a):
        """Encode one scalar value for JSON transport."""
        if self.kind == RATIONAL_KIND:
            return f"{a.numerator}/{a.denominator}"
        if self.kind == GF_KIND:
            return int(a)
        return [a.real, a.imag]

    def decode(self, obj):
        """Decode one JSON scalar; complex entries must be finite [re, im]."""
        if self.kind == COMPLEX_KIND and not (isinstance(obj, list) and len(obj) == 2):
            raise ValueError(f"complex entry must be [re, im], got {obj!r}")
        value = self.coerce(obj)
        if self.kind == COMPLEX_KIND and not cmath.isfinite(value):
            raise ValueError(f"non-finite complex entry {obj!r}")
        return value


def rational() -> ScalarDomain:
    return ScalarDomain(RATIONAL_KIND)


def gf(q: int) -> ScalarDomain:
    return ScalarDomain(GF_KIND, q=q)


def complex_doubles(tol: float = DEFAULT_COMPLEX_TOL) -> ScalarDomain:
    return ScalarDomain(COMPLEX_KIND, tol=tol)
