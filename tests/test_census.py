"""Census of BM rank and via-rank nullity over every GF(2) 2x2x2 input,
and of both exhaustive rank searches against a closure that uses neither.

Sufficiency turns an invertible pair with z zero depth slices into a
(p - z)-term decomposition, so rank + nullity <= p on every input.  The
census pins where equality fails: on 8 of the 256 inputs, all of BM
rank one, no rank-one decomposition completes to an invertible pair
and the nullity is 0.
"""

import itertools
from collections import Counter

from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.nullity import nullity
from bmalg.rank import bm_rank_exhaustive, cp_rank_exhaustive
from helpers import closure_ranks

GF2 = scalars.gf(2)


def test_gf2_2x2x2_rank_nullity_census():
    census = Counter()
    short = []
    for data in itertools.product(range(2), repeat=8):
        a = Hypermatrix((2, 2, 2), list(data), GF2)
        r = bm_rank_exhaustive(a).r
        z = nullity(a, strategy="via-rank").nullity
        census[r, z] += 1
        assert r + z <= 2, data
        if r + z < 2:
            short.append(list(data))
    assert census == {(0, 2): 1, (1, 1): 157, (1, 0): 8, (2, 0): 90}
    assert len(short) == 8
    assert [0, 0, 0, 1, 1, 0, 1, 1] in short


def test_gf2_2x2x2_rank_searches_match_the_closure():
    bm, cp = closure_ranks((2, 2, 2), 2), closure_ranks((2, 2, 2), 2, cp=True)
    assert Counter(bm.values()) == {0: 1, 1: 165, 2: 90}
    assert Counter(cp.values()) == {0: 1, 1: 27, 2: 162, 3: 66}
    for data in itertools.product(range(2), repeat=8):
        a = Hypermatrix((2, 2, 2), list(data), GF2)
        assert bm_rank_exhaustive(a).r == bm[data] <= cp[data] == cp_rank_exhaustive(a).r, data
