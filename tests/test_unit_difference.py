"""The unit-difference argument behind the exact search's case U, checked
with nothing from repfn.

If b - a is a unit u of Z_m for members a, b of A, then
phi(x) = u^-1 (x - a) maps A onto a set containing 0 = phi(a) and
1 = phi(b), and R_{phi A}(u^-1 (g - 2a)) = R_A(g) for every g, where R
counts ordered pairs.  So a basis with a unit difference has a basis with
the same spectrum that contains {0, 1}.
"""

import random
from collections import Counter
from math import gcd


def rep_counts(m, elements):
    return Counter((x + y) % m for x in elements for y in elements)


def test_unit_difference_map_keeps_the_spectrum():
    rng = random.Random(20170509)
    checked = 0
    for m in range(2, 41):
        for _ in range(3):
            A = rng.sample(range(m), rng.randint(2, min(m, 10)))
            R_A = rep_counts(m, A)
            for a in A:
                for b in A:
                    u = (b - a) % m
                    if gcd(u, m) != 1:
                        continue
                    inv = pow(u, -1, m)
                    image = {inv * (x - a) % m for x in A}
                    assert len(image) == len(A)
                    assert {0, 1} <= image, (m, A, a, b)
                    R_image = rep_counts(m, image)
                    for g in range(m):
                        assert R_image[inv * (g - 2 * a) % m] == R_A[g], (m, A, a, b, g)
                    checked += 1
    assert checked > 1000


def test_units_are_closed_under_negation():
    # case N bars e when e - a is a unit for a member a; the search tests
    # a - e instead, which is the same unit test
    for m in range(1, 41):
        units = {x for x in range(m) if gcd(x, m) == 1}
        assert units == {-x % m for x in units}
