"""Twenty parameter pairs drawn from the whole square (0, 1)^2.

``random.Random(7)`` draws x and y each as ``randint(1, 40)/41`` and
rejects a pair within 0.05 of the diagonal x = y or the antidiagonal
x + y = 1, where the prisms degenerate.  Tests that must hold away from
the canonical pairs run over these, not over pairs picked by hand.
"""

import random
from fractions import Fraction


def sweep_pairs():
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 20:
        x, y = Fraction(rng.randint(1, 40), 41), Fraction(rng.randint(1, 40), 41)
        if abs(x - y) >= 0.05 and abs(x + y - 1) >= 0.05:
            pairs.append((x, y))
    return pairs
