"""Hypothesis strategies for random rings and random class-constant Q,
shared by the cross-oracle property tests."""

from fractions import Fraction as Fr

from hypothesis import strategies as st

from ringwalk.chain import ClassDistribution
from ringwalk.rings import (
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)


def ring_factor(room):
    """A strategy for Z_m, B2(F_p), M2(F_2) or M2(F_3) with at most `room`
    elements."""
    fixed = ((8, upper_triangular_ring, 2), (27, upper_triangular_ring, 3),
             (125, upper_triangular_ring, 5), (16, matrix_ring, 2),
             (81, matrix_ring, 3))
    return st.one_of([st.integers(2, room).map(zn_ring)]
                     + [st.builds(make, st.just(arg))
                        for size, make, arg in fixed if size <= room])


def random_ring(draw, room=128):
    """A product of up to three factors with at most `room` elements."""
    ring = draw(ring_factor(room))
    for _ in range(draw(st.integers(0, 2))):
        if 2 * ring.n > room:
            break
        ring = product_ring(ring, draw(ring_factor(room // ring.n)))
    return ring


def random_class_q(draw, ring):
    """A class-constant Q with integer class weights 0..9, not all 0."""
    part = ring.similarity
    w = draw(st.lists(st.integers(0, 9), min_size=len(part),
                      max_size=len(part)))
    w[part.class_of[ring.one]] += 1
    total = sum(x * len(c) for x, c in zip(w, part.classes))
    return ClassDistribution(ring, [Fr(x, total) for x in w])
