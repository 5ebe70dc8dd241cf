"""Weyl groups given by their simple reflections, acting on Dynkin labels.

The only action of W in the package is the integer one on Dynkin labels
(D. M. Snow, "Weyl group orbits", ACM Trans. Math. Software 16, 1990): for
lambda = Sum_j lambda_j w_j, s_i(lambda) = lambda - lambda_i * (row i of the
Cartan matrix), because that row is alpha_i in fundamental-weight
coordinates.  `weyl_orbit` closes W.x on integer label tuples and converts
each point to an ambient vector once; `vertex_permutations` reads each
vertex's labels once and returns the r simple reflections as permutations of
the vertex indices, through which every orbit of faces and of a parabolic
subgroup W_J is closed.  The order |W| is the product of the degrees, read
off the root heights (Kostant); the same formula on the singular set S of x
gives |W_S| and so the orbit size |W.x| = |W| / |W_S|.  Nothing enumerates W.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import CapExceededError, InvalidInputError, TheoremViolationError
from .linalg import Vector, int_dot, integral_rows, lincomb, nullspace
from .roots import ChamberPoint, RootSystem

Labels = tuple[int, ...]


def _order(rs: RootSystem, subset: Sequence[int]) -> int:
    """|W_S| for a set S of simple roots, as the product of its degrees.

    The numbers of positive roots of each height form the partition dual to
    the exponents m; |W_S| is the product of the degrees 1 + m.  This holds
    for a reducible S too: both sides multiply over its components.
    """
    heights = Counter(sum(rs.positive_coords[k]) for k in rs.subsystem_positive(subset)).values()
    return prod(1 + sum(1 for n in heights if n >= j) for j in range(1, len(subset) + 1))


def _reflect_labels(cartan: Sequence[Sequence[int]], i: int, labels: Labels) -> Labels:
    """s_i on Dynkin labels: subtract labels[i] times row i of the Cartan matrix."""
    c = labels[i]
    return tuple(x - c * a for x, a in zip(labels, cartan[i]))


class WeylGroup:
    """The Weyl group of a root system, given by its simple reflections."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self.order = _order(root_system, range(root_system.rank))

    def __len__(self) -> int:
        return self.order

    def orbit_size(self, x: ChamberPoint) -> int:
        """|W.x| = |W| / |W_S|: W_S, S the singular set of x, is the stabilizer of x."""
        return self.order // _order(self.root_system, x.singular_set)


def build_weyl_group(rs: RootSystem, cap: int | None = None) -> WeylGroup:
    """The Weyl group of a root system, from its simple reflections.

    Rejects groups larger than `cap` when one is given, and checks the label
    action against the ambient reflections on every fundamental weight.
    """
    group = WeylGroup(rs)
    if cap is not None and group.order > cap:
        raise CapExceededError("Weyl group of %s has more than %d elements; "
                               "raise the cap to proceed" % (rs.name, cap))
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    for i, alpha in enumerate(rs.simple_roots):
        for unit, weight in zip(units, rs.fundamental_weights):
            moved = _reflect_labels(rs.cartan_matrix, i, unit)
            if lincomb(moved, rs.fundamental_weights) != rs.reflect(alpha, weight):
                raise TheoremViolationError("generator action mismatch (bug)")
    return group


def weyl_orbit(group: WeylGroup, x: ChamberPoint, cap: int | None = None) -> tuple[Vector, ...]:
    """The orbit W.x as ambient vectors in lexicographic order.

    Raises CapExceededError with the hull's message when |W.x| exceeds `cap`,
    before anything is closed; the closure's size must equal |W.x|.
    """
    rs = group.root_system
    size = group.orbit_size(x)
    if cap is not None and size > cap:
        raise CapExceededError("hull input has %d points, cap is %d" % (size, cap))
    (start,), scale = integral_rows([x.coords])
    seen = {start}
    frontier = [start]
    while frontier:
        labels = frontier.pop()
        for i in range(rs.rank):
            if labels[i]:
                image = _reflect_labels(rs.cartan_matrix, i, labels)
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
    if len(seen) != size:
        raise TheoremViolationError("orbit closure has %d points, |W|/|W_S| = %d (bug)"
                                    % (len(seen), size))
    # integer points over one common denominator sort as the vectors do
    weights, weight_scale = integral_rows(rs.fundamental_weights)
    columns = tuple(zip(*weights))
    points = sorted(tuple(int_dot(labels, c) for c in columns) for labels in seen)
    return tuple(tuple(Fraction(c, scale * weight_scale) for c in p) for p in points)


def vertex_permutations(group: WeylGroup, vectors: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """Permutation action of each simple reflection on a W-stable list of vectors.

    Entry i sends the index of v to the index of s_i(v).  A vector is keyed
    by its labels <v, alpha_j^vee> and by its coordinates on the orthogonal
    complement of the root span, which W fixes, all scaled to integers by
    one positive factor.  Raises InvalidInputError if the list is not stable
    under the group.
    """
    rs = group.root_system
    functionals, _ = integral_rows([rs.coroot(a) for a in rs.simple_roots]
                                   + list(nullspace(rs.simple_roots)))
    points, _ = integral_rows(vectors)
    keys = [tuple(int_dot(f, p) for f in functionals) for p in points]
    index = {key: k for k, key in enumerate(keys)}
    perms = []
    for i in range(rs.rank):
        images = tuple(index.get(_reflect_labels(rs.cartan_matrix, i, key[:rs.rank])
                                 + key[rs.rank:]) for key in keys)
        if None in images:
            raise InvalidInputError("vertex set is not stable under the Weyl group")
        perms.append(images)
    return tuple(perms)
