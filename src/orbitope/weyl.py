"""Weyl groups given by their simple reflections, acting on Dynkin labels.

The only action of W in the package is the integer one on Dynkin labels
(D. M. Snow, "Weyl group orbits", ACM Trans. Math. Software 16, 1990): for
lambda = Sum_j lambda_j w_j, s_i(lambda) = lambda - lambda_i * (row i of the
Cartan matrix), because that row is alpha_i in fundamental-weight
coordinates.  `weyl_orbit` closes W.x once on integer label tuples into an
`Orbit`, which every later stage reads as it is: `vertex_permutations` steps
each point's labels and looks the images up, giving the r simple reflections
as permutations of the vertex indices, through which every orbit of faces
and of a parabolic subgroup W_J is closed; `reflection_neighbours` finds the
points s_beta.x, beta a positive root, by the same step with beta's labels in
place of a Cartan row.  The order |W| is the product of the degrees, read
off the root heights (Kostant); the same formula on the singular set S of x
gives |W_S| and so the orbit size |W.x| = |W| / |W_S|.  Nothing enumerates W.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import CapExceededError, TheoremViolationError
from .linalg import Vector, dot, int_dot, integral_rows, lincomb, point_str, primitive
from .roots import ChamberPoint, RootSystem

Labels = tuple[int, ...]

#: desk-scale guard on the orbit size |W.x|, the CLI's default --orbit-cap
DEFAULT_ORBIT_CAP = 200


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


class Orbit:
    """W.x in the lexicographic order of its vectors: point k has the labels
    `labels[k]` and the vector `vectors[k]` = `ints[k]` / `scale`, the one
    common denominator; `index` sends labels to k; x is point `x_index`.
    Its length is the number of points."""

    __slots__ = ("labels", "ints", "scale", "vectors", "index", "x_index")

    def __init__(self, labels: tuple[Labels, ...], ints: tuple[tuple[int, ...], ...],
                 scale: int, vectors: tuple[Vector, ...], index: dict[Labels, int],
                 x_index: int):
        self.labels, self.ints, self.scale = labels, ints, scale
        self.vectors, self.index, self.x_index = vectors, index, x_index

    def __eq__(self, other):
        if type(other) is not Orbit:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def __len__(self) -> int:
        return len(self.labels)


def weyl_orbit(group: WeylGroup, x: ChamberPoint, cap: int | None = None) -> Orbit:
    """The orbit W.x, closed on x's labels scaled to integers.

    Raises CapExceededError when |W.x| exceeds `cap`, before anything is
    closed; the closure's size must equal |W.x|.
    """
    rs = group.root_system
    size = group.orbit_size(x)
    if cap is not None and size > cap:
        raise CapExceededError("the orbit W.x has %d points, the orbit cap is %d"
                               % (size, cap))
    (start,), scale = integral_rows([x.coords])
    seen = {start}
    closed = [start]
    for labels in closed:
        for i in range(rs.rank):
            if labels[i]:
                image = _reflect_labels(rs.cartan_matrix, i, labels)
                if image not in seen:
                    seen.add(image)
                    closed.append(image)
    if len(closed) != size:
        raise TheoremViolationError("orbit closure has %d points, |W|/|W_S| = %d (bug)"
                                    % (len(closed), size))
    # integer points over one common denominator sort as the vectors do
    weights, weight_scale = integral_rows(rs.fundamental_weights)
    columns = tuple(zip(*weights))
    points = sorted((tuple(int_dot(labels, c) for c in columns), labels) for labels in closed)
    scale *= weight_scale
    index = {labels: k for k, (_, labels) in enumerate(points)}
    return Orbit(labels=tuple(index), ints=tuple(p for p, _ in points), scale=scale,
                 vectors=tuple(tuple(Fraction(c, scale) for c in p) for p, _ in points),
                 index=index, x_index=index[start])


def reflection_neighbours(group: WeylGroup, orbit: Orbit) -> tuple[int, ...]:
    """The indices in `orbit` of the points s_beta.x other than x, beta a
    positive root, in increasing order and without repeats.

    On Dynkin labels s_beta(lambda) = lambda - <lambda, beta^vee> b, where
    beta = Sum_j c_j alpha_j has the labels b = Sum_j c_j (row j of the
    Cartan matrix), b_j = <beta, alpha_j^vee>.  With l_j = alpha_j.alpha_j,
    lambda.alpha_j = lambda_j l_j / 2 and beta.alpha_j = b_j l_j / 2, so
    <lambda, beta^vee> = 2 lambda.beta / beta.beta is the integer
    2 Sum_j c_j lambda_j l_j / Sum_j c_j b_j l_j.  Each image is looked up by
    its labels; one that is not in the orbit raises.
    """
    rs = group.root_system
    labels = orbit.labels[orbit.x_index]
    lengths = primitive([dot(a, a) for a in rs.simple_roots])
    weighted = [lam * ln for lam, ln in zip(labels, lengths)]
    found = set()
    for beta, coeffs in zip(rs.positive_roots, rs.positive_coords):
        root = [int_dot(coeffs, column) for column in zip(*rs.cartan_matrix)]
        pairing = (2 * int_dot(coeffs, weighted)
                   // int_dot(coeffs, [b * ln for b, ln in zip(root, lengths)]))
        if pairing:
            k = orbit.index.get(tuple(lam - pairing * b for lam, b in zip(labels, root)))
            if k is None:
                image = rs.reflect(beta, orbit.vectors[orbit.x_index])
                raise TheoremViolationError("reflection image %s of x is not in W.x (bug)"
                                            % point_str(image))
            found.add(k)
    return tuple(sorted(found))


def vertex_permutations(group: WeylGroup, orbit: Orbit) -> tuple[tuple[int, ...], ...]:
    """The r simple reflections as permutations of the orbit's points: entry
    i sends the index of v to that of s_i(v), looked up by its labels.  An
    image that is not in the orbit raises."""
    rs = group.root_system
    perms = []
    for i in range(rs.rank):
        images = tuple(orbit.index.get(_reflect_labels(rs.cartan_matrix, i, labels))
                       for labels in orbit.labels)
        if None in images:
            raise TheoremViolationError("s_%d of orbit point %d is not in W.x (bug)"
                                        % (i + 1, images.index(None)))
        perms.append(images)
    return tuple(perms)
