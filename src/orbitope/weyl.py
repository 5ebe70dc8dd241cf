"""Weyl groups given by their simple reflections, acting on Dynkin labels.

The only action of W in the package is the integer one on Dynkin labels
(D. M. Snow, "Weyl group orbits", ACM Trans. Math. Software 16, 1990): for
lambda = Sum_j lambda_j w_j, s_i(lambda) = lambda - lambda_i * (row i of the
Cartan matrix), because that row is alpha_i in fundamental-weight
coordinates.  `weyl_orbit` closes W.x once, by a breadth-first search on
integer label tuples, into an `Orbit` that every later stage reads as it is:
the points as integer rows, each stepped from its parent's with the labels,
and the r simple reflections as permutations of the points, through which
every orbit of faces and of a parabolic subgroup W_J is closed; s_i for a
negative label lambda_i takes a point one step closer to x, the only
dominant point of W.x (J. E. Humphreys, Introduction to Lie Algebras and
Representation Theory, 10.3 and 13.2).  `reflection_neighbours`
finds each s_beta.x, beta a positive root, by the same step with beta's
labels for a Cartan row.  |W| is the product of the degrees, read off the
root heights (Kostant); the same formula on the singular set S of x gives
|W_S| and so the orbit size |W.x| = |W| / |W_S|.  Nothing enumerates W.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import CapExceededError, TheoremViolationError
from .linalg import int_dot, integral_rows, lincomb, point_str
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
    `labels[k]` and the vector `ints[k]` / `scale`, the one common
    denominator; `index` sends labels to k; x is point `x_index`, the one
    point with no negative label.  `perms[i]` sends k to the index of s_i of
    point k.  Its length is the number of points."""

    __slots__ = ("labels", "ints", "scale", "index", "x_index", "perms")

    def __init__(self, labels: tuple[Labels, ...], ints: tuple[tuple[int, ...], ...],
                 scale: int, index: dict[Labels, int], x_index: int,
                 perms: tuple[tuple[int, ...], ...]):
        self.labels, self.ints, self.scale, self.index = labels, ints, scale, index
        self.x_index, self.perms = x_index, perms

    def __len__(self) -> int:
        return len(self.labels)


def weyl_orbit(group: WeylGroup, x: ChamberPoint, cap: int | None = None) -> Orbit:
    """The orbit W.x, closed on x's labels scaled to integers by one
    breadth-first search that records each generator's image of each point
    (a point with lambda_i = 0 is its own s_i-image) and each new point's
    integer row, its parent's less lambda_i * alpha_i.

    Raises CapExceededError when |W.x| exceeds `cap`, before anything is
    closed; the closure's size must equal |W.x|.
    """
    rs = group.root_system
    size = group.orbit_size(x)
    if cap is not None and size > cap:
        raise CapExceededError("the orbit W.x has %d points, the orbit cap is %d"
                               % (size, cap))
    (start,), scale = integral_rows([x.coords])
    weights, weight_scale = integral_rows(rs.fundamental_weights)
    # labels on the weight columns: x's row, then alpha_i's from Cartan row i
    start_row, *alphas = (tuple(int_dot(row, c) for c in zip(*weights))
                          for row in (start, *rs.cartan_matrix))
    seen, closed, ints = {start: 0}, [start], [start_row]
    images: list[list[int]] = [[] for _ in range(rs.rank)]
    # Not `linalg.closure`: one pass records every image and each row.
    for k, labels in enumerate(closed):
        for i, row in enumerate(images):
            j = k
            if labels[i]:
                image = _reflect_labels(rs.cartan_matrix, i, labels)
                j = seen.setdefault(image, len(closed))
                if j == len(closed):
                    closed.append(image)
                    ints.append(tuple(v - labels[i] * a for v, a in zip(ints[k], alphas[i])))
            row.append(j)
    if len(closed) != size:
        raise TheoremViolationError("orbit closure has %d points, |W|/|W_S| = %d (bug)"
                                    % (len(closed), size))
    # integer points over one common denominator sort as the vectors do;
    # search order k -> sorted order new[k]
    order = sorted(range(size), key=ints.__getitem__)
    new = sorted(range(size), key=order.__getitem__)
    labels = tuple(closed[k] for k in order)
    return Orbit(labels=labels, ints=tuple(ints[k] for k in order),
                 scale=scale * weight_scale, index={m: n for n, m in enumerate(labels)},
                 x_index=new[0], perms=tuple(tuple(new[row[k]] for k in order) for row in images))


def reflection_neighbours(group: WeylGroup, orbit: Orbit) -> tuple[int, ...]:
    """The indices in `orbit` of the points s_beta.x other than x, beta a
    positive root, in increasing order and without repeats.

    On Dynkin labels s_beta(lambda) = lambda - <lambda, beta^vee> b, where
    beta = Sum_j c_j alpha_j has the labels b = Sum_j c_j (row j of the
    Cartan matrix), b_j = <beta, alpha_j^vee>, and <lambda, beta^vee> is lambda
    dotted with beta's row of `positive_coroot_coords`.  Each image is looked
    up by its labels; one that is not in the orbit raises.
    """
    rs = group.root_system
    labels = orbit.labels[orbit.x_index]
    found = set()
    for beta, coeffs, coroot in zip(rs.positive_roots, rs.positive_coords,
                                    rs.positive_coroot_coords):
        pairing = int_dot(coroot, labels)
        if pairing:
            root = [int_dot(coeffs, column) for column in zip(*rs.cartan_matrix)]
            k = orbit.index.get(tuple(lam - pairing * b for lam, b in zip(labels, root)))
            if k is None:
                x = [Fraction(c, orbit.scale) for c in orbit.ints[orbit.x_index]]
                image = rs.reflect(beta, x)
                raise TheoremViolationError("reflection image %s of x is not in W.x (bug)"
                                            % point_str(image))
            found.add(k)
    return tuple(sorted(found))


def vertex_permutations(group: WeylGroup, orbit: Orbit) -> tuple[tuple[int, ...], ...]:
    """The r simple reflections as permutations of the orbit's points, as
    the closure recorded them (`Orbit.perms`)."""
    return orbit.perms
