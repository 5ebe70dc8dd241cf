"""Weyl groups given by their simple reflections, over the rationals.

A group holds the r simple-reflection matrices, which act on simple-coroot
coordinates by integers (exact and hashable); the ambient action on the
realization of t is recovered through the coroot basis.  The order |W| is
the product of the degrees, read off the root heights (Kostant), so nothing
on the CLI path enumerates W.  The full element list is a breadth-first
closure over the simple reflections, built only when read (by
`face_stabilizer`, and by the tests as an oracle): every stored word is
reduced and the ordering is deterministic, by word length, then word, then
matrix entries.  `weyl_orbit` closes only the full orbit W.x; orbits of
parabolic subgroups W_J are closed on vertex indices, through the generator
permutations that `vertex_permutations` returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

from .errors import CapExceededError, InvalidInputError, TheoremViolationError
from .linalg import Vector, dot, inverse, mat_mul, mat_vec, nullspace, transpose
from .roots import ChamberPoint, RootSystem

#: desk-scale guard on the group order
DEFAULT_WEYL_CAP = 2000

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WeylElement:
    """One group element: integer matrix on coroot coordinates + reduced word."""

    matrix: IntMatrix
    word: tuple[int, ...]


class WeylGroup:
    """The Weyl group of a root system, given by its simple reflections."""

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        r = root_system.rank
        self.generators = tuple(WeylElement(matrix=_generator_matrix(root_system, i), word=(i,))
                                for i in range(r))
        # The exponents are the partition dual to the numbers of positive
        # roots of each height; |W| is the product of the degrees 1 + m.
        heights = Counter(sum(c) for c in root_system.positive_coords).values()
        self.order = prod(1 + sum(1 for n in heights if n >= j) for j in range(1, r + 1))
        coroots = [root_system.coroot(a) for a in root_system.simple_roots]
        #: ambient coroot-basis matrix (columns are simple coroots)
        self._basis = transpose(tuple(coroots))
        bt = tuple(coroots)
        gram = tuple(tuple(dot(u, v) for v in coroots) for u in coroots)
        self._left_inv = mat_mul(inverse(gram), bt)

    def __len__(self) -> int:
        return self.order

    @cached_property
    def elements(self) -> tuple[WeylElement, ...]:
        """Every element, by closing the simple reflections breadth first."""
        identity = self.identity.matrix
        words: dict[IntMatrix, tuple[int, ...]] = {identity: ()}
        layer = [identity]
        while layer:
            next_layer = []
            for m in sorted(layer):
                for gen in self.generators:
                    nm = _int_mat_mul(gen.matrix, m)
                    if nm not in words:
                        words[nm] = gen.word + words[m]
                        next_layer.append(nm)
            layer = next_layer
        if len(words) != self.order:
            raise TheoremViolationError("enumerated %d Weyl group elements of %s, expected %d (bug)"
                                        % (len(words), self.root_system.name, self.order))
        return tuple(WeylElement(matrix=m, word=w)
                     for m, w in sorted(words.items(), key=lambda kv: (len(kv[1]), kv[1], kv[0])))

    @property
    def identity(self) -> WeylElement:
        r = self.root_system.rank
        return WeylElement(matrix=tuple(tuple(int(i == j) for j in range(r)) for i in range(r)),
                           word=())

    def apply(self, element: WeylElement, v: Vector) -> Vector:
        """Action on an ambient vector of the root span."""
        coords = mat_vec(self._left_inv, v)
        moved = tuple(sum((Fraction(m) * c for m, c in zip(row, coords)), Fraction(0))
                      for row in element.matrix)
        return mat_vec(self._basis, moved)

    def fixed_subspace(self, elements: Iterable[WeylElement]) -> tuple[Vector, ...]:
        """Basis (in ambient coordinates) of the subspace of t fixed by all elements."""
        rows: list[Vector] = []
        r = self.root_system.rank
        for e in elements:
            for i in range(r):
                row = tuple(Fraction(e.matrix[i][j] - (1 if i == j else 0)) for j in range(r))
                rows.append(row)
        if not rows:
            basis = tuple(tuple(Fraction(1 if i == j else 0) for j in range(r)) for i in range(r))
        else:
            basis = nullspace(rows)
        return tuple(mat_vec(self._basis, b) for b in basis)


def _generator_matrix(rs: RootSystem, i: int) -> IntMatrix:
    """Matrix of the simple reflection s_i on simple-coroot coordinates.

    s_i sends the coroot b_j to b_j - C[i][j] * b_i with C the Cartan matrix.
    """
    r = rs.rank
    rows = [[1 if k == j else 0 for j in range(r)] for k in range(r)]
    for j in range(r):
        rows[i][j] -= rs.cartan_matrix[i][j]
    return tuple(tuple(row) for row in rows)


def _int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def build_weyl_group(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> WeylGroup:
    """The Weyl group of a root system, from its simple reflections.

    Rejects groups larger than `cap` (desk-scale guard: |W| bounds the orbit
    closure, which runs before the hull cap is checked).
    """
    group = WeylGroup(rs)
    if group.order > cap:
        raise CapExceededError("Weyl group of %s has more than %d elements; "
                               "raise the cap to proceed" % (rs.name, cap))
    for gen, alpha in zip(group.generators, rs.simple_roots):
        for a in rs.simple_roots:
            if group.apply(gen, a) != rs.reflect(alpha, a):
                raise TheoremViolationError("generator action mismatch (bug)")
    return group


def weyl_orbit(group: WeylGroup, x: ChamberPoint | Vector) -> tuple[Vector, ...]:
    """Orbit of a point of t under the group, closed under the simple reflections.

    Returns deduplicated vectors in lexicographic order; the orbit size always
    divides the group order.
    """
    rs = group.root_system
    start = x.vector if isinstance(x, ChamberPoint) else tuple(x)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for alpha in rs.simple_roots:
            w = rs.reflect(alpha, v)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    orbit = tuple(sorted(seen))
    if group.order % len(orbit) != 0:
        raise TheoremViolationError("orbit size %d does not divide |W| = %d (bug)"
                                    % (len(orbit), group.order))
    return orbit


def vertex_permutations(group: WeylGroup, vectors: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    """Permutation action of each simple reflection on a W-stable list of vectors.

    Entry i sends the index of v to the index of s_i(v).  Raises
    InvalidInputError if the list is not stable under the group.
    """
    rs = group.root_system
    index = {v: i for i, v in enumerate(vectors)}
    perms = []
    for alpha in rs.simple_roots:
        images = tuple(index.get(rs.reflect(alpha, v)) for v in vectors)
        if None in images:
            raise InvalidInputError("vertex set is not stable under the Weyl group")
        perms.append(images)
    return tuple(perms)
