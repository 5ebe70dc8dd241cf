"""Root systems of types A-G over exact rationals.

Realizations are the standard integer / half-integer coordinate ones, so every
root, weight and chamber point has exact Fraction coordinates.  A point x of
the Cartan subalgebra t is represented by the ambient vector X with
-i*alpha(x) = d(alpha, X) for every root alpha (d the coordinate dot product);
in these real coordinates the complexified chamber condition -i*alpha(v) > 0
reads d(alpha, v) > 0.  The Killing pairing is the literal trace-form sum
Sum_{alpha in Delta} d(alpha,u)*d(alpha,v), i.e. the honest -B restricted to t
under that dictionary, not a short-root normalization.

That sum is never taken at run time.  For a connected simple-root subset c,
the Killing form <u, v>_c of its simple subalgebra (the sum over Delta_c) is
W_c-invariant on span(c), on which W_c acts irreducibly, so it is ratio_c
times d there; it is zero once one argument is orthogonal to span(c).  So
with u in span(c) and v anywhere, <u, v>_c = ratio_c * d(u, v), and the form
of a subset with several components is the sum of its factors' forms.
Evaluating at a simple root alpha of c, where d(a, alpha) = <a, alpha^vee>
d(alpha, alpha)/2, gives ratio_c = d(alpha, alpha)/2 * Sum_{a in Delta_c^+}
<a, alpha^vee>^2, an integer sum read off the simple-root coordinates and
the Cartan matrix (`killing_ratio_of`).  On the whole system this is
`killing_ratio`.

The root system is closed in simple-root coordinates, which are integers: the
simple reflection s_i sends b to b - (Sum_j b_j C[j][i]) e_i, C the Cartan
matrix; so are the positive coroots on the simple coroots
(`positive_coroot_coords`), whose dot product with lambda's Dynkin labels is
the one source of <lambda, beta^vee>.  A connected simple-root subset is
labelled by (r, n, s), its rank, its number of positive roots and how many
of those are short, which tell the Cartan types apart (Bourbaki, Lie Groups
and Lie Algebras, Ch. VI, Plates).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidInputError, TheoremViolationError
from .linalg import (Vector, closure, dot, inverse, lincomb, transpose, vadd, vec,
                     vscale, vsub)

#: admissible ranks per Cartan letter (rank 8 is the desk-scale ceiling)
VALID_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}

_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}.get(n),
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _unit(m: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(m))


def _simple_root_realization(type_label: str, rank: int) -> tuple[int, tuple[Vector, ...]]:
    """Ambient dimension and simple roots in the standard realization."""
    e = _unit
    if type_label == "A":
        m = rank + 1
        return m, tuple(vsub(e(m, i), e(m, i + 1)) for i in range(rank))
    if type_label == "B":
        m = rank
        simples = [vsub(e(m, i), e(m, i + 1)) for i in range(rank - 1)]
        simples.append(e(m, rank - 1))
        return m, tuple(simples)
    if type_label == "C":
        m = rank
        simples = [vsub(e(m, i), e(m, i + 1)) for i in range(rank - 1)]
        simples.append(vscale(Fraction(2), e(m, rank - 1)))
        return m, tuple(simples)
    if type_label == "D":
        m = rank
        simples = [vsub(e(m, i), e(m, i + 1)) for i in range(rank - 1)]
        simples.append(vadd(e(m, rank - 2), e(m, rank - 1)))
        return m, tuple(simples)
    if type_label == "G":
        return 3, (vec([1, -1, 0]), vec([-2, 1, 1]))
    if type_label == "F":
        return 4, (vec([0, 1, -1, 0]), vec([0, 0, 1, -1]), vec([0, 0, 0, 1]),
                   vec(["1/2", "-1/2", "-1/2", "-1/2"]))
    # type E in the Bourbaki coordinates of E8; E6/E7 are the leading simples
    m = 8
    half = Fraction(1, 2)
    a1 = (half, -half, -half, -half, -half, -half, -half, half)
    a2 = vadd(e(m, 0), e(m, 1))
    chain = tuple(vsub(e(m, i + 1), e(m, i)) for i in range(6))
    return m, ((a1, a2) + chain)[:rank]


def _killing_ratio(simples: Sequence[Vector], cartan: Sequence[Sequence[int]],
                   coords: Sequence[Sequence[int]], comp: Sequence[int]) -> Fraction:
    """ratio_c of the connected subset comp, given the simple-root coordinates
    of its positive roots: d(alpha, alpha)/2 * Sum <a, alpha^vee>^2 at alpha =
    the first simple root of comp."""
    i = comp[0]
    total = sum(sum(bj * cartan[j][i] for j, bj in enumerate(b)) ** 2 for b in coords)
    return dot(simples[i], simples[i]) / 2 * total


class RootSystem(NamedTuple):
    """Exact root data for one simple type at a fixed rank."""

    type_label: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    #: integer coefficients of each positive root on the simple basis
    positive_coords: tuple[tuple[int, ...], ...]
    cartan_matrix: tuple[tuple[int, ...], ...]
    fundamental_weights: tuple[Vector, ...]
    fundamental_coweights: tuple[Vector, ...]
    #: Killing / coordinate-dot ratio on the root span (a positive integer)
    killing_ratio: Fraction
    #: d(a, a) of each positive root
    root_lengths: tuple[Fraction, ...]
    #: integer coefficients of each positive coroot on the simple coroots
    positive_coroot_coords: tuple[tuple[int, ...], ...]

    # -- basic queries ------------------------------------------------------

    @property
    def name(self) -> str:
        return "%s%d" % (self.type_label, self.rank)

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_group(self) -> int:
        """dim K = rank + 2*|Delta_+| (each root plane Z_alpha is 2-dim)."""
        return self.rank + 2 * self.n_positive

    @staticmethod
    def coroot(alpha: Vector) -> Vector:
        return vscale(Fraction(2) / dot(alpha, alpha), alpha)

    @staticmethod
    def reflect(alpha: Vector, v: Vector) -> Vector:
        c = Fraction(2) * dot(alpha, v) / dot(alpha, alpha)
        return tuple(x - c * a for x, a in zip(v, alpha))

    def killing_ratio_of(self, comp: Sequence[int]) -> Fraction:
        """The Killing / dot ratio ratio_c of one connected simple-root subset."""
        coords = [self.positive_coords[k] for k in self.subsystem_positive(comp)]
        return _killing_ratio(self.simple_roots, self.cartan_matrix, coords, comp)

    def root_label(self, i: int) -> str:
        return "a%d" % (i + 1)

    # -- Dynkin diagram combinatorics --------------------------------------

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan_matrix[i][j] != 0

    def components(self, subset: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Connected components of a simple-root subset, ordered by least index."""
        nodes = set(subset)
        comps = {tuple(sorted(closure([i], lambda k: (j for j in nodes if self.adjacent(k, j)))))
                 for i in nodes}
        return tuple(sorted(comps))

    def subsystem_positive(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Indices of positive roots supported on the given simple subset."""
        s = set(subset)
        return tuple(k for k, coeffs in enumerate(self.positive_coords)
                     if all(c == 0 or i in s for i, c in enumerate(coeffs)))

    def component_type(self, comp: Sequence[int]) -> str:
        """Cartan label ('A3', 'B2', ...) of one connected simple-root subset.

        The label is read off (r, n, s): the rank, the number of positive roots
        and how many of those are short (s = 0 when all have one length).
        """
        r = len(comp)
        lengths = [self.root_lengths[k] for k in self.subsystem_positive(comp)]
        n, longest = len(lengths), max(lengths, default=0)
        s = sum(1 for length in lengths if length < longest)
        if s == 0:
            # A before D: a three-node fork of D has the count of A3.
            letter = "A" if n == r * (r + 1) // 2 else "D" if n == r * (r - 1) else "E"
        elif r == 2:
            letter = "G" if n == 6 else "B"
        elif r == 4 and n == 24:
            letter = "F"
        else:
            letter = "B" if s == r else "C"
        if n != _POSITIVE_COUNTS[letter](r):
            raise TheoremViolationError("component %s has %d positive roots, %d short: "
                                        "no Cartan type of rank %d (bug)" % (tuple(comp), n, s, r))
        return "%s%d" % (letter, r)

    def _path_order(self, comp: tuple[int, ...], degrees: dict[int, int]) -> list[int]:
        """Walk a chain component end-to-end, starting at the smaller endpoint."""
        ends = sorted(i for i in comp if degrees[i] <= 1)
        order = [ends[0]]
        while len(order) < len(comp):
            nxt = [j for j in comp if j not in order and self.adjacent(order[-1], j)]
            order.append(nxt[0])
        return order


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct exact root data; rejects invalid (type, rank) pairs."""
    type_label = str(type_label).upper()
    if type_label not in VALID_RANKS:
        raise InvalidInputError("unknown root system type %r (expected one of A-G)" % type_label)
    if rank not in VALID_RANKS[type_label]:
        raise InvalidInputError(
            "invalid pair %s_%d: admissible ranks for type %s are %s" %
            (type_label, rank, type_label, list(VALID_RANKS[type_label])))
    ambient_dim, simples = _simple_root_realization(type_label, rank)

    simple_lengths = [dot(a, a) for a in simples]  # l_j = d(alpha_j, alpha_j)
    cartan_q = tuple(tuple(2 * dot(a, b) / lb for b, lb in zip(simples, simple_lengths))
                     for a in simples)
    if any(c.denominator != 1 for row in cartan_q for c in row):
        raise TheoremViolationError("non-integral Cartan entry (bug in realization)")
    cartan = tuple(tuple(int(c) for c in row) for row in cartan_q)

    # Close the simple roots under the simple reflections in simple-root
    # coordinates; for an irreducible system this BFS reaches the whole root
    # set, which has twice as many roots as the classical positive count.
    # Not `linalg.closure`: the size guard must stop a non-finite Cartan matrix.
    expected = _POSITIVE_COUNTS[type_label](rank)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(units)
    frontier = list(units)
    while frontier:
        b = frontier.pop()
        for i in range(rank):
            pairing = sum(bj * cartan[j][i] for j, bj in enumerate(b))
            w = b[:i] + (b[i] - pairing,) + b[i + 1:]
            if w not in roots:
                roots.add(w)
                frontier.append(w)
        if len(roots) > 2 * expected:
            raise TheoremViolationError(
                "root closure exceeds %d roots: the Cartan matrix of %s%d is not of "
                "finite type (bug in realization)" % (2 * expected, type_label, rank))

    # Keep the nonnegative coordinate vectors; each root is one sign.
    coords: list[tuple[int, ...]] = []
    for b in roots:
        if all(c >= 0 for c in b):
            coords.append(b)
        elif not all(c <= 0 for c in b):
            raise TheoremViolationError("root with mixed-sign expansion (bug in realization)")
    coords.sort(key=lambda b: (sum(b), b))
    if len(coords) != expected:
        raise TheoremViolationError("positive root count %d != classical %d for %s%d (bug)"
                                    % (len(coords), expected, type_label, rank))

    pos_roots = tuple(lincomb(b, simples) for b in coords)
    lengths = tuple(dot(a, a) for a in pos_roots)
    # beta = Sum_j c_j alpha_j has beta^vee = Sum_j c_j l_j / d(beta, beta) alpha_j^vee
    ratios = {lb: [(q.numerator, q.denominator) for q in (la / lb for la in simple_lengths)]
              for lb in set(lengths)}
    coroot_q = [[divmod(c * num, den) for c, (num, den) in zip(b, ratios[lb])]
                for b, lb in zip(coords, lengths)]
    if any(rest for row in coroot_q for _, rest in row):
        raise TheoremViolationError("non-integral coroot coordinate (bug in realization)")
    coroots = tuple(RootSystem.coroot(a) for a in simples)

    # Fundamental weights (dual to simple coroots) and coweights (dual to
    # simple roots), both inside the root span: their coefficients are the
    # rows and the columns of the inverse Cartan matrix.
    inv_c = inverse(cartan_q)
    weights = tuple(lincomb(row, simples) for row in inv_c)
    coweights = tuple(lincomb(column, coroots) for column in transpose(inv_c))

    for i, w in enumerate(weights):
        if [dot(w, h) for h in coroots] != [int(i == j) for j in range(rank)]:
            raise TheoremViolationError("fundamental weight duality failed (bug)")
    return RootSystem(
        type_label=type_label,
        rank=rank,
        ambient_dim=ambient_dim,
        simple_roots=simples,
        positive_roots=pos_roots,
        positive_coords=tuple(coords),
        cartan_matrix=cartan,
        fundamental_weights=weights,
        fundamental_coweights=coweights,
        killing_ratio=_killing_ratio(simples, cartan, coords, range(rank)),
        root_lengths=lengths,
        positive_coroot_coords=tuple(tuple(c for c, _ in row) for row in coroot_q),
    )


class ChamberPoint(NamedTuple):
    """A rational point of the closed positive Weyl chamber.

    `coords` are the fundamental-weight coordinates (the user-facing basis);
    `vector` is the same point in the ambient realization of t.
    """

    root_system: RootSystem
    coords: Vector
    vector: Vector
    singular_set: tuple[int, ...]

    def __repr__(self) -> str:
        # leaves out the root system, which is long
        return ("ChamberPoint(coords=%r, vector=%r, singular_set=%r)"
                % (self.coords, self.vector, self.singular_set))


def chamber_point(rs: RootSystem, coords: Sequence) -> ChamberPoint:
    """Validate fundamental-weight coordinates and build the chamber point.

    Rejects points outside the closed chamber and non-full points (a whole
    simple factor of K acting trivially), naming the dead component.
    """
    cs = vec(coords)
    if len(cs) != rs.rank:
        raise InvalidInputError("expected %d coordinates for %s, got %d"
                                % (rs.rank, rs.name, len(cs)))
    negative = [i for i, c in enumerate(cs) if c < 0]
    if negative:
        raise InvalidInputError(
            "coordinate %s is negative: the point is outside the closed positive chamber"
            % rs.root_label(negative[0]))
    singular = tuple(i for i, c in enumerate(cs) if c == 0)
    for comp in rs.components(range(rs.rank)):
        if all(i in singular for i in comp):
            raise InvalidInputError(
                "point is not full: the simple factor on {%s} acts trivially "
                "(reduce to the other factors first)"
                % ",".join(rs.root_label(i) for i in comp))
    pt = ChamberPoint(root_system=rs, coords=cs, vector=lincomb(cs, rs.fundamental_weights),
                      singular_set=singular)
    for i, a in enumerate(rs.simple_roots):
        expected_zero = (i in singular)
        if (dot(a, pt.vector) == 0) != expected_zero:
            raise TheoremViolationError("singular set inconsistent with realization (bug)")
    return pt
