"""Weight integrality of the orbit and its descent to faces.

The ambient verdict uses the lattice pairing 2(x,alpha)/(alpha,alpha) of the
coordinate dot product (on su(n), the trace form; the Killing form is
`killing_ratio` times it on the root span, so the ratio is the same), whose
values on the simple roots are exactly the fundamental-weight coordinates.
The induced face weight x1' solves <x1', y>_F = <x1, y> against the honest
Killing form of k_F (the sum over Delta_I), and its verdict evaluates the
induced functional on coroots; with these conventions an integral orbit
induces an integral weight on every face, exactly.  Each Killing value is a
per-factor ratio times the dot product, as argued in `roots`: on the factor
of a component c of I the form of k_F is `killing_ratio_of(c)` times d, so
x1' is x1 rescaled by killing_ratio / ratio_c on each component c of I.
Both the Knapp-style value and its half (the alternative display differing
by the known factor of two) are emitted per root for audit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInputError
from .faces import FaceDescriptor
from .linalg import Vector, dot, lincomb, solve, vscale
from .roots import ChamberPoint, RootSystem


class PairingRow(NamedTuple):
    root: Vector
    knapp: Fraction
    half_display: Fraction


class WeightData(NamedTuple):
    """Integrality audit of the point x."""

    is_integral: bool
    pairings: tuple[PairingRow, ...]


class FaceWeight(NamedTuple):
    """The weight induced on K_F by a face, with its own audit table."""

    I: tuple[int, ...]
    x1: Vector
    x1_prime: Vector
    pairings: tuple[PairingRow, ...]
    is_integral: bool


def check_integral(rs: RootSystem, x: ChamberPoint) -> WeightData:
    """Exact pairing table of x over the full root set and the verdict."""
    rows = []
    for a in rs.all_roots():
        knapp = 2 * dot(x.vector, a) / dot(a, a)
        rows.append(PairingRow(root=a, knapp=knapp, half_display=knapp / 2))
    return WeightData(is_integral=all(r.knapp.denominator == 1 for r in rows),
                      pairings=tuple(rows))


def induce_face_weight(rs: RootSystem, x: ChamberPoint, d: FaceDescriptor) -> FaceWeight:
    """Solve <x1', y>_F = <x1, y> for the face weight and audit its integrality.

    x1 is the orthogonal projection of x onto t intersect k_F = span(I), the
    one solve here; x1' rescales its coefficients per component.  Vertex
    faces (I empty) carry the trivial group K_F and are rejected; the improper
    descriptor is allowed and returns x1' = x, the form of k_F being the
    ambient one.
    """
    if not d.I:
        raise InvalidInputError(
            "vertex faces carry the trivial group K_F; no induced weight exists")
    basis = [rs.simple_roots[i] for i in d.I]
    coeffs = solve(tuple(tuple(dot(a, b) for b in basis) for a in basis),
                   tuple(dot(b, x.vector) for b in basis))
    x1 = lincomb(coeffs, basis)
    # ratio_c of the component c of I holding each simple root; simple roots
    # of different components are orthogonal, so one ratio serves a row
    ratio = {i: rs.killing_ratio_of(c) for c in rs.components(d.I) for i in c}
    x1p = lincomb([c * rs.killing_ratio / ratio[i] for i, c in zip(d.I, coeffs)], basis)

    rows = []
    for k in d.sub_roots_I:
        root = rs.positive_roots[k]
        # a root of Delta_I lies in the span of one component
        factor = ratio[next(i for i in d.I if rs.positive_coords[k][i])]
        value = factor * 2 * dot(x1p, root) / rs.root_lengths[k]
        rows.append(PairingRow(root=root, knapp=value, half_display=value / 2))
        rows.append(PairingRow(root=vscale(Fraction(-1), root), knapp=-value,
                               half_display=-value / 2))
    return FaceWeight(I=d.I, x1=x1, x1_prime=x1p, pairings=tuple(rows),
                      is_integral=all(r.knapp.denominator == 1 for r in rows))

