"""Weight integrality of the orbit and its descent to faces.

Every pairing is <x, beta^vee>, the dot product of beta's row of the integer
table `positive_coroot_coords` with x's Dynkin labels, which is the lattice
pairing 2(x,beta)/(beta,beta) of the coordinate dot product.  The face
weight x1' solves <x1', y>_F = <x1, y> against the honest Killing form of
k_F (the sum over Delta_I), x1 the orthogonal projection of x onto span(I).
On the factor of a component c of I that form is `killing_ratio_of(c)`
times d (see `roots`), so x1' is x1 rescaled by killing_ratio / ratio_c on
c, and its verdict ratio_c <x1', beta^vee> on a root of Delta_I is
killing_ratio <x, beta^vee>, since x - x1 is orthogonal to span(I): a face
row is the point's row times `killing_ratio`.  The report adds each value's
half, the alternative display of the same pairing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInputError
from .faces import FaceDescriptor
from .linalg import Vector, dot, lincomb, solve
from .roots import ChamberPoint, RootSystem


class PairingRow(NamedTuple):
    root: Vector
    knapp: Fraction


class WeightData(NamedTuple):
    """Integrality audit of the point x."""

    is_integral: bool
    pairings: tuple[PairingRow, ...]


class FaceWeight(NamedTuple):
    """The weight induced on K_F by a face, with its own audit table."""

    x1: Vector
    x1_prime: Vector
    pairings: tuple[PairingRow, ...]
    is_integral: bool


def _signed(root: Vector, value: Fraction) -> tuple[PairingRow, PairingRow]:
    """The rows of a positive root and of its negative."""
    return PairingRow(root, value), PairingRow(tuple(-c for c in root), -value)


def check_integral(rs: RootSystem, x: ChamberPoint) -> WeightData:
    """Exact pairing table of x over the positive roots, then the negative
    ones, and the verdict."""
    values = [dot(row, x.coords) for row in rs.positive_coroot_coords]
    plus, minus = zip(*map(_signed, rs.positive_roots, values))
    return WeightData(is_integral=all(v.denominator == 1 for v in values), pairings=plus + minus)


def induce_face_weight(rs: RootSystem, x: ChamberPoint, d: FaceDescriptor) -> FaceWeight:
    """Solve <x1', y>_F = <x1, y> for the face weight and audit its integrality.

    x1 = Sum_{i in I} a_i alpha_i solves <x1, alpha_j^vee> = x_j for j in I,
    the Cartan submatrix of I against x's labels; x1' rescales its
    coefficients per component.  Vertex faces (I empty) carry the trivial
    group K_F and are rejected; the improper descriptor is allowed and
    returns x1' = x, the form of k_F being the ambient one.
    """
    if not d.I:
        raise InvalidInputError(
            "vertex faces carry the trivial group K_F; no induced weight exists")
    basis = [rs.simple_roots[i] for i in d.I]
    coeffs = solve(tuple(tuple(rs.cartan_matrix[i][j] for i in d.I) for j in d.I),
                   tuple(x.coords[j] for j in d.I))
    x1 = lincomb(coeffs, basis)
    # ratio_c of the component c of I holding each simple root
    ratio = {i: rs.killing_ratio_of(c) for c in rs.components(d.I) for i in c}
    x1p = lincomb([c * rs.killing_ratio / ratio[i] for i, c in zip(d.I, coeffs)], basis)
    values = [rs.killing_ratio * dot(rs.positive_coroot_coords[k], x.coords)
              for k in d.sub_roots_I]
    rows = tuple(row for k, v in zip(d.sub_roots_I, values)
                 for row in _signed(rs.positive_roots[k], v))
    return FaceWeight(x1=x1, x1_prime=x1p, pairings=rows,
                      is_integral=all(v.denominator == 1 for v in values))
