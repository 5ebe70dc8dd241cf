"""Exposing vectors fixed by a face's stabilizer, as an oracle for the tests.

The package exposes a face only by its canonical vector, a sum of
fundamental coweights.  This oracle builds another one with no group element
at all: a sum of the facet normals through the face, each divided by
offset - normal . b for the vertex barycenter b.
"""

from __future__ import annotations

from fractions import Fraction

from orbitope import InvalidInputError, TheoremViolationError, support_set
from orbitope.linalg import dot, lincomb, vadd, vscale, zero_vec


def fixed_vector_in_cone(p, face):
    """A vector exposing exactly the given proper face, fixed by its stabilizer.

    Sums the outward normals of the facets containing the face, each scaled
    by 1 / (offset - normal . b) for the barycenter b of the vertices.  That
    scaling does not depend on the normal's length, and every dot-orthogonal
    symmetry of P (all of W, on a Kostant polytope) fixes b and permutes the
    facets through the face, so the sum is fixed by the face's stabilizer.
    With Killing offsets the same sum is this vector over `killing_ratio`.
    """
    if face.vertex_indices == p.top.vertex_indices:
        raise InvalidInputError("the whole polytope has no exposing vector")
    barycenter = vscale(Fraction(1, len(p.vertices)), lincomb([1] * len(p.vertices), p.vertices))
    u = zero_vec(p.ambient_dim)
    for f in p.facets_through(face):
        u = vadd(u, vscale(1 / (f.offset - dot(f.normal, barycenter)), f.normal))
    exposed, _ = support_set(p, u)
    if exposed.vertex_indices != face.vertex_indices:
        raise TheoremViolationError("scaled normal sum does not expose the face (bug)")
    return u
