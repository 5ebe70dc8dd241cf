"""Face classification of coadjoint orbitopes by x-connected subsets.

A face class of conv(K.x) is encoded by the pair (I, J): I an x-connected
subset of the simple roots, J its x-saturation.  The finite, exact shadow of
the face is sigma = conv(W_J . x), a face of the Kostant polytope P =
conv(W . x); all cross-checks (exposedness, the bijection with W-classes of
polytope faces, containment order) run against that shadow in exact rational
arithmetic.  Extreme sets in the Lie algebra are never materialized: they are
infinite orbits and the pair (I, J) determines them.

Only the faces of P through x are built (`build_kostant_polytope`), from the
hull of the vertex figure at x over the neighbours s_beta.x, certified
against the whole orbit.  That loses no class: W is transitive on the
vertices, so every W-class of faces has members through x, and two faces
through x are W-conjugate iff they are conjugate under the stabilizer W_S of
x, S the singular set of x.  (A face is exposed by some u; moving u into the
dominant chamber shows that the face's vertex set is a W_K-orbit, so its
stabilizer is transitive on its vertices, and an element taking one face
through x to another can be corrected to fix x.)  Neither fact uses
x-connectedness, so the polytope side stays independent of the
classification.  W_J.x is the closure of x's vertex index under the
generator permutations of J; the W_S-classes are closures under those of S
(`act_on_faces`): phi sends a descriptor to its sigma's class, and psi looks
a face's class up.  The orbit is closed once, on integer Dynkin labels
(`weyl_orbit`), and every step reads it as is.

The canonical u, the fundamental coweights off J summed, is checked on the
certified figure at x: every v - x lies in its cone, so with h = max u.q on
the figure, u exposes no face through x if h > 0, x alone if h < 0, and if
h = 0 the lift of the figure face u exposes (`KostantPolytope.lifted`).
That face is sigma, read off the exposure: a vertex set that u exposes is
a face through x, so sigma is never looked up, and its vertex set is checked
to be W_J.x (the top face for the improper descriptor).  I and J are then
read off sigma, and P's f-vector is counted from the descriptors.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import InvalidInputError, TheoremViolationError
from .linalg import Vector, closure, dot, lincomb
from .polytope import (FaceOrbit, KostantPolytope, PolytopeFace, act_on_faces,
                       from_vertex_figure, hull, support_set, vertex_figure_points)
from .roots import ChamberPoint, RootSystem
from .weyl import DEFAULT_ORBIT_CAP, WeylGroup, _order, reflection_neighbours, weyl_orbit


class FaceDescriptor(NamedTuple):
    """One K-class of faces, encoded combinatorially."""

    I: tuple[int, ...]
    I_prime: tuple[int, ...]
    J: tuple[int, ...]
    #: positive-root indices of the subsystems Delta_I, Delta_I', Delta_J
    sub_roots_I: tuple[int, ...]
    sub_roots_Iprime: tuple[int, ...]
    sub_roots_J: tuple[int, ...]
    dim_KprimeF: int
    dim_ZF: int
    dim_face: int
    sigma: PolytopeFace
    exposing_u: Vector | None
    #: simple roots of I not vanishing on x (the marked Dynkin nodes)
    marked: tuple[int, ...]
    improper: bool

    @property
    def proper(self) -> bool:
        return not self.improper


class FaceClassification(NamedTuple):
    """All face classes of one orbitope, with the verified polytope matching."""

    x: ChamberPoint
    group: WeylGroup
    polytope: KostantPolytope
    descriptors: tuple[FaceDescriptor, ...]
    #: the W_S-classes of the faces through x, per dimension: one per W-class
    classes: dict[int, tuple[FaceOrbit, ...]]
    #: vertex set -> its W_S-class, for every face through x
    class_of: dict[tuple[int, ...], FaceOrbit]
    #: I -> least member of the W-class of sigma, proper descriptors only
    matching: dict[tuple[int, ...], tuple[int, ...]]
    bijection_verified: bool

    @property
    def root_system(self) -> RootSystem:
        return self.x.root_system

    @property
    def proper_descriptors(self) -> tuple[FaceDescriptor, ...]:
        return tuple(d for d in self.descriptors if d.proper)

    @property
    def top_descriptor(self) -> FaceDescriptor:
        return next(d for d in self.descriptors if d.improper)

    def descriptor_by_I(self, I: Sequence[int]) -> FaceDescriptor:
        key = tuple(sorted(I))
        for d in self.descriptors:
            if d.I == key:
                return d
        raise InvalidInputError("no descriptor with I = %s" % (key,))


def is_x_connected(rs: RootSystem, x: ChamberPoint, subset: Sequence[int]) -> bool:
    """Every connected component of the subset sees a root with alpha(x) != 0:
    its nonsingular nodes close under adjacency inside it to the whole subset."""
    nodes = set(subset)
    return closure(nodes.difference(x.singular_set),
                   lambda i: (j for j in nodes if rs.adjacent(i, j))) == nodes


def x_connected_subsets(rs: RootSystem, x: ChamberPoint) -> tuple[tuple[int, ...], ...]:
    """All x-connected subsets of the simple roots, smallest first.

    The empty set is x-connected by definition, so the list never is empty;
    for a full x the whole of Pi is always the last entry.
    """
    return tuple(s for k in range(rs.rank + 1) for s in combinations(range(rs.rank), k)
                 if is_x_connected(rs, x, s))


def saturate(rs: RootSystem, x: ChamberPoint,
             I: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The x-saturation: I' = simple roots orthogonal to {ix} and to I; J = I + I'."""
    I = tuple(sorted(I))
    if not is_x_connected(rs, x, I):
        raise InvalidInputError("subset %s is not x-connected" % (I,))
    i_prime = tuple(i for i in x.singular_set
                    if i not in I and not any(rs.adjacent(i, j) for j in I))
    return i_prime, tuple(sorted(I + i_prime))


def build_kostant_polytope(group: WeylGroup, x: ChamberPoint,
                           orbit_cap: int = DEFAULT_ORBIT_CAP) -> KostantPolytope:
    """The Kostant polytope conv(W.x), built from the exact hull of its
    vertex figure at x over the neighbours s_beta.x, beta in Delta+, only,
    certified against the whole orbit.

    Every edge of P at the dominant x ends at some s_beta.x, so at most
    |Delta+| points give the whole figure; that fact is not trusted, as
    `from_vertex_figure` checks the hull against every orbit point.  A
    neighbour set has at most 120 points, within `hull`'s own cap, so
    `orbit_cap` bounds only the orbit.
    """
    orbit = weyl_orbit(group, x, cap=orbit_cap)
    figure = hull(vertex_figure_points(orbit, reflection_neighbours(group, orbit)))
    return from_vertex_figure(group, orbit, figure)


def classify_faces(rs: RootSystem, group: WeylGroup, x: ChamberPoint,
                   orbit_cap: int = DEFAULT_ORBIT_CAP) -> FaceClassification:
    """Classify all faces of conv(K.x) up to conjugation and verify the
    bijection with Weyl classes of Kostant-polytope faces.

    Sigma = conv(W_I.x) is read twice more.  The facet normals through sigma
    span the orthogonal complement of its direction space span Delta_I in the
    root span, so the simple roots orthogonal to all of them are I (for J = Pi
    there are none, and I = Pi).  The simple reflections mapping sigma onto
    itself are J: its barycenter is b = x - proj_{span Delta_J} x = x - sum_J
    c_j alpha_j, c_j >= 0, so <b, alpha_i> is 0 on J, >= <x, alpha_i> > 0 off S,
    and > 0 on S - J, whose nodes are adjacent to some j in I with c_j > 0 (x
    is nonzero on j's component of I, and an irreducible inverse Cartan matrix
    is entrywise positive).  So b is dominant with zero set J, and sigma's
    stabilizer, which fixes b, is W_J (Humphreys, Reflection Groups and
    Coxeter Groups, 1.12).

    Any failed cross-check raises TheoremViolationError: the statements being
    checked are theorems, so a failure is an implementation bug by definition.
    """
    if x.root_system is not rs:
        raise InvalidInputError("chamber point belongs to a different root system")
    poly = build_kostant_polytope(group, x, orbit_cap)
    perms = poly.perms

    descriptors = []
    for I in x_connected_subsets(rs, x):
        i_prime, J = saturate(rs, x, I)
        sub_i = rs.subsystem_positive(I)
        sub_ip = rs.subsystem_positive(i_prime)
        sub_j = rs.subsystem_positive(J)
        if sorted(sub_i + sub_ip) != sorted(sub_j):
            raise TheoremViolationError("Delta_J does not split as Delta_I + Delta_I'")
        improper = len(J) == rs.rank
        sigma_vertices = tuple(sorted(closure([poly.x_index], lambda v: (perms[j][v] for j in J))))
        if improper:
            sigma, exposing_u = poly.top, None
        else:
            u = lincomb([int(i not in J) for i in range(rs.rank)], rs.fundamental_coweights)
            exposed, h = support_set(poly.figure, u)
            if h > 0:
                edge = poly.lifted[exposed.vertex_indices[:1]].vertex_indices  # [x, v]
                raise TheoremViolationError(
                    "canonical u does not expose conv(W_J.x) for I=%s: u.(v - x) > 0 at the "
                    "neighbour v = %d" % (I, next(i for i in edge if i != poly.x_index)))
            sigma, exposing_u = poly.lifted[exposed.vertex_indices if h == 0 else ()], u
        if sigma.vertex_indices != sigma_vertices:
            raise TheoremViolationError(
                "J = Pi descriptor is not the top face" if improper else
                "canonical u does not expose conv(W_J.x) for I=%s: it exposes %s, not %s"
                % (I, sigma.vertex_indices, sigma_vertices))
        if sigma.dim != len(I):
            raise TheoremViolationError("dim sigma = %d but |I| = %d" % (sigma.dim, len(I)))
        normals = [f.normal for f in poly.facets_through(sigma)]
        if I != tuple(i for i, a in enumerate(rs.simple_roots)
                      if not any(dot(a, n) for n in normals)):
            raise TheoremViolationError(
                "Z_K(sigma-perp) root data disagrees with the descriptor (I=%s)" % (I,))
        in_sigma = set(sigma_vertices)  # a permutation maps sigma into itself iff onto it
        stabilizer = tuple(i for i, perm in enumerate(perms)
                           if in_sigma.issuperset(map(perm.__getitem__, sigma_vertices)))
        if stabilizer != J:
            raise TheoremViolationError("the simple reflections stabilizing sigma are %s, "
                                        "not J=%s (I=%s)" % (stabilizer, J, I))
        descriptors.append(FaceDescriptor(
            I=I, I_prime=i_prime, J=J,
            sub_roots_I=sub_i, sub_roots_Iprime=sub_ip, sub_roots_J=sub_j,
            dim_KprimeF=len(i_prime) + 2 * len(sub_ip),
            dim_ZF=rs.rank - len(J),
            dim_face=len(I) + 2 * len(sub_i),
            sigma=sigma, exposing_u=exposing_u,
            marked=tuple(i for i in I if i not in x.singular_set),
            improper=improper))

    classes = act_on_faces([perms[s] for s in x.singular_set], poly.faces_through_x)
    class_of = {m: c for cs in classes.values() for c in cs for m in c.members}
    proper = [d for d in descriptors if d.proper]
    hit = [class_of[d.sigma.vertex_indices] for d in proper]
    if len(set(hit)) != len(hit):
        raise TheoremViolationError(
            "two descriptors land in one polytope face class (phi not injective)")
    if set(hit) != {c for dim, cs in classes.items() if dim < poly.affine_dim for c in cs}:
        raise TheoremViolationError(
            "descriptors do not exhaust the polytope face classes (phi not surjective)")
    counts = tuple(sum(group.order // _order(rs, d.J) for d in descriptors if len(d.I) == k)
                   for k in range(poly.affine_dim + 1))
    if counts != poly.f_vector():
        raise TheoremViolationError("face counts |W|/|W_J| by |I| are %s, but the f-vector is %s"
                                    % (counts, poly.f_vector()))
    # A W-class's least member contains vertex 0: it is the least image of a
    # member through x under an element taking x to vertex 0.
    to_0 = poly.x_to_vertex_0
    matching = {d.I: min(tuple(sorted(to_0[i] for i in m)) for m in c.members)
                for d, c in zip(proper, hit)}

    classification = FaceClassification(
        x=x, group=group, polytope=poly, descriptors=tuple(descriptors),
        classes=classes, class_of=class_of, matching=matching, bijection_verified=True)

    # psi . phi = id, checked on every class representative.
    for d in classification.proper_descriptors:
        rep_face = poly.find_face(matching[d.I])
        if rep_face is None:
            raise TheoremViolationError("the least member %s of the class of I=%s is not a face"
                                        % (matching[d.I], d.I))
        back = psi_of_polytope_face(classification, rep_face)
        if back.I != d.I:
            raise TheoremViolationError("psi(phi([F])) != [F] for I=%s" % (d.I,))
    return classification


def psi_of_polytope_face(classification: FaceClassification,
                         sigma: PolytopeFace) -> FaceDescriptor:
    """Map a proper polytope face to its descriptor: move it to a face
    through x, take its W_S-class, and return the proper descriptor whose
    sigma is in it; `classify_faces` read that descriptor's I and J off sigma."""
    poly = classification.polytope
    key = tuple(sorted(sigma.vertex_indices))
    through_x = poly.face_at_x(key)
    if through_x is None:
        raise InvalidInputError("no face with vertex set %s" % (key,))
    if through_x.dim == poly.affine_dim:
        raise InvalidInputError("psi is defined on proper faces only")
    cls = classification.class_of[through_x.vertex_indices]
    found = next((d for d in classification.proper_descriptors
                  if classification.class_of[d.sigma.vertex_indices] is cls), None)
    if found is None:
        raise TheoremViolationError(
            "no Weyl conjugate of the face matches a descriptor "
            "(every face class must arise from an x-connected subset)")
    return found


def phi_of_descriptor(classification: FaceClassification,
                      d: FaceDescriptor) -> FaceOrbit:
    """The W_S-class of sigma = conv(W_J.x): the faces through x in its
    W-class.  The improper descriptor yields the top face's singleton class
    (callers must respect the improper flag)."""
    return classification.class_of[d.sigma.vertex_indices]


def parabolic_report(classification: FaceClassification, d: FaceDescriptor) -> dict:
    """Combinatorial data of the standard parabolic P_E (E = J) attached to a
    proper face: Levi type, nilradical size and the extreme-orbit type."""
    rs = classification.root_system
    if d.improper:
        raise InvalidInputError(
            "the improper face corresponds to the full group, not a proper parabolic")
    levi_components = [rs.component_type(c) for c in rs.components(d.J)]
    torus_rank = rs.rank - len(d.J)
    levi_parts = "x".join(levi_components)
    if torus_rank:
        levi_parts = "%s+T%d" % (levi_parts, torus_rank) if levi_parts else "T%d" % torus_rank
    ext_components = []
    for comp in rs.components(d.I):
        degrees = {i: sum(1 for j in comp if rs.adjacent(i, j)) for i in comp}
        # Chains are numbered from their smaller end; branched (D, E) components
        # by simple-root index, which here is Bourbaki's numbering on D_k in D_n
        # and on E_k in E_n.
        order = sorted(comp) if max(degrees.values()) > 2 else rs._path_order(comp, degrees)
        marks = tuple(order.index(i) + 1 for i in d.marked if i in comp)
        ext_components.append({"type": rs.component_type(comp), "marked_nodes": sorted(marks)})
    return {
        "E": [rs.root_label(i) for i in d.J],
        "levi_type": levi_parts,
        "levi_components": levi_components,
        "levi_torus_rank": torus_rank,
        "nilradical_positive_roots": rs.n_positive - len(d.sub_roots_J),
        "ext_type": {
            "components": ext_components,
            "description": _ext_description(ext_components),
        },
        "closed_orbit_note": "unique closed P_E-orbit in the coadjoint orbit",
    }


def _ext_description(components: list[dict]) -> str:
    """Readable name of ext F for the easy cases, a marked-type string otherwise."""
    if not components:
        return "point"
    if len(components) == 1 and components[0]["type"].startswith("A") \
            and len(components[0]["marked_nodes"]) == 1:
        m = int(components[0]["type"][1:])
        p = components[0]["marked_nodes"][0]
        p = min(p, m + 1 - p)
        if p == 1:
            return "P^%d" % m
        return "Gr(%d,%d)" % (p, m + 1)
    return " x ".join("%s%s" % (c["type"], list(c["marked_nodes"])) for c in components)
