"""Face-type poset and stratum dimensions of the orbitope boundary.

The order on face types is containment up to conjugation, computed on the
polytope shadow: B1 <= B2 iff some Weyl translate of sigma(B1) is a face of
sigma(B2).  Stratum dimensions come from dim S_B = dim K - dim K'_F - dim Z_F;
strict monotonicity along the order is asserted, being a theorem.  That the
strata partition the boundary (each boundary point lies in exactly one open
face) is a recorded consequence and is not re-tested numerically.

The order needs only the faces through x.  Both sigmas pass through x, and
W_J, J the saturation of B2, is transitive on the vertices of sigma(B2), so
a translate inside sigma(B2) can be moved to one through x, that is, into
the W_S-class of sigma(B1).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidInputError, TheoremViolationError
from .faces import FaceClassification, FaceDescriptor, phi_of_descriptor
from .polytope import vertex_mask
from .roots import RootSystem


class StratumDims(NamedTuple):
    stratum: int
    base: int


def stratum_dim(rs: RootSystem, d: FaceDescriptor) -> StratumDims:
    """dim S_B and the flag-base dimension dim K - dim H_F."""
    if d.improper:
        raise InvalidInputError("stratum dimensions are defined for proper faces only")
    dim_k = rs.dim_group
    dim_hf = rs.rank + 2 * len(d.sub_roots_J)
    return StratumDims(stratum=dim_k - d.dim_KprimeF - d.dim_ZF,
                       base=dim_k - dim_hf)


class StratumPoset(NamedTuple):
    """Proper face types plus the top node, partially ordered by containment."""

    #: node order matches classification.descriptors (top = improper entry)
    nodes: tuple[FaceDescriptor, ...]
    #: strict order pairs (i, j) meaning node i < node j, transitively closed
    order: frozenset[tuple[int, int]]
    cover_edges: tuple[tuple[int, int], ...]
    stratum_dims: dict[int, int]
    base_flag_dims: dict[int, int]


def build_poset(classification: FaceClassification) -> StratumPoset:
    """Order the face types through the W_S-classes of the faces through x
    and check the stratification dimension inequalities."""
    rs = classification.root_system
    nodes = classification.descriptors
    masks = [vertex_mask(d.sigma.vertex_indices) for d in nodes]
    images = [{vertex_mask(m) for m in phi_of_descriptor(classification, d).members}
              for d in nodes]

    n = len(nodes)
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rel[i][j] = any((im & masks[j]) == im for im in images[i])
    # Transitive as it stands: the relation is W-conjugate containment, and
    # g.s_i <= s_j, h.s_j <= s_k give hg.s_i <= s_k.  So no closure is taken.
    for i in range(n):
        for j in range(i + 1, n):
            if rel[i][j] and rel[j][i]:
                raise TheoremViolationError("face-type order is not antisymmetric (bug)")

    s_dims: dict[int, int] = {}
    b_dims: dict[int, int] = {}
    for idx, d in enumerate(nodes):
        if d.improper:
            continue
        dims = stratum_dim(rs, d)
        s_dims[idx] = dims.stratum
        b_dims[idx] = dims.base

    order = frozenset((i, j) for i in range(n) for j in range(n) if rel[i][j])
    for i, j in order:
        if nodes[i].dim_face >= nodes[j].dim_face:
            raise TheoremViolationError("face dimension not strictly monotone along <")
        if i in s_dims and j in s_dims and s_dims[i] >= s_dims[j]:
            raise TheoremViolationError("stratum dimension not strictly monotone along <")

    covers = tuple(sorted((i, j) for i, j in order
                          if not any((i, k) in order and (k, j) in order for k in range(n))))
    return StratumPoset(nodes=nodes, order=order, cover_edges=covers,
                        stratum_dims=s_dims, base_flag_dims=b_dims)
