"""Face-type poset and stratum dimensions."""

from __future__ import annotations

import pytest

from conftest import get_classification, get_rs
from orbitope import InvalidInputError, build_poset, stratum_dim


def test_a2_regular_poset_shape():
    """Vertex type below both edge types, everything below the top."""
    cl = get_classification("A", 2, (1, 1))
    poset = build_poset(cl)
    labels = [d.I for d in poset.nodes]
    vertex = labels.index(())
    edges = [labels.index((0,)), labels.index((1,))]
    top = labels.index((0, 1))
    for e in edges:
        assert (vertex, e) in poset.order
        assert (e, top) in poset.order
    assert (edges[0], edges[1]) not in poset.order
    assert (edges[1], edges[0]) not in poset.order
    assert set(poset.cover_edges) == {(vertex, edges[0]), (vertex, edges[1]),
                                      (edges[0], top), (edges[1], top)}


def test_pn_poset_is_a_chain():
    for n in (2, 3, 4):
        cl = get_classification("A", n, tuple([1] + [0] * (n - 1)))
        poset = build_poset(cl)
        proper = [i for i, d in enumerate(poset.nodes) if d.proper]
        proper.sort(key=lambda i: poset.nodes[i].dim_face)
        for a, b in zip(proper, proper[1:]):
            assert (a, b) in poset.order
        assert len(poset.cover_edges) == n  # a chain with the top on top


def test_single_proper_node_guard():
    """A1: only the vertex class is proper; it sits under the top."""
    cl = get_classification("A", 1, (1,))
    poset = build_poset(cl)
    proper = [i for i, d in enumerate(poset.nodes) if d.proper]
    top = next(i for i, d in enumerate(poset.nodes) if d.improper)
    assert len(proper) == 1
    assert poset.cover_edges == ((proper[0], top),)


def test_stratum_dims_pn_closed_form():
    """dim S = 2k(n+1) - k^2 - 1 with k the subspace dimension |I| + 1."""
    for n in (2, 3, 4):
        rs = get_rs("A", n)
        cl = get_classification("A", n, tuple([1] + [0] * (n - 1)))
        for d in cl.proper_descriptors:
            k = len(d.I) + 1
            dims = stratum_dim(rs, d)
            assert dims.stratum == 2 * k * (n + 1) - k * k - 1


def test_stratum_dim_p2_vertex_face_value():
    """Rank-one projectors of su(3): the vertex stratum is 4-dimensional."""
    rs = get_rs("A", 2)
    cl = get_classification("A", 2, (1, 0))
    d = cl.descriptor_by_I(())
    dims = stratum_dim(rs, d)
    assert d.dim_KprimeF == 3 and d.dim_ZF == 1
    assert dims.stratum == 8 - 3 - 1 == 4


def test_stratum_dim_rejects_improper():
    rs = get_rs("A", 2)
    cl = get_classification("A", 2, (1, 1))
    with pytest.raises(InvalidInputError):
        stratum_dim(rs, cl.top_descriptor)


def test_strict_monotonicity_along_the_order():
    for args in [("A", 3, (1, 1, 1)), ("B", 3, (1, 0, 1)), ("G", 2, (1, 1)),
                 ("D", 4, (0, 1, 0, 0))]:
        cl = get_classification(*args)
        poset = build_poset(cl)
        for i, j in poset.order:
            assert poset.nodes[i].dim_face < poset.nodes[j].dim_face
            if i in poset.stratum_dims and j in poset.stratum_dims:
                assert poset.stratum_dims[i] < poset.stratum_dims[j]
            assert all((i, k) in poset.order for k in range(len(poset.nodes))
                       if (j, k) in poset.order), (args, i, j)


def test_inclusion_of_i_sets_implies_order():
    """I1 inside I2 forces sigma_1 inside sigma_2 (W_J.x = W_I.x), hence
    containment of the face types; the polytope-side order must agree."""
    for args in [("A", 3, (1, 1, 1)), ("B", 3, (1, 1, 1)), ("A", 4, (0, 5, 0, 0))]:
        cl = get_classification(*args)
        poset = build_poset(cl)
        for i, d1 in enumerate(poset.nodes):
            for j, d2 in enumerate(poset.nodes):
                if i != j and set(d1.I) < set(d2.I):
                    assert (i, j) in poset.order, (args, d1.I, d2.I)


def test_dim_k_bookkeeping_identity():
    """dim K = dim Z_F + dim K_F + dim K'_F + 2(|D+| - |D_{J,+}|)."""
    for args in [("B", 2, (1, 0)), ("G", 2, (0, 1)), ("A", 4, (0, 5, 0, 0))]:
        rs = get_rs(args[0], args[1])
        cl = get_classification(*args)
        for d in cl.proper_descriptors:
            outside = rs.n_positive - len(d.sub_roots_J)
            assert rs.dim_group == d.dim_ZF + d.dim_face + d.dim_KprimeF + 2 * outside


def test_base_flag_dimension():
    """dim K - dim H_F for the P^2 vertex face is the flag dimension 4... the
    Grassmannian of lines in C^3, dim_R = 4."""
    rs = get_rs("A", 2)
    cl = get_classification("A", 2, (1, 0))
    d = cl.descriptor_by_I(())
    assert stratum_dim(rs, d).base == 4
    assert d.dim_face == 0
