"""The Weyl group element by element, as an oracle for the tests.

The package acts with W only through the simple reflections on Dynkin
labels.  This oracle shares none of that: it finds one reduced word per
element by a breadth-first search keyed by the image of a regular point, and
acts on ambient vectors by applying `RootSystem.reflect` along the word.
"""

from __future__ import annotations

from fractions import Fraction

from orbitope.linalg import lincomb


class WeylOracle:
    """Every element of W as a reduced word, with its ambient action."""

    def __init__(self, rs):
        self.root_system = rs
        n = rs.ambient_dim
        rho = lincomb([1] * rs.rank, rs.fundamental_weights)
        units = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        # image of rho -> (word, images of the ambient unit vectors)
        found = {rho: ((), units)}
        layer = [rho]
        while layer:
            next_layer = []
            for v in layer:
                word, columns = found[v]
                for i, alpha in enumerate(rs.simple_roots):
                    w = rs.reflect(alpha, v)
                    if w not in found:
                        found[w] = ((i,) + word, tuple(rs.reflect(alpha, c) for c in columns))
                        next_layer.append(w)
            layer = next_layer
        self._columns = dict(found.values())
        #: reduced words, by length and then lexicographically
        self.words = tuple(sorted(self._columns, key=lambda w: (len(w), w)))

    def __len__(self) -> int:
        return len(self.words)

    def apply(self, word, v):
        """The element with this reduced word, applied to an ambient vector."""
        return lincomb(v, self._columns[word])

    def reflect_along(self, word, v):
        """The same element, applied one simple reflection at a time."""
        rs = self.root_system
        for i in reversed(word):
            v = rs.reflect(rs.simple_roots[i], v)
        return v

    def vertex_images(self, vectors):
        """For every element, the index of the image of each vector."""
        index = {v: k for k, v in enumerate(vectors)}
        return [tuple(index[self.apply(w, v)] for v in vectors) for w in self.words]

    def face_stabilizer(self, images, vertex_indices):
        """The words of the elements mapping the vertex set to itself, given
        the `vertex_images` of the polytope's vertices."""
        target = set(vertex_indices)
        return [w for w, img in zip(self.words, images) if {img[k] for k in target} == target]


def reflection_orbit(rs, v):
    """W.v in lexicographic order, closed under `RootSystem.reflect`."""
    seen = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for alpha in rs.simple_roots:
            w = rs.reflect(alpha, u)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return tuple(sorted(seen))


def reflection_permutations(rs, vectors):
    """Entry i sends the index of v to the index of s_i(v), via `RootSystem.reflect`."""
    index = {v: k for k, v in enumerate(vectors)}
    return tuple(tuple(index[rs.reflect(alpha, v)] for v in vectors)
                 for alpha in rs.simple_roots)
