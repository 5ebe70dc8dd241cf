"""Metamorphic test: the answer depends on x only through its support.

x-connectedness, and so the whole classification, reads only which Dynkin
labels of x are zero; so does the face lattice of conv(W.x).  Two points
with the same zero pattern must give the same index-free report fields.
Vertex indices are not among them: the vertices are ordered by their
vectors, which depend on the values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from orbitope.cli import RunConfig, run
from orbitope.roots import VALID_RANKS, build_root_system, chamber_point
from orbitope.weyl import DEFAULT_ORBIT_CAP, build_weyl_group

PAIRS = [(t, r) for t in sorted(VALID_RANKS) for r in VALID_RANKS[t]]


@cache
def supports(type_label: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The nonempty label supports whose orbit has at most DEFAULT_ORBIT_CAP
    points (none for E8, whose least orbit has 240)."""
    rs = build_root_system(type_label, rank)
    group = build_weyl_group(rs)
    out = []
    for mask in range(1, 1 << rank):
        support = tuple(i for i in range(rank) if mask >> i & 1)
        if group.orbit_size(chamber_point(rs, [int(i in support) for i in range(rank)])) \
                <= DEFAULT_ORBIT_CAP:
            out.append(support)
    return tuple(out)


@st.composite
def point_pairs(draw):
    """An admitted pair, a support inside the default orbit cap, and two
    points with that support whose labels p/q, 1 <= p, q <= 1000, differ by
    ratios up to 10^6."""
    type_label, rank = draw(st.sampled_from(PAIRS))
    admitted = supports(type_label, rank)
    assume(admitted)
    support = draw(st.sampled_from(admitted))
    label = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))
    points = []
    for _ in range(2):
        point = ["0"] * rank
        for i in support:
            point[i] = str(draw(label))
        points.append(tuple(point))
    return type_label, rank, points[0], points[1]


@cache
def index_free(type_label: str, rank: int, point: tuple[str, ...]) -> str:
    """The f-vector; each face's I, J, dim_face, sigma's dimension and
    parabolic data; and the poset edges of verify-all without numeric faces,
    as JSON.  A run is deterministic, so a point drawn again is not rerun."""
    code, text = run(RunConfig(command="verify-all", type_label=type_label, rank=rank,
                               point=point, fmt="json", numeric_faces=0))
    assert code == 0, text
    report = json.loads(text)
    assert report["bijection_verified"] is True
    return json.dumps([report["polytope"]["f_vector"],
                       [[f["I"], f["J"], f["dim_face"], f["sigma_class"]["dim"], f["parabolic"]]
                        for f in report["faces"]],
                       report["poset_edges"]])


@settings(derandomize=True, deadline=None, database=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(point_pairs())
@example(("F", 4, ("1", "0", "0", "1"), ("1/3", "0", "0", "9")))  # vertex orders differ
@example(("G", 2, ("3/2", "1"), ("1", "1000")))
@example(("A", 2, ("1", "1"), ("1/1000", "1/1000")))
@example(("B", 4, ("1", "0", "0", "1"), ("1/1000", "0", "0", "1000")))
@example(("D", 5, ("0", "1", "0", "0", "1"), ("0", "7/3", "0", "0", "1/500")))
@example(("E", 6, ("1", "0", "0", "0", "0", "0"), ("1/999", "0", "0", "0", "0", "0")))
def test_reports_depend_on_x_only_through_its_support(case):
    type_label, rank, first, second = case
    assert index_free(type_label, rank, first) == index_free(type_label, rank, second)
