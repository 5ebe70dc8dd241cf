"""Property test of the exit-code contract over admitted (type, rank) pairs."""

from __future__ import annotations

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orbitope.cli import RunConfig, run
from orbitope.roots import VALID_RANKS

PAIRS = [(t, r) for t in sorted(VALID_RANKS) for r in VALID_RANKS[t]]


@st.composite
def cases(draw):
    """A pair and a dominant point with at most two nonzero coordinates, so
    that most orbits stay under the hull cap."""
    type_label, rank = draw(st.sampled_from(PAIRS))
    support = draw(st.sets(st.integers(0, rank - 1), max_size=2))
    point = ["0"] * rank
    for i in sorted(support):
        point[i] = draw(st.sampled_from(("1", "2", "1/2")))
    return type_label, rank, tuple(point)


@settings(derandomize=True, deadline=None, database=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(("D", 5, ("0", "1", "0", "0", "1")))  # a branched (D4) component in I
@example(("E", 6, ("1", "0", "0", "0", "0", "0")))  # past the default Weyl cap
def test_verify_all_exits_0_or_1_under_default_caps(case):
    """Under the default caps, verify-all either passes with a verified
    bijection or stops with an input or cap error; it never raises."""
    type_label, rank, point = case
    code, text = run(RunConfig(command="verify-all", type_label=type_label, rank=rank,
                               point=point, fmt="json", numeric_faces=0))
    assert code in (0, 1), text
    if code == 0:
        assert json.loads(text)["bijection_verified"] is True
