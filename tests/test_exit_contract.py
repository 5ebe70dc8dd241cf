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
    that most orbits stay under the orbit cap."""
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


@st.composite
def type_a_points(draw):
    """Type A of rank 1 to 4 at a scale 10^s, s uniform in [-10, 0]: each
    coordinate 0 or 10^s times a ratio log-uniform in [1, 1e6], to three
    significant digits, not all 0.  So the coordinates span 1e-10 to 1e6 and
    their ratios reach 1e6."""
    rank = draw(st.integers(1, 4))
    scale = draw(st.floats(-10, 0))
    exps = draw(st.lists(st.one_of(st.none(), st.floats(0, 6)), min_size=rank, max_size=rank)
                .filter(lambda es: any(e is not None for e in es)))
    return rank, tuple("0" if e is None else "%.3g" % 10 ** (scale + e) for e in exps)


@settings(derandomize=True, deadline=None, database=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(type_a_points())
@example((2, ("1", "1000")))  # eigenvalue gaps 1 and 1000
@example((1, ("1e-4",)))  # a root gap of 1e-4 in the Hessian check
@example((1, ("1/10000000000",)))  # ||[p, u]|| is below 1e-10 at every start
@example((2, ("1", "1000000")))  # float rounding of x0's trace is above 1e-9
@example((1, ("%d/%d" % (10 ** 400 + 1, 10 ** 400),)))  # integer rows past the float range
def test_type_a_verify_all_exits_0_across_scales(case):
    """Across sixteen decades of coordinate scale and six of ratio, the su(n)
    check converges on every seed and its Hessian check holds: verify-all
    exits 0 with a verified bijection."""
    rank, point = case
    code, text = run(RunConfig(command="verify-all", type_label="A", rank=rank, point=point,
                               fmt="json"))
    assert code == 0, text
    assert json.loads(text)["bijection_verified"] is True
