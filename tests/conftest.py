"""Cached builders and the Killing-form oracle shared across the test modules.

Everything in the package is pure and deterministic, so memoizing by the
construction arguments is safe and keeps the suite fast.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from orbitope import (build_root_system, build_weyl_group, chamber_point,
                      classify_faces)
from orbitope.linalg import dot
from weyl_oracle import WeylOracle


def defining_sum(roots, u, v):
    """Oracle: the Killing pairing 2 * Sum d(a,u)*d(a,v) over the positive
    roots given, the literal sum over the roots and their negatives.  The
    package never takes this sum; it reads each value off a ratio times d."""
    return 2 * sum((dot(a, u) * dot(a, v) for a in roots), Fraction(0))


@lru_cache(maxsize=None)
def get_rs(type_label: str, rank: int):
    return build_root_system(type_label, rank)


@lru_cache(maxsize=None)
def get_group(type_label: str, rank: int):
    return build_weyl_group(get_rs(type_label, rank))


@lru_cache(maxsize=None)
def get_oracle(type_label: str, rank: int):
    return WeylOracle(get_rs(type_label, rank))


@lru_cache(maxsize=None)
def get_point(type_label: str, rank: int, coords: tuple):
    return chamber_point(get_rs(type_label, rank), coords)


@lru_cache(maxsize=None)
def get_classification(type_label: str, rank: int, coords: tuple):
    rs = get_rs(type_label, rank)
    return classify_faces(rs, get_group(type_label, rank),
                          get_point(type_label, rank, coords))
