"""Small exact linear algebra toolkit over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
is pure and deterministic; no floats anywhere.  There is one elimination, the
fraction-free integer one of `_echelon`: `int_rank` counts its rows, and
`rref`, with `solve` and `inverse` on top of it, runs it on rows scaled to
integers and divides by the pivots only at the end.  `closure` is
the one search: W_J.x, the face classes and Dynkin components close by it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, TypeVar

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
T = TypeVar("T")


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of numbers or 'p/q' strings to an exact vector."""
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Standard coordinate dot product.

    The integer products are summed over one running common denominator and
    reduced once at the end, not once per term."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    num, den = 0, 1
    for a, b in zip(u, v):
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if den % d:
                m = lcm(den, d)
                num *= m // den
                den = m
            num += n * (den // d)
    return Fraction(num, den)


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: Fraction, u: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in u)


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of integer vectors, without the Fraction coercion of `dot`."""
    return sum(map(operator.mul, u, v))


def lincomb(coeffs: Sequence[Fraction], vectors: Sequence[Vector]) -> Vector:
    """The combination sum_i coeffs[i] * vectors[i] of a nonempty vector list,
    one `dot` per coordinate; raises ValueError unless there is one
    coefficient per vector."""
    return tuple(dot(coeffs, column) for column in zip(*vectors))


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence[Fraction]]) -> Matrix:
    return tuple(zip(*[tuple(r) for r in m])) if m else ()


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def _echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Fraction-free echelon form of an integer matrix: (pivot column, row)
    pairs, each row zero left of its pivot and at every earlier pivot.

    Each row is reduced against the rows kept so far by integer
    cross-multiplication, then divided by its content so entries stay small;
    the scan stops as soon as the rank reaches the column count.
    """
    echelon: list[tuple[int, list[int]]] = []
    n_cols = len(rows[0]) if rows else 0
    for row in rows:
        v = list(row)
        for c, b in echelon:
            f = v[c]
            if f:
                p = b[c]
                v = [p * x - f * y for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        g = 0
        for x in v:
            g = gcd(g, x)
        echelon.append((c, [x // g for x in v]))
        if len(echelon) == n_cols:
            break
    return echelon


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    return len(_echelon(rows))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, padded with zero rows.

    `_echelon` runs on the rows scaled to integers, then again on its rows
    from the last pivot up, which clears each pivot column above its row (a
    row is zero left of its pivot); only the final division by the pivots
    makes fractions.
    """
    if not rows:
        return (), ()
    ints = [integral_rows([vec(r)])[0][0] for r in rows]
    upward = [row for _, row in sorted(_echelon(ints), reverse=True)]
    reduced = sorted(_echelon(upward))
    n_cols = len(ints[0])
    red = [tuple(Fraction(x, row[c]) for x in row) for c, row in reduced]
    red += [(Fraction(0),) * n_cols] * (len(ints) - len(red))
    return tuple(red), tuple(c for c, _ in reduced)


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector:
    """Unique solution of a x = b; raises ValueError if none or not unique."""
    n_rows = len(a)
    if n_rows != len(b):
        raise ValueError("incompatible shapes")
    ncols = len(a[0]) if n_rows else 0
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return tuple(x)


def inverse(m: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(m)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector (gcd 1); the direction is preserved exactly."""
    scale = common_denominator(v)
    ints = [int(f * scale) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def common_denominator(entries: Iterable[Fraction]) -> int:
    """Least positive integer that makes every entry integral."""
    return lcm(*(f.denominator for f in entries))


def integral_rows(m: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """The rows of s*m for the least positive integer s making it integral, and s."""
    scale = common_denominator(x for row in m for x in row)
    return [tuple(x.numerator * (scale // x.denominator) for x in row) for row in m], scale


def closure(start: Iterable[T], step: Callable[[T], Iterable[T]]) -> set[T]:
    """The least set that holds `start` and all that `step` yields from a member."""
    seen = set(start)
    todo = list(seen)
    while todo:
        for image in step(todo.pop()):
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def frac_str(x: Fraction | int) -> str:
    """Compact 'p' or 'p/q' rendering used in all reports."""
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def point_str(v: Sequence[Fraction | int], scale: int = 1) -> str:
    """'(a,b,...)' rendering of a point in messages, each entry divided by
    `scale` (an integer row over its scale) and rendered by `frac_str`."""
    return "(%s)" % ",".join(frac_str(Fraction(c, scale)) for c in v)
