"""Tiny exact determinant by cofactor expansion, and the rank it gives, for
test oracles only: neither uses an elimination."""

from __future__ import annotations


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([[row[k] for k in range(len(m)) if k != j]
                                          for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def minor_rank(rows):
    """The size of the largest nonzero minor of a matrix.

    A nonzero k-minor on rows R and columns C is bordered by each row in
    turn: if the row is outside the span of R, some column c makes the
    (k + 1)-minor on R + row, C + c nonzero (Kronecker's bordering theorem
    applied to the rows R + row), and if it is inside, every such minor
    vanishes.  So the rows kept are a basis of the row space."""
    kept_rows: list[int] = []
    kept_cols: list[int] = []
    for i, row in enumerate(rows):
        for c in range(len(row)):
            if c not in kept_cols and det([[rows[r][k] for k in kept_cols + [c]]
                                           for r in kept_rows + [i]]):
                kept_rows.append(i)
                kept_cols.append(c)
                break
    return len(kept_rows)
