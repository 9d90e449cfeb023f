"""Exact rank of integer matrices over the rationals.

Fraction-free (Bareiss) elimination on Python integers: after step k
every entry is a (k+1)x(k+1) minor of the input matrix, so all
divisions are exact and the computation stays in the integers, with no
overflow and no floating point.  Homology calls it only on the cells
that chain-complex reduction leaves (``cellres.complexes.FaceIndex``),
which for a Taylor complex and most Scarf restrictions is none.
``python3 perfbench/run.py --workload W --seed 1 --trace 1`` reports the
per-layer rank time and call count.
"""

from __future__ import annotations


def matrix_rank(rows, ncols: int) -> int:
    """Rank of an integer matrix given as a list of row lists."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0 or ncols == 0:
        return 0
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            mi, mr = m[i], m[r]
            q = mi[c]
            for j in range(c + 1, ncols):
                # exact by the minor interpretation of Bareiss entries
                mi[j] = (mi[j] * p - q * mr[j]) // prev
            mi[c] = 0
        prev = p
        r += 1
        if r == nrows:
            break
    return r
