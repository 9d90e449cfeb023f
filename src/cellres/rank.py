"""Exact rank of integer matrices over the rationals.

Fraction-free (Bareiss) elimination: after step k every entry is a
(k+1)x(k+1) minor of the input matrix, so all divisions are exact and
the computation stays in the integers.  Two implementations share this
file's dispatch:

* ``cellres._fastrank.rank_int64`` -- compiled kernel in 64-bit
  arithmetic; raises OverflowError when an intermediate minor (or an
  input entry) does not fit.
* ``rank_pure`` -- the same elimination on Python big integers; always
  exact, never overflows.

``matrix_rank`` prefers the compiled kernel when it was built and falls
back transparently.  Set CELLRES_PURE=1 to disable the kernel at import
time.  ``python3 perfbench/run.py --workload W --seed 1 --trace 0|1``
measures either path end to end (``--trace 1`` gives per-layer rank
time and the ``rank.compiled`` flag).
"""

from __future__ import annotations

import os

try:
    from cellres._fastrank import rank_int64 as _rank_fast
except ImportError:  # extension not built; pure path only
    _rank_fast = None

COMPILED_AVAILABLE = _rank_fast is not None
USE_COMPILED = COMPILED_AVAILABLE and not os.environ.get("CELLRES_PURE")


def rank_pure(rows, ncols: int) -> int:
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


def matrix_rank(rows, ncols: int, impl: str | None = None) -> int:
    """Exact rank over the rationals.

    ``impl`` forces "pure" or "compiled" (mainly for tests and the
    benchmark); by default the compiled kernel is tried first and any
    OverflowError falls back to the pure path.
    """
    if impl == "pure":
        return rank_pure(rows, ncols)
    if impl == "compiled":
        if _rank_fast is None:
            raise RuntimeError("compiled rank kernel is not available")
        return _rank_fast(rows, ncols)
    if impl is not None:
        raise ValueError(f"unknown impl {impl!r}")
    if USE_COMPILED:
        try:
            return _rank_fast(rows, ncols)
        except OverflowError:
            pass
    return rank_pure(rows, ncols)
