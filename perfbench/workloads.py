"""Seeded ideal families and the op mixes of the four workloads.

A workload is a fixed list of slots.  One cycle draws one op per slot,
in slot order, from ``random.Random(f"{workload}:{seed}:{cycle}")``, so
the same seed gives the same ops whatever the timing.  Runs measure
whole cycles, which keeps the op mix of every run the same.

No two ops of a run share a generator set: ``decompose_brute`` keeps an
``lru_cache``, and a repeated ideal would be answered from it.  Random
families are redrawn until unseen; fixed families (the powers of the
maximal ideal and the worked examples) become exponent-scaled copies,
multiplying variable i's exponents by a positive c_i.  Scaling keeps
every divisibility relation, the lcm lattice and genericity, so the
work is the same while the ideal is new.

Everything here works on plain exponent tuples and imports nothing from
cellres.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

EXIT_OK = 0
EXIT_PRECONDITION = 3


@dataclass(frozen=True)
class Op:
    """One CLI call on one ideal file.

    ``args`` is the subcommand and its flags, without the file and
    ``--format``.  ``file_gens`` is what the file lists; ``gens`` is its
    minimal generating set, which the program should work with.
    """

    kind: str
    args: tuple
    file_gens: tuple
    fmt: str = "json"
    json_input: bool = False
    expect_exit: int = EXIT_OK

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def nvars(self) -> int:
        return len(self.file_gens[0])

    @property
    def gens(self) -> tuple:
        return minimal_gens(self.file_gens)

    def argv(self, path: str) -> list:
        return [*self.args, path, "--format", self.fmt]

    def file_text(self) -> str:
        if self.json_input:
            return json.dumps({"nvars": self.nvars, "generators": [list(g) for g in self.file_gens]})
        names = var_names(self.nvars)
        return (f"vars: {','.join(names)}\n"
                f"ideal: {', '.join(monomial_text(g, names) for g in self.file_gens)}\n")


def var_names(n: int):
    return tuple("xyzw"[:n]) if n <= 4 else tuple(f"z{i + 1}" for i in range(n))


def monomial_text(e, names) -> str:
    parts = [names[i] if x == 1 else f"{names[i]}^{x}" for i, x in enumerate(e) if x]
    return "*".join(parts) or "1"


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_gens(gens) -> tuple:
    unique = sorted(set(gens))
    return tuple(g for g in unique if not any(h != g and divides(h, g) for h in unique))


# ---------------------------------------------------------------- families

def generic_antichain(rng, n, r, artinian):
    """r generators of total degree 2nr with full support, no two
    sharing a positive degree in any variable (so strongly generic), plus
    one pure power per variable above every other degree when Artinian."""
    deg = 2 * n * r
    used = [set() for _ in range(n)]
    gens = []
    misses = 0
    while len(gens) < r:
        if misses > 200:  # greedy choice painted itself into a corner
            used, gens, misses = [set() for _ in range(n)], [], 0
        cuts = sorted(rng.sample(range(1, deg), n - 1))
        e = tuple(b - a for a, b in zip((0, *cuts), (*cuts, deg)))
        if any(x and x in used[i] for i, x in enumerate(e)):
            misses += 1
            continue
        misses = 0
        for i, x in enumerate(e):
            used[i].add(x)
        gens.append(e)
    if artinian:
        for i in range(n):
            e = [0] * n
            e[i] = deg + 1 + rng.randrange(2 * n)
            gens.append(tuple(e))
    return tuple(sorted(gens))


def is_generic(gens) -> bool:
    """Two generators sharing a positive degree need a third that
    strictly divides their lcm."""
    for g, h in itertools.combinations(gens, 2):
        if not any(a == b > 0 for a, b in zip(g, h)):
            continue
        joint = tuple(map(max, g, h))
        if not any(k not in (g, h) and all(a < b if b else a == 0 for a, b in zip(k, joint))
                   for k in gens):
            return False
    return True


def nongeneric(rng, n, r, top=4):
    """Random antichain of r generators with exponents up to ``top`` and
    total degree ``top`` or ``top + 1``, redrawn until it is not generic."""
    points = [e for e in itertools.product(range(top + 1), repeat=n) if top <= sum(e) <= top + 1]
    while True:
        rng.shuffle(points)
        gens = []
        for e in points:
            if not any(divides(g, e) or divides(e, g) for g in gens):
                gens.append(e)
                if len(gens) == r:
                    break
        if len(gens) == r and not is_generic(gens):
            return tuple(sorted(gens))


def staircase(rng, r, spread=16):
    """Artinian n = 2 staircase with r generators and exponents below
    ``spread``."""
    a = [0, *sorted(rng.sample(range(1, spread), r - 1))]
    b = [*sorted(rng.sample(range(1, spread), r - 1), reverse=True), 0]
    return tuple(zip(a, b))


def power_of_maximal(n, d):
    return tuple(e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d)


def without(gens, *dropped):
    return tuple(g for g in gens if g not in dropped)


# The README's and the tests' worked examples.
FIVE_GEN = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2))  # not generic
THREE_GEN_NONARTINIAN = ((4, 0), (2, 1), (1, 2))  # generic
XY_SQUARE = ((2, 0), (1, 1), (0, 2))
ZW_EXAMPLE = ((0, 3), (2, 2), (4, 0))
NONMINIMAL = ((2,), (3,))  # minimalizes to (x^2), with a warning


def scaled(rng, gens, copy):
    """Exponent-scaled copy: variable i's exponents times c_i, drawn from
    1..3+copy so that every copy can find an unused scaling."""
    c = [rng.randint(1, 3 + copy) for _ in gens[0]]
    return tuple(sorted(tuple(x * ci for x, ci in zip(g, c)) for g in gens))


# ---------------------------------------------------------------- slots
#
# A slot is (kind, args, draw, extra Op fields); draw(rng, copy) returns
# the file's generators.  Sizes are set so that a cycle takes about two
# to three seconds on a 2-core x86 box with the pure-Python rank path,
# no op takes more than two, and a run of about 25 s holds the 100 ops
# that p90 needs; the latency table a run prints shows the per-kind cost.
#
# The heavy workloads have 15 slots.  A run measures whole cycles, so p90
# then falls in the middle of the second-costliest slot's values and p50
# in the middle of the eighth, not on the gap between two slots, where it
# would jump from run to run.  In taylor-nongeneric the two costliest
# slots are fixed families, whose scaled copies do the same work in every
# cycle.  small-inputs has 20 slots with two alike at the top for the
# same reason.

def _antichain(n, r, artinian):
    return lambda rng, copy: generic_antichain(rng, n, r, artinian)


def _nongeneric(n, r):
    return lambda rng, copy: nongeneric(rng, n, r)


def _staircase(r):
    return lambda rng, copy: staircase(rng, r)


def _fixed(gens):
    return lambda rng, copy: scaled(rng, gens, copy)


SCARF = ("scarf",)
STAR = ("scarf", "--star")
DEC_SCARF = ("decompose", "--method", "scarf")
RES_SCARF = ("resolve", "--complex", "scarf")
RES_TAYLOR = ("resolve", "--complex", "taylor")
BRUTE = ("decompose",)

WORKLOADS = {
    # Scarf enumeration, restriction and the irredundancy check on
    # strongly generic antichains; never reaches the brute-force oracle.
    "scarf-generic": [
        ("scarf", SCARF, _antichain(3, 12, True), {}),
        ("scarf", SCARF, _antichain(4, 10, True), {}),
        ("scarf", SCARF, _antichain(5, 13, False), {}),
        ("scarf-star", STAR, _antichain(3, 8, False), {}),
        ("scarf-star", STAR, _antichain(4, 7, True), {}),
        ("scarf-star", STAR, _antichain(5, 6, False), {}),
        ("decompose-scarf", DEC_SCARF, _antichain(3, 6, True), {}),
        ("decompose-scarf", DEC_SCARF, _antichain(4, 4, False), {}),
        ("decompose-scarf", DEC_SCARF, _antichain(5, 3, False), {}),
        ("resolve-scarf", RES_SCARF, _antichain(3, 8, True), {}),
        ("resolve-scarf", RES_SCARF, _antichain(4, 5, True), {}),
        ("resolve-scarf", RES_SCARF, _antichain(5, 7, False), {}),
        ("scarf-star", STAR, _antichain(3, 9, True), {}),
        ("decompose-scarf", DEC_SCARF, _antichain(3, 7, False), {}),
        ("resolve-scarf", RES_SCARF, _antichain(3, 11, False), {}),
    ],
    # The oracle and classification path: residue, verify, brute-force
    # decomposition and associated primes on generic ideals.
    "duality-generic": [
        (kind, args, draw, {})
        for kind, args in (("residue", ("residue",)), ("verify", ("verify",)),
                           ("decompose-brute", BRUTE), ("ass", ("ass",)))
        for draw in (_antichain(3, 5, True), _antichain(3, 6, False),
                     _antichain(4, 3, True), _antichain(4, 4, False))
    ][:15],
    # Dense Taylor boundary matrices, where rank dominates; Scarf is
    # never called.
    "taylor-nongeneric": [
        ("resolve-taylor", RES_TAYLOR, _fixed(power_of_maximal(3, 3)), {}),
        ("resolve-taylor", RES_TAYLOR, _fixed(without(power_of_maximal(4, 2), (0, 0, 0, 2))), {}),
        ("resolve-taylor", RES_TAYLOR, _fixed(power_of_maximal(3, 2)), {}),
        ("resolve-taylor", RES_TAYLOR, _nongeneric(3, 7), {}),
        ("resolve-taylor", RES_TAYLOR, _nongeneric(3, 8), {}),
        ("resolve-taylor", RES_TAYLOR, _nongeneric(4, 8), {}),
        ("residue", ("residue",), _fixed(power_of_maximal(3, 2)), {}),
        ("residue", ("residue",), _fixed(without(power_of_maximal(3, 3), (3, 0, 0), (0, 3, 0))), {}),
        ("residue", ("residue",), _nongeneric(4, 6), {}),
        ("residue", ("residue",), _nongeneric(3, 7), {}),
        ("residue", ("residue",), _nongeneric(3, 8), {}),
        ("taylor", ("taylor",), _fixed(power_of_maximal(3, 3)), {}),
        ("taylor", ("taylor",), _fixed(power_of_maximal(4, 2)), {}),
        ("taylor", ("taylor",), _nongeneric(4, 9), {}),
        ("taylor", ("taylor",), _nongeneric(3, 10), {}),
    ],
    # Many tiny inputs, where fixed per-call cost (argument parsing,
    # parsing, rendering) dominates; the only workload reaching `check`
    # and `staircase`, and the only one with an expected error exit.
    "small-inputs": [
        ("check", ("check",), _staircase(3), {}),
        ("check", ("check",), _staircase(12), {"json_input": True}),
        ("check", ("check",), _fixed(NONMINIMAL), {}),
        ("staircase-text", ("staircase",), _staircase(5), {"fmt": "text"}),
        ("staircase-svg", ("staircase",), _staircase(8), {"fmt": "svg"}),
        ("staircase-svg", ("staircase",), _staircase(9), {"fmt": "svg", "json_input": True}),
        ("staircase-json", ("staircase",), _staircase(11), {"json_input": True}),
        ("scarf", SCARF, _fixed(FIVE_GEN), {}),
        ("scarf-star", STAR, _fixed(THREE_GEN_NONARTINIAN), {}),
        ("taylor", ("taylor",), _fixed(XY_SQUARE), {}),
        ("resolve-taylor", RES_TAYLOR, _fixed(FIVE_GEN), {}),
        ("resolve-scarf", RES_SCARF, _fixed(ZW_EXAMPLE), {"json_input": True}),
        ("decompose-brute", BRUTE, _staircase(6), {}),
        ("decompose-scarf", DEC_SCARF, _fixed(THREE_GEN_NONARTINIAN), {}),
        ("decompose-scarf", DEC_SCARF, _fixed(FIVE_GEN), {"expect_exit": EXIT_PRECONDITION}),
        ("ass", ("ass",), _staircase(7), {}),
        ("residue", ("residue",), _fixed(THREE_GEN_NONARTINIAN), {}),
        ("residue", ("residue",), _fixed(XY_SQUARE), {}),
        ("verify", ("verify",), _staircase(4), {}),
        ("verify", ("verify",), _fixed(ZW_EXAMPLE), {}),
    ],
}

# A traced run (``run.py --trace 1``) runs this many cycles untraced, then
# as many traced, whatever the host's speed, so that its per-layer sums
# and counts stay comparable between runs.  Each half takes about 12 s on
# the box the slot sizes were set on.
TRACE_CYCLES = {
    "scarf-generic": 4,
    "duality-generic": 3,
    "taylor-nongeneric": 3,
    "small-inputs": 50,
}


class Corpus:
    """The ops of one run, drawn cycle by cycle.

    ``seen`` holds the minimal generator set of every op drawn so far;
    drawing an op whose set is already there raises, so no ideal can
    repeat within a run.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.slots = WORKLOADS[workload]
        self.seen = set()

    def cycle(self, index: int):
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        ops = []
        for kind, args, draw, extra in self.slots:
            gens = draw(rng, index)
            while minimal_gens(gens) in self.seen:
                gens = draw(rng, index)
            ops.append(self.add(Op(kind, args, gens, **extra)))
        return ops

    def add(self, op: Op) -> Op:
        key = op.gens
        if key in self.seen:
            raise ValueError(f"{self.workload}: generator set {key} repeats within the run")
        self.seen.add(key)
        return op
