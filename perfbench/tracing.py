"""Spans around calls into cellres's modules, recorded from outside.

cellres imports by name (``residue`` holds its own ``decompose_brute``,
``complexes`` its own ``matrix_rank``, ``cli`` nearly everything), so a
wrapper only sees calls if it replaces the name in every module that
holds it.  ``Tracer.install`` does that for every public function the
modules define, and wraps the few methods in METHODS on their classes;
``uninstall`` puts every original back, so an untraced run measures
unmodified code.

No span goes on a per-element function: ``Monomial.divides`` runs about
a million times in one op, and a span there would measure the tracer.

A span's self time is its duration minus the time of its child spans.
Spans of the op in progress are kept in ``spans``; ``end_op`` folds them
into per-name totals and clears them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# Every public function defined in a cellres module other than cli gets
# a span named "<module>.<function>", except these, which run once per
# monomial, generator or entry.  cli.main is the op's root span, which
# the runner opens itself.
PER_ELEMENT = {
    "monomial.lcm", "monomial.lcm_many", "monomial.minimalize", "monomial.unit_ideal",
    "ioformats.default_var_names", "ioformats.monomial_str", "ioformats.ideal_str",
    "ioformats.irreducible_str", "ioformats.dbar_factors_str", "ioformats.residue_entry_doc",
    "rank.rank_pure",
}
# Methods get a span only if listed here: (module, "Class.method", span name).
METHODS = [
    ("decompose", "Decomposition.verify", "decompose.verify"),
    ("decompose", "Decomposition.is_irredundant", "decompose.is_irredundant"),
    ("monomial", "MonomialIdeal.intersect", "monomial.intersect"),
    ("monomial", "MonomialIdeal.is_artinian", "monomial.is_artinian"),
    ("monomial", "MonomialIdeal.is_generic", "monomial.is_generic"),
    ("monomial", "MonomialIdeal.is_strongly_generic", "monomial.is_strongly_generic"),
]


def _count_scarf_complex(tr, args, result):
    tr.counts["scarf.subsets"] += 2 ** args[0].num_gens
    tr.counts["scarf.faces"] += sum(1 for f in result.faces if f.dim >= 0)


def _count_lattice(tr, args, result):
    tr.counts["complexes.lattice_points"] += len(result)


def _count_restrict(tr, args, result):
    tr.counts["complexes.restrictions"] += 1


def _count_rank(tr, args, result):
    rows, ncols = args[0], args[1]
    tr.counts["rank.calls"] += 1
    tr.counts["rank.entries"] += len(rows) * ncols


def _count_irredundant(tr, args, result):
    tr.counts["decompose.is_irredundant_calls"] += 1


def _count_intersect(tr, args, result):
    tr.counts["monomial.intersect_calls"] += 1


def _count_residue(tr, args, result):
    tr.counts["residue.entries"] += len(result.entries)


def _count_classify(tr, args, result):
    for e in result.entries:
        if e.status == "unknown":
            tr.counts["residue.unknown_entries"] += 1
        if e.rule:
            tr.counts[f"residue.rule.{e.rule}"] += 1


COUNTERS = {
    "scarf.scarf_complex": _count_scarf_complex,
    "complexes.lcm_lattice": _count_lattice,
    "complexes.restrict_leq": _count_restrict,
    "rank.matrix_rank": _count_rank,
    "decompose.is_irredundant": _count_irredundant,
    "monomial.intersect": _count_intersect,
    "residue.residue_current": _count_residue,
    "residue.classify": _count_classify,
}


def brute_candidates(M) -> int:
    """Product of the per-variable value-set sizes decompose_brute scans."""
    total = 1
    for i in range(M.nvars):
        total *= len({0} | {g.exps[i] for g in M.gens if g.exps[i] > 0})
    return total


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        # (name, parent name, start, end, self seconds, outermost) of the op in progress
        self.spans = []
        self.counts = Counter()
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.op_self_s = defaultdict(lambda: defaultdict(float))  # op kind -> name -> self time
        self.op_incl_s = defaultdict(lambda: defaultdict(float))  # op kind -> name -> inclusive
        self._stack = []  # [name, start, child seconds]
        self._restore = []
        self.installed = set()  # span names wrapped by install

    # -- spans

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        # a span nested in one of the same name is inside its inclusive time
        outermost = all(frame[0] != name for frame in self._stack)
        self.spans.append((name, parent, start, end, dur - child, outermost))

    def end_op(self, kind):
        """Fold the finished op's spans into the totals and clear them."""
        own = self.op_self_s[kind]
        incl = self.op_incl_s[kind]
        for name, _, start, end, self_s, outermost in self.spans:
            self.self_s[name] += self_s
            own[name] += self_s
            if outermost:
                incl[name] += end - start
        self.spans = []

    # -- installation

    def _wrap(self, fn, name):
        tracer = self
        count = COUNTERS.get(name)
        brute = name == "decompose.decompose_brute"
        # decompose_brute's lru_cache may go away; hits then stay 0
        cache_info = getattr(fn, "cache_info", None) if brute else None

        def traced(*args, **kwargs):
            if cache_info:
                misses = cache_info().misses
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count:
                count(tracer, args, result)
            if brute:
                tracer.counts["decompose.brute_calls"] += 1
                if cache_info and cache_info().misses == misses:
                    tracer.counts["decompose.brute_cache_hits"] += 1
                else:
                    tracer.counts["decompose.brute_candidates"] += brute_candidates(args[0])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cellres" or key.startswith("cellres."))]
        for module in modules:
            short = module.__name__.partition(".")[2]
            if not short or short == "cli":
                continue
            for attr, value in list(vars(module).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in PER_ELEMENT or \
                        getattr(value, "__module__", None) != module.__name__ or \
                        not inspect.isfunction(inspect.unwrap(value)):
                    continue
                wrapper = self._wrap(value, name)
                self.installed.add(name)
                for holder in modules:
                    for key, held in list(vars(holder).items()):
                        if held is value:
                            self._restore.append((holder, key, value))
                            setattr(holder, key, wrapper)
        for module_name, attr, name in METHODS:
            owner_name, _, meth = attr.partition(".")
            owner = getattr(sys.modules.get(f"cellres.{module_name}"), owner_name, None)
            if owner is None or meth not in vars(owner):
                continue  # gone from the program; the caller reports it
            self._restore.append((owner, meth, vars(owner)[meth]))
            setattr(owner, meth, self._wrap(vars(owner)[meth], name))
            self.installed.add(name)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
        self.installed = set()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
