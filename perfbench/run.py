"""Pipeline benchmark for cellres: seeded ideal files through the CLI.

    python3 perfbench/run.py --workload scarf-generic --seed 1 --seconds 24 --trace 0

Run from a checkout: the program is ``src/cellres``, pure Python, so
there is nothing to build.  One process, one client, closed loop: each
op calls ``cellres.cli.main(argv)`` in-process after the previous one
returned, on one ideal file of its own, and its stdout is checked
(``checks.py``).  Ops come in cycles of a fixed mix (``workloads.py``),
and a run measures whole cycles until ``--seconds`` of ops have run and
at least MIN_OPS ops are done, so that p90 has ten samples beyond it.
Writing a cycle's files and checking its outputs happen between the
timed cycles.

``--trace 0`` prints the end-to-end metrics.  Their op times are scaled
to a reference speed (see REF_SHARE below); setup_s and peak_rss_mb are
not.  The line ``measured {...}`` before the result gives every metric
as measured, with the host's slowdown.  ``--trace 1`` runs the
workload's TRACE_CYCLES cycles untraced, then as many again with spans
around the calls into cellres's modules (``tracing.py``), and prints the
per-layer metrics, as measured; ``--seconds`` does not apply to it.  The
last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it are the same numbers for a
reader, with the environment.

With the default seed every op's output is also compared with the
digest recorded in ``digests.json`` (``--write-digests`` records them),
so an output that changes by a byte counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import check, intersection_problem
from tracing import Tracer
from workloads import TRACE_CYCLES, WORKLOADS, Corpus, generic_antichain, minimal_gens, nongeneric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
DIGEST_OPS = 150  # per workload: the first 150 ops of a default-seed run
MIN_OPS = 100
OP_TIMEOUT_S = 30.0
HARD_STOP_S = 120.0  # measuring stops here whatever --seconds asks
SETUP_REPEATS = 7

# The host's speed drifts by a quarter over minutes, far more than any
# bound could absorb, so the gated times are reported at a reference
# speed: between cycles the run spends REF_SHARE of its op time on fixed
# reference work, and every time is scaled by REF_SLICE_S over the mean
# slice duration.  The reference is this directory's own plain-tuple
# code, so no change to cellres can move it.
REF_SHARE = 0.2
REF_SLICE_S = 0.035  # a slice's median duration on the 2-core x86 box the bounds were set on
REF_GENS = generic_antichain(random.Random(0), 3, 6, True)

SUBCOMMANDS = ("check", "scarf", "taylor", "resolve", "decompose", "ass",
               "residue", "staircase", "verify")

# per-layer time metric -> the spans whose self time it sums; the self
# time of every other span goes to its module's "<module>.other_s"
LAYER_TIMES = {
    "cli.self_s": ["cli.main"],
    "ioformats.parse_s": ["ioformats.parse_ideal", "ioformats.parse_complex"],
    "ioformats.render_s": ["ioformats.ideal_doc", "ioformats.complex_doc",
                           "ioformats.decomposition_doc", "ioformats.residue_doc",
                           "ioformats.duality_doc", "ioformats.pairs_doc", "ioformats.dumps"],
    "staircase.render_s": ["staircase.staircase_data", "staircase.ascii_staircase",
                           "staircase.svg_staircase"],
    "scarf.scarf_complex_s": ["scarf.scarf_complex"],
    "scarf.scarf_pairs_s": ["scarf.scarf_pairs"],
    "complexes.taylor_complex_s": ["complexes.taylor_complex"],
    "complexes.lcm_lattice_s": ["complexes.lcm_lattice"],
    "complexes.restrict_leq_s": ["complexes.restrict_leq"],
    "complexes.homology_s": ["complexes.is_acyclic", "complexes.reduced_homology_ranks"],
    "rank.matrix_rank_s": ["rank.matrix_rank"],
    "resolution.build_complex_s": ["resolution.build_complex"],
    "resolution.verify_chain_s": ["resolution.verify_chain"],
    "resolution.is_resolution_s": ["resolution.is_resolution"],
    "decompose.decompose_scarf_s": ["decompose.decompose_scarf"],
    "decompose.decompose_minimal_s": ["decompose.decompose_minimal"],
    "decompose.decompose_brute_s": ["decompose.decompose_brute"],
    "decompose.verify_s": ["decompose.verify"],
    "decompose.is_irredundant_s": ["decompose.is_irredundant"],
    "monomial.intersect_s": ["monomial.intersect"],
    "residue.residue_current_s": ["residue.residue_current"],
    "residue.classify_s": ["residue.classify"],
}
MODULES = ("ioformats", "staircase", "scarf", "complexes", "rank", "resolution",
           "decompose", "monomial", "residue")
LAYER_COUNTS = [
    "scarf.subsets", "scarf.faces",
    "complexes.lattice_points", "complexes.restrictions",
    "rank.calls", "rank.entries",
    "decompose.brute_calls", "decompose.brute_cache_hits", "decompose.brute_candidates",
    "decompose.is_irredundant_calls",
    "monomial.intersect_calls",
    "residue.entries", "residue.unknown_entries",
    "residue.rule.not-contained", "residue.rule.scarf-facet",
    "residue.rule.minimal-resolution", "residue.rule.unique-carrier",
]


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Draws, runs and checks the cycles of one workload."""

    def __init__(self, cli, workload, seed, workdir, digests):
        self.cli = cli
        self.corpus = Corpus(workload, seed)
        self.workdir = workdir
        self.recorded = digests  # recorded digests to compare with, or None
        self.next_cycle = 0
        self.latencies = []  # (op kind, subcommand, seconds, traced)
        self.failures = []  # (op index, op kind, reason)
        self.digests = []
        self.timed_s = 0.0
        self.ref_s = 0.0
        self.ref_slices = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def write_cycle(self):
        items = []
        for op in self.corpus.cycle(self.next_cycle):
            path = self.workdir / f"{self.next_cycle}-{len(items)}.txt"
            path.write_text(op.file_text(), encoding="utf-8")
            items.append((op, str(path)))
        self.next_cycle += 1
        return items

    def run_cycle(self, tracer=None):
        """Run one cycle; only the op calls are timed."""
        items = self.write_cycle()
        results = []
        start = time.perf_counter()
        for op, path in items:
            results.append(self._run_op(op, path, tracer))
        self.timed_s += time.perf_counter() - start
        for (op, _), (code, out, latency) in zip(items, results):
            index = self.attempted
            self.latencies.append((op.kind, op.subcommand, latency, tracer is not None))
            reason = code if isinstance(code, str) else check(op, code, out)
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            self.digests.append(digest)
            if reason is None and self.recorded is not None and index < len(self.recorded) \
                    and self.recorded[index] != digest:
                reason = "output differs from the recorded digest"
            if reason is not None:
                self.failures.append((index, op.kind, reason))

    def keep_reference_share(self):
        while self.ref_s < REF_SHARE * self.timed_s:
            self.ref_s += reference_slice()
            self.ref_slices += 1

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran."""
        return self.ref_s / self.ref_slices / REF_SLICE_S

    def _run_op(self, op, path, tracer):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer:
                    tracer.enter("cli.main")
                try:
                    code = self.cli.main(op.argv(path))
                finally:
                    if tracer:
                        tracer.exit()
        except OpTimeout:
            code = f"timed out after {OP_TIMEOUT_S:g} s"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this op; the run goes on
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        if tracer:
            tracer.end_op(op.kind)
        return code, out.getvalue(), latency


def reference_slice():
    """Fixed work shaped like the program's hot loops: tuples, zips,
    divisibility tests, sets and sorting."""
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(2):
        nongeneric(rng, 4, 8)
        minimal_gens([tuple(rng.randint(0, 9) for _ in range(4)) for _ in range(300)])
        intersection_problem(REF_GENS, REF_GENS)
    return time.perf_counter() - start


def run_until(runner, seconds, min_ops, deadline, tracer=None, cycles=None, reference=False):
    """Run whole cycles: ``cycles`` of them, or until ``seconds`` of
    timed ops and ``min_ops`` ops; never past ``deadline``.  With
    ``reference``, reference slices follow each cycle."""
    done = 0
    start_timed = runner.timed_s
    while time.perf_counter() < deadline:
        if cycles is not None and done >= cycles:
            break
        if cycles is None and runner.timed_s - start_timed >= seconds and runner.attempted >= min_ops:
            break
        runner.run_cycle(tracer)
        if reference:
            runner.keep_reference_share()
        done += 1
    return done, runner.timed_s - start_timed


def measure_setup(workload, seed, workdir):
    """Median over SETUP_REPEATS of: a fresh interpreter importing
    cellres, plus drawing and writing the first cycle's files."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cellres"], env=env, check=True)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for i, op in enumerate(Corpus(workload, seed).cycle(0)):
            (workdir / f"setup-{i}.txt").write_text(op.file_text(), encoding="utf-8")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def environment(seed):
    try:
        import cellres._fastrank  # noqa: F401
        fastrank = True
    except ImportError:
        fastrank = False
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*")) if p.suffix in (".py", ".pyx"))
    return {
        "python": platform.python_version(),
        "fastrank_importable": fastrank,
        "CELLRES_PURE": os.environ.get("CELLRES_PURE", ""),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


def end_to_end(runner, timed_s, setup_s):
    """(measured, at reference speed, unit) per end-to-end metric.  Only
    op times are scaled: set-up is mostly process start and file writes,
    work unlike the reference's."""
    lat = [s for _, _, s, _ in runner.latencies]
    slow = runner.slowdown
    ops_per_s = len(lat) / timed_s
    p50, p90 = statistics.median(lat) * 1e3, percentile(lat, 90) * 1e3
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": (ops_per_s, ops_per_s * slow, "1/s"),
        "latency_p50_ms": (p50, p50 / slow, "ms"),
        "latency_p90_ms": (p90, p90 / slow, "ms"),
        "setup_s": (setup_s, setup_s, "s"),
        "peak_rss_mb": (rss, rss, "MB"),
    }


def per_layer(runner, tracer, overhead, fastrank):
    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = (sum(tracer.self_s.get(s, 0.0) for s in spans), "s")
    listed = {s for spans in LAYER_TIMES.values() for s in spans}
    other = {f"{m}.other_s": 0.0 for m in MODULES}
    for span, seconds in tracer.self_s.items():
        if span not in listed:
            other[f"{span.partition('.')[0]}.other_s"] += seconds
    metrics.update((name, (seconds, "s")) for name, seconds in other.items())
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    metrics["rank.compiled"] = (int(fastrank), "bool")
    by_sub = defaultdict(list)
    for _, sub, s, traced in runner.latencies:
        if traced:
            by_sub[sub].append(s)
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(by_sub[sub]) * 1e3 if by_sub[sub] else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def print_kinds(runner):
    by_kind = defaultdict(list)
    for kind, _, s, _ in runner.latencies:
        by_kind[kind].append(s * 1e3)
    print(f"{'op kind':<18} {'ops':>5} {'p50 ms':>9} {'p90 ms':>9} {'max ms':>9}")
    for kind, v in sorted(by_kind.items()):
        print(f"{kind:<18} {len(v):>5} {statistics.median(v):>9.1f} {percentile(v, 90):>9.1f} {max(v):>9.1f}")


def print_layers(tracer):
    """Per op kind: the largest self-time spans and inclusive spans."""
    for kind in sorted(tracer.op_self_s):
        own, incl = tracer.op_self_s[kind], tracer.op_incl_s[kind]
        total = sum(own.values()) or 1.0
        top_self = sorted(own.items(), key=lambda kv: -kv[1])[:4]
        top_incl = sorted(((k, v) for k, v in incl.items() if k != "cli.main"), key=lambda kv: -kv[1])[:3]
        print(f"{kind}: self " + ", ".join(f"{k} {v / total:.0%}" for k, v in top_self)
              + " | inclusive " + ", ".join(f"{k} {v / total:.0%}" for k, v in top_incl))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help=f"record the outputs' digests for seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)

    if not (SRC / "cellres" / "__init__.py").is_file():
        print(f"error: no cellres package under {SRC}", file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    process_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cellres.cli

    env = environment(args.seed)
    digests = None
    if args.seed == DEFAULT_SEED and not args.write_digests and DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        runner = Runner(cellres.cli, args.workload, args.seed, workdir, digests)
        deadline = process_start + HARD_STOP_S
        if args.trace:
            cycles = TRACE_CYCLES[args.workload]
            plain_cycles, plain_s = run_until(runner, 0, 0, deadline, cycles=cycles)
            with Tracer() as tracer:
                missing = sorted(s for spans in LAYER_TIMES.values() for s in spans
                                 if s != "cli.main" and s not in tracer.installed)
                traced_cycles, traced_s = run_until(runner, 0, 0, deadline + 30, tracer, cycles)
            metrics = per_layer(runner, tracer, traced_s / plain_s, env["fastrank_importable"])
        else:
            _, timed_s = run_until(runner, args.seconds, MIN_OPS, deadline, reference=True)
            measured = end_to_end(runner, timed_s, setup_s)
            metrics = {name: (at_ref, unit) for name, (_, at_ref, unit) in measured.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.write_digests:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        recorded[args.workload] = runner.digests[:DIGEST_OPS]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    attempted, failed = runner.attempted, len(runner.failures)
    print("env " + json.dumps(env, sort_keys=True))
    print_kinds(runner)
    if args.trace:
        print_layers(tracer)
        if missing:
            print("spans not found in the program, their metrics read 0: " + ", ".join(missing))
        if min(plain_cycles, traced_cycles) < cycles:
            print(f"deadline reached: {plain_cycles} untraced and {traced_cycles} traced "
                  f"cycles of {cycles}")
    for index, kind, reason in runner.failures[:10]:
        print(f"FAILED op {index} ({kind}): {reason}")
    print(f"{'failed_ratio':<32} {failed / attempted:>14.6g} ratio")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:>14.6g} {unit}")
    else:
        print(f"host slowdown against the reference speed: {runner.slowdown:.4g} "
              f"({runner.ref_slices} reference slices)")
        print(f"{'metric':<32} {'measured':>14} {'reported':>14}")
        for name, (value, at_ref, unit) in measured.items():
            print(f"{name:<32} {value:>14.6g} {at_ref:>14.6g} {unit}")
        print("measured " + json.dumps({
            "slowdown": runner.slowdown,
            "metrics": {name: value for name, (value, _, _) in measured.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
