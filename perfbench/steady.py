"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/steadiness.json
    python3 perfbench/steady.py --runs 1 --trace 1

Every workload in BENCHMARK.json runs ``--runs`` times for its
run_seconds, each run its own ``run.py`` process, with seeds 1, 2, ...
For every metric the report gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the bound from BENCHMARK.json; for
end-to-end metrics other than setup_s a spread above a third of the
bound is flagged.  End-to-end runs also summarize the values as
measured, before scaling to the reference speed, and the host's
slowdown.  ``--runs 1`` is the one command that prints every
workload's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the report here as JSON")
    args = ap.parse_args(argv)

    specs = bench["per_layer" if args.trace else "end_to_end"]
    seconds = bench["run_seconds"]
    report = {"runs": args.runs, "seconds": seconds, "trace": args.trace,
              "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results, measured, env, notes = [], [], None, []
        for seed in range(1, args.runs + 1):
            result, lines = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            env = json.loads(lines[0][len("env "):])
            measured += [json.loads(line[len("measured "):]) for line in lines
                         if line.startswith("measured ")]
            notes = lines[1:]
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {}
        print(f"== {workload}: {args.runs} runs, failed_ratio {failed / attempted:.6g} "
              f"({failed}/{attempted} ops), env {json.dumps(env, sort_keys=True)}")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            summary = summarize(values)
            summary["unit"] = spec["unit"]
            line = f"  {spec['name']:<34} median {summary['median']:>12.6g} {spec['unit']:<6}"
            if summary.get("spread") is not None:
                line += f" q1 {summary['q1']:>11.6g} q3 {summary['q3']:>11.6g} spread {summary['spread']:.3f}"
                if "bound" in spec:
                    line += f" (bound {spec['bound']})"
                    if spec["name"] != "setup_s" and summary["spread"] > spec["bound"] / 3:
                        line += "  ABOVE A THIRD OF THE BOUND"
            print(line)
            metrics[spec["name"]] = summary
        raw = {}
        if measured:
            for name in ["slowdown", *measured[0]["metrics"]]:
                values = [m["slowdown"] if name == "slowdown" else m["metrics"][name] for m in measured]
                raw[name] = summary = summarize(values)
                line = f"  measured {name:<25} median {summary['median']:>12.6g}"
                if summary.get("spread") is not None:
                    line += f"        q1 {summary['q1']:>11.6g} q3 {summary['q3']:>11.6g} spread {summary['spread']:.3f}"
                print(line)
        if args.runs == 1:
            print("\n".join("  " + note for note in notes))
        report["workloads"][workload] = {"failed_ratio": failed / attempted, "attempted": attempted,
                                         "env": env, "metrics": metrics, "measured": raw,
                                         "last_run_notes": notes}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
