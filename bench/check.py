"""Run the benchmark over many seeds and judge its steadiness.

    python3 bench/check.py run A --seeds 1-10            # every workload, every metric
    python3 bench/check.py run A --seeds 1-2 --trace 1   # traced, for the exact counters
    python3 bench/check.py report A                      # spreads within one set
    python3 bench/check.py compare A B                   # drift and counters, set A vs B
    python3 bench/check.py mix                           # the generator's natural traffic

A set is a directory .bench_out/sets/<name>/ holding the last output line
of each run.  ``report`` gives each end-to-end metric's median and its
quartile spread (IQR over median) against the bound in BENCHMARK.json;
``compare`` gives how far B's median moved from A's, and whether every
exact counter of the traced runs is identical in both sets.  ``mix``
gives the depth shares of the modal generator's draws, and the sigma
sizes among depth-2 draws, beside what each formula workload runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402
from harness import quartile_spread  # noqa: E402
from workloads import ModalVerify, RewriteRoundtrip  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETS = ROOT / ".bench_out" / "sets"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")} - {
    "bench.trace_overhead_share"
}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(name: str, seed_list, workloads, trace: int) -> int:
    out = SETS / name
    out.mkdir(parents=True, exist_ok=True)
    for w in workloads:
        for seed in seed_list:
            cmd = [sys.executable, *SPEC["command"][1:], "--workload", w, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            (out / f"{w}-seed{seed}-trace{trace}.json").write_text(lines[-1] + "\n")
            print(f"{w} seed {seed} trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:32s} {m['value']:14.6f} {m['unit']}", flush=True)
    return 0


def load(name: str, trace: int) -> dict:
    """workload -> seed -> result, for one set."""
    results: dict = {}
    for path in sorted((SETS / name).glob(f"*-trace{trace}.json")):
        workload, _, rest = path.stem.rpartition("-seed")
        seed = int(rest.split("-")[0])
        results.setdefault(workload, {})[seed] = json.loads(path.read_text())
    return results


def values(runs: dict, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for _, r in sorted(runs.items())]


def report(name: str) -> int:
    bad = 0
    for workload, runs in sorted(load(name, 0).items()):
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs.values())}")
        for m in SPEC["end_to_end"]:
            xs = values(runs, m["name"])
            spread = quartile_spread(xs) if len(xs) >= 2 else 0.0
            flag = ""
            if spread > m["bound"]:
                flag, bad = "  OVER BOUND", bad + 1
            elif spread > m["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"  {m['name']:16s} median {statistics.median(xs):12.5f} {m['unit']:6s} "
                  f"spread {spread:.4f} (bound {m['bound']}){flag}")
    return 1 if bad else 0


def compare(a: str, b: str) -> int:
    bad = 0
    first, second = load(a, 0), load(b, 0)
    for workload in sorted(first):
        print(workload)
        for m in SPEC["end_to_end"]:
            ma = statistics.median(values(first[workload], m["name"]))
            mb = statistics.median(values(second.get(workload, {}), m["name"]))
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = ""
            if worse > m["bound"]:
                flag, bad = "  WORSE THAN BOUND", bad + 1
            print(f"  {m['name']:16s} {ma:12.5f} -> {mb:12.5f}  worse by {worse:+.4f} "
                  f"(bound {m['bound']}){flag}")
    first, second = load(a, 1), load(b, 1)
    for workload, runs in sorted(first.items()):
        for seed, r in sorted(runs.items()):
            other = second.get(workload, {}).get(seed)
            if other is None:
                continue
            diff = [k for k in sorted(EXACT)
                    if r["metrics"][k]["value"] != other["metrics"][k]["value"]]
            diff += [k for k in ("attempted", "failed") if r[k] != other[k]]
            if diff:
                bad += 1
            print(f"{workload} seed {seed}: exact counters "
                  f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 1 if bad else 0


def mix(seed: int, draws: int) -> int:
    depths, sigmas = inputs.modal_mix(seed, draws)
    per_round = {
        "modal-verify": {d: n * ModalVerify.BATCH_SIZE for d, n in ModalVerify.BATCHES.items()},
        "rewrite-roundtrip": {**RewriteRoundtrip.QUOTA, 2: len(RewriteRoundtrip.DEPTH2_SIGMA)},
    }
    print(f"{draws} draws, seed {seed}")
    print("depth  natural  " + "  ".join(per_round))
    for d in sorted(depths):
        shares = "  ".join(f"{ops[d] / sum(ops.values()):>{len(w)}.3f}"
                           for w, ops in per_round.items())
        print(f"{d:5d}  {depths[d] / draws:7.3f}  {shares}")
    n2 = sum(sigmas.values())
    bands = {"0": (0, 0), "1-127": (1, 127), "128-383": (128, 383), "384-512": (384, 512)}
    print(f"sigma size among {n2} depth-2 draws:")
    for name, (lo, hi) in bands.items():
        share = sum(v for k, v in sigmas.items() if lo <= k <= hi) / n2
        print(f"  {name:8s} {share:.3f}")
    print("  commonest: " + ", ".join(f"{k} ({v / n2:.3f})" for k, v in sigmas.most_common(8)))
    print(f"  mean {sum(k * v for k, v in sigmas.items()) / n2:.1f}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="action", required=True)
    r = sub.add_parser("run")
    r.add_argument("name")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_parser("report").add_argument("name")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    m = sub.add_parser("mix")
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--draws", type=int, default=20000)
    args = p.parse_args(argv)
    if args.action == "run":
        return run(args.name, seeds(args.seeds), args.workloads.split(","), args.trace)
    if args.action == "report":
        return report(args.name)
    if args.action == "mix":
        return mix(args.seed, args.draws)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
