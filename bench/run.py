"""The addnf benchmark.  Run from the repository root:

    python3 bench/run.py --workload modal-verify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Human-readable lines come first;
the last line of standard output is one JSON object.  A full record of
the run (and, when traced, every span) goes to .bench_out/.  Only the
standard library is used, and the engine is imported from src/.  Compiled
bytecode is kept under .bench_out/pycache/, never beside the sources.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up times imports from cached bytecode, whatever the environment says.
sys.pycache_prefix = str(OUT / "pycache")
sys.dont_write_bytecode = False

from harness import (  # noqa: E402
    NullTracer,
    Tracer,
    failed_share,
    perf,
    percentile,
    self_time_by_name,
)
from workloads import WORKLOADS, Outcome, engine_modules, load_engine, replay  # noqa: E402

# An untraced run goes on past --seconds until it holds this many rounds,
# so that each op's median time rests on several timings.
MIN_ROUNDS = 5

LAYER_SPANS = {
    "syntax.parse_s": "syntax.parse",
    "syntax.render_s": "syntax.render",
    "domain_system.derive_s": "domain_system.derive",
    "domain_system.suitable_s": "domain_system.suitable",
    "constituents.space_s": "constituents.space",
    "constituents.count_s": "constituents.count",
    "constituents.partition_s": "constituents.partition",
    "rewriter.normalize_s": "rewriter.normalize",
    "rewriter.renormalize_s": "rewriter.renormalize",
    "rewriter.disjunction_s": "rewriter.disjunction",
    "rewriter.verify_s": "rewriter.verify",
    "logics.build_instance_s": "logics.build_instance",
}
CLI_COMMANDS = ("parse", "count", "enumerate", "normalize", "verify", "partition-check")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the addnf engine on one workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "addnf" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = SetUp(args.workload, args.seed)
    wl = setup.time()
    if args.trace:
        out, metrics, spans = traced_run(wl)
    else:
        out = timed_run(wl, args.seconds, setup)
        metrics = end_to_end(out, setup.median())
        spans = None

    unexpected = [f for f in out.failures if f[0] not in wl.known_defects]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_lines": src_lines(),
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_share": failed_share(out.attempted, out.failed),
        "latency_samples": len(out.latency_samples()),
        "rounds": len(out.rates),
        "ops_passed_per_wall_s": out.passed / out.wall,
        "failures": out.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "spans": spans}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  commit {record['commit']}  "
          f"src_lines {record['src_lines']}")
    print(f"ops attempted {out.attempted}  failed {out.failed}  "
          f"failed_share {record['failed_share']:.6f}  "
          f"latency samples {record['latency_samples']}  rounds {record['rounds']}")
    for (label, reason), n in Counter(out.failures).most_common(10):
        known = " (known seed defect)" if label in wl.known_defects else ""
        print(f"  failed x{n} {label[:60]}: {reason}{known}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": record["metrics"],
    }))
    return 0


class SetUp:
    """Times the set-up: a fresh import, the instance and the inputs.

    The machine's speed drifts in phases of many seconds, so the set-ups
    are spread over the run and their median kept.  A first, untimed
    import compiles any source whose cached bytecode is missing or stale,
    so every timed import loads the same cached bytecode.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed, self.times = name, seed, []
        load_engine(SRC)
        self.modules = engine_modules()

    def time(self, keep: bool = True):
        """Time one set-up.  Unless ``keep``, the workload it built is
        dropped and the engine modules the run uses are put back in
        sys.modules, so that an import made later inside the engine finds
        the same modules as the rest of the run."""
        t0 = perf()
        wl = WORKLOADS[self.name](load_engine(SRC), self.seed)
        self.times.append(perf() - t0)
        if keep:
            self.modules = engine_modules()
        else:
            for name in engine_modules():
                del sys.modules[name]
            sys.modules.update(self.modules)
        return wl

    def median(self) -> float:
        return statistics.median(self.times)


def run_round(wl, tr, out: Outcome) -> None:
    passed, t0 = out.passed, perf()
    wl.run_round(wl.round, tr, out)
    seconds = perf() - t0
    out.wall += seconds
    out.rates.append((out.passed - passed) / seconds)


def timed_run(wl, seconds: float, setup: SetUp):
    """The workload's round, again and again, until ``seconds`` have passed
    and the run holds ``MIN_ROUNDS`` rounds.  A set-up is timed
    after each round; its garbage is collected before the next round."""
    out, tr = Outcome(), NullTracer()
    while out.wall < seconds or len(out.rates) < MIN_ROUNDS:
        run_round(wl, tr, out)
        setup.time(keep=False)
        gc.collect()
    return out


def end_to_end(out: Outcome, setup_s: float) -> dict:
    """``ops_per_s`` is the median over rounds of each round's rate.  The
    machine runs up to 2x slower in phases of 0.1 to 20 s, and the median
    of many rounds follows the rate the machine mostly ran at, where the
    run's total would follow how long the slow phases lasted."""
    samples = out.latency_samples()
    p50, _ = percentile(samples, 50)
    p90, _ = percentile(samples, 90)
    return {
        "ops_per_s": (statistics.median(out.rates), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "ok_share": (1.0 - failed_share(out.attempted, out.failed), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_run(wl):
    """The workload's round once untraced, then once traced.

    Every count is exact and repeats from run to run; the two passes give
    the tracing overhead.  A first, unmeasured pass warms the caches, so
    that neither measured pass pays for building spaces and member
    formulas.
    """
    run_round(wl, NullTracer(), Outcome())
    plain = Outcome()
    run_round(wl, NullTracer(), plain)

    tr, out = Tracer(), Outcome()
    wl.rebuild_instance(tr)
    wl.instrument(tr)
    try:
        run_round(wl, tr, out)
    finally:
        wl.uninstrument()
    replay(wl.jobs, tr)

    selfs = self_time_by_name(tr.spans)
    c = tr.counters
    metrics = {name: (selfs.get(span, 0.0), "s") for name, span in LAYER_SPANS.items()}
    metrics["logics.models_s"] = (tr.timers["logics.models"], "s")
    metrics["logics.eval_s"] = (tr.timers["logics.eval"], "s")
    spaces = wl.built_spaces()
    metrics.update({
        "syntax.parse_chars": (c["syntax.parse_chars"], "count"),
        "syntax.render_chars": (c["syntax.render_chars"], "count"),
        "constituents.spaces_built": (len(spaces), "count"),
        "constituents.space_members": (sum(sp.size for sp in spaces), "count"),
        "constituents.space_hit_ratio": (_ratio(c["constituents.space_hits"],
                                                c["constituents.space_calls"]), "ratio"),
        "rewriter.verify_models": (c["rewriter.verify_models"], "count"),
        "logics.witness_coverage": (_ratio(c["logics.realized_members"],
                                           c["logics.verified_space_size"]), "ratio"),
        "logics.useful_model_ratio": (_ratio(c["logics.useful_models"],
                                             c["logics.models_enumerated"]), "ratio"),
        "cli.escaped_exceptions": (c["cli.escaped_exceptions"], "count"),
    })
    for cmd in CLI_COMMANDS:
        durations = [end - start for name, start, end, _, _ in tr.spans if name == f"cli.{cmd}"]
        p50 = percentile(durations, 50)[0] * 1e3 if durations else 0.0
        metrics[f"cli.{cmd}.p50_ms"] = (p50, "ms")
    probe_s = sum(end - start for name, start, end, _, _ in tr.spans if name in wl.probes)
    overhead = out.wall - probe_s - plain.wall
    metrics.update({
        "bench.trace_overhead_s": (overhead, "s"),
        "bench.trace_overhead_share": (overhead / plain.wall, "ratio"),
        "bench.latency_samples": (len(out.latency_samples()), "count"),
        "repo.src_lines": (src_lines(), "count"),
    })
    return out, metrics, tr.spans


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "addnf").rglob("*.py")))


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
