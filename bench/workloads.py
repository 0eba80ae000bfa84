"""The three workloads: seeded inputs, ops run and checked, times taken.

Every workload draws one round of ops from ``random.Random(seed)`` as
text or argv, and a run repeats that round.  A round holds a fixed mix of
ops, so two seeds differ in the formulas drawn but not in how much of
each kind of work a round asks for.  The reference for each
check never comes from the rewriter: the oracle's verdict, the sigma size
from ``inputs.sigma_size``, parse/render identity, sigma idempotence, or
a hand-written exit code and count.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import inputs
from harness import perf

LAYERS = ("syntax", "domain_system", "constituents", "rewriter", "logics", "cli")

# How many candidate formulas a stratified draw may reject before giving up.
MAX_DRAWS = 200_000


def engine_modules() -> dict:
    """The engine's entries in sys.modules."""
    return {m: mod for m, mod in sys.modules.items() if m == "addnf" or m.startswith("addnf.")}


def load_engine(src: Path) -> SimpleNamespace:
    """Import the engine afresh from ``src``; one attribute per layer module."""
    for name in engine_modules():
        del sys.modules[name]
    mods = {name: importlib.import_module(f"addnf.{name}") for name in LAYERS}
    origin = Path(mods["syntax"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"addnf was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


@dataclass
class Outcome:
    """Results of one pass over some rounds.

    An op is one formula or one CLI invocation.  A timing is one op timed
    alone, except in modal-verify, where it is one batch; timings are kept
    by the op's (or batch's) place in the round.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)  # (label, reason)
    timings: dict = field(default_factory=dict)  # place in round -> [seconds]
    rates: list = field(default_factory=list)  # ops passed per second, per round
    wall: float = 0.0

    def op(self, label: str, error=None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append((label, _describe(error)))

    def timed(self, place, seconds: float) -> None:
        self.timings.setdefault(place, []).append(seconds)

    def latency_samples(self) -> list:
        """One sample per op (or batch) of the round: its median time over
        the run's rounds.  The machine runs up to 2x slower in phases of
        0.1 to 20 s; a percentile over every timing would move with the
        share of the run spent in them, the median of an op's timings
        does not while that share stays under a half."""
        return [statistics.median(times) for times in self.timings.values()]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


class Mismatch(Exception):
    """An output that differs from the benchmark's own reference."""


def _describe(error) -> str:
    text = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
    return text[:200]


class Workload:
    """Base: one seeded round and the ops that run it."""

    # Calls the traced pass makes only to time a layer on its own; their
    # time is left out of the tracing overhead.
    probes = ("domain_system.suitable", "constituents.space")
    known_defects = frozenset()

    def __init__(self, eng, seed: int):
        self.eng = eng
        self.jobs = []  # (oracle, space, bound, formulas, members) for the replay
        self.round = self.make_round(random.Random(seed))

    def make_round(self, rng):
        raise NotImplementedError

    def run_round(self, rnd, tr, out: Outcome) -> None:
        raise NotImplementedError

    def instrument(self, tr) -> None:
        pass

    def uninstrument(self) -> None:
        pass

    def rebuild_instance(self, tr) -> None:
        pass

    def built_spaces(self) -> list:
        raise NotImplementedError


class FormulaWorkload(Workload):
    logic_id = ""

    def __init__(self, eng, seed: int):
        inst = eng.logics.build_instance(self.logic_id)
        self.logic, self.ds, self.oracle = inst.logic, inst.domain, inst.oracle
        super().__init__(eng, seed)

    def prepare(self, text: str, depth: int, sigma: int, tr):
        """Parse, derive the generator and normalize one formula, and check
        the generator and the sigma size against the formula's text."""
        e = self.eng
        f = tr.call("syntax.parse", e.syntax.parse_formula, text, self.logic)
        tr.add("syntax.parse_chars", len(text))
        gen = tr.call("domain_system.derive", e.domain_system.derive_generator, f, self.ds)
        if tr.tracing:
            tr.call("domain_system.suitable", e.domain_system.suitable, gen, f, self.ds)
            space_probe(tr, e.constituents.space, gen, self.ds)
        result = tr.call("rewriter.normalize", e.rewriter.normalize, f, gen, self.ds)
        want = (depth, ("p",), ("dia",) if depth else (), ("*",))
        if gen.key != want:
            raise Mismatch(f"derived generator {gen.key}, expected {want}")
        if len(result.sigma) != sigma:
            raise Mismatch(f"sigma has {len(result.sigma)} members, expected {sigma}")
        return f, gen, result

    def rebuild_instance(self, tr) -> None:
        """Time one instance construction; the run keeps its warm instance."""
        tr.call("logics.build_instance", self.eng.logics.build_instance, self.logic_id)

    def built_spaces(self) -> list:
        return list(self.ds.cache("spaces").values())


def space_probe(tr, space, gen, ds, *rest):
    """Call ``space`` and count a cache hit when no space was built."""
    cache = ds.cache("spaces")
    before = len(cache)
    sp = tr.call("constituents.space", space, gen, ds, *rest)
    tr.add("constituents.space_calls")
    if len(cache) == before:
        tr.add("constituents.space_hits")
    return sp


class ModalVerify(FormulaWorkload):
    """Criterion-5 modal formulas, verified in fixed-size batches of one
    generator each; a latency sample is one batch, not one formula."""

    logic_id = "modal-k"
    # Depth <= 1 at bound 3 (4164 models, 8 members); depth 2 at bound 2
    # (68 models, 512 members), since bound 3 costs >= 18 s per batch.
    BOUND = {0: 3, 1: 3, 2: 2}
    BATCH_SIZE = 8
    # Batches per round, by depth: 64, 48 and 80 formulas, close to the
    # generator's own 33%, 27% and 40% (``check.py mix``).  The 90th
    # percentile falls among the depth-1 batches, whose times differ with
    # the formulas drawn, so a round holds six of them.
    BATCHES = {0: 8, 1: 6, 2: 10}

    def make_round(self, rng):
        need = {d: n * self.BATCH_SIZE for d, n in self.BATCHES.items()}
        drawn = {d: [] for d in need}
        for _ in range(MAX_DRAWS):
            text, d, sigma = inputs.modal_formula(rng)
            if len(drawn[d]) < need[d]:
                drawn[d].append((text, sigma))
            if all(len(drawn[d]) == n for d, n in need.items()):
                return [(d, drawn[d][i:i + self.BATCH_SIZE])
                        for d in need for i in range(0, need[d], self.BATCH_SIZE)]
        raise RuntimeError("could not fill the modal batches")

    def run_round(self, rnd, tr, out: Outcome) -> None:
        for b, (d, batch) in enumerate(rnd):
            t0 = perf()
            self.run_batch(b, d, batch, tr, out)
            out.timed(b, perf() - t0)

    def run_batch(self, b: int, d: int, batch, tr, out: Outcome) -> None:
        items, texts, sp = [], [], None
        for j, (text, sigma) in enumerate(batch):
            tr.op = f"b{b}.{j}"
            try:
                f, _, result = self.prepare(text, d, sigma, tr)
            except Exception as exc:  # an escaped engine error fails the op
                out.op(text, exc)
                continue
            items.append((f, result.sigma))
            texts.append(text)
            sp = result.space
        if not items:
            return
        tr.op = f"b{b}.verify"
        try:
            reports = tr.call("rewriter.verify", self.eng.rewriter.verify_many, sp, items,
                              self.oracle, self.BOUND[d])
            errors = [None if r.ok else f"countermodel {r.countermodel}" for r in reports]
        except Exception as exc:
            reports, errors = None, [exc] * len(items)
        for text, error in zip(texts, errors):
            out.op(text, error)
        if tr.tracing and reports:
            tr.add("rewriter.verify_models", max(r.contexts for r in reports))
            self.jobs.append((self.oracle, sp, self.BOUND[d], [f for f, _ in items],
                              range(sp.size)))


class RewriteRoundtrip(FormulaWorkload):
    """Criterion-6 modal formulas: normalize, render, re-parse, re-normalize."""

    logic_id = "modal-k"
    # Depth-0 and depth-1 ops per round; the median and 90th-percentile op
    # both fall well inside the depth-1 group.  They cost under 1 ms each,
    # so many of them make the percentiles steady at little cost.
    QUOTA = {0: 100, 1: 400}
    # Depth-2 ops, one per round for each of these sigma sizes: the
    # commonest small and middle ones among depth-2 draws (4% and 5% of
    # them).  Re-parsing costs grow with the square of the rendered length
    # (about 489 characters per member): 0.05 s at 32 members, 1.8 s at
    # 240 and 6 s at 480.  The commonest size, 480, is left out so that a
    # round takes about 2 s and a run holds many rounds.
    DEPTH2_SIGMA = (32, 240)

    def make_round(self, rng):
        need, sigmas, ops = dict(self.QUOTA), set(self.DEPTH2_SIGMA), []
        for _ in range(MAX_DRAWS):
            text, d, sigma = inputs.modal_formula(rng)
            if d < 2 and need[d]:
                need[d] -= 1
                ops.append((text, d, sigma))
            elif d == 2 and sigma in sigmas:
                sigmas.discard(sigma)
                ops.append((text, d, sigma))
            if not sigmas and not any(need.values()):
                rng.shuffle(ops)
                return ops
        raise RuntimeError("could not fill the round-trip quota")

    def run_round(self, rnd, tr, out: Outcome) -> None:
        for j, (text, d, sigma) in enumerate(rnd):
            tr.op = f"rt.{j}"
            t0 = perf()
            try:
                error = self.roundtrip(text, d, sigma, tr)
            except Exception as exc:
                error = exc
            out.timed(j, perf() - t0)
            out.op(text, error)

    def roundtrip(self, text: str, d: int, sigma: int, tr):
        e = self.eng
        f, gen, result = self.prepare(text, d, sigma, tr)
        disj = tr.call("rewriter.disjunction", e.rewriter.disjunction, result)
        rendered = tr.call("syntax.render", e.syntax.render_formula, disj, self.logic)
        tr.add("syntax.render_chars", len(rendered))
        back = tr.call("syntax.parse", e.syntax.parse_formula, rendered, self.logic)
        tr.add("syntax.parse_chars", len(rendered))
        if back != disj:
            return "parse(render(d)) != d"
        if tr.tracing:
            tr.call("domain_system.suitable", e.domain_system.suitable, gen, disj, self.ds)
        again = tr.call("rewriter.renormalize", e.rewriter.normalize, disj, gen, self.ds)
        if again.sigma != result.sigma:
            return f"sigma changed on re-normalizing: {len(result.sigma)} -> {len(again.sigma)}"
        return None


class CliMix(Workload):
    """The fixed list of CLI invocations, run in-process in a seeded order."""

    probes = ()
    known_defects = inputs.KNOWN_SEED_DEFECTS
    # Names the cli module imported from the other layers; the traced pass
    # wraps them, so each layer's share of an invocation is timed.
    WRAPPED = {
        "build_instance": "logics.build_instance",
        "parse_formula": "syntax.parse",
        "render_formula": "syntax.render",
        "derive_generator": "domain_system.derive",
        "count": "constituents.count",
        "partition_check": "constituents.partition",
        "normalize": "rewriter.normalize",
        "disjunction": "rewriter.disjunction",
        "verify": "rewriter.verify",
    }

    def __init__(self, eng, seed: int):
        self.instances = []
        self._saved = {}
        super().__init__(eng, seed)

    def make_round(self, rng):
        return inputs.cli_round(rng)

    def run_round(self, rnd, tr, out: Outcome) -> None:
        main = self.eng.cli.main
        for label, argv, expected in rnd:
            tr.op = label
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = perf()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = tr.call(f"cli.{argv[0]}", main, list(argv))
            except (Exception, SystemExit) as exc:  # escaped from cli.main: a failed op
                out.timed(label, perf() - t0)
                tr.add("cli.escaped_exceptions")
                out.op(label, f"escaped {type(exc).__name__}: {exc}")
                continue
            out.timed(label, perf() - t0)
            out.op(label, _check_cli(label, code, expected, stdout.getvalue()))

    def instrument(self, tr) -> None:
        cli = self.eng.cli
        self._saved = {name: getattr(cli, name) for name in (*self.WRAPPED, "space")}
        measures = {
            "build_instance": lambda a, r: self.instances.append(r),
            "parse_formula": lambda a, r: tr.add("syntax.parse_chars", len(a[0])),
            "render_formula": lambda a, r: tr.add("syntax.render_chars", len(r)),
            "verify": lambda a, r: self._verified(tr, a, r),
            "partition_check": lambda a, r: self.jobs.append(
                (a[1], a[0], a[2], [], range(a[0].size))),
        }
        for name, span in self.WRAPPED.items():
            setattr(cli, name, tr.wrap(span, self._saved[name], measures.get(name)))
        space = self._saved["space"]
        cli.space = lambda gen, ds, *rest: space_probe(tr, space, gen, ds, *rest)

    def _verified(self, tr, args, report) -> None:
        f, result, oracle, bound = args
        tr.add("rewriter.verify_models", report.contexts)
        self.jobs.append((oracle, result.space, bound, [f], sorted(result.sigma)))

    def uninstrument(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.eng.cli, name, fn)

    def built_spaces(self) -> list:
        """Spaces of the instances the traced invocations built."""
        return [sp for inst in self.instances for sp in inst.domain.cache("spaces").values()]


def _check_cli(label: str, code, expected: int, stdout: str):
    if code != expected:
        return f"exit code {code}, expected {expected}"
    if code != 0:
        return None
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not one JSON document: {exc}"
    want = inputs.CLI_EXPECTED_COUNTS.get(label)
    if want is not None:
        got = doc.get("count", doc.get("size"))
        if got != want or ("members" in doc and len(doc["members"]) != want):
            return f"count {got}, expected {want}"
    return None


def replay(jobs, tr) -> None:
    """Re-run the oracle side of each verify call, timing model enumeration
    (``oracle.contexts``) apart from formula evaluation (``Context.eval``).

    Once per distinct (oracle, space, bound) it also evaluates every member
    in every model, untimed, for witness coverage (members realized over
    space size) and the useful-model ratio (models realizing a member no
    earlier model realized, over models enumerated).
    """
    seen = set()
    realized_total = size_total = useful = models = 0
    for oracle, sp, bound, formulas, members in jobs:
        key = (type(oracle).__name__, sp.gen.key, bound)
        fresh = key not in seen
        seen.add(key)
        realized = set()
        contexts = oracle.contexts(sp.gen, bound)
        while True:
            t0 = perf()
            ctx = next(contexts, None)
            tr.timers["logics.models"] += perf() - t0
            if ctx is None:
                break
            t0 = perf()
            for i in members:
                ctx.eval(sp.formula(i))
            for f in formulas:
                ctx.eval(f)
            tr.timers["logics.eval"] += perf() - t0
            if fresh:
                hit = {i for i in range(sp.size) if ctx.eval(sp.formula(i))}
                models += 1
                useful += not hit <= realized
                realized |= hit
        if fresh:
            realized_total += len(realized)
            size_total += sp.size
    tr.counters["logics.realized_members"] = realized_total
    tr.counters["logics.verified_space_size"] = size_total
    tr.counters["logics.useful_models"] = useful
    tr.counters["logics.models_enumerated"] = models


WORKLOADS = {
    "modal-verify": ModalVerify,
    "rewrite-roundtrip": RewriteRoundtrip,
    "cli-mix": CliMix,
}
