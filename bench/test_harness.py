"""Tests of the benchmark's own arithmetic and input generation.

Run from the repository root: ``python3 -m pytest -q bench``.
"""
import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from harness import (  # noqa: E402
    Tracer,
    covered,
    failed_share,
    percentile,
    quartile_spread,
    self_time_by_name,
    self_times,
)
from workloads import Outcome  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, "op"]


def test_percentile_interpolates_and_counts():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 50) == (3.0, 5)
    assert percentile(xs, 0) == (1.0, 5)
    assert percentile(xs, 100) == (5.0, 5)
    assert percentile(xs, 90) == pytest.approx((4.6, 5))
    assert percentile([7.0], 90) == (7.0, 1)


def test_percentile_agrees_with_statistics_inclusive():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(101)]
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    assert percentile(xs, 10)[0] == pytest.approx(cuts[0])
    assert percentile(xs, 90)[0] == pytest.approx(cuts[-1])
    assert percentile(xs, 50)[0] == pytest.approx(statistics.median(xs))


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered([(2.0, 3.0), (2.5, 2.7)], 0.0, 10.0) == 1.0


def test_self_time_subtracts_union_of_children():
    spans = [
        span("cli.verify", 0.0, 10.0),
        span("rewriter.normalize", 1.0, 4.0, parent=0),
        span("rewriter.verify", 3.0, 6.0, parent=0),   # overlaps the sibling
        span("syntax.render", 7.0, 8.0, parent=0),
        span("inner", 1.5, 2.0, parent=1),              # grandchild: not the root's
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 1.0, 0.5])
    totals = self_time_by_name(spans + [span("syntax.render", 20.0, 20.5)])
    assert totals["syntax.render"] == pytest.approx(1.5)


def test_tracer_records_nesting_and_op_ids():
    tr = Tracer()
    tr.op = "k1.0"
    inner = tr.wrap("inner", lambda x: x + 1, measure=lambda a, r: tr.add("seen", r))
    assert tr.call("outer", lambda: inner(1)) == 2
    (outer, start, end, parent, op), child = tr.spans
    assert (outer, parent, op) == ("outer", None, "k1.0")
    assert child[0] == "inner" and child[3] == 0
    assert start <= child[1] <= child[2] <= end
    assert tr.counters["seen"] == 2


def test_tracer_closes_span_when_call_raises():
    tr = Tracer()
    with pytest.raises(RecursionError):
        tr.call("deep", lambda: (_ for _ in ()).throw(RecursionError()))
    assert tr.spans[0][2] is not None
    tr.call("next", lambda: None)
    assert tr.spans[1][3] is None


def test_failed_share():
    assert failed_share(21, 4) == pytest.approx(4 / 21)
    assert failed_share(10, 0) == 0.0
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(3, 4)


def test_outcome_counts_ops_apart_from_latency_samples():
    out = Outcome()
    for label, error in (("a", None), ("b", "wrong"), ("c", ValueError("x"))):
        out.op(label, error)
    out.timed(0, 0.5)  # one batch holding all three ops
    assert (out.attempted, out.failed, out.passed, len(out.timings)) == (3, 2, 1, 1)
    assert out.failures == [("b", "wrong"), ("c", "ValueError: x")]
    assert failed_share(out.attempted, out.failed) == pytest.approx(2 / 3)


def test_quartile_spread_matches_definition():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == pytest.approx((q3 - q1) / statistics.median(xs))


def test_generator_repeats_for_a_seed_and_keeps_the_shape():
    draw = lambda seed: [inputs.modal_formula(random.Random(seed)) for _ in range(50)]
    assert draw(4) == draw(4)
    for text, d, sigma in draw(4):
        assert 0 <= d <= inputs.MODAL_DEPTH
        assert text.count("(dia ") >= d
        assert 0 <= sigma <= (2, 8, 512)[d]


@pytest.mark.parametrize("tree, size", [
    (("p",), 1),
    (("not", ("p",)), 1),
    (("dia", ("p",)), 2 * 2),                  # p either way; 2 of 4 successor sets
    (("dia", ("dia", ("p",))), 480),           # 2 * (2**8 - 2**4)
    (("not", ("dia", ("dia", ("p",)))), 32),   # 2 * 2**4: no successor sees p
    (("and", ("p",), ("dia", ("dia", ("p",)))), 240),
    (("or", ("p",), ("not", ("p",))), 1 + 1),
    (("and", ("dia", ("p",)), ("not", ("dia", ("p",)))), 0),
])
def test_sigma_size_counts_constituents_by_hand(tree, size):
    assert inputs.sigma_size(tree) == size


def test_modal_mix_counts_every_draw():
    depths, sigmas = inputs.modal_mix(1, 300)
    assert sum(depths.values()) == 300
    assert sum(sigmas.values()) == depths[2]


def test_cli_round_is_a_seeded_permutation():
    a = inputs.cli_round(random.Random(1))
    assert a == inputs.cli_round(random.Random(1))
    assert sorted(a) == sorted(inputs.CLI_CASES)
    labels = {label for label, _, _ in inputs.CLI_CASES}
    assert inputs.KNOWN_SEED_DEFECTS <= labels
    assert set(inputs.CLI_EXPECTED_COUNTS) <= labels


def test_latency_sample_is_each_ops_median_over_rounds():
    out = Outcome()
    for place, seconds in ((0, 1.0), (1, 5.0), (0, 3.0), (1, 4.0), (0, 2.0)):
        out.timed(place, seconds)
    assert sorted(out.latency_samples()) == [2.0, 4.5]
