"""The packed Kripke blocks against one model context at a time.

Block masks are compared bit by bit with ``_KripkeContext.eval`` on the
models ``KripkeOracle.contexts`` enumerates, and the block-based reports
of verify, verify_many, partition_check and check_valid with the
per-model reference loops of ``helpers``.
"""
import itertools
import random

import pytest

from helpers import (
    per_model_check_valid,
    per_model_partition_check,
    per_model_verify_many,
    random_modal_formula,
)

from addnf import (
    And,
    App,
    Generator,
    Not,
    Or,
    Prop,
    derive_generator,
    normalize,
    partition_check,
    space,
    verify,
    verify_many,
)
from addnf.logics import modal_k_instance
from addnf.logics.modal import BLOCK_MODELS, KripkeOracle

# (diamonds, propositions, models compared with contexts()); two diamonds
# have 2**21 models of 3 worlds, so only their first block of that size is.
SHAPES = [
    (("dia",), ("p",), None),
    (("a", "b"), ("p",), 4 + 1024 + BLOCK_MODELS),
    (("dia",), ("p", "q"), None),
]


def _formulas(rng, inst, props, count):
    dias = inst.diamonds
    out = []
    for _ in range(count):
        f = random_modal_formula(rng, dias[0], 2, 9, props)
        if len(dias) > 1:
            g = random_modal_formula(rng, dias[0], 1, 5, props)
            h = App(dias[1], (App(dias[0], (Prop(props[-1]),)),))
            f = Or(And(f, App(dias[1], (g,))), Not(h))
        out.append(f)
    return out


def _assert_bits(block, contexts, formulas):
    n = block.points
    ones = (1 << n) - 1
    masks = [block.eval(f) for f in formulas]
    for i, ctx in enumerate(contexts):
        assert ctx.points == n
        for f, m in zip(formulas, masks):
            assert (m >> (i * n)) & ones == ctx.eval(f), (f, i)


@pytest.mark.parametrize("dias,props,limit", SHAPES)
def test_block_masks_match_each_model(dias, props, limit):
    inst = modal_k_instance(dias)
    gen = Generator(0, frozenset(props), frozenset(inst.diamonds), inst.domain.points)
    oracle = KripkeOracle(budget=1 << 22)
    formulas = _formulas(random.Random(len(dias) * 10 + len(props)), inst, props, 3)
    contexts = oracle.contexts(gen, 3)
    checked, sizes, last = 0, set(), None
    for block in oracle.blocks(gen, 3):
        last = block
        if limit is not None and checked >= limit:
            continue
        models = list(itertools.islice(contexts, block.models))
        assert len(models) == block.models
        _assert_bits(block, models, formulas)
        for i in (0, block.models // 3, block.models - 1):
            assert block.model(i).describe() == models[i].describe()
        checked += block.models
        sizes.add(block.points)
    assert sizes == {1, 2, 3}
    if limit is None:
        assert next(contexts, None) is None
        return
    # The last block of 3 worlds: every ordinal bit above the block is set.
    _assert_bits(last, [last.model(i) for i in range(last.models)], formulas)
    top = last.model(last.models - 1).describe()
    assert top["valuation"] == {p: [0, 1, 2] for p in props}
    assert all(len(pairs) == 9 for pairs in top["relations"].values())


def test_blocks_split_larger_sizes():
    inst = modal_k_instance()
    gen = Generator(0, frozenset("pq"), frozenset(inst.diamonds), inst.domain.points)
    models = [b.models for b in inst.oracle.blocks(gen, 3)]
    assert models == [8, 256] + [BLOCK_MODELS] * 8  # 2**15 models of 3 worlds


def _flip(sigma, i):
    return frozenset(set(sigma) ^ {i})


def _cases(seed, inst, props, d, count):
    rng = random.Random(seed)
    groups = {}
    for f in (random_modal_formula(rng, inst.diamonds[0], d, 10, props) for _ in range(count)):
        gen = derive_generator(f, inst.domain, k=d, X=frozenset(props),
                               Y=frozenset(inst.diamonds))
        groups.setdefault(gen, []).append((f, normalize(f, gen, inst.domain)))
    return rng, groups


@pytest.mark.parametrize("props,d,bound", [
    (("p",), 0, 3), (("p",), 1, 3), (("p",), 2, 2), (("p", "q"), 0, 3), (("p", "q"), 1, 2),
])
def test_reports_match_the_per_model_loop(props, d, bound):
    inst = modal_k_instance()
    oracle = inst.oracle
    rng, groups = _cases(d * 7 + len(props), inst, props, d, 6)
    for gen, frs in groups.items():
        sp = space(gen, inst.domain)
        good = [(f, r.sigma) for f, r in frs]
        bad = [(f, _flip(r.sigma, rng.randrange(sp.size))) for f, r in frs]
        got = [r.to_json() for r in verify_many(sp, good + bad, oracle, bound)]
        assert got == per_model_verify_many(sp, good + bad, oracle, bound)
        for (f, r), (_, sigma) in zip(frs[:2], bad):
            assert verify(f, r, oracle, bound).to_json() == \
                per_model_verify_many(sp, [(f, r.sigma)], oracle, bound)[0]
            wrong = type(r)(generator=r.generator, sigma=sigma, space=sp)
            assert verify(f, wrong, oracle, bound).to_json() == \
                per_model_verify_many(sp, [(f, sigma)], oracle, bound)[0]
        assert partition_check(sp, oracle, bound).to_json() == \
            per_model_partition_check(sp, oracle, bound)
        for f, _ in frs[:2]:
            for g in (f, Or(f, Not(f))):
                assert oracle.check_valid(g, bound, gen).to_json() == \
                    per_model_check_valid(oracle, g, bound, gen)


def test_two_diamond_reports_match_the_per_model_loop():
    inst = modal_k_instance(("a", "b"))
    a, b = inst.diamonds
    oracle = inst.oracle
    rng = random.Random(3)
    p = Prop("p")
    formulas = [
        Or(App(a, (p,)), App(b, (Not(p),))),
        And(App(a, (p,)), Not(App(b, (Not(p),)))),
        Or(App(b, (random_modal_formula(rng, a, 0, 6),)), And(p, App(a, (Not(p),)))),
    ]
    for f in formulas:
        gen = derive_generator(f, inst.domain)
        r = normalize(f, gen, inst.domain)
        sp = r.space
        items = [(f, r.sigma), (f, _flip(r.sigma, rng.randrange(sp.size)))]
        got = [rep.to_json() for rep in verify_many(sp, items, oracle, 2)]
        assert got == per_model_verify_many(sp, items, oracle, 2)
        assert oracle.check_valid(f, 2, gen).to_json() == \
            per_model_check_valid(oracle, f, 2, gen)
    sp = space(Generator(1, {"p"}, {a, b}, inst.domain.points), inst.domain)
    assert partition_check(sp, oracle, 2).to_json() == per_model_partition_check(sp, oracle, 2)


@pytest.mark.parametrize("swap", [False, True])
def test_a_broken_member_is_found_by_partition_check(swap):
    # Member 3 replaced by member 5 leaves a gap where 3 held and an
    # overlap where 5 holds; widened to (3 or 5) it leaves the overlap
    # alone.  The block report must name the per-model loop's first model.
    inst = modal_k_instance()
    dia = inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, inst.domain.points), inst.domain)
    broken = type(sp)(sp.gen, sp.ds, sp.xtilde, sp.compatible, sp.bar, sp.children, sp.base)
    broken._formulas = {i: sp.formula(i) for i in range(sp.size)}
    broken._formulas[3] = sp.formula(5) if swap else Or(sp.formula(3), sp.formula(5))
    report = partition_check(broken, inst.oracle, 3)
    assert not report.ok
    if not swap:
        assert report.counterexample["members_true"] == [3, 5]
    assert report.to_json() == per_model_partition_check(broken, inst.oracle, 3)
