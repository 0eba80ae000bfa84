"""The packed blocks against one model at a time.

The bounded oracles (relational frames, first-order structures) enumerate
their models as the independent ``helpers.reference_models`` does, block masks
match the reference evaluators of ``helpers`` bit for bit on every model,
and the block-based reports of verify, verify_many, partition_check,
check_valid and check_equal match the per-model reference loops.
Every one of those checks returns the one ``Report`` shape.  verify's
index-bit evaluation of a disjunction matches the member-by-member loop
on the engine's own blocks.
"""
import itertools
import random

import pytest

from helpers import (
    ReferenceModel,
    eval_bool,
    member_loop_differs,
    one_point_only,
    per_model_check_equal,
    per_model_check_valid,
    per_model_partition_check,
    per_model_verify_many,
    random_modal_formula,
    random_prop_formula,
    reference_contexts,
    reference_models,
)

from addnf import (
    And,
    App,
    EngineError,
    Generator,
    Not,
    Or,
    Prop,
    Report,
    derive_generator,
    normalize,
    parse_formula,
    partition_check,
    space,
    verify,
    verify_many,
)
from addnf.logics import (
    GFInstance,
    RelationalOracle,
    bao_instance,
    gf_instance,
    modal_k_instance,
    propositional_instance,
)
from addnf.rewriter import _differs
from addnf.syntax import shape

# (diamonds, propositions, models compared with contexts()); two diamonds
# have 2**21 models of 3 worlds, so only their first block of that size is,
# 2**14 models (3 * 2**14 mask bits, within BLOCK_BITS = 2**16).
SHAPES = [
    (("dia",), ("p",), None),
    (("a", "b"), ("p",), 4 + 1024 + (1 << 14)),
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


def _assert_bits(block, models, formulas):
    n = block.points
    ones = (1 << n) - 1
    masks = [block.eval(f) for f in formulas]
    for i, ref in enumerate(models):
        assert ref.points == n
        for f, m in zip(formulas, masks):
            assert (m >> (i * n)) & ones == ref.eval(f), (f, i)


@pytest.mark.parametrize("dias,props,limit", SHAPES)
def test_block_masks_match_each_model(dias, props, limit):
    inst = modal_k_instance(dias)
    gen = Generator(0, frozenset(props), frozenset(inst.diamonds), inst.domain.points)
    oracle = RelationalOracle(budget=1 << 22)
    formulas = _formulas(random.Random(len(dias) * 10 + len(props)), inst, props, 3)
    refs = reference_contexts(oracle, gen, 3)
    checked, sizes, last = 0, set(), None
    for block in oracle.blocks(gen, 3):
        last = block
        if limit is not None and checked >= limit:
            continue
        models = list(itertools.islice(refs, block.models))
        assert len(models) == block.models
        _assert_bits(block, models, formulas)
        for i in (0, block.models // 3, block.models - 1):
            assert block.describe(i) == models[i].describe()
        checked += block.models
        sizes.add(block.points)
    assert sizes == {1, 2, 3}
    if limit is None:
        assert next(refs, None) is None
        return
    # The last block of 3 worlds: every ordinal bit above the block is set.
    decoded = [ReferenceModel(last.describe(i)) for i in range(last.models)]
    _assert_bits(last, decoded, formulas)
    top = last.describe(last.models - 1)
    assert top["valuation"] == {p: [0, 1, 2] for p in props}
    assert all(len(pairs) == 9 for pairs in top["relations"].values())


def test_blocks_split_larger_sizes():
    inst = modal_k_instance()
    gen = Generator(0, frozenset("pq"), frozenset(inst.diamonds), inst.domain.points)
    models = [b.models for b in inst.oracle.blocks(gen, 3)]
    # 2**15 models of 3 worlds; a block holds at most 2**16 mask bits.
    assert models == [8, 256, 16384, 16384]


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


def test_modal_and_bao_share_one_oracle():
    # A diamond is a rank-1 operator: modal K and a BAO with one unary
    # operator read the same frames and give the same reports.
    modal = modal_k_instance(("f",))
    algebra = bao_instance({"f": 1}, variables=("p", "q"))
    assert type(modal.oracle) is type(algebra.oracle) is RelationalOracle
    f = modal.diamonds[0]
    gen = Generator(0, frozenset("pq"), frozenset((f,)), modal.domain.points)
    rng = random.Random(9)
    formulas = [random_modal_formula(rng, f, 2, 9, ("p", "q")) for _ in range(40)]
    verdicts = set()
    for lhs, rhs in zip(formulas, formulas[1:] + formulas[:1]):
        for check in ("check_valid", "check_equal"):
            args = (lhs,) if check == "check_valid" else (lhs, rhs)
            got = [getattr(inst.oracle, check)(*args, 2, gen).to_json()
                   for inst in (modal, algebra)]
            assert got[0] == got[1], (check, lhs)
            verdicts.add(got[0]["ok"])
    assert verdicts == {True, False}


def _broken(sp, i, j, swap):
    """``sp`` with member i replaced by member j (a gap where i held, an
    overlap where j holds) or widened to (i or j) (the overlap alone)."""
    broken = type(sp)(sp.gen, sp.xtilde, sp.bar, sp.children)
    broken._formulas = {m: sp.formula(m) for m in range(sp.size)}
    broken._formulas[i] = sp.formula(j) if swap else Or(sp.formula(i), sp.formula(j))
    return broken


@pytest.mark.parametrize("swap", [False, True])
def test_a_broken_member_is_found_by_partition_check(swap):
    # The block report must name the per-model loop's first model.
    inst = modal_k_instance()
    dia = inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, inst.domain.points), inst.domain)
    broken = _broken(sp, 3, 5, swap)
    report = partition_check(broken, inst.oracle, 3)
    assert not report.ok
    if not swap:
        assert report.countermodel["members_true"] == [3, 5]
    assert report.to_json() == per_model_partition_check(broken, inst.oracle, 3)


# -- complex algebras and first-order structures -------------------------------
#
# Each case: an instance, a generator (X, the quantifiers or operators, E),
# the bound, and formulas of that generator in the instance's syntax.


def _bao_case(operators, constants, variables, k, bound, texts):
    inst = bao_instance(operators, constants, variables)
    gen = Generator(k, set(variables) | set(constants),
                    set(inst.logic.connectives.values()), inst.domain.points)
    return inst, gen, bound, texts


def _gf_case(variables, relations, equality, k, X, quants, E, bound, texts):
    inst = gf_instance(variables, relations, equality)
    Y = {inst.quantifier(b, inst.atom(*guard.split())) for b, guard in quants}
    X = {inst.atom(*a.split()) for a in X} | {c.payload.guard for c in Y}
    return inst, Generator(k, X, Y, set(E)), bound, texts


CASES = {
    "bao-f-x": lambda: _bao_case({"f": 1}, (), ("x",), 1, 3, [
        "(f x)", "(plus (f x) (minus x))", "(times (f x) (f (minus x)))",
        "(f (plus x (minus x)))",
    ]),
    # Symbol order: the values sit last symbol lowest, c < x < y.
    "bao-c-x-y": lambda: _bao_case({"f": 1}, ("c",), ("x", "y"), 0, 2, [
        "(plus c (times x (minus y)))", "(times (minus c) y)", "(plus x (minus y))",
    ]),
    "bao-rank-2": lambda: _bao_case({"g": 2}, (), ("x",), 1, 2, [
        "(g x x)", "(g x (minus x))", "(plus (g x (minus x)) (g (minus x) x))",
        "(times x (minus (g x x)))",
    ]),
    "gf-E-is-V": lambda: _gf_case(("u", "v"), {"R": 2}, False, 1, ["R u v"],
                                  [(("u",), "R u v")], ("u", "v"), 3, [
        "(ex (u) (R u v) (R u v))", "(or (R u v) (ex (u) (R u v) (not (R u v))))",
        "(and (R u v) (not (ex (u) (R u v) (R u v))))",
    ]),
    # The bound variable u lies outside E = {v}, so u is a high digit.
    "gf-E-is-v": lambda: _gf_case(("u", "v"), {"R": 2}, False, 1, ["R v v", "R u v"],
                                  [(("u",), "R u v")], ("v",), 3, [
        "(ex (u) (R u v) (R u v))", "(ex (u) (R u v) (not (R u v)))",
        "(or (R v v) (ex (u) (R u v) (R v v)))",
        "(and (not (R v v)) (ex (u) (R u v) (not (R v v))))",
    ]),
    "gf-equality": lambda: _gf_case(("u", "v"), {"R": 2}, True, 1, ["= u v"],
                                    [(("v",), "R u v")], ("u", "v"), 3, [
        "(ex (v) (R u v) (= u v))", "(or (= u v) (ex (v) (R u v) (not (= u v))))",
        "(not (ex (v) (R u v) (= u v)))",
    ]),
    # Relation order: T's code sits lowest, below P's.
    "gf-unary-ternary": lambda: _gf_case(("u", "v", "w"), {"P": 1, "T": 3}, False, 1,
                                         ["P u"], [(("v", "w"), "T u v w")], ("u",), 2, [
        "(ex (v w) (T u v w) (P u))", "(or (P u) (ex (v w) (T u v w) (not (P u))))",
        "(and (P u) (not (ex (v w) (T u v w) (P u))))",
    ]),
}


def _case(name):
    inst, gen, bound, texts = CASES[name]()
    formulas = [parse_formula(t, inst.logic) for t in texts]
    return inst, gen, bound, formulas


def _point_order(inst, gen):
    """A structure's point variables: E's first, then the others."""
    if not isinstance(inst, GFInstance):
        return None
    assigned = sorted(gen.E)
    return assigned + [v for v in inst.variables if v not in gen.E]


def _held(oracle, gen, bound, sp):
    """Two members that hold at point 0 of some model from the 38th on."""
    found = []
    for ref in itertools.islice(reference_contexts(oracle, gen, bound), 37, None):
        i = next(i for i in range(sp.size) if ref.eval(sp.formula(i)) & 1)
        if i not in found:
            found.append(i)
            if len(found) == 2:
                return found
    raise AssertionError("fewer than two members are realized")


@pytest.mark.parametrize("name", sorted(CASES))
def test_contexts_enumerate_the_reference_models(name):
    inst, gen, bound, _ = _case(name)
    got = [ctx.describe(0) for ctx in inst.oracle.contexts(gen, bound)]
    assert got == list(reference_models(inst.oracle, gen, bound))


@pytest.mark.parametrize("name", sorted(CASES))
def test_packed_masks_match_each_model(name):
    inst, gen, bound, formulas = _case(name)
    sp = space(gen, inst.domain)
    formulas = formulas + [sp.formula(i) for i in range(0, sp.size, 3)]
    oracle = inst.oracle
    refs = reference_contexts(oracle, gen, bound, _point_order(inst, gen))
    sizes = []
    for block in oracle.blocks(gen, bound):
        models = list(itertools.islice(refs, block.models))
        assert len(models) == block.models
        _assert_bits(block, models, formulas)
        for i in (0, block.models // 3, block.models - 1):
            assert block.describe(i) == models[i].describe()
        sizes.append(block.models)
    assert next(refs, None) is None
    assert len(sizes) == bound


@pytest.mark.parametrize("name", sorted(CASES))
def test_packed_reports_match_the_per_model_loop(name):
    inst, gen, bound, formulas = _case(name)
    oracle = inst.oracle
    sp = space(gen, inst.domain)
    rng = random.Random(name)
    results = [normalize(f, gen, inst.domain) for f in formulas]
    good = [(f, r.sigma) for f, r in zip(formulas, results)]
    bad = [(f, _flip(r.sigma, rng.randrange(sp.size))) for f, r in zip(formulas, results)]
    # Flipping a member that holds somewhere must fail.
    bad.append((formulas[-1], _flip(results[-1].sigma, _held(oracle, gen, bound, sp)[0])))
    got = [rep.to_json() for rep in verify_many(sp, good + bad, oracle, bound)]
    want = per_model_verify_many(sp, good + bad, oracle, bound)
    assert got == want
    assert all(doc["ok"] for doc in want[:len(good)])
    assert not want[-1]["ok"]
    f, r = formulas[0], results[0]
    assert verify(f, r, oracle, bound).to_json() == want[0]
    wrong = type(r)(generator=gen, sigma=bad[0][1], space=sp)
    assert verify(f, wrong, oracle, bound).to_json() == want[len(good)]
    assert partition_check(sp, oracle, bound).to_json() == \
        per_model_partition_check(sp, oracle, bound)
    for f in formulas[:2]:
        for g in (f, Or(f, Not(f))):
            assert oracle.check_valid(g, bound, gen).to_json() == \
                per_model_check_valid(oracle, g, bound, gen)
    if hasattr(oracle, "check_equal"):
        for lhs, rhs in itertools.combinations(formulas, 2):
            assert oracle.check_equal(lhs, rhs, bound, gen).to_json() == \
                per_model_check_equal(oracle, lhs, rhs, bound, gen)
        lhs, rhs = formulas[0], Or(formulas[0], And(formulas[1], Not(formulas[1])))
        (_, p1, c1), (_, p2, c2) = shape(lhs), shape(rhs)
        own = Generator(0, p1 | p2, c1 | c2, frozenset())
        assert oracle.check_equal(lhs, rhs, bound).to_json() == \
            per_model_check_equal(oracle, lhs, rhs, bound, own)


REPORT_KEYS = {"ok", "exact", "contexts", "bound", "countermodel"}


def _report_shapes(inst, gen, bound, formulas, held):
    """(check name, report) for a passing and a failing run of each check."""
    oracle = inst.oracle
    sp = space(gen, inst.domain)
    f = formulas[0]
    r = normalize(f, gen, inst.domain)
    wrong = type(r)(generator=gen, sigma=_flip(r.sigma, held[0]), space=sp)
    yield "verify", verify(f, r, oracle, bound)
    yield "verify", verify(f, wrong, oracle, bound)
    for rep in verify_many(sp, [(f, r.sigma), (f, wrong.sigma)], oracle, bound):
        yield "verify_many", rep
    yield "partition_check", partition_check(sp, oracle, bound)
    yield "partition_check", partition_check(_broken(sp, *held, True), oracle, bound)
    yield "check_valid", oracle.check_valid(Or(f, Not(f)), bound, gen)
    yield "check_valid", oracle.check_valid(And(f, Not(f)), bound, gen)
    if hasattr(oracle, "check_equal"):
        yield "check_equal", oracle.check_equal(f, Or(f, And(f, Not(f))), bound, gen)
        yield "check_equal", oracle.check_equal(f, Not(f), bound, gen)


@pytest.mark.parametrize("name", ["modal", *sorted(CASES)])
def test_every_check_returns_one_report_shape(name):
    if name == "modal":
        inst = modal_k_instance()
        gen = Generator(1, {"p"}, set(inst.diamonds), inst.domain.points)
        bound, formulas = 3, [parse_formula("(or p (dia (not p)))", inst.logic)]
    else:
        inst, gen, bound, formulas = _case(name)
    sp = space(gen, inst.domain)
    held = _held(inst.oracle, gen, bound, sp)
    verdicts = {}
    for check, rep in _report_shapes(inst, gen, bound, formulas, held):
        assert type(rep) is Report, check
        doc = rep.to_json()
        assert set(doc) == REPORT_KEYS, check
        # A check over the space reads the space's generator, which has
        # no Y at degree 0; check_valid and check_equal read ``gen``.
        over_space = check in ("verify", "verify_many", "partition_check")
        exact = one_point_only(inst.oracle, sp.gen if over_space else gen)
        assert doc["exact"] == exact and doc["bound"] == (None if exact else bound), check
        assert (doc["countermodel"] is None) == doc["ok"], check
        verdicts.setdefault(check, []).append(doc["ok"])
    for check, oks in verdicts.items():
        assert oks == [True, False], check


@pytest.mark.parametrize("name", sorted(CASES))
def test_packed_partition_check_finds_a_gap_and_an_overlap(name):
    inst, gen, bound, _ = _case(name)
    sp = space(gen, inst.domain)
    i, j = _held(inst.oracle, gen, bound, sp)
    for swap in (False, True):
        broken = _broken(sp, i, j, swap)
        report = partition_check(broken, inst.oracle, bound)
        assert not report.ok
        assert report.to_json() == per_model_partition_check(broken, inst.oracle, bound)


def test_free_variables_outside_the_assignment_variables_fail():
    inst, gen, bound, formulas = _case("gf-E-is-v")
    body = parse_formula("(R u v)", inst.logic)
    with pytest.raises(EngineError, match="not covered by the assignment variables"):
        inst.oracle.check_valid(body, bound, gen)
    with pytest.raises(EngineError, match="not covered by the assignment variables"):
        verify_many(space(gen, inst.domain), [(Or(formulas[0], body), ())], inst.oracle, bound)
    assert not inst.oracle.check_valid(formulas[0], bound, gen).ok


# -- the disjunction read off the index bits ------------------------------------
#
# verify evaluates sigma by Shannon expansion over the member index bits;
# the member-by-member loop of ``helpers.member_loop_differs``, run on the
# same blocks, must give the same failing mask on every block and the same
# report.


def _index_bit_cases():
    prop = propositional_instance()
    for k, props in ((1, ("p", "q")), (2, ("p",))):
        # Degenerate: every bar item is a bare reference to a base member.
        gen = Generator(k, frozenset(props), frozenset(), prop.domain.points)
        rng = random.Random(k)
        yield f"prop-k{k}", prop, gen, 0, [random_prop_formula(rng, props, 7) for _ in range(3)]
    for dias, k, bound in ((("dia",), 1, 3), (("dia",), 2, 2), (("a", "b"), 1, 2)):
        inst = modal_k_instance(dias)
        gen = Generator(k, {"p"}, set(inst.diamonds), inst.domain.points)
        rng = random.Random(k * 10 + len(dias))
        formulas = [random_modal_formula(rng, inst.diamonds[-1], k, 9) for _ in range(3)]
        yield f"modal-{'-'.join(dias)}-k{k}", inst, gen, bound, formulas
    for name in sorted(CASES):
        yield (name, *_case(name))


INDEX_BIT_CASES = {case[0]: case[1:] for case in _index_bit_cases()}


@pytest.mark.parametrize("name", sorted(INDEX_BIT_CASES))
def test_index_bits_match_the_member_loop(name):
    inst, gen, bound, formulas = INDEX_BIT_CASES[name]
    oracle = inst.oracle
    sp = space(gen, inst.domain)
    rng = random.Random(name)
    items = [(formulas[0], frozenset()), (formulas[0], frozenset(range(sp.size)))]
    for f in formulas:
        sigma = normalize(f, gen, inst.domain).sigma
        random_sigma = frozenset(i for i in range(sp.size) if rng.random() < 0.5)
        items += [(f, sigma), (f, _flip(sigma, rng.randrange(sp.size))), (f, random_sigma)]
    new = [_differs(f, sp, sigma) for f, sigma in items]
    old = [member_loop_differs(f, sp, sigma) for f, sigma in items]
    for block in oracle.blocks(sp.gen, bound):
        for (fails, _), (ref, _) in zip(new, old):
            assert fails(block) == ref(block)
    got = [rep.to_json() for rep in verify_many(sp, items, oracle, bound)]
    assert got == [rep.to_json() for rep in oracle.check(sp.gen, bound, old)]
    assert {doc["ok"] for doc in got} == {True, False}


# -- the one-point path ----------------------------------------------------------
#
# With no connective in the generator the frame oracle searches the
# one-point frames alone, one per valuation, and is exact: its verdict on a
# flipped sigma is the independent truth table's, whatever the bound.


def _valuations(props):
    """The assignments in the oracle's ordinal order: the last sorted
    proposition lowest, a set bit meaning it holds."""
    props = sorted(props)
    for ordinal in range(1 << len(props)):
        yield frozenset(p for j, p in enumerate(reversed(props)) if ordinal >> j & 1)


@pytest.mark.parametrize("logic,k,props", [
    ("prop", 0, ("p", "q", "r")), ("modal-k", 0, ("p", "q")), ("prop", 1, ("p",)),
])
def test_the_one_point_path_is_exact(logic, k, props):
    inst = propositional_instance() if logic == "prop" else modal_k_instance()
    gen = Generator(k, frozenset(props), frozenset(), inst.domain.points)
    sp = space(gen, inst.domain)
    f = random_prop_formula(random.Random(len(props)), props, 7)
    r = normalize(f, gen, inst.domain)
    valuations = list(_valuations(props))
    truth = [[eval_bool(sp.formula(i), v) for v in valuations] for i in range(sp.size)]
    items = [(f, r.sigma)] + [(f, _flip(r.sigma, i)) for i in range(sp.size)]
    for bound in (0, 1, 3):
        got = [rep.to_json() for rep in verify_many(sp, items, inst.oracle, bound)]
        assert {(doc["exact"], doc["bound"]) for doc in got} == {(True, None)}
        assert got[0]["ok"] and got[0]["contexts"] == 2 ** len(props)
        for i, doc in enumerate(got[1:]):
            # A flip is caught exactly when the member holds under some
            # assignment, at the first such one.
            if any(truth[i]):
                assert not doc["ok"] and doc["contexts"] == truth[i].index(True) + 1, i
            else:
                assert doc["ok"] and doc["contexts"] == 2 ** len(props), i
    if k == 0:  # every minterm holds under one assignment
        assert all(not doc["ok"] for doc in got[1:])


def test_a_degree_0_space_drops_Y_and_its_checks_are_exact():
    inst = modal_k_instance()
    gen = Generator(0, {"p", "q"}, set(inst.diamonds), inst.domain.points)
    sp = space(gen, inst.domain)
    assert sp.gen == Generator(0, {"p", "q"}, (), inst.domain.points)
    assert space(sp.gen, inst.domain) is sp
    f = parse_formula("(or p (not q))", inst.logic)
    r = normalize(f, gen, inst.domain)
    for rep in (verify(f, r, inst.oracle, 3), partition_check(sp, inst.oracle, 3)):
        assert rep.ok and rep.exact and rep.bound is None and rep.contexts == 4


def test_seventeen_propositions_run_as_two_blocks():
    inst = propositional_instance()
    props = [f"p{j}" for j in range(17)]
    gen = Generator(0, frozenset(props), frozenset(), inst.domain.points)
    blocks = list(inst.oracle.blocks(gen, 0))
    assert [(b.models, b.points) for b in blocks] == [(1 << 16, 1), (1 << 16, 1)]
    f = Or(Prop("p3"), Not(And(Prop("p3"), Prop("p16"))))
    rep = inst.oracle.check_valid(f, 0, gen)
    assert rep.ok and rep.exact and rep.bound is None and rep.contexts == 1 << 17
    rep = inst.oracle.check_valid(Or(Prop("p0"), Prop("p16")), 3, gen)
    assert not rep.ok and rep.contexts == 1
