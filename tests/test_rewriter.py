import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addnf import (
    And,
    EngineError,
    Generator,
    NormalizationResult,
    Not,
    Or,
    UnsuitableGenerator,
    derive_generator,
    disjunction,
    normalize,
    parse_formula,
    render_formula,
    shape,
    space,
    suitable,
    verify,
    verify_many,
)
from addnf.logics import build_instance, modal_k_instance
from helpers import formula_strategy, minterm_sigma, random_modal_formula, reference_describe


def _pgen(prop_inst, props=("p", "q")):
    return Generator(0, frozenset(props), frozenset(), prop_inst.domain.points)


def test_prop_golden(prop_inst):
    f = parse_formula("(or p q)", prop_inst.logic)
    r = normalize(f, _pgen(prop_inst), prop_inst.domain)
    assert sorted(r.sigma) == [0, 1, 2]


def test_contradiction_renders_designated_form(prop_inst):
    f = parse_formula("(and p (not p))", prop_inst.logic)
    r = normalize(f, _pgen(prop_inst, ("p",)), prop_inst.domain)
    assert r.sigma == frozenset()
    assert render_formula(disjunction(r)) == "(and p (not p))"


def test_modal_golden(modal_inst):
    dia = modal_inst.diamonds[0]
    gen = Generator(1, {"p"}, {dia}, modal_inst.domain.points)
    r = normalize(parse_formula("(dia p)", modal_inst.logic), gen, modal_inst.domain)
    assert sorted(r.sigma) == [0, 1, 4, 5]
    r2 = normalize(
        parse_formula("(dia (or p (not p)))", modal_inst.logic), gen, modal_inst.domain
    )
    assert sorted(r2.sigma) == [0, 1, 2, 4, 5, 6]
    # exactly the members with a non-empty positive diamond set
    sp = r2.space
    assert r2.sigma == frozenset(
        i for i in range(sp.size) if reference_describe(sp, i)["sub"].get(dia.key)
    )


def test_prop_exactness_sampled(prop_inst):
    rng = random.Random(11)
    props = ("p", "q", "r")
    gen = _pgen(prop_inst, props)
    from helpers import random_prop_formula

    for _ in range(300):
        f = random_prop_formula(rng, props, 9)
        r = normalize(f, gen, prop_inst.domain)
        assert r.sigma == minterm_sigma(f, props)


@given(formula_strategy(("p", "q")), formula_strategy(("p", "q")))
def test_boolean_homomorphism_prop(f, g):
    from addnf.logics import propositional_instance

    inst = propositional_instance()
    gen = Generator(0, {"p", "q"}, frozenset(), inst.domain.points)
    ds = inst.domain
    full = frozenset(range(4))
    sf, sg = normalize(f, gen, ds).sigma, normalize(g, gen, ds).sigma
    assert normalize(Not(f), gen, ds).sigma == full - sf
    assert normalize(And(f, g), gen, ds).sigma == sf & sg
    assert normalize(Or(f, g), gen, ds).sigma == sf | sg
    assert normalize(Not(And(f, g)), gen, ds).sigma == (full - sf) | (full - sg)


def test_boolean_homomorphism_modal(modal_inst):
    rng = random.Random(5)
    dia = modal_inst.diamonds[0]
    ds = modal_inst.domain
    gen = Generator(2, {"p"}, {dia}, ds.points)
    full = frozenset(range(512))
    for _ in range(150):
        f = random_modal_formula(rng, dia, 2, 10)
        g = random_modal_formula(rng, dia, 2, 10)
        sf, sg = normalize(f, gen, ds).sigma, normalize(g, gen, ds).sigma
        assert normalize(Not(f), gen, ds).sigma == full - sf
        assert normalize(And(f, g), gen, ds).sigma == sf & sg
        assert normalize(Or(f, g), gen, ds).sigma == sf | sg


def test_entailment_monotone(prop_inst):
    rng = random.Random(3)
    from helpers import random_prop_formula

    gen = _pgen(prop_inst)
    ds = prop_inst.domain
    for _ in range(100):
        f = random_prop_formula(rng, ("p", "q"), 6)
        g = random_prop_formula(rng, ("p", "q"), 6)
        assert normalize(f, gen, ds).sigma <= normalize(Or(f, g), gen, ds).sigma
        assert normalize(And(f, g), gen, ds).sigma <= normalize(f, gen, ds).sigma


def test_idempotence_small(prop_inst, modal_inst):
    f = parse_formula("(or p (not q))", prop_inst.logic)
    gen = _pgen(prop_inst)
    r = normalize(f, gen, prop_inst.domain)
    assert normalize(disjunction(r), gen, prop_inst.domain).sigma == r.sigma

    dia = modal_inst.diamonds[0]
    mgen = Generator(1, {"p"}, {dia}, modal_inst.domain.points)
    m = normalize(parse_formula("(dia p)", modal_inst.logic), mgen, modal_inst.domain)
    assert normalize(disjunction(m), mgen, modal_inst.domain).sigma == m.sigma


def test_degree_above_depth(modal_inst):
    dia = modal_inst.diamonds[0]
    ds = modal_inst.domain
    gen = Generator(2, {"p"}, {dia}, ds.points)
    f = parse_formula("(dia p)", modal_inst.logic)
    r = normalize(f, gen, ds)
    assert 0 < len(r.sigma) < 512
    assert normalize(disjunction(r), gen, ds).sigma == r.sigma
    assert verify(f, r, modal_inst.oracle, 2).ok


def test_shared_subformulas_are_walked_once(modal_inst):
    """64 doublings of (dia p) unfold to 2**64 copies; every walk from
    suitability to normalization visits each distinct node once."""
    ds, dia = modal_inst.domain, modal_inst.diamonds[0]
    base = parse_formula("(dia p)", modal_inst.logic)
    f = base
    for _ in range(64):
        f = And(f, f)
    assert shape(f) == (1, frozenset({"p"}), frozenset({dia}))
    gen = derive_generator(f, ds)
    assert gen.k == 1
    assert suitable(gen, f, ds)
    assert normalize(f, gen, ds).sigma == normalize(base, gen, ds).sigma


def test_full_sigma_is_valid(prop_inst):
    f = parse_formula("(or p (not p))", prop_inst.logic)
    gen = _pgen(prop_inst, ("p",))
    r = normalize(f, gen, prop_inst.domain)
    assert r.sigma == frozenset(range(2))
    assert verify(f, r, prop_inst.oracle, 0).ok


def test_normalize_is_oracle_free(modal_inst):
    # the rewriter only sees the domain system; a missing oracle is fine
    dia = modal_inst.diamonds[0]
    gen = Generator(1, {"p"}, {dia}, modal_inst.domain.points)
    f = parse_formula("(dia p)", modal_inst.logic)
    r = normalize(f, gen, modal_inst.domain)
    assert sorted(r.sigma) == [0, 1, 4, 5]


def test_unsuitable_generator_raises(modal_inst):
    f = parse_formula("(dia p)", modal_inst.logic)
    gen = Generator(0, {"p"}, frozenset(), modal_inst.domain.points)
    with pytest.raises(UnsuitableGenerator) as e:
        normalize(f, gen, modal_inst.domain)
    assert "degree" in str(e.value) and "connectives" in str(e.value)


def test_verify_reports_countermodel_on_tampered_sigma(prop_inst):
    f = parse_formula("(and p q)", prop_inst.logic)
    gen = _pgen(prop_inst)
    r = normalize(f, gen, prop_inst.domain)
    tampered = NormalizationResult(gen, r.sigma | {3}, r.space)
    report = verify(f, tampered, prop_inst.oracle, 0)
    assert not report.ok and report.exact
    assert report.countermodel["point"] == {"point": 0}
    assert report.countermodel["context"]["valuation"] == {"p": [], "q": []}


def test_verify_many_matches_verify(modal_inst):
    rng = random.Random(9)
    dia = modal_inst.diamonds[0]
    ds = modal_inst.domain
    gen = Generator(1, {"p"}, {dia}, ds.points)
    sp = space(gen, ds)
    items = []
    for _ in range(10):
        f = random_modal_formula(rng, dia, 1, 8)
        items.append((f, normalize(f, gen, ds).sigma))
    reports = verify_many(sp, items, modal_inst.oracle, 2)
    assert all(rep.ok for rep in reports)
    bad = [(items[0][0], items[0][1] ^ {0})] + items[1:]
    reports = verify_many(sp, bad, modal_inst.oracle, 2)
    assert not reports[0].ok and all(rep.ok for rep in reports[1:])
    assert verify_many(sp, iter(bad), modal_inst.oracle, 2) == reports


def test_disjunction_semantics_matches_member_union(prop_inst, modal_inst):
    # evaluating the rendered disjunction equals the union of member truths
    dia = modal_inst.diamonds[0]
    gen = Generator(1, {"p"}, {dia}, modal_inst.domain.points)
    f = parse_formula("(dia (and p (not p)))", modal_inst.logic)
    r = normalize(f, gen, modal_inst.domain)
    sp = r.space
    big = disjunction(normalize(parse_formula("(not (dia (and p (not p))))", modal_inst.logic),
                                gen, modal_inst.domain))
    for ctx in modal_inst.oracle.contexts(gen, 2):
        union = 0
        for i in range(sp.size):
            if i not in r.sigma:
                union |= ctx.eval(sp.formula(i))
        assert ctx.eval(big) == union


# sigma pinned before normalize ran on Context.eval; each is oracle-checked too.
TWO_DIAMONDS = [
    ("(and (dia p) (box (not p)))", [0, 1, 8, 9, 16, 17, 24, 25]),
    ("(or (dia p) (box p))",
     [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 28, 29]),
    ("(not (box (or p (not p))))", [12, 13, 14, 15, 28, 29, 30, 31]),
]


@pytest.mark.parametrize("text,sigma", TWO_DIAMONDS, ids=[t for t, _ in TWO_DIAMONDS])
def test_two_diamonds_share_one_child_space(text, sigma):
    inst = modal_k_instance(("dia", "box"))
    gen = Generator(1, {"p"}, frozenset(inst.diamonds), inst.domain.points)
    f = parse_formula(text, inst.logic)
    r = normalize(f, gen, inst.domain)
    assert r.space.children["dia"] is r.space.children["box"]
    assert sorted(r.sigma) == sigma
    assert verify(f, r, inst.oracle, 2).ok


@pytest.mark.parametrize("index", ["size", -1])
def test_verify_many_rejects_an_index_outside_the_space(index):
    inst = modal_k_instance()
    sp = space(Generator(1, {"p"}, set(inst.diamonds), inst.domain.points), inst.domain)
    i = sp.size if index == "size" else index
    with pytest.raises(IndexError) as want:
        sp.describe_member(i)
    with pytest.raises(IndexError) as got:
        verify_many(sp, [(parse_formula("p", inst.logic), {0, i})], inst.oracle, 2)
    assert str(got.value) == str(want.value)
    with pytest.raises(IndexError) as once:
        verify_many(sp, [(parse_formula("p", inst.logic), (j for j in [0, 99, i]))],
                    inst.oracle, 2)
    assert str(once.value) == str(want.value)


def test_a_proposition_outside_x_tilde_is_an_engine_error():
    from addnf.rewriter import _SpaceModel

    inst = modal_k_instance()
    sp = space(Generator(1, {"p"}, set(inst.diamonds), inst.domain.points), inst.domain)
    assert _SpaceModel(sp, {}).prop_mask("p") == sp.sign_mask(0)
    with pytest.raises(EngineError, match=r"proposition 'q' is not in X-tilde \['p'\]"):
        _SpaceModel(sp, {}).prop_mask("q")


def test_a_connective_outside_the_generator_is_an_engine_error():
    inst = modal_k_instance(("a", "b"))
    logic = inst.logic
    r = normalize(parse_formula("(a p)", logic), derive_generator(
        parse_formula("(a p)", logic), inst.domain), inst.domain)
    outside = parse_formula("(b p)", logic)
    message = r"connective 'b' has no relation in this model"
    with pytest.raises(EngineError, match=message):
        verify(outside, r, inst.oracle, 2)
    with pytest.raises(EngineError, match=message):
        inst.oracle.check_valid(outside, 2, gen=r.space.gen)


def test_verify_renders_no_member_of_the_space():
    inst = modal_k_instance()  # a fresh instance: its spaces are built here
    gen = Generator(2, {"p"}, set(inst.diamonds), inst.domain.points)
    sp = space(gen, inst.domain)
    f = parse_formula("(dia (and p (dia p)))", inst.logic)
    sigma = normalize(f, gen, inst.domain).sigma
    reports = verify_many(sp, [(f, sigma), (f, frozenset())], inst.oracle, 2)
    assert [r.ok for r in reports] == [True, False]
    assert sp._formulas == {}


def test_wide_space_verify_does_not_grow_with_sigma():
    # 262144 members and a sigma of 245760: the time must not grow with sigma.
    t0 = time.perf_counter()
    inst = build_instance("bao", {"operators": {"g": 2}, "variables": ["x", "y"]})
    f = parse_formula("(g x y)", inst.logic)
    r = normalize(f, derive_generator(f, inst.domain), inst.domain)
    report = verify(f, r, inst.oracle, 2)
    elapsed = time.perf_counter() - t0
    assert (r.space.size, len(r.sigma)) == (262144, 245760)
    assert report.ok and report.contexts == 4104
    assert elapsed < 15, f"{elapsed:.1f}s"


def _deep_not(levels: int, wrap: str | None = None) -> str:
    text = "(not " * levels + "p" + ")" * levels
    return f"({wrap} {text})" if wrap else text


@pytest.mark.parametrize("logic,wrap", [("prop", None), ("modal-k", "dia")])
def test_a_600_deep_not_nest_normalizes_and_verifies(logic, wrap):
    # Context.eval spends one Python frame per level of not.
    inst = build_instance(logic)
    f = parse_formula(_deep_not(600, wrap), inst.logic)
    same = parse_formula(_deep_not(0, wrap), inst.logic)
    gen = derive_generator(f, inst.domain)
    r = normalize(f, gen, inst.domain)
    assert r.sigma == normalize(same, gen, inst.domain).sigma
    report = verify(f, r, inst.oracle)
    assert report.ok and report.exact == (logic == "prop")
