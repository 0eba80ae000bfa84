import itertools
import random

import pytest

from addnf import (
    And,
    App,
    BudgetExceeded,
    ConnectiveSig,
    DomainSystem,
    EngineError,
    Generator,
    GuardPayload,
    Not,
    Prop,
    conj_all,
    parse_formula,
    render_formula,
    space,
)
from addnf.logics import build_instance, gf_instance, gf_validate, modal_k_instance
from addnf.logics.gf import MAX_ATOMS
from helpers import free_vars, random_gf_case


# -- oracles -------------------------------------------------------------------


def test_prop_oracle(prop_inst):
    logic = prop_inst.logic
    assert prop_inst.oracle.check_valid(parse_formula("(or p (not p))", logic)).ok
    rep = prop_inst.oracle.check_valid(parse_formula("(or p q)", logic))
    assert not rep.ok and rep.exact and rep.bound is None
    # The first one-point frame, where nothing holds.
    assert rep.countermodel["point"] == {"point": 0}
    assert rep.countermodel["context"]["valuation"] == {"p": [], "q": []}
    # p is equivalent to the two-minterm disjunction over {p, q}
    f = parse_formula("(iff p (or (and p q) (and p (not q))))", logic)
    assert prop_inst.oracle.check_valid(f).ok
    g = parse_formula("(iff (and p (not p)) (and q (not q)))", logic)
    assert prop_inst.oracle.check_valid(g).ok


def test_kripke_oracle_additivity(modal_inst):
    logic = modal_inst.logic
    f = parse_formula("(iff (dia (or p q)) (or (dia p) (dia q)))", logic)
    rep = modal_inst.oracle.check_valid(f, 3)
    assert rep.ok and not rep.exact and rep.contexts == 33032


def test_kripke_oracle_finds_countermodels(modal_inst):
    logic = modal_inst.logic
    f = parse_formula("(not (and (dia p) (not (dia p))))", logic)
    assert modal_inst.oracle.check_valid(f, 3).ok
    rep = modal_inst.oracle.check_valid(parse_formula("(imp (dia p) p)", logic), 2)
    assert not rep.ok
    assert "relations" in rep.countermodel["context"]


def test_kripke_budget_guard():
    inst = modal_k_instance(("d1", "d2"))
    f = parse_formula("(or (d1 (and p q)) (d2 r))", inst.logic)
    with pytest.raises(BudgetExceeded):
        inst.oracle.check_valid(f, 3)


def test_fo_oracle(gf_r):
    logic = gf_r.logic
    taut = parse_formula(
        "(iff (ex (u) (R u v) (R u v)) (ex (u) (R u v) (or (R u v) (not (R u v)))))",
        logic,
    )
    assert gf_r.oracle.check_valid(taut, 2).ok
    unsat = parse_formula("(and (R v v) (not (R v v)))", logic)
    assert gf_r.oracle.check_valid(Not(unsat), 3).ok
    wrong = parse_formula("(imp (ex (u) (R u v) (R u v)) (R v v))", logic)
    rep = gf_r.oracle.check_valid(wrong, 2)
    assert not rep.ok and "relations" in rep.countermodel["context"]


def test_fo_oracle_with_equality():
    inst = gf_instance(("u", "v"), {"R": 2}, equality=True)
    assert inst.oracle.check_valid(parse_formula("(= u u)", inst.logic), 3).ok
    rep = inst.oracle.check_valid(parse_formula("(= u v)", inst.logic), 2)
    assert not rep.ok


def test_bao_axioms(bao_xy):
    logic = bao_xy.logic
    t = lambda s: parse_formula(s, logic)
    assert bao_xy.oracle.check_equal(t("(f (plus x y))"), t("(plus (f x) (f y))"), 3).ok
    assert bao_xy.oracle.check_equal(t("(f 0)"), t("0"), 3).ok
    assert bao_xy.oracle.check_equal(t("(plus x (minus x))"), t("1"), 3).ok
    # meet-distribution is not an axiom; the search must refute it
    rep = bao_xy.oracle.check_equal(t("(f (times x y))"), t("(times (f x) (f y))"), 3)
    assert not rep.ok and rep.countermodel["lhs_value"] != rep.countermodel["rhs_value"]
    assert not bao_xy.oracle.check_equal(t("x"), t("y"), 1).ok


def test_bao_rank_two_operator():
    inst = build_instance("bao", {"operators": {"g": 2}, "variables": ["x", "y"]})
    t = lambda s: parse_formula(s, inst.logic)
    rep = inst.oracle.check_equal(t("(g x (plus x y))"), t("(plus (g x x) (g x y))"), 2)
    assert rep.ok
    rep = inst.oracle.check_equal(t("(g x 0)"), t("0"), 2)
    assert rep.ok


# -- instance agreement with the bespoke families --------------------------------


def _signed_conj(items, code):
    n = len(items)
    parts = [
        items[j] if not (code >> (n - 1 - j)) & 1 else Not(items[j])
        for j in range(n)
    ]
    return conj_all(parts)


def test_prop_space_equals_minterm_family(prop_inst):
    for props in (("p",), ("p", "q"), ("p", "q", "r")):
        atoms = [Prop(p) for p in props]
        family = [_signed_conj(atoms, code) for code in range(1 << len(props))]
        gen = Generator(0, frozenset(props), frozenset(), prop_inst.domain.points)
        sp = space(gen, prop_inst.domain)
        assert [sp.formula(i) for i in range(sp.size)] == family


def _full_fo_setup(variables, relations):
    """Atoms as propositions, one full unary quantifier per variable."""
    atoms = []
    for rel in sorted(relations):
        for combo in itertools.product(variables, repeat=relations[rel]):
            atoms.append(f"({rel} {' '.join(combo)})")
    conns = {v: ConnectiveSig(f"ex-{v}", 1) for v in variables}
    point = frozenset("*")
    ds = DomainSystem(
        points=point,
        iota_atomic={},
        j1={c.key: frozenset() for c in conns.values()},
        j2={c.key: point for c in conns.values()},
        iota_default=point,
    )
    return sorted(atoms), conns, ds


def _full_fo_family(k, atoms, conns):
    """The first-order normal forms over a finite language, built directly:
    degree 0 signs the atom list; each next degree adds a sign word over
    one quantifier application per variable and smaller-degree form."""
    base = [Prop(a) for a in atoms]
    if k == 0:
        return [_signed_conj(base, c) for c in range(1 << len(base))]
    prev = _full_fo_family(k - 1, atoms, conns)
    bar = [
        App(conns[v], (phi,))
        for v in sorted(conns, key=lambda v: conns[v].key)
        for phi in prev
    ]
    out = []
    for ca in range(1 << len(base)):
        head = _signed_conj(base, ca)
        for cb in range(1 << len(bar)):
            out.append(And(head, _signed_conj(bar, cb)))
    return out


@pytest.mark.parametrize(
    "variables,relations,k",
    [(("u",), {"R": 2}, 0), (("u",), {"R": 2}, 1), (("u", "v"), {"R": 1}, 1)],
)
def test_full_fo_space_equals_family(variables, relations, k):
    atoms, conns, ds = _full_fo_setup(variables, relations)
    gen = Generator(k, frozenset(atoms), frozenset(conns.values()), ds.points)
    sp = space(gen, ds)
    family = _full_fo_family(k, atoms, conns)
    assert sp.size == len(family)
    assert [sp.formula(i) for i in range(sp.size)] == family


def _gf_family(inst, k, X, Xp):
    """Guarded normal forms per their own recursion: sign the atoms over
    (X', rels); the bar holds every (ex bound guard body) with the guard
    over X, bound inside the guard, the guard's other variables inside X',
    and the body one degree down at the guard's variables."""
    Xp, X = frozenset(Xp), frozenset(X)
    at = [a for a in sorted(inst.atoms) if set(inst.atoms[a][1]) <= Xp]
    base = [Prop(a) for a in at]
    if k == 0:
        return [_signed_conj(base, c) for c in range(1 << len(base))]
    pairs = []
    for guard in sorted(inst.atoms):
        gvars = frozenset(inst.atoms[guard][1])
        if not gvars <= X:
            continue
        for r in range(len(gvars) + 1):
            for bound in itertools.combinations(sorted(gvars), r):
                if gvars - frozenset(bound) <= Xp:
                    sig = ConnectiveSig("ex", 1, payload=GuardPayload(bound, guard))
                    pairs.append(sig)
    pairs.sort(key=lambda s: s.key)
    bar = []
    for sig in pairs:
        gvars = frozenset(inst.atoms[sig.payload.guard][1])
        for phi in _gf_family(inst, k - 1, X, gvars):
            bar.append(App(sig, (phi,)))
    out = []
    for ca in range(1 << len(base)):
        head = _signed_conj(base, ca)
        for cb in range(1 << len(bar)):
            out.append(And(head, _signed_conj(bar, cb)) if bar else head)
    return out


@pytest.mark.parametrize("X,Xp,k", [(("u", "v"), ("v",), 0), (("v",), ("v",), 1)])
def test_gf_space_equals_family(gf_r, X, Xp, k):
    inst = gf_r
    atoms_over_x = frozenset(
        a for a in inst.atoms if set(inst.atoms[a][1]) <= set(X)
    )
    quants = frozenset(
        sig
        for sig in inst.logic.connectives.values()
        if frozenset(inst.atoms[sig.payload.guard][1]) <= set(X)
    )
    gen = Generator(k, atoms_over_x, quants, frozenset(Xp))
    sp = space(gen, inst.domain)
    family = _gf_family(inst, k, X, Xp)
    assert sp.size == len(family)
    assert [sp.formula(i) for i in range(sp.size)] == family


def test_bao_forms_hand_check(bao_x):
    fsig = bao_x.logic.connectives["f"]
    g0 = Generator(0, {"x"}, {fsig}, bao_x.domain.points)
    sp0 = space(g0, bao_x.domain)
    assert [render_formula(sp0.formula(i), bao_x.logic) for i in range(2)] == ["x", "(minus x)"]
    g1 = Generator(1, {"x"}, {fsig}, bao_x.domain.points)
    sp1 = space(g1, bao_x.domain)
    assert sp1.size == 8
    assert render_formula(sp1.formula(0), bao_x.logic) == (
        "(times x (times (f x) (f (minus x))))"
    )


# -- instance-level invariants ----------------------------------------------------


def test_gf_members_pass_grammar_validator(gf_r):
    atom = gf_r.atom("R", "v", "v")
    quants = frozenset(gf_r.quantifier(b, atom) for b in [(), ("v",)])
    sp = space(Generator(1, {atom}, quants, {"v"}), gf_r.domain)
    for i in range(sp.size):
        assert gf_validate(sp.formula(i), gf_r)


def test_gf_validator_rejects_unguarded(gf_rs):
    sig = gf_rs.quantifier(("u",), "(R u u)")
    bad = App(sig, (Prop("(S v)"),))
    assert not gf_validate(bad, gf_rs)
    assert not gf_validate(Prop("(T u)"), gf_rs)


def test_gf_iota_equals_free_on_random_formulas(gf_r):
    rng = random.Random(2)
    for _ in range(100):
        f = random_gf_case(rng, gf_r)
        assert gf_r.domain.iota(f) == free_vars(f, gf_r.atoms)
        assert gf_validate(f, gf_r)
        assert parse_formula(render_formula(f, gf_r.logic), gf_r.logic) == f


def test_bao_degree_one_forms_sum_to_unit(bao_x):
    from addnf import Generator, disjunction, normalize, space

    fsig = bao_x.logic.connectives["f"]
    gen = Generator(1, {"x"}, {fsig}, bao_x.domain.points)
    r = normalize(bao_x.logic.tokens["1"], gen, bao_x.domain)
    assert r.sigma == frozenset(range(8))
    total = disjunction(r)
    assert bao_x.oracle.check_equal(total, bao_x.logic.tokens["1"], 3).ok
    sp = space(gen, bao_x.domain)
    for i in range(sp.size):
        for j in range(i + 1, sp.size):
            meet = And(sp.formula(i), sp.formula(j))
            assert bao_x.oracle.check_equal(meet, bao_x.logic.tokens["0"], 2).ok


def test_modal_diamond_additivity_of_instance(modal_inst):
    # the semantic counterpart of requiring additive connectives
    logic = modal_inst.logic
    f = parse_formula("(iff (dia (or p (not q))) (or (dia p) (dia (not q))))", logic)
    assert modal_inst.oracle.check_valid(f, 2).ok


def test_build_instance_registry():
    assert build_instance("prop").logic.name == "prop"
    assert build_instance("modal-k", {"diamonds": ["m"]}).diamonds[0].name == "m"
    inst = build_instance("gf", {"variables": ["u", "v"], "relations": {"T": 1}})
    assert set(inst.relations) == {"T"}
    bao = build_instance("bao", {"operators": {"h": 1}, "variables": ["z"]})
    assert "h" in bao.logic.connectives
    with pytest.raises(Exception):
        build_instance("nonsense")


# (logic, a key it does not read, the accepted keys as the error lists them)
UNREAD_KEYS = [
    ("prop", "diamonds", "propositions"),
    ("modal-k", "diamond", "diamonds, propositions"),
    ("gf", "operators", "variables, relations, equality"),
    ("bao", "relations", "operators, constants, variables"),
]


@pytest.mark.parametrize("logic_id,key,accepted", UNREAD_KEYS, ids=[c[0] for c in UNREAD_KEYS])
def test_build_instance_rejects_keys_its_logic_does_not_read(logic_id, key, accepted):
    with pytest.raises(EngineError) as e:
        build_instance(logic_id, {key: ["x"]})
    assert repr(key) in str(e.value) and accepted in str(e.value)


def test_gf_language_size_is_checked_before_enumerating():
    assert len(gf_instance(("u", "v"), {"R": 12}).atoms) == MAX_ATOMS
    for relations, equality in (({"R": 12}, True), ({"R": 12, "S": 1}, False),
                                ({"R": 10 ** 9}, False)):
        with pytest.raises(EngineError, match="atoms"):
            gf_instance(("u", "v"), relations, equality)


def test_gf_lookups_name_what_they_miss(gf_r):
    with pytest.raises(EngineError, match=r"no such atom '\(S u\)'"):
        gf_r.atom("S", "u")
    with pytest.raises(EngineError, match=r"no such quantifier '\(ex \(u\) \(R v v\)\)'"):
        gf_r.quantifier(("u",), "(R v v)")


def test_a_block_refuses_a_proposition_outside_its_model(modal_inst):
    gen = Generator(0, {"p"}, (), modal_inst.domain.points)
    block = next(modal_inst.oracle.blocks(gen, 1))
    with pytest.raises(EngineError, match="proposition 'q' has no valuation in this model"):
        block.prop_mask("q")


@pytest.mark.parametrize("logic_id,config", [
    ("bao", {"operators": {"and": 2}}),
    ("modal-k", {"diamonds": ["plus"]}),
])
def test_a_connective_may_take_another_logics_boolean_word(logic_id, config):
    # Each logic refuses only its own words: every member reads back.
    inst = build_instance(logic_id, config)
    X = {min(inst.logic.propositions or {"p"})}
    conns = frozenset(inst.logic.connectives.values())
    sp = space(Generator(1, X, conns, inst.domain.points), inst.domain)
    for i in range(sp.size):
        f = sp.formula(i)
        assert parse_formula(render_formula(f, inst.logic), inst.logic) == f
