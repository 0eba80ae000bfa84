import tracemalloc

import pytest
from hypothesis import given

from helpers import formula_strategy

from addnf import (
    And,
    App,
    ConnectiveSig,
    DomainViolation,
    Generator,
    Not,
    Or,
    ParseError,
    Prop,
    UnknownSymbolError,
    conj_all,
    derive_generator,
    disj_all,
    disjunction,
    normalize,
    parse_formula,
    render_formula,
    render_formulas,
    shape,
    space,
)


def test_parse_or(prop_inst):
    assert parse_formula("(or p q)", prop_inst.logic) == Or(Prop("p"), Prop("q"))


def test_parse_diamond(modal_inst):
    dia = modal_inst.diamonds[0]
    assert parse_formula("(dia (not p))", modal_inst.logic) == App(dia, (Not(Prop("p")),))


def test_sugar_expands(prop_inst):
    assert parse_formula("(imp p q)", prop_inst.logic) == Or(Not(Prop("p")), Prop("q"))
    expected = And(Or(Not(Prop("p")), Prop("q")), Or(Not(Prop("q")), Prop("p")))
    assert parse_formula("(iff p q)", prop_inst.logic) == expected


def test_whitespace_and_newlines(prop_inst):
    assert parse_formula("  (and\n  p\n  (not q))  ", prop_inst.logic) == And(
        Prop("p"), Not(Prop("q"))
    )


@pytest.mark.parametrize(
    "text",
    ["(or p", "(or p q) extra", "(and p)", "(not p q)", "()", ")", "(or p q))"],
)
def test_parse_errors(prop_inst, text):
    with pytest.raises(ParseError):
        parse_formula(text, prop_inst.logic)


def test_parse_error_positions(prop_inst):
    with pytest.raises(ParseError) as e:
        parse_formula("(and p\n  (bogus q r))", prop_inst.logic)
    assert e.value.line == 2


def test_unknown_connective(prop_inst):
    with pytest.raises(UnknownSymbolError):
        parse_formula("(dia p)", prop_inst.logic)


def test_unknown_proposition_in_closed_universe():
    from addnf.logics import propositional_instance

    inst = propositional_instance(["p", "q"])
    assert parse_formula("p", inst.logic) == Prop("p")
    with pytest.raises(UnknownSymbolError):
        parse_formula("r", inst.logic)


def test_gf_guard_covers_body(gf_rs):
    f = parse_formula("(ex (u) (R u v) (S v))", gf_rs.logic)
    assert isinstance(f, App)
    assert f.conn.payload.bound == ("u",)
    assert f.conn.payload.guard == "(R u v)"


def test_gf_domain_violation(gf_rs):
    with pytest.raises(DomainViolation):
        parse_formula("(ex (u) (R u u) (S v))", gf_rs.logic)


def test_gf_bound_vars_must_guard(gf_rs):
    with pytest.raises(ParseError):
        parse_formula("(ex (v) (R u u) (S u))", gf_rs.logic)


def test_gf_arity_checked(gf_rs):
    with pytest.raises(ParseError):
        parse_formula("(R u)", gf_rs.logic)
    with pytest.raises(ParseError):
        parse_formula("(S u v)", gf_rs.logic)


def test_every_gf_quantifier_parses_back_from_its_rendering():
    from itertools import permutations

    from addnf.logics import gf_instance

    inst = gf_instance(relations={"R": 2, "S": 1}, equality=True)
    body = Prop("(S u)")
    for sig in inst.logic.connectives.values():
        free = inst.domain.j2_of(sig)
        f = App(sig, (body if "u" in free else Prop("(R v v)"),))
        text = render_formula(f, inst.logic)
        assert text.startswith(sig.key[:-1] + " ")
        guard = sig.payload.guard
        for order in permutations(sig.payload.bound):
            spelled = text.replace(sig.key[:-1], f"(ex ({' '.join(order)}) {guard}", 1)
            g = parse_formula(spelled, inst.logic)
            assert g == f and g.conn is sig


@pytest.mark.parametrize(
    "text, message",
    [
        ("(and (S u)\n  (ex (u) (S v) (S u)))",
         "unknown connective '(ex (u) (S v))' (at 2:4)"),
        ("(ex (v u) (R u u) (S u))", "unknown connective '(ex (u v) (R u u))' (at 1:2)"),
        ("(not\n (ex u (R u v) (S u)))", "unknown connective 'ex' (at 2:3)"),
        ("(ex (u) (not (R u v)) (S u))", "unknown connective 'ex' (at 1:2)"),
        ("(or (S v) (= u v))", "unknown connective '=' (at 1:12)"),
        ("(or (S v)\n     (R u))", "unknown connective 'R' (at 2:7)"),
    ],
)
def test_gf_unknown_symbols_carry_line_and_column(gf_rs, text, message):
    with pytest.raises(UnknownSymbolError) as e:
        parse_formula(text, gf_rs.logic)
    assert str(e.value) == message


def test_gf_quantifier_arity_names_its_key(gf_rs):
    with pytest.raises(ParseError) as e:
        parse_formula("(ex (u) (R u v))", gf_rs.logic)
    assert str(e.value) == "'(ex (u) (R u v))' takes 1 argument(s), got 0 (at 1:2)"


def test_gf_equal_atoms_share_one_node(gf_rs):
    f = parse_formula("(and (R u  v)\n (ex (u) (R u v) (R u v)))", gf_rs.logic)
    assert f.left == Prop("(R u v)") and f.left is f.right.args[0]


def test_deep_gf_quantifier_nest_parses(gf_r):
    n = 20_000
    f = parse_formula("(ex (u) (R u v) " * n + "(R u v)" + ")" * n, gf_r.logic)
    sig = gf_r.quantifier(("u",), "(R u v)")
    length = 0
    while isinstance(f, App):
        assert f.conn is sig
        f, length = f.args[0], length + 1
    assert length == n and f == Prop("(R u v)")


@pytest.mark.parametrize(
    "text",
    [
        "p",
        "(not p)",
        "(or p q)",
        "(and (not p) (or q p))",
    ],
)
def test_round_trip_canonical(prop_inst, text):
    f = parse_formula(text, prop_inst.logic)
    assert render_formula(f, prop_inst.logic) == text
    assert parse_formula(render_formula(f, prop_inst.logic), prop_inst.logic) == f


def test_round_trip_gf(gf_rs):
    text = "(ex (u v) (R u v) (or (S v) (not (R v u))))"
    f = parse_formula(text, gf_rs.logic)
    assert render_formula(f, gf_rs.logic) == text
    assert parse_formula(render_formula(f, gf_rs.logic), gf_rs.logic) == f


def test_round_trip_bao(bao_xy):
    text = "(plus x (minus (f y)))"
    f = parse_formula(text, bao_xy.logic)
    assert render_formula(f, bao_xy.logic) == text


def test_bao_zero_one_expand(bao_xy):
    zero = parse_formula("0", bao_xy.logic)
    assert zero == And(Prop("x"), Not(Prop("x"))) == bao_xy.logic.tokens["0"]
    one = parse_formula("1", bao_xy.logic)
    assert one == Or(Prop("x"), Not(Prop("x"))) == bao_xy.logic.tokens["1"]
    f = parse_formula("(plus (f 0) (times y 1))", bao_xy.logic)
    assert f == Or(App(bao_xy.logic.connectives["f"], (zero,)), And(Prop("y"), one))


@given(formula_strategy(("p", "q", "r")))
def test_round_trip_property(f):
    from addnf.logics import propositional_instance

    inst = propositional_instance()
    assert parse_formula(render_formula(f, inst.logic), inst.logic) == f


def test_depth_examples(modal_inst):
    logic = modal_inst.logic
    assert shape(parse_formula("(or p (not q))", logic))[0] == 0
    assert shape(parse_formula("(dia p)", logic))[0] == 1
    assert shape(parse_formula("(dia (and p (dia (not p))))", logic))[0] == 2


def test_vocabulary_examples(modal_inst, gf_rs):
    logic = modal_inst.logic
    _, props, conns = shape(parse_formula("(or p (not q))", logic))
    assert props == {"p", "q"} and conns == frozenset()
    _, props, conns = shape(parse_formula("(dia (and p q))", logic))
    assert props == {"p", "q"} and {c.key for c in conns} == {"dia"}
    f = parse_formula("(ex (u) (R u v) (S v))", gf_rs.logic)
    _, props, conns = shape(f)
    assert props == {"(R u v)", "(S v)"}
    assert {c.key for c in conns} == {"(ex (u) (R u v))"}


def test_vocabulary_monotone(prop_inst):
    f = parse_formula("(and (or p q) (not r))", prop_inst.logic)
    sub = parse_formula("(or p q)", prop_inst.logic)
    assert shape(sub)[1] <= shape(f)[1]


def test_fold_shapes():
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    assert conj_all([p]) == p
    assert conj_all([p, q, r]) == And(And(p, q), r)
    assert disj_all([p, q, r]) == Or(Or(p, q), r)
    with pytest.raises(ValueError):
        conj_all([])


def test_app_arity_and_kind():
    dia = ConnectiveSig("dia", 1)
    with pytest.raises(ValueError):
        App(dia, (Prop("p"), Prop("q")))
    with pytest.raises(ValueError):
        ConnectiveSig("bad", 0)


def test_validate_domains(gf_rs):
    good = parse_formula("(ex (u) (R u v) (S v))", gf_rs.logic)
    assert parse_formula(render_formula(good, gf_rs.logic), gf_rs.logic) == good
    sig = gf_rs.quantifier(("u",), "(R u u)")
    bad = App(sig, (Prop("(S v)"),))  # built behind the parser's back
    with pytest.raises(DomainViolation) as e:
        parse_formula(render_formula(bad, gf_rs.logic), gf_rs.logic)
    assert str(e.value) == ("argument 0 of (ex (u) (R u u)) is outside its domain: "
                            "iota=['v'] is not a subset of j2=['u'] (at 1:2)")


def test_a_domain_violation_is_a_parse_error_at_its_head(gf_rs):
    text = "(and (S v)\n     (ex (u) (R u u) (S v)))"
    with pytest.raises(ParseError) as e:
        parse_formula(text, gf_rs.logic)
    assert isinstance(e.value, DomainViolation)
    assert (e.value.line, e.value.column) == (2, 7)
    assert str(e.value).endswith("is not a subset of j2=['u'] (at 2:7)")


def _token_count(text):
    return len(text.replace("(", " ( ").replace(")", " ) ").split())


def test_long_one_line_round_trip(prop_inst):
    leaves = [Prop(f"p{i}") if i % 3 else Not(Prop(f"p{i}")) for i in range(24000)]
    f = disj_all([conj_all(leaves[i:i + 4]) for i in range(0, len(leaves), 4)])
    text = render_formula(f, prop_inst.logic)
    assert "\n" not in text and _token_count(text) >= 100_000
    g = parse_formula(text, prop_inst.logic)
    assert render_formula(g, prop_inst.logic) == text
    assert g == f


@pytest.mark.parametrize(
    "text, message",
    [
        ("(and (bogus p)\n  q)", "unknown connective 'bogus' (at 1:7)"),
        ("(or p q) r\n\n", "unexpected trailing input (at 1:10)"),
        ("(and\n  p\n  (not q r))", "'not' takes 1 argument(s), got 2 (at 3:4)"),
        ("(and p\n  q)\n   extra", "unexpected trailing input (at 3:4)"),
        ("\n\n  (or p", "missing ')' (at 3:3)"),
    ],
)
def test_error_line_and_column(prop_inst, text, message):
    with pytest.raises(ParseError) as e:
        parse_formula(text, prop_inst.logic)
    assert str(e.value) == message
    line, col = message.rsplit("at ", 1)[1].rstrip(")").split(":")
    assert (e.value.line, e.value.column) == (int(line), int(col))


def test_error_position_at_end_of_long_line(prop_inst):
    body = render_formula(conj_all([Prop("q")] * 20000), prop_inst.logic)
    assert len(body) >= 100_000
    with pytest.raises(UnknownSymbolError) as e:
        parse_formula(f"(and\n{body} %)", prop_inst.logic)
    assert str(e.value) == f"unknown proposition '%' (at 2:{len(body) + 2})"
    with pytest.raises(ParseError) as e:
        parse_formula(f"{body} )", prop_inst.logic)
    assert str(e.value) == f"unexpected trailing input (at 1:{len(body) + 2})"
    assert (e.value.line, e.value.column) == (1, len(body) + 2)


def test_deep_nesting_parses_without_recursion(prop_inst):
    n = 100_000
    f = parse_formula("(not " * n + "p" + ")" * n, prop_inst.logic)
    length = 0
    while isinstance(f, Not):
        f, length = f.child, length + 1
    assert length == n and f == Prop("p")


def test_deep_argument_of_a_connective_parses(modal_inst):
    # The domain check of (dia ...) takes iota of the whole argument.
    n = 2000
    f = parse_formula("(dia " + "(not " * n + "p" + ")" * n + ")", modal_inst.logic)
    assert isinstance(f, App) and f.conn == modal_inst.diamonds[0]
    assert modal_inst.domain.iota(f.args[0]) == modal_inst.domain.points


def _member_spaces(modal_inst, bao_x, gf_r):
    """Modal-k degree 2 over {p}, BAO degree 1 over {x} and a small GF space,
    each with its logic."""
    dia = modal_inst.diamonds[0]
    fsig = bao_x.logic.connectives["f"]
    atom = gf_r.atom("R", "v", "v")
    quants = frozenset(gf_r.quantifier(b, atom) for b in [(), ("v",)])
    cases = [
        (modal_inst, Generator(2, {"p"}, {dia}, modal_inst.domain.points)),
        (bao_x, Generator(1, {"x"}, {fsig}, bao_x.domain.points)),
        (gf_r, Generator(1, {atom}, quants, {"v"})),
    ]
    return [(space(gen, inst.domain), inst.logic) for inst, gen in cases]


def test_render_formulas_renders_each_as_render_formula(modal_inst, bao_x, gf_r):
    for sp, logic in _member_spaces(modal_inst, bao_x, gf_r):
        members = [sp.formula(i) for i in range(sp.size)]
        texts = render_formulas(members, logic)
        assert texts == [render_formula(f, logic) for f in members]
        assert [parse_formula(t, logic) for t in texts] == members
    assert render_formulas([]) == []
    with pytest.raises(TypeError, match="not a formula"):
        render_formulas([Prop("p"), And(Prop("p"), "q")])


def test_a_formula_used_twice_renders_twice(prop_inst):
    shared = And(Prop("p"), Not(Prop("q")))
    f = Or(shared, Not(shared))
    text = "(or (and p (not q)) (not (and p (not q))))"
    assert render_formulas([f, shared, f], prop_inst.logic) == [text, "(and p (not q))", text]


def test_rendering_a_large_disjunction_holds_little_besides_its_text(modal_inst):
    # The 480 members of (dia (dia p)) share their runs of literals.  A
    # rendering that kept every node's text would hold the Or spine's
    # texts too, many times the length of the result.
    f = parse_formula("(dia (dia p))", modal_inst.logic)
    result = normalize(f, derive_generator(f, modal_inst.domain), modal_inst.domain)
    assert len(result.sigma) == 480
    d = disjunction(result)
    tracemalloc.start()
    try:
        text = render_formula(d, modal_inst.logic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
