import pytest

from helpers import free_vars

from addnf import (
    ConnectiveSig,
    DomainSystem,
    EngineError,
    Generator,
    derive_generator,
    parse_formula,
    suitable,
)


def test_full_operator_iota(modal_inst):
    ds = modal_inst.domain
    f = parse_formula("(dia (and p (not q)))", modal_inst.logic)
    assert ds.iota(f) == ds.points
    assert ds.iota(parse_formula("p", modal_inst.logic)) == ds.points


def test_gf_iota_is_free_vars(gf_rs):
    ds = gf_rs.domain
    f = parse_formula("(ex (u) (R u v) (S u))", gf_rs.logic)
    # rule (b): j2 - j1 = free(guard) - bound
    assert ds.iota(f) == frozenset({"v"})
    assert ds.iota(f) == free_vars(f, gf_rs.atoms)
    g = parse_formula("(and (S v) (not (R u v)))", gf_rs.logic)
    assert ds.iota(g) == frozenset({"u", "v"})


def test_in_domain(modal_inst, gf_rs):
    dia = modal_inst.diamonds[0]
    p = parse_formula("p", modal_inst.logic)
    assert modal_inst.domain.domain_failures(dia, (p,)) == []
    ex = gf_rs.quantifier(("u",), "(R u v)")
    sv = parse_formula("(S v)", gf_rs.logic)
    su = parse_formula("(S u)", gf_rs.logic)
    assert gf_rs.domain.domain_failures(ex, (sv,)) == []
    assert gf_rs.domain.domain_failures(ex, (su,)) == []
    ex_uu = gf_rs.quantifier(("u",), "(R u u)")
    failures = gf_rs.domain.domain_failures(ex_uu, (sv,))
    assert failures == [(0, frozenset({"v"}), frozenset({"u"}))]


def test_tilde(modal_inst, gf_rs):
    ds = modal_inst.domain
    assert ds.tilde({"p", "q"}, ds.points) == {"p", "q"}
    gds = gf_rs.domain
    atoms = set(gf_rs.atoms)
    assert gds.tilde(atoms, {"v"}) == {"(R v v)", "(S v)"}
    assert gds.tilde(atoms, frozenset()) == frozenset()
    assert not gds.large_enough(atoms, frozenset())


def test_compatible(modal_inst, gf_rs):
    dia = modal_inst.diamonds[0]
    assert modal_inst.domain.compatible(dia, {"p"}, modal_inst.domain.points)
    ex = gf_rs.quantifier(("u",), "(R u v)")
    atoms = set(gf_rs.atoms)
    assert gf_rs.domain.compatible(ex, atoms, {"v"})
    assert not gf_rs.domain.compatible(ex, atoms, frozenset())


def test_compatible_implies_large(gf_rs):
    ds = gf_rs.domain
    atoms = set(gf_rs.atoms)
    for sig in gf_rs.logic.connectives.values():
        if ds.compatible(sig, atoms, {"v"}):
            assert ds.large_enough(atoms, ds.j2_of(sig))


def test_suitable_cases(prop_inst, modal_inst):
    v = prop_inst.domain.points
    f = parse_formula("(or p q)", prop_inst.logic)
    assert suitable(Generator(0, {"p", "q"}, frozenset(), v), f, prop_inst.domain)

    dia = modal_inst.diamonds[0]
    mds = modal_inst.domain
    g = parse_formula("(dia p)", modal_inst.logic)
    rep = suitable(Generator(0, {"p"}, {dia}, mds.points), g, mds)
    assert not rep and any("degree" in vi for vi in rep.violations)
    rep = suitable(Generator(1, {"p"}, frozenset(), mds.points), g, mds)
    assert not rep and any("connectives" in vi for vi in rep.violations)
    rep = suitable(Generator(1, frozenset({"q"}), {dia}, mds.points), g, mds)
    assert any("propositions" in vi for vi in rep.violations)


def test_suitable_gf_iota_clause(gf_rs):
    f = parse_formula("(S u)", gf_rs.logic)
    rep = suitable(Generator(0, {"(S u)"}, frozenset(), frozenset({"v"})), f, gf_rs.domain)
    assert not rep
    assert any("iota" in vi for vi in rep.violations)
    assert any("largeness" in vi for vi in rep.violations)


def test_derive_generator_grows_area(gf_rs):
    f = parse_formula("(ex (u) (R u v) (R u v))", gf_rs.logic)
    gen = derive_generator(f, gf_rs.domain)
    assert gen.k == 1
    assert gen.X == {"(R u v)"}
    assert gen.E == {"u", "v"}  # iota(f) = {v} alone is not large enough
    assert suitable(gen, f, gf_rs.domain)


def test_derive_generator_minimal(modal_inst):
    f = parse_formula("(dia (or p q))", modal_inst.logic)
    gen = derive_generator(f, modal_inst.domain)
    assert gen.k == 1 and gen.X == {"p", "q"} and gen.E == modal_inst.domain.points


def test_json_round_trip(gf_rs, modal_inst):
    for ds in (gf_rs.domain, modal_inst.domain):
        doc = ds.to_json()
        again = DomainSystem.from_json(doc)
        assert again.to_json() == doc
    f = parse_formula("(ex (u) (R u v) (S u))", gf_rs.logic)
    revived = DomainSystem.from_json(gf_rs.domain.to_json())
    assert revived.iota(f) == gf_rs.domain.iota(f)


def test_system_validation():
    with pytest.raises(EngineError):
        DomainSystem(frozenset(), {}, {}, {})
    with pytest.raises(EngineError):
        DomainSystem(frozenset("ab"), {"p": frozenset("c")}, {}, {})
    with pytest.raises(EngineError):
        DomainSystem(frozenset("ab"), {}, {"d": frozenset("a")}, {})


def test_domain_system_errors_name_what_is_missing(modal_inst):
    with pytest.raises(EngineError, match="iota_default is not a subset of V"):
        DomainSystem(frozenset("ab"), {}, {}, {}, iota_default=frozenset("c"))
    box = ConnectiveSig("box", 1)
    for border in (modal_inst.domain.j1_of, modal_inst.domain.j2_of):
        with pytest.raises(EngineError, match="connective 'box' has no j1/j2 entries"):
            border(box)


def test_unmapped_proposition(gf_rs):
    with pytest.raises(EngineError):
        gf_rs.domain.iota_prop("nonsense")


def test_generator_key_deterministic(modal_inst):
    dia = modal_inst.diamonds[0]
    g1 = Generator(1, {"q", "p"}, {dia}, modal_inst.domain.points)
    g2 = Generator(1, {"p", "q"}, {dia}, modal_inst.domain.points)
    assert g1 == g2 and g1.key == g2.key
    assert g1.describe() == {"k": 1, "X": ["p", "q"], "Y": ["dia"], "E": ["*"]}


def test_generator_key_and_connectives_are_computed_once():
    from addnf.logics import modal_k_instance

    inst = modal_k_instance(("b", "a"))
    a, b = inst.logic.connectives["a"], inst.logic.connectives["b"]
    gen = Generator(1, {"q", "p"}, {b, a}, inst.domain.points)
    assert gen.key is gen.key and gen.sorted_conns is gen.sorted_conns
    fresh = Generator(1, {"p", "q"}, {a, b}, inst.domain.points)
    assert gen.key == fresh.key == (1, ("p", "q"), ("a", "b"), ("*",))
    assert gen.sorted_conns == fresh.sorted_conns == (a, b)
    assert gen == fresh and hash(gen) == hash(fresh)
