import math

import pytest

from addnf import (
    CapExceeded,
    ConnectiveSig,
    DomainSystem,
    Generator,
    NotLargeEnough,
    count,
    partition_check,
    render_formula,
    space,
)


def test_prop_minterms_in_canonical_order(prop_inst):
    gen = Generator(0, {"p", "q"}, frozenset(), prop_inst.domain.points)
    sp = space(gen, prop_inst.domain)
    rendered = [render_formula(sp.formula(i)) for i in range(sp.size)]
    assert rendered == [
        "(and p q)",
        "(and p (not q))",
        "(and (not p) q)",
        "(and (not p) (not q))",
    ]
    assert sp.member(1).color == {"p"}
    assert sp.member(3).color == frozenset()


def test_modal_counts(modal_inst):
    dia = modal_inst.diamonds[0]
    v = modal_inst.domain.points
    ds = modal_inst.domain
    assert count(Generator(1, {"p", "q"}, {dia}, v), ds) == 64
    assert count(Generator(2, {"p"}, {dia}, v), ds) == 512
    assert count(Generator(2, {"p", "q"}, {dia}, v), ds) == 4 * 2 ** 64


def test_cap_exceeded_reports_exact_count(modal_inst):
    dia = modal_inst.diamonds[0]
    gen = Generator(2, {"p", "q"}, {dia}, modal_inst.domain.points)
    with pytest.raises(CapExceeded) as e:
        space(gen, modal_inst.domain)
    assert e.value.count == 4 * 2 ** 64


def test_counts_match_enumeration(prop_inst, modal_inst, gf_r, bao_x):
    ds = prop_inst.domain
    cases = [
        (prop_inst, Generator(0, {"p"}, frozenset(), ds.points)),
        (prop_inst, Generator(0, {"p", "q", "r"}, frozenset(), ds.points)),
        (prop_inst, Generator(1, {"p", "q"}, frozenset(), ds.points)),
        (modal_inst, Generator(0, {"p"}, {modal_inst.diamonds[0]}, ds.points)),
        (modal_inst, Generator(1, {"p", "q"}, {modal_inst.diamonds[0]}, ds.points)),
        (modal_inst, Generator(2, {"p"}, {modal_inst.diamonds[0]}, ds.points)),
    ]
    atom = gf_r.atom("R", "v", "v")
    quants = frozenset(gf_r.quantifier(b, atom) for b in [(), ("v",)])
    cases.append((gf_r, Generator(1, {atom}, quants, {"v"})))
    fsig = bao_x.logic.connectives["f"]
    cases.append((bao_x, Generator(1, {"x"}, {fsig}, bao_x.domain.points)))
    for inst, gen in cases:
        sp = space(gen, inst.domain)
        assert sp.size == count(gen, inst.domain) == len(sp.members)


def test_not_large_enough(gf_r):
    atom = gf_r.atom("R", "u", "v")
    with pytest.raises(NotLargeEnough):
        count(Generator(0, {atom}, frozenset(), {"v"}), gf_r.domain)


def test_member_decode_round_trip(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    for i in range(sp.size):
        c = sp.member(i)
        assert c.index == i
        assert sp.members[i] == c
    assert sp.member(0) != sp.member(1)
    assert len({sp.member(i) for i in range(sp.size)}) == sp.size


def test_degree1_modal_structure(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    assert sp.size == 8 and len(sp.bar) == 2
    first = sp.member(0)
    assert first.color == {"p"}
    assert first.sub(dia) == {(0,), (1,)}
    assert first.sub_map() == {"dia": [[0], [1]]}
    assert render_formula(sp.formula(0)) == "(and p (and (dia p) (dia (not p))))"
    last = sp.member(7)
    assert last.color == frozenset() and last.sub(dia) == frozenset()


def test_rendered_members_pairwise_distinct(modal_inst, gf_r):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    rendered = [render_formula(sp.formula(i)) for i in range(sp.size)]
    assert len(set(rendered)) == sp.size
    atom = gf_r.atom("R", "v", "v")
    quants = frozenset(gf_r.quantifier(b, atom) for b in [(), ("v",)])
    gsp = space(Generator(1, {atom}, quants, {"v"}), gf_r.domain)
    rendered = [render_formula(gsp.formula(i)) for i in range(gsp.size)]
    assert len(set(rendered)) == gsp.size


def test_degenerate_branch(prop_inst):
    gen = Generator(1, {"p"}, frozenset(), prop_inst.domain.points)
    sp = space(gen, prop_inst.domain)
    assert sp.degenerate
    assert sp.size == 2 * 2 ** 2 == 8
    c = sp.member(0)
    assert c.base_positives() == {0, 1}
    assert c.sub_map() == {}
    assert render_formula(sp.formula(0)) == "(and p (and p (not p)))"
    gen2 = Generator(2, {"p"}, frozenset(), prop_inst.domain.points)
    assert count(gen2, prop_inst.domain) == 2 * 2 ** 8 == 512


def test_bar_grouped_by_connective_key():
    from addnf.logics import modal_k_instance

    inst = modal_k_instance(("dia", "box"))  # two independent diamonds
    d1 = inst.logic.connectives["box"]
    d2 = inst.logic.connectives["dia"]
    sp = space(Generator(1, {"p"}, {d1, d2}, inst.domain.points), inst.domain)
    assert [item.conn.key for item in sp.bar] == ["box", "box", "dia", "dia"]
    assert [item.children for item in sp.bar] == [(0,), (1,), (0,), (1,)]
    assert sp.size == 2 * 2 ** 4


def test_masks_agree_with_members(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p", "q"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    lm = sp.literal_mask("q")
    for i in range(sp.size):
        assert bool(lm >> i & 1) == ("q" in sp.member(i).color)
    bm = sp.bar_pos_mask(2)
    for i in range(sp.size):
        assert bool(bm >> i & 1) == (2 in sp.member(i).pos_bar)


def test_partition_prop_exact(prop_inst):
    gen = Generator(0, {"p", "q"}, frozenset(), prop_inst.domain.points)
    sp = space(gen, prop_inst.domain)
    report = partition_check(sp, prop_inst.oracle, 0)
    assert report.ok and report.exact


def test_partition_modal_bounded(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    report = partition_check(sp, modal_inst.oracle, 2)
    assert report.ok and not report.exact and report.contexts == 68


def test_partition_budget(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(2, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    with pytest.raises(CapExceeded):
        partition_check(sp, modal_inst.oracle, 3, budget=1000)


def test_space_memoized(modal_inst):
    dia = modal_inst.diamonds[0]
    gen = Generator(1, {"p"}, {dia}, modal_inst.domain.points)
    assert space(gen, modal_inst.domain) is space(gen, modal_inst.domain)


def test_astronomical_count_is_exact(modal_inst):
    dia = modal_inst.diamonds[0]
    n = count(Generator(3, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    assert n == 2 * 2 ** 512


def _recursive_log2(gen, ds):
    """log2 of the count, from the degree recurrence solved top-down as it
    is written; inf once the exponent is past 2**64."""
    nt = len(ds.tilde(gen.X, gen.E))
    if gen.k == 0:
        return nt
    compatible = [c for c in gen.sorted_conns() if ds.compatible(c, gen.X, gen.E)]
    if compatible:
        terms = [
            _recursive_log2(Generator(gen.k - 1, gen.X, gen.Y, ds.j2_of(c)), ds) * c.rank
            for c in compatible
        ]
    else:
        terms = [_recursive_log2(Generator(gen.k - 1, gen.X, gen.Y, gen.E), ds)]
    if max(terms) > 64:
        return math.inf
    return nt + sum(1 << t for t in terms)


def test_count_agrees_with_recurrence(gf_r):
    ds = gf_r.domain
    uv, vv = gf_r.atom("R", "u", "v"), gf_r.atom("R", "v", "v")
    some = frozenset(gf_r.quantifier(b, a) for a, b in [(uv, ("u",)), (vv, ()), (uv, ())])
    every = frozenset(gf_r.connectives.values())
    overflows = 0
    for X in ({vv}, {uv, vv}):
        for Y in (frozenset(), some, every):
            for E in ({"v"}, {"u", "v"}):
                if not ds.large_enough(X, E):
                    continue
                for k in range(4):
                    gen = Generator(k, X, Y, E)
                    want = _recursive_log2(gen, ds)
                    if want > 2 ** 26:
                        overflows += 1
                        with pytest.raises(CapExceeded):
                            count(gen, ds)
                    else:
                        assert count(gen, ds) == 1 << want, gen.key
    assert overflows


def test_count_stops_at_first_overflowing_degree(modal_inst):
    dia = modal_inst.diamonds[0]
    v = modal_inst.domain.points
    with pytest.raises(CapExceeded) as e:
        count(Generator(3000, {"p"}, {dia}, v), modal_inst.domain)
    assert str(e.value).startswith("space (4, ('p',)")
    with pytest.raises(CapExceeded):
        count(Generator(10 ** 30, {"p"}, {dia}, v), modal_inst.domain)


def test_count_visits_only_the_areas_each_degree_reaches():
    # From E={a} only "in" is compatible, and it leads to {a, b}, where the
    # rank-3 "wide" is compatible too: {a, b} overflows at degree 2, but
    # the degree-2 space over {a} only reaches {a, b} at degree 1.
    ds = DomainSystem(
        points={"a", "b"},
        iota_atomic={"p": {"a"}},
        j1={"in": {"b"}, "wide": set()},
        j2={"in": {"a", "b"}, "wide": {"a", "b"}},
    )
    Y = {ConnectiveSig("in", 1), ConnectiveSig("wide", 3)}
    assert count(Generator(1, {"p"}, Y, {"a", "b"}), ds) == 2 ** 11
    assert count(Generator(2, {"p"}, Y, {"a"}), ds) == 2 ** 2049
    assert _recursive_log2(Generator(2, {"p"}, Y, {"a"}), ds) == 2049
    with pytest.raises(CapExceeded) as e:
        count(Generator(3, {"p"}, Y, {"a"}), ds)
    assert str(e.value).startswith("space (2, ('p',), ('in', 'wide'), ('a', 'b'))")
