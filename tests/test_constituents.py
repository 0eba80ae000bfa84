import math

import pytest
from helpers import reference_decode, reference_describe

from addnf import (
    And,
    CapExceeded,
    ConnectiveSig,
    DomainSystem,
    Generator,
    Not,
    NotLargeEnough,
    Prop,
    conj_all,
    count,
    partition_check,
    render_formula,
    space,
)
from addnf.constituents import BarItem


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
    assert sp.describe_member(1)["color"] == ["p"]
    assert sp.describe_member(3)["color"] == []


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
        assert sp.size == count(gen, inst.domain) == len({sp.formula(i) for i in range(sp.size)})


def test_not_large_enough(gf_r):
    atom = gf_r.atom("R", "u", "v")
    with pytest.raises(NotLargeEnough):
        count(Generator(0, {atom}, frozenset(), {"v"}), gf_r.domain)


def _member_corpus():
    """Eleven spaces: prop k=0..2 (degenerate above 0), modal K with one
    diamond at k=0..2 and with two at k=0..1, BAO with a binary g at
    k=0..1, and a GF space."""
    from addnf.logics import build_instance, gf_instance, modal_k_instance

    prop, modal = build_instance("prop"), modal_k_instance()
    two = modal_k_instance(("dia", "box"))
    bao = build_instance("bao", {"operators": {"g": 2}, "variables": ["x"]})
    gf = gf_instance(("u", "v"), {"R": 2})
    atom = gf.atom("R", "v", "v")
    out = [(prop, Generator(k, {"p"}, frozenset(), prop.domain.points)) for k in range(3)]
    out += [(modal, Generator(k, {"p"}, set(modal.diamonds), modal.domain.points))
            for k in range(3)]
    out += [(two, Generator(k, {"p"}, set(two.diamonds), two.domain.points)) for k in range(2)]
    out += [(bao, Generator(k, {"x"}, set(bao.logic.connectives.values()), bao.domain.points))
            for k in range(2)]
    quants = frozenset(gf.quantifier(b, atom) for b in [(), ("v",)])
    out.append((gf, Generator(1, {atom}, quants, {"v"})))
    return [space(gen, inst.domain) for inst, gen in out]


def test_member_decode_round_trip():
    spaces = _member_corpus()
    assert len(spaces) == 11
    assert any(sp.degenerate for sp in spaces)
    assert any(sp.children and not sp.degenerate for sp in spaces)
    for sp in spaces:
        docs = [sp.describe_member(i) for i in range(sp.size)]
        assert docs == [reference_describe(sp, i) for i in range(sp.size)], sp
        assert len({repr(d) for d in docs}) == sp.size
        for i in (sp.size, -1):
            with pytest.raises(IndexError, match=f"member index {i} out of range for size "
                                                 f"{sp.size}"):
                sp.describe_member(i)


def test_degree1_modal_structure(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    assert sp.size == 8 and len(sp.bar) == 2
    first = sp.describe_member(0)
    assert first["color"] == ["p"]
    assert first["sub"] == {"dia": [[0], [1]]}
    assert render_formula(sp.formula(0)) == "(and p (and (dia p) (dia (not p))))"
    last = sp.describe_member(7)
    assert last["color"] == [] and last["sub"] == {}


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
    c = sp.describe_member(0)
    assert c["base"] == [0, 1]
    assert "sub" not in c
    assert render_formula(sp.formula(0)) == "(and p (and p (not p)))"
    # The degenerate bar is the rank-1 source at the same area: one child,
    # under None, whose members are the bar items one by one.
    assert list(sp.children) == [None]
    assert sp.children[None] is space(Generator(0, {"p"}, (), prop_inst.domain.points),
                                      prop_inst.domain)
    gen2 = Generator(2, {"p"}, frozenset(), prop_inst.domain.points)
    assert count(gen2, prop_inst.domain) == 2 * 2 ** 8 == 512
    for g in (gen, gen2):
        sg = space(g, prop_inst.domain)
        assert sg.degenerate and count(g, prop_inst.domain) == sg.size
        assert all(item == BarItem(None, (i,)) for i, item in enumerate(sg.bar))


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
    for i in range(sp.size):
        color, pos_bar = reference_decode(sp, i)
        signs = [x in color for x in sp.xtilde] + [t in pos_bar for t in range(len(sp.bar))]
        assert [bool(sp.sign_mask(j) >> i & 1) for j in range(len(signs))] == signs


def test_index_mask_reads_a_one_shot_iterable_once(modal_inst):
    dia = modal_inst.diamonds[0]
    sp = space(Generator(1, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain)
    assert sp.index_mask(iter([0, 5])) == 0b100001
    with pytest.raises(IndexError, match="member index 9 out of range for size 8"):
        sp.index_mask(iter([0, 99, 9]))
    with pytest.raises(IndexError, match="member index -1 out of range for size 8"):
        sp.index_mask(i for i in [0, 99, -1])


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
    with pytest.raises(CapExceeded, match=r"has 2\*\*3 members, above the cap 4") as e:
        space(gen, modal_inst.domain, cap=4)  # the cap binds a cached space too
    assert e.value.count == 8


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
    compatible = [c for c in gen.sorted_conns if ds.compatible(c, gen.X, gen.E)]
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
    every = frozenset(gf_r.logic.connectives.values())
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


def test_literals_spell_the_member_index(prop_inst, modal_inst, bao_x, gf_r):
    # Each member is its literals signed by its color and positive bar set:
    # the index read in binary, first literal most significant, 0 positive.
    dia = modal_inst.diamonds[0]
    fsig = bao_x.logic.connectives["f"]
    atom = gf_r.atom("R", "v", "v")
    quants = frozenset(gf_r.quantifier(b, atom) for b in [(), ("v",)])
    spaces = [
        space(Generator(2, {"p"}, {dia}, modal_inst.domain.points), modal_inst.domain),
        space(Generator(1, {"p", "q", "r"}, {dia}, modal_inst.domain.points), modal_inst.domain),
        space(Generator(1, {"p", "q"}, frozenset(), prop_inst.domain.points), prop_inst.domain),
        space(Generator(2, {"x"}, {fsig}, bao_x.domain.points), bao_x.domain),
        space(Generator(1, {atom}, quants, {"v"}), gf_r.domain),
    ]
    for sp in spaces:
        literals = sp.literals()
        nx = len(sp.xtilde)
        assert len(literals) == nx + len(sp.bar)
        assert literals[:nx] == tuple(Prop(x) for x in sp.xtilde)
        for i in (0, 1, 6, sp.size // 2 + 5, sp.size - 1):
            color, pos_bar = reference_decode(sp, i)
            signs = [x in color for x in sp.xtilde] + [t in pos_bar for t in range(len(sp.bar))]
            signed = [g if s else Not(g) for g, s in zip(literals, signs)]
            assert sp.formula(i) == And(conj_all(signed[:nx]), conj_all(signed[nx:]))
        # Members whose signs agree on a block share that block's node.
        nbar = len(sp.bar)
        for i in (0, 5, sp.size - 1):
            bar_bits = i & ((1 << nbar) - 1)
            for color in range(1 << nx):
                j = color << nbar | bar_bits
                assert sp.formula(i).right is sp.formula(j).right
            assert sp.formula(i).left is sp.formula(i ^ 1).left
        if nbar >= 2:  # and the halves of a block, when only the other half differs
            half = nbar // 2  # the second half's length, as conj_all splits
            assert sp.formula(0).right.right is sp.formula(1 << half).right.right
            assert sp.formula(0).right.left is sp.formula(1).right.left
