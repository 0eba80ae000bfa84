"""Acceptance suite: one test per criterion, each at a fixed tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failing criterion shows up as the corresponding test failure.
"""
import functools
import json
import random
import time

from addnf import (
    And,
    Generator,
    Not,
    Or,
    count,
    disjunction,
    normalize,
    partition_check,
    space,
    verify,
    verify_many,
)
from addnf.cli import main as cli_main
from addnf.logics import bao_instance, gf_instance, modal_k_instance, propositional_instance
from helpers import (
    exhaustive_prop_formulas,
    minterm_sigma,
    random_gf_case,
    random_modal_formula,
    random_prop_formula,
)

PROP = propositional_instance()
MODAL = modal_k_instance()
GF = gf_instance(("u", "v"), {"R": 2})
GF1 = gf_instance(("u", "v"), {"R": 2})  # separate caches for the X={v} spaces
BAO = bao_instance({"f": 1}, (), ("x",))

PROPS = ("p", "q", "r")


def _passline(num, name, t0, limit):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s)")


@functools.lru_cache(maxsize=None)
def _prop_cases():
    """Criterion 1 case list: exhaustive to height 3, sampled to height 5."""
    cases = []
    for f in exhaustive_prop_formulas(PROPS, 3):
        props = tuple(sorted(p.name for p in _props_of(f)))
        cases.append((f, props))
    rng = random.Random(20240817)
    while len(cases) < 1200 + 10000:
        xs = tuple(sorted(rng.sample(PROPS, rng.randint(1, 3))))
        f = random_prop_formula(rng, xs, 14)
        cases.append((f, xs))
    return cases


def _props_of(f):
    from addnf import Prop, shape

    return [Prop(p) for p in sorted(shape(f)[1])]


def test_criterion_1_propositional_exactness():
    t0 = time.time()
    v = PROP.domain.points
    exhaustive = 0
    for f, props in _prop_cases():
        gen = Generator(0, frozenset(props), frozenset(), v)
        r = normalize(f, gen, PROP.domain)
        assert r.sigma == minterm_sigma(f, sorted(props)), (f, props)
        rep = verify(f, r, PROP.oracle, 0)
        assert rep.ok and rep.exact, (f, props)
        exhaustive += 1
    assert exhaustive >= 11200
    _passline(1, "propositional exactness", t0, 60)


def test_criterion_2_boolean_homomorphism():
    t0 = time.time()
    rng = random.Random(7)
    ds = PROP.domain
    gen = Generator(0, frozenset(PROPS), frozenset(), ds.points)
    full = frozenset(range(8))
    for _ in range(5000):
        f = random_prop_formula(rng, PROPS, 10)
        g = random_prop_formula(rng, PROPS, 10)
        sf, sg = normalize(f, gen, ds).sigma, normalize(g, gen, ds).sigma
        assert normalize(Not(f), gen, ds).sigma == full - sf
        assert normalize(And(f, g), gen, ds).sigma == sf & sg
        assert normalize(Or(f, g), gen, ds).sigma == sf | sg
        assert normalize(Not(And(f, g)), gen, ds).sigma == (full - sf) | (full - sg)

    dia = MODAL.diamonds[0]
    mds = MODAL.domain
    mgen = Generator(2, frozenset(("p",)), frozenset((dia,)), mds.points)
    mfull = frozenset(range(512))
    for _ in range(5000):
        f = random_modal_formula(rng, dia, 2, 9)
        g = random_modal_formula(rng, dia, 2, 9)
        sf, sg = normalize(f, mgen, mds).sigma, normalize(g, mgen, mds).sigma
        assert normalize(Not(f), mgen, mds).sigma == mfull - sf
        assert normalize(And(f, g), mgen, mds).sigma == sf & sg
        assert normalize(Or(f, g), mgen, mds).sigma == sf | sg
    _passline(2, "boolean homomorphism identities", t0, 60)


def test_criterion_3_counting_vs_enumeration():
    t0 = time.time()
    dia = MODAL.diamonds[0]
    v = MODAL.domain.points
    assert count(Generator(1, {"p", "q"}, {dia}, v), MODAL.domain) == 64
    assert count(Generator(2, {"p"}, {dia}, v), MODAL.domain) == 512
    feasible = [
        (PROP, Generator(0, {"p"}, frozenset(), v)),
        (PROP, Generator(0, {"p", "q"}, frozenset(), v)),
        (PROP, Generator(0, {"p", "q", "r"}, frozenset(), v)),
        (PROP, Generator(1, {"p"}, frozenset(), v)),
        (PROP, Generator(2, {"p"}, frozenset(), v)),
        (MODAL, Generator(0, {"p", "q"}, {dia}, v)),
        (MODAL, Generator(1, {"p"}, {dia}, v)),
        (MODAL, Generator(1, {"p", "q"}, {dia}, v)),
        (MODAL, Generator(2, {"p"}, {dia}, v)),
    ]
    atom = GF.atom("R", "v", "v")
    quants = frozenset(GF.quantifier(b, atom) for b in [(), ("v",)])
    feasible.append((GF, Generator(0, frozenset(GF.atoms), frozenset(), {"v"})))
    feasible.append((GF, Generator(1, {atom}, quants, {"v"})))
    fsig = BAO.logic.connectives["f"]
    feasible.append((BAO, Generator(0, {"x"}, {fsig}, BAO.domain.points)))
    feasible.append((BAO, Generator(1, {"x"}, {fsig}, BAO.domain.points)))
    for inst, gen in feasible:
        sp = space(gen, inst.domain)
        n = count(gen, inst.domain)
        assert sp.size == n == len({sp.formula(i) for i in range(sp.size)}), gen.key
    _passline(3, "counting vs enumeration", t0, 10)


def test_criterion_4_partition():
    t0 = time.time()
    v = PROP.domain.points
    for props in (("p",), ("p", "q"), ("p", "q", "r")):
        sp = space(Generator(0, frozenset(props), frozenset(), v), PROP.domain)
        rep = partition_check(sp, PROP.oracle, 0)
        assert rep.ok and rep.exact, props
    sp = space(Generator(1, {"p"}, frozenset(), v), PROP.domain)
    assert partition_check(sp, PROP.oracle, 0).ok  # degenerate bar

    dia = MODAL.diamonds[0]
    for k in (0, 1):
        sp = space(Generator(k, {"p"}, {dia}, MODAL.domain.points), MODAL.domain)
        rep = partition_check(sp, MODAL.oracle, 3)
        assert rep.ok, (k, rep.countermodel)

    # guarded fragment, one binary relation, X' = {v}
    sp = space(Generator(0, frozenset(GF.atoms), frozenset(), {"v"}), GF.domain)
    assert partition_check(sp, GF.oracle, 3).ok
    atom = GF1.atom("R", "v", "v")
    quants = frozenset(GF1.quantifier(b, atom) for b in [(), ("v",)])
    sp = space(Generator(1, {atom}, quants, {"v"}), GF1.domain)
    rep = partition_check(sp, GF1.oracle, 3)
    assert rep.ok, rep.countermodel

    fsig = BAO.logic.connectives["f"]
    for k in (0, 1):
        sp = space(Generator(k, {"x"}, {fsig}, BAO.domain.points), BAO.domain)
        rep = partition_check(sp, BAO.oracle, 3)
        assert rep.ok, (k, rep.countermodel)
    _passline(4, "partition property", t0, 300)


@functools.lru_cache(maxsize=None)
def _modal_roundtrip_cases():
    rng = random.Random(42)
    dia = MODAL.diamonds[0]
    return tuple(random_modal_formula(rng, dia, 2, 12) for _ in range(1000))


@functools.lru_cache(maxsize=None)
def _gf_roundtrip_cases():
    rng = random.Random(7)
    return tuple(random_gf_case(rng, GF, d=1, size=8) for _ in range(200))


def test_criterion_5_rewrite_roundtrip():
    t0 = time.time()
    from addnf import derive_generator

    groups = {}
    for f in _modal_roundtrip_cases():
        gen = derive_generator(f, MODAL.domain)
        r = normalize(f, gen, MODAL.domain)
        groups.setdefault(gen, []).append((f, r.sigma))
    for gen, items in groups.items():
        sp = space(gen, MODAL.domain)
        for rep, (f, _) in zip(verify_many(sp, items, MODAL.oracle, 3), items):
            assert rep.ok, (f, rep.countermodel)  # any countermodel is a hard failure

    for f in _gf_roundtrip_cases():
        gen = derive_generator(f, GF.domain)
        r = normalize(f, gen, GF.domain)
        rep = verify(f, r, GF.oracle, 3)
        assert rep.ok, (f, rep.countermodel)
    _passline(5, "rewrite round-trip", t0, 30)


def test_criterion_6_idempotence():
    t0 = time.time()
    v = PROP.domain.points
    for f, props in _prop_cases():
        gen = Generator(0, frozenset(props), frozenset(), v)
        r = normalize(f, gen, PROP.domain)
        assert normalize(disjunction(r), gen, PROP.domain).sigma == r.sigma

    from addnf import derive_generator

    for f in _modal_roundtrip_cases():
        gen = derive_generator(f, MODAL.domain)
        r = normalize(f, gen, MODAL.domain)
        assert normalize(disjunction(r), gen, MODAL.domain).sigma == r.sigma
    for f in _gf_roundtrip_cases():
        gen = derive_generator(f, GF.domain)
        r = normalize(f, gen, GF.domain)
        assert normalize(disjunction(r), gen, GF.domain).sigma == r.sigma
    _passline(6, "idempotence", t0, 30)


def test_criterion_7_instance_agreement():
    t0 = time.time()
    from test_logics import (
        _full_fo_family,
        _full_fo_setup,
        _gf_family,
        _signed_conj,
    )
    from addnf import Prop

    # minterm family
    for props in (("p",), ("p", "q"), ("p", "q", "r")):
        atoms = [Prop(p) for p in props]
        family = [_signed_conj(atoms, c) for c in range(1 << len(props))]
        sp = space(Generator(0, frozenset(props), frozenset(), PROP.domain.points),
                   PROP.domain)
        assert [sp.formula(i) for i in range(sp.size)] == family

    # full first-order family
    for variables, relations, k in (
        (("u",), {"R": 2}, 0),
        (("u",), {"R": 2}, 1),
        (("u", "v"), {"R": 1}, 1),
    ):
        atoms, conns, ds = _full_fo_setup(variables, relations)
        gen = Generator(k, frozenset(atoms), frozenset(conns.values()), ds.points)
        sp = space(gen, ds)
        family = _full_fo_family(k, atoms, conns)
        assert [sp.formula(i) for i in range(sp.size)] == family

    # guarded family
    for X, Xp, k in ((("u", "v"), ("v",), 0), (("v",), ("v",), 1)):
        atoms_over_x = frozenset(a for a in GF.atoms if set(GF.atoms[a][1]) <= set(X))
        quants = frozenset(
            sig for sig in GF.logic.connectives.values()
            if frozenset(GF.atoms[sig.payload.guard][1]) <= set(X)
        )
        sp = space(Generator(k, atoms_over_x, quants, frozenset(Xp)), GF.domain)
        family = _gf_family(GF, k, X, Xp)
        assert [sp.formula(i) for i in range(sp.size)] == family
    _passline(7, "instance agreement", t0, 30)


def test_criterion_8_cli_determinism(capsys):
    t0 = time.time()
    argvs = [
        ["normalize", "--logic", "prop", "(or p q)"],
        ["normalize", "--logic", "modal-k", "--k", "1", "(dia p)"],
        ["normalize", "--logic", "prop", "--render", "(and p (not p))"],
        ["count", "--logic", "modal-k", "--X", "p", "--k", "2"],
        ["count", "--logic", "modal-k", "--X", "p,q", "--k", "2"],
        ["enumerate", "--logic", "prop", "--X", "p,q", "--k", "0", "--render"],
        ["enumerate", "--logic", "modal-k", "--X", "p", "--k", "1", "--render"],
        ["partition-check", "--logic", "modal-k", "--X", "p", "--k", "1", "--bound", "3"],
        ["parse", "--logic", "gf", "(ex (u) (R u v) (R u v))"],
        ["verify", "--logic", "prop", "(iff p (not (not p)))"],
        ["normalize", "--logic", "bao", "--render", "(f (plus x (minus x)))"],
    ]
    for argv in argvs:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv
        assert out1.encode() == out2.encode(), argv
        json.loads(out1)
    _passline(8, "CLI determinism", t0, 60)
