"""Shared test utilities: independent evaluators and formula generators.

The evaluators here are deliberately separate from the package's oracle
code paths: expected values in the tests are computed by these brute-force
routines, never by the code under test.
"""
from __future__ import annotations

import itertools

from hypothesis import strategies as st

from addnf import And, App, Not, Or, Prop
from addnf.logics import GFOracle, RelationalOracle


def formula_strategy(props):
    atoms = st.sampled_from([Prop(p) for p in props])
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
        ),
        max_leaves=12,
    )


# -- independent propositional semantics --------------------------------------


def eval_bool(f, true_props) -> bool:
    if isinstance(f, Prop):
        return f.name in true_props
    if isinstance(f, Not):
        return not eval_bool(f.child, true_props)
    if isinstance(f, And):
        return eval_bool(f.left, true_props) and eval_bool(f.right, true_props)
    if isinstance(f, Or):
        return eval_bool(f.left, true_props) or eval_bool(f.right, true_props)
    raise TypeError(f"not a propositional formula: {f!r}")


def assignment_code(props, true_props) -> int:
    """Member index of the minterm for an assignment, first prop most
    significant, a cleared bit meaning the proposition is positive."""
    props = tuple(props)
    n = len(props)
    return sum(1 << (n - 1 - j) for j, p in enumerate(props) if p not in true_props)


def minterm_sigma(f, props) -> frozenset[int]:
    """Truth-table member set of ``f`` over ``props``."""
    props = tuple(props)
    out = set()
    for choice in itertools.product((True, False), repeat=len(props)):
        true = frozenset(p for p, c in zip(props, choice) if c)
        if eval_bool(f, true):
            out.add(assignment_code(props, true))
    return frozenset(out)


# -- reference member decode ---------------------------------------------------


def reference_decode(sp, i):
    """Member i of ``sp`` as (color, positive bar positions), decoded the
    way the engine once stored each member: divmod the index into a color
    code over X-tilde and a bar code, a cleared bit meaning positive."""
    nx, nbar = len(sp.xtilde), len(sp.bar)
    acode, bcode = divmod(i, 1 << nbar) if nbar else (i, 0)
    color = frozenset(sp.xtilde[j] for j in range(nx) if not (acode >> (nx - 1 - j)) & 1)
    pos_bar = frozenset(t for t in range(nbar) if not (bcode >> (nbar - 1 - t)) & 1)
    return color, pos_bar


def reference_describe(sp, i) -> dict:
    """The ``enumerate`` document of member i, built from ``reference_decode``."""
    color, pos_bar = reference_decode(sp, i)
    doc = {"index": i, "color": sorted(color)}
    if sp.k > 0:
        if sp.degenerate:
            doc["base"] = sorted(sp.bar[t].children[0] for t in pos_bar)
        else:
            sub = {}
            for t in sorted(pos_bar):
                item = sp.bar[t]
                sub.setdefault(item.conn.key, []).append(list(item.children))
            doc["sub"] = sub
    return doc


# -- formula generators --------------------------------------------------------


def random_prop_formula(rng, props, size):
    if size <= 1 or rng.random() < 0.25:
        return Prop(rng.choice(props))
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return Not(random_prop_formula(rng, props, size - 1))
    cut = rng.randint(1, size - 1)
    left = random_prop_formula(rng, props, cut)
    right = random_prop_formula(rng, props, size - 1 - cut)
    return And(left, right) if op == "and" else Or(left, right)


def exhaustive_prop_formulas(props, height):
    """Every formula over ``props`` of AST height up to ``height``."""
    layer = {Prop(p) for p in props}
    seen = set(layer)
    for _ in range(height - 1):
        grown = set(seen)
        grown.update(Not(f) for f in seen)
        grown.update(And(a, b) for a in seen for b in seen)
        grown.update(Or(a, b) for a in seen for b in seen)
        seen = grown
    return sorted(seen, key=lambda f: (ast_height(f), repr(f)))


def ast_height(f) -> int:
    if isinstance(f, Prop):
        return 1
    if isinstance(f, Not):
        return 1 + ast_height(f.child)
    if isinstance(f, (And, Or)):
        return 1 + max(ast_height(f.left), ast_height(f.right))
    if isinstance(f, App):
        return 1 + max(ast_height(a) for a in f.args)
    raise TypeError(f)


def random_modal_formula(rng, dia, d, size, props=("p",)):
    if size <= 1 or rng.random() < 0.2:
        return Prop(rng.choice(props))
    ops = ["not", "and", "or"] + (["dia", "dia"] if d > 0 else [])
    op = rng.choice(ops)
    if op == "dia":
        return App(dia, (random_modal_formula(rng, dia, d - 1, size - 1, props),))
    if op == "not":
        return Not(random_modal_formula(rng, dia, d, size - 1, props))
    cut = rng.randint(1, size - 1)
    left = random_modal_formula(rng, dia, d, cut, props)
    right = random_modal_formula(rng, dia, d, size - 1 - cut, props)
    return And(left, right) if op == "and" else Or(left, right)


def random_gf_formula(rng, inst, d, size, allowed, pool, quants):
    """Random guarded formula over a small atom pool and quantifier menu."""
    local = [a for a in pool if set(inst.atoms[a][1]) <= allowed]
    if (d == 0 or size <= 1 or rng.random() < 0.3) and local:
        return Prop(rng.choice(local))
    ops = ["not", "and", "or"] if local else []
    if d > 0 and quants:
        ops += ["ex", "ex"]
    op = rng.choice(ops)
    if op == "ex":
        bound, guard = rng.choice(quants)
        gvars = frozenset(inst.atoms[guard][1])
        body = random_gf_formula(rng, inst, d - 1, size - 2, gvars, pool, quants)
        return App(inst.quantifier(bound, guard), (body,))
    if op == "not":
        return Not(random_gf_formula(rng, inst, d, size - 1, allowed, pool, quants))
    cut = max(1, (size - 1) // 2)
    left = random_gf_formula(rng, inst, d, cut, allowed, pool, quants)
    right = random_gf_formula(rng, inst, d, size - 1 - cut, allowed, pool, quants)
    return And(left, right) if op == "and" else Or(left, right)


def random_gf_case(rng, inst, d=1, size=8):
    """A random GF formula whose vocabulary keeps the generated spaces small:
    one or two atoms plus a single quantifier shape guarded from the pool."""
    all_atoms = sorted(inst.atoms)
    pool = rng.sample(all_atoms, rng.randint(1, 2))
    guard = rng.choice(pool)
    gvars = sorted(set(inst.atoms[guard][1]))
    bound = tuple(sorted(rng.sample(gvars, rng.randint(0, len(gvars)))))
    quants = [(bound, guard)]
    return random_gf_formula(rng, inst, d, size, frozenset(inst.variables), pool, quants)


# -- independent model semantics ----------------------------------------------
#
# The bounded oracles' models, enumerated in the documented order (relation
# codes by ``itertools.product``, then valuations) as ``describe()``
# documents, and evaluated from those documents alone: a frame (a Kripke
# model or a complex algebra) tuple by tuple, a first-order
# structure one assignment at a time.


def _tuples(size, arity, code):
    return [list(t) for j, t in enumerate(itertools.product(range(size), repeat=arity))
            if code >> j & 1]


def _elements(mask):
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def one_point_only(oracle, gen) -> bool:
    """This module's own rule for an exact check: with no connective in the
    generator, a formula reads only the valuation at its own point, so a
    frame oracle searches the one-point frames alone, which carry every
    valuation."""
    return isinstance(oracle, RelationalOracle) and not gen.Y


def reference_models(oracle, gen, bound):
    """The models a check of ``oracle`` searches at ``bound``, as
    ``describe()`` documents."""
    sizes = range(1, 2) if one_point_only(oracle, gen) else range(1, bound + 1)
    if isinstance(oracle, GFOracle):
        rels = sorted(oracle.relations.items())
        for size in sizes:
            ranges = [range(1 << size ** arity) for _, arity in rels]
            for codes in itertools.product(*ranges):
                yield {"kind": "structure", "universe": size, "relations": {
                    name: _tuples(size, arity, code) for (name, arity), code in zip(rels, codes)
                }}
        return
    if not isinstance(oracle, RelationalOracle):
        raise TypeError(f"no reference models for {oracle!r}")
    props = sorted(gen.X)
    conns = gen.sorted_conns
    for size in sizes:
        ranges = [range(1 << size ** (c.rank + 1)) for c in conns]
        for codes in itertools.product(*ranges):
            relations = {c.key: _tuples(size, c.rank + 1, code) for c, code in zip(conns, codes)}
            for vals in itertools.product(range(1 << size), repeat=len(props)):
                yield {"kind": "frame", "size": size, "relations": relations,
                       "valuation": {p: _elements(v) for p, v in zip(props, vals)}}


def eval_complex(f, size, relations, values, memo) -> int:
    """The mask of the elements where ``f`` holds; an operator holds at w
    when some tuple (w, u1, ..., uh) of its relation has each u_i in
    argument i."""
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Prop):
        out = sum(1 << w for w in values[f.name])
    elif isinstance(f, Not):
        out = ((1 << size) - 1) ^ eval_complex(f.child, size, relations, values, memo)
    elif isinstance(f, (And, Or)):
        left = eval_complex(f.left, size, relations, values, memo)
        right = eval_complex(f.right, size, relations, values, memo)
        out = left & right if isinstance(f, And) else left | right
    elif isinstance(f, App):
        args = [eval_complex(a, size, relations, values, memo) for a in f.args]
        out = 0
        for head, *rest in relations[f.conn.key]:
            if all(arg >> u & 1 for u, arg in zip(rest, args)):
                out |= 1 << head
    else:
        raise TypeError(f)
    memo[id(f)] = (f, out)
    return out


def holds_fo(f, size, relations, atoms, env) -> bool:
    """First-order truth of a GF formula at one assignment ``env``."""
    if isinstance(f, Prop):
        rel, vars_ = atoms[f.name]
        t = tuple(env[v] for v in vars_)
        return t[0] == t[1] if rel == "=" else t in relations[rel]
    if isinstance(f, Not):
        return not holds_fo(f.child, size, relations, atoms, env)
    if isinstance(f, And):
        return (holds_fo(f.left, size, relations, atoms, env)
                and holds_fo(f.right, size, relations, atoms, env))
    if isinstance(f, Or):
        return (holds_fo(f.left, size, relations, atoms, env)
                or holds_fo(f.right, size, relations, atoms, env))
    if isinstance(f, App):
        bound, guard = f.conn.payload.bound, Prop(f.conn.payload.guard)
        for values in itertools.product(range(size), repeat=len(bound)):
            inner = dict(env)
            inner.update(zip(bound, values))
            if (holds_fo(guard, size, relations, atoms, inner)
                    and holds_fo(f.args[0], size, relations, atoms, inner)):
                return True
        return False
    raise TypeError(f)


def free_vars(f, atoms) -> frozenset[str]:
    """The free variables of a GF formula, read from its syntax alone."""
    if isinstance(f, Prop):
        return frozenset(atoms[f.name][1])
    if isinstance(f, Not):
        return free_vars(f.child, atoms)
    if isinstance(f, (And, Or)):
        return free_vars(f.left, atoms) | free_vars(f.right, atoms)
    if isinstance(f, App):
        payload = f.conn.payload
        inner = frozenset(atoms[payload.guard][1]) | free_vars(f.args[0], atoms)
        return inner - frozenset(payload.bound)
    raise TypeError(f)


class ReferenceModel:
    """One model read back from its ``describe()`` document.

    ``eval(f)`` is the mask of the points where ``f`` holds: elements, or
    for a structure the assignments to ``assigned``, the first variable the
    lowest base-size digit.
    """

    def __init__(self, doc, atoms=None, assigned=()):
        self.doc = doc
        self.structure = doc["kind"] == "structure"
        if self.structure:
            self.size = doc["universe"]
            self.relations = {r: {tuple(t) for t in ts} for r, ts in doc["relations"].items()}
            self.atoms = atoms
            self.assigned = tuple(assigned)
            self.points = self.size ** len(self.assigned)
        else:
            self.size = self.points = doc["size"]
            self.relations = doc["relations"]
            self.values = doc["valuation"]
        self.full = (1 << self.points) - 1
        self._memo = {}

    def describe(self):
        return self.doc

    def env(self, point):
        out = {}
        for v in self.assigned:
            point, out[v] = divmod(point, self.size)
        return out

    def eval(self, f) -> int:
        if not self.structure:
            return eval_complex(f, self.size, self.relations, self.values, self._memo)
        return sum(1 << p for p in range(self.points)
                   if holds_fo(f, self.size, self.relations, self.atoms, self.env(p)))

    def point_desc(self, point):
        if self.structure:
            return {"assignment": self.env(point)}
        return {"point": point}


def reference_contexts(oracle, gen, bound, assigned=None):
    """``ReferenceModel``s of the models up to ``bound``, in contexts order;
    a structure's points are the assignments to ``assigned`` (default: the
    sorted E)."""
    atoms = oracle.atoms if isinstance(oracle, GFOracle) else None
    if assigned is None:
        assigned = sorted(gen.E)
    for doc in reference_models(oracle, gen, bound):
        yield ReferenceModel(doc, atoms, assigned)


# -- per-model reference loops -------------------------------------------------
#
# The oracle checks run over blocks of packed models; these loops take one
# reference model at a time and return what each report's ``to_json()``
# must be.


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _report(oracle, gen, bound, checked, countermodel=None) -> dict:
    """A report document; an exact one has no bound."""
    exact = one_point_only(oracle, gen)
    return {"ok": countermodel is None, "exact": exact, "contexts": checked,
            "bound": None if exact else bound, "countermodel": countermodel}


def member_loop_differs(f, sp, sigma):
    """The engine's verify check as it was written member by member: the
    disjunction's mask on a block is the union of the rendered members'
    masks.  A reference for the index-bit evaluation, run on the engine's
    own blocks."""
    members = [sp.formula(i) for i in sorted(sigma)]

    def fails(block) -> int:
        dm = 0
        for g in members:
            dm |= block.eval(g)
            if dm == block.full:
                break
        return block.eval(f) ^ dm

    def explain(block, i, point) -> dict:
        holds = bool(block.eval(f) >> (i * block.points + point) & 1)
        return {**block.at(i, point), "formula_holds": holds, "disjunction_holds": not holds}

    return fails, explain


def per_model_verify_many(sp, items, oracle, bound):
    items = [(f, frozenset(sigma)) for f, sigma in items]
    docs = {}
    checked = 0
    for ctx in reference_contexts(oracle, sp.gen, bound):
        checked += 1
        masks = [ctx.eval(sp.formula(i)) for i in range(sp.size)]
        for j, (f, sigma) in enumerate(items):
            if j in docs:
                continue
            fm, dm = ctx.eval(f), 0
            for i in sigma:
                dm |= masks[i]
            if fm != dm:
                point = _lowest_bit(fm ^ dm)
                docs[j] = _report(oracle, sp.gen, bound, checked, {
                    "context": ctx.describe(),
                    "point": ctx.point_desc(point),
                    "formula_holds": bool(fm >> point & 1),
                    "disjunction_holds": bool(dm >> point & 1),
                })
        if len(docs) == len(items):
            break
    ok = _report(oracle, sp.gen, bound, checked)
    return [docs.get(j, ok) for j in range(len(items))]


def per_model_partition_check(sp, oracle, bound):
    checked = 0
    for ctx in reference_contexts(oracle, sp.gen, bound):
        checked += 1
        masks = [ctx.eval(sp.formula(i)) for i in range(sp.size)]
        for point in range(ctx.points):
            trues = [i for i, m in enumerate(masks) if m >> point & 1]
            if len(trues) != 1:
                return _report(oracle, sp.gen, bound, checked, {
                    "context": ctx.describe(),
                    "point": ctx.point_desc(point),
                    "members_true": trues,
                })
    return _report(oracle, sp.gen, bound, checked)


def per_model_check_valid(oracle, f, bound, gen):
    checked = 0
    for ctx in reference_contexts(oracle, gen, bound):
        checked += 1
        m = ctx.eval(f)
        if m != ctx.full:
            return _report(oracle, gen, bound, checked, {
                "context": ctx.describe(),
                "point": ctx.point_desc(_lowest_bit(ctx.full ^ m)),
            })
    return _report(oracle, gen, bound, checked)


def per_model_check_equal(oracle, lhs, rhs, bound, gen):
    checked = 0
    for ctx in reference_contexts(oracle, gen, bound):
        checked += 1
        a, b = ctx.eval(lhs), ctx.eval(rhs)
        if a != b:
            return _report(oracle, gen, bound, checked, {
                "context": ctx.describe(),
                "lhs_value": _elements(a),
                "rhs_value": _elements(b),
            })
    return _report(oracle, gen, bound, checked)
