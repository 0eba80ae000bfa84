"""Guarded fragment: quantifiers are partial connectives.

The guard atom draws the border: only formulas whose free variables fit
under the guard may be quantified.  The point set is the variable set and
a formula's footprint is its free-variable set, so domain checks become
set inclusions.
"""
from addnf import (
    DomainViolation,
    Generator,
    count,
    derive_generator,
    normalize,
    parse_formula,
    partition_check,
    render_formula,
    space,
    verify,
)
from addnf.logics import gf_instance, gf_validate

inst = gf_instance(("u", "v"), {"R": 2, "S": 1})
ds = inst.domain

# free(S v) = {v} fits under free(R u v) = {u, v}: accepted.
ok = parse_formula("(ex (u) (R u v) (S v))", inst.logic)
print("accepted:", render_formula(ok))
print("free variables (iota):", sorted(ds.iota(ok)))

# free(S v) = {v} does not fit under free(R u u) = {u}: rejected.
try:
    parse_formula("(ex (u) (R u u) (S v))", inst.logic)
except DomainViolation:
    body, guard = parse_formula("(S v)", inst.logic), parse_formula("(R u u)", inst.logic)
    print(f"rejected: the body's free variables {sorted(ds.iota(body))} are not covered "
          f"by the guard (R u u) over {sorted(ds.iota(guard))}")

# The footprint of a quantified formula comes from the borders alone:
# guard variables minus the bound tuple.
g = parse_formula("(ex (u) (R u v) (S u))", inst.logic)
print("\niota of", render_formula(g), "=", sorted(ds.iota(g)))

# A small guarded space: forms of degree 1 over the atom R(v,v) with the
# two quantifier shapes it supports, free variables kept inside {v}.
small = gf_instance(("u", "v"), {"R": 2})
atom = small.atom("R", "v", "v")
quants = frozenset(small.quantifier(b, atom) for b in [(), ("v",)])
gen = Generator(1, {atom}, quants, {"v"})
print("\nguarded degree-1 space size:", count(gen, small.domain))
sp = space(gen, small.domain)
print("first member:", render_formula(sp.formula(0), small.logic))
print("every member passes the grammar validator:",
      all(gf_validate(sp.formula(i), small) for i in range(sp.size)))

# The members partition every structure with up to 3 elements.
print("partition over structures (n <= 3):",
      partition_check(sp, small.oracle, 3).ok)

# Round trip: normalize a guarded formula at its own minimal generator and
# search for a countermodel among all small structures.
f = parse_formula("(ex (u) (R u v) (R u v))", small.logic)
gen_f = derive_generator(f, small.domain)
print("\nminimal generator:", gen_f.describe())
r = normalize(f, gen_f, small.domain)
print("selected members:", sorted(r.sigma), "of", r.space.size)
print("no countermodel up to 3 elements:", verify(f, r, small.oracle, 3).ok)
