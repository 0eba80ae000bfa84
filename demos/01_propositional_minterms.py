"""Propositional logic: degree-0 normal forms are the classic minterms.

Walks through parsing, enumerating the minterm space over {p, q},
rewriting a formula into its minterm set, and checking the result on the
one-point frames, one per assignment, which decide it exactly.
"""
from addnf import Generator, disjunction, normalize, parse_formula, render_formula, space, verify
from addnf.logics import propositional_instance

inst = propositional_instance()
ds = inst.domain

# The four minterms over {p, q}, in canonical order (all-positive first).
gen = Generator(0, {"p", "q"}, frozenset(), ds.points)
sp = space(gen, ds)
print("the degree-0 space over {p, q}:")
for i in range(sp.size):
    print(f"  #{i}  {render_formula(sp.formula(i))}")

# Rewriting keeps exactly the minterms that satisfy the formula.
f = parse_formula("(or p q)", inst.logic)
r = normalize(f, gen, ds)
print(f"\n(or p q) selects members {sorted(r.sigma)} of {sp.size}")
print("as one formula:", render_formula(disjunction(r)))

# A contradiction selects nothing and renders as the designated q-and-not-q.
c = parse_formula("(and p (not p))", inst.logic)
rc = normalize(c, Generator(0, {"p"}, frozenset(), ds.points), ds)
print(f"\n(and p (not p)) selects {sorted(rc.sigma)};",
      "rendered:", render_formula(disjunction(rc)))

# The oracle confirms the equivalence exactly, on one one-point frame per
# assignment.
report = verify(f, r, inst.oracle, 0)
print(f"\nverification over {report.contexts} one-point frames: "
      f"ok={report.ok} exact={report.exact}")

# Negation complements the member set; no oracle needed for that identity.
neg = normalize(parse_formula("(not (or p q))", inst.logic), gen, ds)
print("complement check:", sorted(neg.sigma), "=",
      sorted(set(range(sp.size)) - r.sigma))
