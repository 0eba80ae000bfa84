"""Modal K: degree-k forms record which diamond applications are affirmed.

Shows the counting recurrence, the structure of a degree-1 constituent
(color plus signed diamond set), rewriting a modal formula, and bounded
Kripke-model verification.
"""
from addnf import Generator, count, disjunction, normalize, parse_formula, render_formula, space, verify
from addnf.logics import modal_k_instance

inst = modal_k_instance()          # one unary diamond spelled "dia"
dia = inst.diamonds[0]
ds = inst.domain
v = ds.points

# Counting without materializing: the degree-(k+1) space doubles once per
# bar member, so sizes explode quickly.
for k in (0, 1, 2):
    n = count(Generator(k, {"p"}, {dia}, v), ds)
    print(f"|degree-{k} space over p| = {n}")
print("over {p,q} at degree 2:", count(Generator(2, {"p", "q"}, {dia}, v), ds),
      "(far beyond the materialization cap; count stays exact)")

# The eight degree-1 constituents over one proposition.
gen = Generator(1, {"p"}, {dia}, v)
sp = space(gen, ds)
print("\ndegree-1 constituents:")
for i in range(sp.size):
    m = sp.describe_member(i)
    print(f"  #{i} color={m['color']} sub={m['sub']}  {render_formula(sp.formula(i))}")

# (dia p) keeps the members whose positive diamond set meets {p}.
f = parse_formula("(dia p)", inst.logic)
r = normalize(f, gen, ds)
print(f"\n(dia p) selects {sorted(r.sigma)}")
report = verify(f, r, inst.oracle, 3)
print(f"no Kripke countermodel up to 3 worlds: ok={report.ok} "
      f"(searched {report.contexts} models)")

# The diamond distributes over disjunction; that is what makes the
# rewriting sound, and the bounded oracle can observe it directly.
law = parse_formula("(iff (dia (or p q)) (or (dia p) (dia q)))", inst.logic)
print("\ndistribution over disjunction:", inst.oracle.check_valid(law, 3).ok)

# Normalizing the rendered disjunction gives back exactly the same members.
again = normalize(disjunction(r), gen, ds)
print("idempotent:", again.sigma == r.sigma)
