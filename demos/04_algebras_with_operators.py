"""Boolean algebras with operators, driven through the same engine.

Terms map to formulas (plus/times/minus as join/meet/complement, extra
operators as full connectives), so the rewriter works verbatim and the
results read back in term spelling.  Equations are checked in complex
algebras of small frames: sound refutation, bounded affirmation.
"""
from addnf import Generator, disjunction, normalize, parse_formula, render_formula, space
from addnf.logics import bao_instance

inst = bao_instance({"f": 1}, (), ("x",))
t = lambda s: parse_formula(s, inst.logic)

# The defining laws of the class hold in every complex algebra.
print("f(x + y) = f(x) + f(y):",
      inst.oracle.check_equal(t("(f (plus x x))"), t("(plus (f x) (f x))"), 3).ok)
print("f(0) = 0:", inst.oracle.check_equal(t("(f 0)"), t("0"), 3).ok)
print("x + -x = 1:", inst.oracle.check_equal(t("(plus x (minus x))"), t("1"), 3).ok)

# Meet-distribution is NOT a law; the search produces a counterexample.
bad = inst.oracle.check_equal(t("(f (times x (minus x)))"), t("(times (f x) (f (minus x)))"), 3)
print("f(x & y) = f(x) & f(y):", bad.ok,
      "->", bad.countermodel["context"]["relations"])

# The algebraic normal forms of degree 0 and 1 over the single variable x.
fsig = inst.logic.connectives["f"]
sp0 = space(Generator(0, {"x"}, {fsig}, inst.domain.points), inst.domain)
print("\ndegree 0:", [render_formula(sp0.formula(i), inst.logic) for i in range(sp0.size)])
sp1 = space(Generator(1, {"x"}, {fsig}, inst.domain.points), inst.domain)
print("degree 1 has", sp1.size, "forms; the first:")
print(" ", render_formula(sp1.formula(0), inst.logic))

# Their sum is the unit: the partition property in algebraic clothing.
total = disjunction(normalize(t("1"), Generator(1, {"x"}, {fsig}, inst.domain.points),
                              inst.domain))
print("\nsum of all degree-1 forms equals 1:",
      inst.oracle.check_equal(total, t("1"), 3).ok)

# Rewriting a term: f applied to the unit keeps the forms affirming some f.
r = normalize(t("(f (plus x (minus x)))"),
              Generator(1, {"x"}, {fsig}, inst.domain.points), inst.domain)
print("f(1) selects members", sorted(r.sigma), "of", r.space.size)
print("as a term:", render_formula(disjunction(r), inst.logic))
