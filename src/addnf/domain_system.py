"""Domain-representation systems and generator suitability.

A system is a quadruple ``(V, iota, j1, j2)``: a finite point set, an
iota-footprint for every atomic proposition, and two border maps for the
non-propositional connectives.  ``iota`` extends to all formulas
(negation keeps it, binary connectives take unions, an application maps
to ``j2 - j1``), and the domain of a connective is *defined* as the
tuples whose arguments all have iota inside ``j2``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import syntax
from .errors import EngineError, NotLargeEnough
from .syntax import And, App, ConnectiveSig, Formula, Not, Or, Prop


@dataclass(frozen=True, eq=False)
class DomainSystem:
    """Immutable ``(V, iota, j1, j2)`` over explicit finite sets.

    ``iota_default``, when set, is the footprint assigned to propositions
    absent from ``iota_atomic`` (used by full-operator instances whose
    proposition universe is intensionally infinite).
    """

    points: frozenset[str]
    iota_atomic: dict[str, frozenset[str]]
    j1: dict[str, frozenset[str]]
    j2: dict[str, frozenset[str]]
    iota_default: frozenset[str] | None = None
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        object.__setattr__(
            self, "iota_atomic", {p: frozenset(s) for p, s in self.iota_atomic.items()}
        )
        object.__setattr__(self, "j1", {c: frozenset(s) for c, s in self.j1.items()})
        object.__setattr__(self, "j2", {c: frozenset(s) for c, s in self.j2.items()})
        if self.iota_default is not None:
            object.__setattr__(self, "iota_default", frozenset(self.iota_default))
        if not self.points:
            raise EngineError("V must be non-empty")
        for label, table in (("iota", self.iota_atomic), ("j1", self.j1), ("j2", self.j2)):
            for k, s in table.items():
                if not s <= self.points:
                    raise EngineError(f"{label}[{k!r}] is not a subset of V")
        if set(self.j1) != set(self.j2):
            raise EngineError("j1 and j2 must cover the same connectives")
        if self.iota_default is not None and not self.iota_default <= self.points:
            raise EngineError("iota_default is not a subset of V")

    def cache(self, name: str) -> dict:
        return self._caches.setdefault(name, {})

    # -- iota ---------------------------------------------------------------

    def iota_prop(self, p: str) -> frozenset[str]:
        it = self.iota_atomic.get(p)
        if it is None:
            it = self.iota_default
        if it is None:
            raise EngineError(f"proposition {p!r} has no iota entry")
        return it

    def j1_of(self, conn: ConnectiveSig) -> frozenset[str]:
        try:
            return self.j1[conn.key]
        except KeyError:
            raise EngineError(f"connective {conn.key!r} has no j1/j2 entries") from None

    def j2_of(self, conn: ConnectiveSig) -> frozenset[str]:
        try:
            return self.j2[conn.key]
        except KeyError:
            raise EngineError(f"connective {conn.key!r} has no j1/j2 entries") from None

    def iota(self, f: Formula) -> frozenset[str]:
        """Extend iota to arbitrary formulas.

        The union of the footprints of the propositions and applications
        reached through the boolean connectives, visited left to right
        from an explicit stack, each shared node once.
        """
        while isinstance(f, Not):
            f = f.child
        if isinstance(f, Prop):  # most domain checks end here, without sets
            return self.iota_prop(f.name)
        if isinstance(f, App):
            return self.j2_of(f.conn) - self.j1_of(f.conn)
        out: set[str] = set()
        seen: set[int] = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if id(g) in seen:
                continue
            seen.add(id(g))
            if isinstance(g, Prop):
                out |= self.iota_prop(g.name)
            elif isinstance(g, Not):
                stack.append(g.child)
            elif isinstance(g, (And, Or)):
                stack.append(g.right)
                stack.append(g.left)
            elif isinstance(g, App):
                out |= self.j2_of(g.conn) - self.j1_of(g.conn)
            else:
                raise TypeError(f"not a formula: {g!r}")
        return frozenset(out)

    # -- domains ------------------------------------------------------------

    def domain_failures(self, conn: ConnectiveSig, args) -> list[tuple[int, frozenset, frozenset]]:
        """The arguments violating the domain condition, with their footprints."""
        border = self.j2_of(conn)
        out = []
        for i, a in enumerate(args):
            it = self.iota(a)
            if not it <= border:
                out.append((i, it, border))
        return out

    # -- largeness and compatibility -----------------------------------------

    def tilde(self, X, A) -> frozenset[str]:
        """The propositions of X whose iota is contained in A."""
        A = frozenset(A)
        return frozenset(p for p in X if self.iota_prop(p) <= A)

    def large_enough(self, X, A) -> bool:
        return bool(self.tilde(X, A))

    def compatible(self, conn: ConnectiveSig, X, A) -> bool:
        """j2 - j1 fits inside A, and j2 is large enough for X."""
        A = frozenset(A)
        return (self.j2_of(conn) - self.j1_of(conn)) <= A and self.large_enough(
            X, self.j2_of(conn)
        )

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "V": sorted(self.points),
            "iota": {p: sorted(s) for p, s in sorted(self.iota_atomic.items())},
            "j1": {c: sorted(s) for c, s in sorted(self.j1.items())},
            "j2": {c: sorted(s) for c, s in sorted(self.j2.items())},
        }
        if self.iota_default is not None:
            doc["iota_default"] = sorted(self.iota_default)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DomainSystem":
        return cls(
            points=doc["V"],
            iota_atomic=doc.get("iota", {}),
            j1=doc.get("j1", {}),
            j2=doc.get("j2", {}),
            iota_default=doc.get("iota_default"),
        )


@dataclass(frozen=True)
class Generator:
    """Normalization target: degree k, propositions X, connectives Y, area E."""

    k: int
    X: frozenset[str]
    Y: frozenset[ConnectiveSig]
    E: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "X", frozenset(self.X))
        object.__setattr__(self, "Y", frozenset(self.Y))
        object.__setattr__(self, "E", frozenset(self.E))
        if self.k < 0:
            raise EngineError(f"degree must be a natural number, got {self.k}")

    @cached_property
    def key(self) -> tuple:
        return (
            self.k,
            tuple(sorted(self.X)),
            tuple(sorted(c.key for c in self.Y)),
            tuple(sorted(self.E)),
        )

    @cached_property
    def sorted_conns(self) -> tuple[ConnectiveSig, ...]:
        return tuple(sorted(self.Y, key=lambda c: c.key))

    def describe(self) -> dict:
        return {
            "k": self.k,
            "X": sorted(self.X),
            "Y": sorted(c.key for c in self.Y),
            "E": sorted(self.E),
        }


@dataclass(frozen=True)
class SuitabilityReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def suitable(gen: Generator, f: Formula, ds: DomainSystem) -> SuitabilityReport:
    """Check every suitability clause; on failure the report names each one."""
    violations = []
    d, props, conns = syntax.shape(f)
    if gen.k < d:
        violations.append(f"degree: k={gen.k} is below the formula depth {d}")
    missing_p = props - gen.X
    if missing_p:
        violations.append(f"propositions: X is missing {sorted(missing_p)}")
    missing_c = {c.key for c in conns} - {c.key for c in gen.Y}
    if missing_c:
        violations.append(f"connectives: Y is missing {sorted(missing_c)}")
    it = ds.iota(f)
    if not it <= gen.E:
        violations.append(
            f"iota: iota(formula)={sorted(it)} is not a subset of E={sorted(gen.E)}"
        )
    if not ds.large_enough(gen.X, gen.E):
        violations.append("largeness: E is not large enough for X")
    for conn in sorted(conns, key=lambda c: c.key):
        if not ds.large_enough(gen.X, ds.j2_of(conn)):
            violations.append(f"connective-largeness: j2({conn.key}) is not large enough for X")
    return SuitabilityReport(not violations, tuple(violations))


def derive_generator(
    f: Formula,
    ds: DomainSystem,
    k: int | None = None,
    X=None,
    Y=None,
    E=None,
) -> Generator:
    """The minimal suitable generator for ``f``, with optional overrides.

    ``E`` defaults to iota(f) grown by sorted points of V until it is
    large enough for X.
    """
    d, props, conns = syntax.shape(f)
    if k is None:
        k = d
    if X is None:
        X = props
    X = frozenset(X)
    if Y is None:
        Y = conns
    if E is None:
        area = set(ds.iota(f))
        for p in sorted(ds.points):
            if ds.large_enough(X, area):
                break
            area.add(p)
        if not ds.large_enough(X, area):
            raise NotLargeEnough(
                f"no subset of V={sorted(ds.points)} is large enough for X={sorted(X)}"
            )
        E = frozenset(area)
    return Generator(k=k, X=X, Y=frozenset(Y), E=frozenset(E))
