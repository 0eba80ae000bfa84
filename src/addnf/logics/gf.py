"""The guarded-fragment instance.

Atoms over the instance's variables and relation symbols play the
proposition role (their ids are their canonical renderings, e.g.
``(R u v)``); the non-propositional connectives are guarded quantifiers
``(ex (vars) guard -)``.  The point set is the variable set, a formula's
footprint is its free-variable set, and a quantifier's borders are its
bound variables (j1) and its guard's variables (j2), so the domain
predicate is exactly "the body's free variables fit under the guard".

The oracle searches relational structures with universes up to the bound
under standard first-order semantics.  Structures of one size are
numbered in the order ``GFOracle.contexts`` enumerates them: read in
binary, the ordinal holds one relation code per relation of the
instance, the last sorted relation lowest (bit j of a code: tuple j of
``product(range(size), repeat=arity)``).  A point is an assignment to
every variable of V, one base-size digit per variable: the assignment
variables E first, then the others, each group sorted, the first
variable lowest.  Blocks of structures are evaluated together: an atom
spreads its tuple bits over the points, and ``(ex (vars) guard body)``
is ``guard & body`` cylindrified over each bound variable.  A formula
whose free variables lie in E is constant along the higher digits, so
the lowest failing bit of a model is its first failing assignment to E.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..domain_system import DomainSystem, Generator
from ..errors import EngineError
from ..syntax import And, App, ConnectiveSig, Formula, GuardPayload, LogicDef, Not, Or, Prop
from .base import DEFAULT_BUDGET, Instance, Oracle, PackedBlock, Where, stacked

EQ = "="

# gf_instance refuses a language with more atoms than this: it enumerates
# every atom, and every guarded quantifier over it, up front.
MAX_ATOMS = 4096


def _atom_id(rel: str, args) -> str:
    return f"({rel} {' '.join(args)})"


@dataclass
class GFInstance(Instance):
    variables: tuple[str, ...]
    relations: dict[str, int]
    atoms: dict[str, tuple[str, tuple[str, ...]]]

    def atom(self, rel: str, *args: str) -> str:
        aid = _atom_id(rel, args)
        if aid not in self.atoms:
            raise EngineError(f"no such atom {aid!r} in this instance")
        return aid

    def quantifier(self, bound, guard_id: str) -> ConnectiveSig:
        key = ConnectiveSig("ex", 1, payload=GuardPayload(tuple(sorted(bound)), guard_id)).key
        sig = self.logic.connectives.get(key)
        if sig is None:
            raise EngineError(f"no such quantifier {key!r} in this instance")
        return sig


def gf_validate(f: Formula, inst: GFInstance) -> bool:
    """Independent grammar check: atoms, boolean closure, guarded quantifiers
    whose guard covers the bound tuple and the body's free variables (its
    iota)."""
    if isinstance(f, Prop):
        return f.name in inst.atoms
    if isinstance(f, Not):
        return gf_validate(f.child, inst)
    if isinstance(f, (And, Or)):
        return gf_validate(f.left, inst) and gf_validate(f.right, inst)
    if isinstance(f, App):
        payload = f.conn.payload
        if f.conn.name != "ex" or payload is None or payload.guard not in inst.atoms:
            return False
        guard_vars = frozenset(inst.atoms[payload.guard][1])
        if not frozenset(payload.bound) <= guard_vars:
            return False
        return gf_validate(f.args[0], inst) and inst.domain.iota(f.args[0]) <= guard_vars
    return False


def gf_instance(variables=("u", "v"), relations=None, equality: bool = False) -> GFInstance:
    """Build a GF instance over a finite language.

    All atoms over (variables, relations) and all guarded quantifiers over
    those atoms are enumerated up front, so a language of more than
    ``MAX_ATOMS`` atoms is refused first.
    """
    variables = tuple(sorted(set(variables)))
    if len(variables) < 2:
        raise EngineError("a GF instance needs at least two variables")
    relations = dict(relations) if relations is not None else {"R": 2}
    for name, arity in relations.items():
        if name == EQ:
            raise EngineError("spell equality via the equality flag, not a relation")
        if arity < 1:
            raise EngineError(f"relation {name!r} must have arity >= 1")
    # |V| >= 2, so an arity capped at MAX_ATOMS.bit_length() still gives a
    # term above MAX_ATOMS whenever the uncapped one is, and stays small.
    n = len(variables)
    n_atoms = sum(n ** min(arity, MAX_ATOMS.bit_length()) for arity in relations.values())
    if equality:
        n_atoms += n * n
    if n_atoms > MAX_ATOMS:
        raise EngineError(
            f"the language would have more than {MAX_ATOMS} atoms "
            f"(|V|**arity per relation, |V| = {n})"
        )

    atoms: dict[str, tuple[str, tuple[str, ...]]] = {}
    for rel in sorted(relations):
        for combo in itertools.product(variables, repeat=relations[rel]):
            atoms[_atom_id(rel, combo)] = (rel, combo)
    if equality:
        for combo in itertools.product(variables, repeat=2):
            atoms[_atom_id(EQ, combo)] = (EQ, combo)

    connectives: dict[str, ConnectiveSig] = {}
    j1: dict[str, frozenset[str]] = {}
    j2: dict[str, frozenset[str]] = {}
    for aid, (_, combo) in sorted(atoms.items()):
        free = tuple(sorted(set(combo)))
        for r in range(len(free) + 1):
            for bound in itertools.combinations(free, r):
                sig = ConnectiveSig("ex", 1, payload=GuardPayload(bound, aid))
                connectives[sig.key] = sig
                j1[sig.key] = frozenset(bound)
                j2[sig.key] = frozenset(free)

    ds = DomainSystem(
        points=frozenset(variables),
        iota_atomic={aid: frozenset(combo) for aid, (_, combo) in atoms.items()},
        j1=j1,
        j2=j2,
    )

    logic = LogicDef(
        name="gf",
        domain=ds,
        connectives=connectives,
        propositions=frozenset(atoms),
    )
    return GFInstance(
        logic=logic,
        oracle=GFOracle(variables, relations, atoms, ds),
        variables=variables,
        relations=relations,
        atoms=atoms,
    )


class _FOWhere(Where):
    """The relation codes of the structures of one size, and their points."""

    def __init__(self, size: int, relations: dict[str, tuple[int, int]],
                 order: tuple[str, ...], assigned: tuple[str, ...],
                 atoms: dict[str, tuple[str, tuple[str, ...]]]):
        super().__init__(size, size ** len(order), {}, relations)
        self.assigned = assigned
        self.stride = {v: size ** i for i, v in enumerate(order)}
        self.atoms = atoms
        # zero[v]: the points of one model where v is 0
        self.zero = {
            v: sum(1 << p for p in range(self.points) if p // s % size == 0)
            for v, s in self.stride.items()
        }

    def spread(self, atom_id: str) -> list[tuple[int | None, int]]:
        """As ``Where.spread``, for an atom: its tuple's bit at the points
        that assign the tuple, or (``=``) None where its two digits agree."""
        rel, vars_ = self.atoms[atom_id]
        size = self.size
        strides = [self.stride[v] for v in vars_]
        off = None if rel == EQ else self.relations[rel][0]
        pairs: dict = {}
        for p in range(self.points):
            t = [p // s % size for s in strides]
            if off is None:
                if t[0] != t[1]:
                    continue
                b = None
            else:
                j = 0  # the tuple's place in product order
                for d in t:
                    j = j * size + d
                b = off + j
            pairs[b] = pairs.get(b, 0) | 1 << p
        return list(pairs.items())


class _FOBlock(PackedBlock):
    def app_mask(self, conn, args) -> int:
        """``guard & body`` cylindrified over each bound variable: shifted
        down by every value of the variable's digit and ORed, kept where
        the digit is 0, and shifted back up over every value."""
        where = self.layout.where
        m = self.prop_mask(conn.payload.guard) & self.eval(args[0])
        for v in conn.payload.bound:
            s = where.stride[v]
            acc = m
            for c in range(1, where.size):
                acc |= m >> (c * s)
            acc &= self.layout.every * where.zero[v]
            m = acc
            for c in range(1, where.size):
                m |= acc << (c * s)
        return m

    def describe(self, i: int) -> dict:
        where = self.layout.where
        return {
            "kind": "structure",
            "universe": where.size,
            "relations": where.tuples(self.start + i),
        }

    def point_desc(self, point: int) -> dict:
        where = self.layout.where
        return {"assignment": {v: point // where.stride[v] % where.size for v in where.assigned}}


class GFOracle(Oracle):
    """Exhaustive search over relational structures up to the universe bound."""

    block_type = _FOBlock

    def __init__(self, variables: tuple[str, ...], relations: dict[str, int],
                 atoms: dict[str, tuple[str, tuple[str, ...]]], domain: DomainSystem,
                 budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self.variables = variables
        self.relations = relations
        self.atoms = atoms
        self.domain = domain

    def assignment_vars(self, f: Formula) -> frozenset[str]:
        return self.domain.iota(f)

    def where(self, gen: Generator, size: int) -> _FOWhere:
        rels = sorted(self.relations.items())
        offsets = stacked(0, [size ** arity for _, arity in rels])
        assigned = tuple(sorted(gen.E))
        rest = tuple(v for v in self.variables if v not in gen.E)
        return _FOWhere(
            size,
            {name: (off, arity) for (name, arity), off in zip(rels, offsets)},
            assigned + rest,
            assigned,
            self.atoms,
        )

    def model_bits(self, gen: Generator, size: int) -> int:
        return sum(size ** arity for arity in self.relations.values())
