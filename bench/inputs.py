"""Seeded input generators for the benchmark.

Everything the engine sees from here is plain text or argv, never objects
built by the benchmark.  The formula shape follows the acceptance
criteria 5 and 6: modal K with one diamond over X={p}, size 12, depth <= 2.

``sigma_size`` is the benchmark's own reference for the rewriter: the
number of constituents a formula's disjunction must have, counted on a
model of the constituent space that does not use the engine.
"""
from __future__ import annotations

import random
from collections import Counter

MODAL_SIZE = 12
MODAL_DEPTH = 2


def modal_formula(rng: random.Random):
    """A random criterion-5/6 formula, as (text, depth, sigma size)."""
    tree = _modal_tree(rng, MODAL_DEPTH, MODAL_SIZE)
    return _render(tree), _depth(tree), sigma_size(tree)


def _modal_tree(rng, depth: int, size: int):
    if size <= 1 or rng.random() < 0.2:
        return ("p",)
    op = rng.choice(["not", "and", "or"] + (["dia", "dia"] if depth > 0 else []))
    if op == "dia":
        return ("dia", _modal_tree(rng, depth - 1, size - 1))
    if op == "not":
        return ("not", _modal_tree(rng, depth, size - 1))
    cut = rng.randint(1, size - 1)
    return (op, _modal_tree(rng, depth, cut), _modal_tree(rng, depth, size - 1 - cut))


def _render(tree) -> str:
    if tree[0] == "p":
        return "p"
    return "(" + " ".join([tree[0], *map(_render, tree[1:])]) + ")"


def _depth(tree) -> int:
    if tree[0] == "p":
        return 0
    return (tree[0] == "dia") + max(map(_depth, tree[1:]))


def _constituents(k: int) -> list:
    """The degree-k modal-K constituents over {p}: (p holds, successor set).

    A degree-0 constituent is a truth value of p.  A degree-k one picks a
    truth value of p and any set of degree-(k-1) constituents, as a bit
    mask, for the successors; in K every such choice is consistent.  So
    there are 2, 8 and 512 of degree 0, 1 and 2.
    """
    if k == 0:
        return [(True, 0), (False, 0)]
    below = len(_constituents(k - 1))
    return [(p, succ) for p in (True, False) for succ in range(1 << below)]


def _truth_mask(tree, k: int) -> int:
    """The degree-k constituents at which ``tree`` holds, as a bit mask."""
    cs = _constituents(k)
    op = tree[0]
    if op == "p":
        return sum(1 << i for i, (p, _) in enumerate(cs) if p)
    if op == "not":
        return ((1 << len(cs)) - 1) ^ _truth_mask(tree[1], k)
    if op == "and":
        return _truth_mask(tree[1], k) & _truth_mask(tree[2], k)
    if op == "or":
        return _truth_mask(tree[1], k) | _truth_mask(tree[2], k)
    inner = _truth_mask(tree[1], k - 1)
    return sum(1 << i for i, (_, succ) in enumerate(cs) if succ & inner)


def sigma_size(tree) -> int:
    """How many constituents of the formula's own degree imply it."""
    return bin(_truth_mask(tree, _depth(tree))).count("1")


def modal_mix(seed: int, draws: int):
    """The generator's natural traffic: depth shares, and sigma-size
    shares among depth-2 draws, over ``draws`` formulas."""
    rng = random.Random(seed)
    depths, sigmas = Counter(), Counter()
    for _ in range(draws):
        _, d, n = modal_formula(rng)
        depths[d] += 1
        if d == 2:
            sigmas[n] += 1
    return depths, sigmas


def _deep_not(levels: int) -> str:
    return "(not " * levels + "p" + ")" * levels


# (label, argv, expected exit code).  The last four are resource inputs
# that must end as an EngineError with exit code 1; at the seed commit
# they escape as RecursionError or ValueError (KNOWN_SEED_DEFECTS).
CLI_CASES = (
    ("parse-prop", ["parse", "--logic", "prop", "(and p (or q (not r)))"], 0),
    ("parse-modal", ["parse", "--logic", "modal-k", "(dia (and p (dia (not p))))"], 0),
    ("parse-gf", ["parse", "--logic", "gf", "(ex (u) (R u v) (R u v))"], 0),
    ("parse-bao", ["parse", "--logic", "bao", "(f (plus x (minus x)))"], 0),
    ("count-64", ["count", "--logic", "modal-k", "--X", "p,q", "--k", "1"], 0),
    ("count-512", ["count", "--logic", "modal-k", "--X", "p", "--k", "2"], 0),
    ("count-prop", ["count", "--logic", "prop", "--X", "p,q", "--k", "0"], 0),
    ("count-gf", ["count", "--logic", "gf", "--X", "(R u v)", "--k", "1"], 0),
    ("count-bao", ["count", "--logic", "bao", "--X", "x", "--k", "1"], 0),
    ("enumerate-512",
     ["enumerate", "--logic", "modal-k", "--X", "p", "--k", "2", "--render"], 0),
    ("enumerate-prop", ["enumerate", "--logic", "prop", "--X", "p,q", "--k", "0", "--render"], 0),
    ("enumerate-bao", ["enumerate", "--logic", "bao", "--X", "x", "--k", "1", "--render"], 0),
    ("normalize-prop", ["normalize", "--logic", "prop", "--render", "(or p (not q))"], 0),
    ("normalize-modal", ["normalize", "--logic", "modal-k", "--render", "(dia (dia p))"], 0),
    ("normalize-gf",
     ["normalize", "--logic", "gf", "--render", "(ex (u) (R u v) (not (R u u)))"], 0),
    ("normalize-bao", ["normalize", "--logic", "bao", "--render", "(f (plus x (minus x)))"], 0),
    ("verify-prop", ["verify", "--logic", "prop", "(iff p (not (not p)))"], 0),
    ("verify-modal", ["verify", "--logic", "modal-k", "(dia (or p (not p)))"], 0),
    ("verify-gf", ["verify", "--logic", "gf", "(ex (u) (R u v) (R u v))"], 0),
    ("verify-bao", ["verify", "--logic", "bao", "(f (plus x (minus x)))"], 0),
    ("partition-modal",
     ["partition-check", "--logic", "modal-k", "--X", "p", "--k", "1", "--bound", "3"], 0),
    ("partition-bao",
     ["partition-check", "--logic", "bao", "--X", "x", "--k", "1", "--bound", "3"], 0),
    ("resource-k3000", ["count", "--logic", "modal-k", "--X", "p", "--k", "3000"], 1),
    ("resource-deep-not", ["parse", "--logic", "prop", _deep_not(2000)], 1),
    ("resource-gf-count", ["count", "--logic", "gf", "--X", "(R u v)", "--k", "2"], 1),
    ("resource-gf-verify",
     ["verify", "--logic", "gf", "(ex (u) (R u v) (ex (v) (R v u) (R v v)))"], 1),
)

KNOWN_SEED_DEFECTS = frozenset(
    ("resource-k3000", "resource-deep-not", "resource-gf-count", "resource-gf-verify")
)

# Exact values the CLI must print, known independently of the engine:
# the degree-1 space over {p, q} has 2**2 * 2**4 members and the degree-2
# space over {p} has 2 * 2**8; the degree-0 propositional space over
# {p, q} has one member per truth assignment, 2**2.
CLI_EXPECTED_COUNTS = {
    "count-64": 64, "count-512": 512, "enumerate-512": 512,
    "count-prop": 4, "enumerate-prop": 4,
}


def cli_round(rng: random.Random):
    """The fixed invocation list in a seeded order."""
    cases = list(CLI_CASES)
    rng.shuffle(cases)
    return cases
