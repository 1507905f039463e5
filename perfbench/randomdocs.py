"""Seeded ordsplit-1 documents with answers known in advance.

Part (a), abelian cones: generated cones in Z^2..Z^4.  Members are planted
as sums of generators, non-members as elements a planted functional sends
below zero while it is positive on every generator; the answers follow from
the construction.

Part (b), finite split extensions: the answers come from a brute-force
oracle in this file that works on raw operation tables (add, neg,
conjugate, element lists) and never calls ordsplit's cone, extension or
point code.

The mix of sizes is fixed, so that timings from different seeds stay
comparable: every seed draws the same number of cones per rank and generator
count, the same group pairs with the same cone kinds and point tags, and the
seed draws the contents.  The cones whose cost varies most between draws are
pinned (see PINNED).
"""

from __future__ import annotations

import itertools
import json
import random

FORMAT = "ordsplit-1"

# Each cone shape and each extension pair below is drawn ROUNDS times.  The
# 16 queries on a cone share its cost, so the cones and the extensions, not
# the queries, are the independent draws.  query_ms_p50 spread 0.12 over
# five seeds with two rounds, and 0.07 and 0.035 over twelve with four and
# six.
ROUNDS = 6

# Part (a): (rank, generator count) for every cone, and the query mix per cone.
CONE_PLAN = [(d, m) for d in (2, 3, 4) for m in range(3, 9)] * ROUNDS
# Fourier-Motzkin on a member the summand budget cannot reach runs its full
# elimination, and in Z^4 with 7 or 8 generators its row count ranges from
# thousands to about a million between draws.  Those cones come from one
# fixed stream, the same for every seed, so the blow-up shows in every run
# and runs with different seeds stay comparable.
PINNED = {(4, 7), (4, 8)}
PINNED_STREAM = 0
SHORT_MEMBERS = 6  # sums of 2..4 generators, inside the summand budget
TAIL_MEMBERS = 2  # sums of 7..10 generators, beyond it
NON_MEMBERS = 8

# Part (b): (kernel, base) group pairs; each carrier has at most 48 elements.
EXTENSION_PLAN = [
    ("S3", "Z8"), ("Z8", "S3"), ("Z6", "Z8"), ("Z8", "Z6"), ("K4", "Z8"), ("Z8", "K4"),
    ("S3", "S3"), ("Z7", "Z6"), ("Z6", "Z7"), ("Z4", "Z8"), ("S3", "K4"), ("K4", "S3"),
    ("Z5", "Z4"), ("Z3", "S3"), ("K4", "K4"), ("Z6", "Z6"),
]
CONE_KINDS = ("trivial", "proper", "full")
POINT_TAGS = ("product", "lex", "minimal")


# --- finite groups as raw tables -------------------------------------------------


class Table:
    """A finite group on indices 0..n-1 (0 is the identity)."""

    def __init__(self, name: str, add: list[list[int]], literal, spec: dict):
        self.name = name
        self.add = add
        self.n = len(add)
        self.neg = [next(b for b in range(self.n) if add[a][b] == 0) for a in range(self.n)]
        self.literal = literal  # index -> document element literal
        self.spec = spec  # document group declarations, dependencies first

    zero = 0

    @property
    def elements(self) -> range:
        return range(self.n)

    def plus(self, a: int, b: int) -> int:
        return self.add[a][b]

    def conjugate(self, g: int, x: int) -> int:
        return self.add[self.add[g][x]][self.neg[g]]

    def generators(self) -> list[int]:
        """A small generating set, found by search."""
        for k in (1, 2):
            for gens in itertools.combinations(range(1, self.n), k):
                if len(closure(self, gens, conjugates=False)) == self.n:
                    return list(gens)
        raise ValueError(f"{self.name} needs more than two generators")

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Additive bijections fixing 0, by filtering raw permutations."""
        out = []
        for perm in itertools.permutations(range(1, self.n)):
            p = (0,) + perm
            if all(p[self.add[a][b]] == self.add[p[a]][p[b]]
                   for a in range(self.n) for b in range(self.n)):
                out.append(p)
        return out


def _cyclic(n: int) -> Table:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    return Table(f"Z{n}", add, lambda i: [f"r{i}"], {f"Z{n}": {"kind": "finite_cyclic", "n": n}})


def _klein() -> Table:
    add = [[a ^ b for b in range(4)] for a in range(4)]
    spec = {
        "Z2": {"kind": "finite_cyclic", "n": 2},
        "K4": {"kind": "direct_product", "factors": ["Z2", "Z2"]},
    }
    return Table("K4", add, lambda i: [[f"r{i >> 1}"], [f"r{i & 1}"]], spec)


def _s3() -> Table:
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    add = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    spec = {"S3": {"kind": "finite_cayley", "table": add, "identity": 0}}
    return Table("S3", add, lambda i: [f"r{i}"], spec)


def group_zoo() -> dict[str, Table]:
    zoo = {f"Z{n}": _cyclic(n) for n in range(2, 9)}
    zoo["K4"] = _klein()
    zoo["S3"] = _s3()
    return zoo


def _compose(p, q):
    """p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def actions(B: Table, X: Table) -> list[list[tuple[int, ...]]]:
    """Every action of B on X: maps b -> phi_b with phi_{b1+b2} = phi_b1 . phi_b2."""
    auts = X.automorphisms()
    ident = tuple(range(X.n))
    gens = B.generators()
    out = []
    for images in itertools.product(auts, repeat=len(gens)):
        phi = {0: ident}
        frontier = [0]
        ok = True
        while frontier and ok:
            nxt = []
            for b in frontier:
                for g, img in zip(gens, images):
                    c = B.add[b][g]
                    val = _compose(phi[b], img)
                    if c not in phi:
                        phi[c] = val
                        nxt.append(c)
                    elif phi[c] != val:
                        ok = False
            frontier = nxt
        if ok and all(phi[B.add[a][b]] == _compose(phi[a], phi[b])
                      for a in range(B.n) for b in range(B.n)):
            out.append([phi[b] for b in range(B.n)])
    return out


# --- the oracle ----------------------------------------------------------------


class Carrier:
    """X x| B with (x1, b1) + (x2, b2) = (x1 + phi_b1(x2), b1 + b2)."""

    zero = (0, 0)

    def __init__(self, X: Table, B: Table, phi):
        self.X, self.B, self.phi = X, B, phi
        self.elements = [(x, b) for x in range(X.n) for b in range(B.n)]

    def plus(self, p, q):
        (x1, b1), (x2, b2) = p, q
        return (self.X.add[x1][self.phi[b1][x2]], self.B.add[b1][b2])

    def neg(self, p):
        x, b = p
        nb = self.B.neg[b]
        return (self.X.neg[self.phi[nb][x]], nb)

    def conjugate(self, g, p):
        return self.plus(self.plus(g, p), self.neg(g))


def closure(G, seed, conjugates: bool = True, ceiling=None):
    """Least set holding 0 and seed, closed under + (and conjugation).

    With a ceiling, None as soon as the set leaves it.
    """
    S = {G.zero, *seed}
    changed = True
    while changed:
        changed = False
        for a in list(S):
            new = [G.plus(a, b) for b in list(S)]
            if conjugates:
                new += [G.conjugate(g, a) for g in G.elements]
            for c in new:
                if c not in S:
                    if ceiling is not None and c not in ceiling:
                        return None
                    S.add(c)
                    changed = True
    return frozenset(S)


def oracle(C: Carrier, px: frozenset, pb: frozenset) -> dict:
    """Definitional answers: the least compatible cone (None if there is
    none), the number of compatible cones, and the product and lex sets.

    A compatible cone contains the kernel and section images of the two
    cones, is closed under + and conjugation, has its base part in pb, and
    over base 0 only fibres in px.
    """
    floor = {(x, 0) for x in px} | {(0, b) for b in pb}
    ceiling = frozenset(
        (x, b) for (x, b) in C.elements if b in pb and not (b == 0 and x not in px)
    )
    least = closure(C, floor, ceiling=ceiling)
    found = set()
    if least is not None:
        stack = [least]
        while stack:
            S = stack.pop()
            if S in found:
                continue
            found.add(S)
            for u in ceiling - S:
                T = closure(C, S | {u}, ceiling=ceiling)
                if T is not None and T not in found:
                    stack.append(T)
    product = frozenset((x, b) for (x, b) in C.elements if x in px and b in pb)
    lex = frozenset(
        (x, b)
        for (x, b) in C.elements
        if (b in pb and C.B.neg[b] not in pb)
        or (b in pb and C.B.neg[b] in pb and x in px)
    )
    return {"least": least, "count": len(found), "product": product, "lex": lex}


# --- document builders ---------------------------------------------------------


def _vector_literal(v) -> list[str]:
    return [str(c) for c in v]


def _dot(f, v) -> int:
    return sum(a * b for a, b in zip(f, v))


def cone_document(rng: random.Random) -> dict:
    """Part (a): cone_contains queries on generated cones in Z^2..Z^4."""
    groups = {f"Z{d}": {"kind": "free_abelian", "rank": d} for d in (2, 3, 4)}
    cones = {}
    queries = []
    pinned = random.Random(PINNED_STREAM)
    for i, (d, m) in enumerate(CONE_PLAN):
        draw = pinned if (d, m) in PINNED else rng
        f = [0] * d
        while not any(f):
            f = [draw.randint(-3, 3) for _ in range(d)]
        gens: list[tuple] = []
        while len(gens) < m:
            g = tuple(draw.randint(-3, 3) for _ in range(d))
            if _dot(f, g) > 0 and g not in gens:
                gens.append(g)
        cones[f"c{i}"] = {
            "kind": "generated", "group": f"Z{d}",
            "generators": [_vector_literal(g) for g in gens],
        }
        planted = []
        for count, lo, hi in ((SHORT_MEMBERS, 2, 4), (TAIL_MEMBERS, 7, 10)):
            for _ in range(count):
                terms = [draw.choice(gens) for _ in range(draw.randint(lo, hi))]
                planted.append((tuple(map(sum, zip(*terms))), "yes"))
        while len(planted) < SHORT_MEMBERS + TAIL_MEMBERS + NON_MEMBERS:
            x = tuple(draw.randint(-6, 6) for _ in range(d))
            if _dot(f, x) < 0:
                planted.append((x, "no"))
        draw.shuffle(planted)
        for j, (x, answer) in enumerate(planted):
            queries.append({
                "id": f"c{i}.{j}", "op": "cone_contains", "cone": f"c{i}",
                "element": _vector_literal(x), "expect": {"verdict": answer},
            })
    return {"format": FORMAT, "groups": groups, "cones": cones, "queries": queries}


def _cone_spec(G: Table, seed) -> dict:
    if not seed:
        return {"kind": "trivial", "group": G.name}
    return {"kind": "generated", "group": G.name, "generators": [G.literal(s) for s in seed]}


def _seed(rng: random.Random, G: Table, kind: str) -> list[int]:
    """Random cone generators whose closure is trivial, proper or full.

    Fixing the kind per slot keeps the cone sizes, and so the cost of the
    finite saturations, about the same for every seed.  A group with no
    proper nontrivial normal subgroup gets a full cone for "proper".
    """
    if kind == "trivial":
        return []
    for _ in range(50):
        seed = rng.sample(range(1, G.n), min(rng.randint(1, 2), G.n - 1))
        size = len(closure(G, seed))
        if (size == G.n) if kind == "full" else (1 < size < G.n):
            return seed
    return G.generators()


def extension_document(rng: random.Random) -> dict:
    """Part (b): finite split extensions.

    Odd slots ask for data with no compatible order; the draw keeps trying
    actions and cones for up to 50 rounds, and settles for what it has
    where the slot's cone kinds cannot give that.
    """
    zoo = group_zoo()
    action_cache: dict = {}
    doc = {"format": FORMAT, "groups": {}, "cones": {}, "actions": {}, "points": {}, "queries": []}
    for i, (xname, bname) in enumerate(EXTENSION_PLAN * ROUNDS):
        X, B = zoo[xname], zoo[bname]
        want_compatible = i % 2 == 0
        if (xname, bname) not in action_cache:
            action_cache[(xname, bname)] = actions(B, X)
        choices = action_cache[(xname, bname)]
        for _ in range(50):
            phi = rng.choice(choices)
            sx, sb = _seed(rng, X, CONE_KINDS[i % 3]), _seed(rng, B, CONE_KINDS[i // 3 % 3])
            C = Carrier(X, B, phi)
            ans = oracle(C, closure(X, sx), closure(B, sb))
            if (ans["least"] is not None) == want_compatible:
                break
        doc["groups"].update(X.spec)
        doc["groups"].update(B.spec)
        doc["cones"][f"px{i}"] = _cone_spec(X, sx)
        doc["cones"][f"pb{i}"] = _cone_spec(B, sb)
        doc["actions"][f"phi{i}"] = {
            "kind": "finite_table", "acting": bname, "acted": xname,
            "images": [
                [B.literal(b), [[X.literal(x), X.literal(phi[b][x])] for x in range(X.n)]]
                for b in range(B.n)
            ],
        }
        shape = {"x_group": xname, "x_cone": f"px{i}", "b_group": bname, "b_cone": f"pb{i}",
                 "action": f"phi{i}"}
        compatible = ans["least"] is not None
        doc["queries"].append({
            "id": f"e{i}.exists", "op": "compatible_exists", **shape,
            "expect": {"verdict": "yes" if compatible else "no"},
        })
        doc["queries"].append({
            "id": f"e{i}.lattice", "op": "lattice", **shape,
            "scope": {"kind": "exhaustive"},
            "expect": {"verdict": "yes", "details": {"count": ans["count"]}},
        })
        if not compatible:
            continue  # points on it would have no least cone to compare with
        tag = POINT_TAGS[i // 2 % 3]
        doc["points"][f"pt{i}"] = {**shape, "cone": tag}
        cone = ans["least"] if tag == "minimal" else ans[tag]
        doc["queries"].append({
            "id": f"e{i}.rali", "op": "is_rali", "point": f"pt{i}",
            "expect": {"verdict": "yes" if cone == ans["product"] else "no"},
        })
        doc["queries"].append({
            "id": f"e{i}.strong", "op": "is_strong", "point": f"pt{i}",
            "expect": {"verdict": "yes" if cone == ans["least"] else "no"},
        })
    return doc


def documents(seed: int) -> list[tuple[str, str]]:
    """The two documents of the random-documents workload, as JSON text."""
    rng = random.Random(seed)
    return [
        ("cones", json.dumps(cone_document(rng))),
        ("finite", json.dumps(extension_document(rng))),
    ]
