"""Shared test utilities: random graph pairs, fixture paths and the
reference Smatch hill-climbing."""

import itertools
import os

from amrtk.graph import ATTRIBUTE, ENTITY_TYPE, AmrGraph, Concept, Relation
from amrtk.smatch import _match_count

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

LABEL_POOL = ["want-01", "go-02", "boy", "girl", "dog", "city", "see-01", "nucleus"]
ROLE_POOL = [":ARG0", ":ARG1", ":mod", ":time", ":poss"]
VALUE_POOL = ["-", "2", "2002"]


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def random_graph(rng, n_vars):
    """A connected random labeled graph with `n_vars` variables."""
    concepts = {}
    relations = []
    ids = ["v%d" % i for i in range(n_vars)]
    for cid in ids:
        concepts[cid] = Concept(cid, rng.choice(LABEL_POOL), ENTITY_TYPE)
    # spanning arborescence keeps the graph connected
    for i, cid in enumerate(ids[1:], start=1):
        parent = ids[rng.randrange(i)]
        relations.append(Relation(parent, cid, rng.choice(ROLE_POOL)))
    # sprinkle extra edges and attributes
    for _ in range(rng.randrange(n_vars)):
        if n_vars < 2:
            break
        src, tgt = rng.sample(ids, 2)
        role = rng.choice(ROLE_POOL)
        if not any(r.source == src and r.target == tgt and r.label == role
                   for r in relations):
            relations.append(Relation(src, tgt, role))
    lit_index = 0
    for _ in range(rng.randrange(2)):
        src = rng.choice(ids)
        lid = "_k%d" % lit_index
        lit_index += 1
        concepts[lid] = Concept(lid, rng.choice(VALUE_POOL), ATTRIBUTE)
        relations.append(Relation(src, lid, rng.choice([":quant", ":polarity"])))
    return AmrGraph(concepts, relations, ids[0])


def random_graph_pair(rng, max_vars=5):
    na = rng.randint(1, max_vars)
    nb = rng.randint(1, max_vars)
    return random_graph(rng, na), random_graph(rng, nb)


def perturbed_pair(rng, n_vars):
    """A graph plus a relabeled, possibly edge-dropped copy of itself."""
    g = random_graph(rng, n_vars)
    concepts = dict(g.concepts)
    relations = list(g.relations)
    victim = rng.choice(list(concepts))
    old = concepts[victim]
    concepts[victim] = Concept(old.id, rng.choice(LABEL_POOL), old.kind)
    if relations and rng.random() < 0.5:
        relations.pop(rng.randrange(len(relations)))
    # drop concepts orphaned by edge removal so the copy stays connected
    reachable = {g.root}
    changed = True
    while changed:
        changed = False
        for rel in relations:
            if rel.source in reachable and rel.target not in reachable:
                reachable.add(rel.target)
                changed = True
            elif rel.target in reachable and rel.source not in reachable:
                reachable.add(rel.source)
                changed = True
    concepts = {cid: c for cid, c in concepts.items() if cid in reachable}
    relations = [r for r in relations
                 if r.source in reachable and r.target in reachable]
    return g, AmrGraph(concepts, relations, g.root)


def reference_hill_climb(ta, tb, vars_a, vars_b, mapping):
    """The recount-based hill-climbing that `amrtk.smatch._hill_climb`
    replaced: every move and swap is scored by recounting every triple.
    Kept verbatim as the test oracle for the incremental search."""
    current = _match_count(ta, tb, mapping)
    while True:
        best_gain = 0
        best_move = None
        used = set(mapping.values())
        for va in vars_a:
            old = mapping.get(va)
            for vb in itertools.chain(vars_b, [None]):
                if vb == old or (vb is not None and vb in used and vb != old):
                    continue
                if vb is None:
                    mapping.pop(va, None)
                else:
                    mapping[va] = vb
                gain = _match_count(ta, tb, mapping) - current
                if old is None:
                    mapping.pop(va, None)
                else:
                    mapping[va] = old
                if gain > best_gain:
                    best_gain = gain
                    best_move = ("move", va, vb)
        for va1, va2 in itertools.combinations(list(mapping), 2):
            mapping[va1], mapping[va2] = mapping[va2], mapping[va1]
            gain = _match_count(ta, tb, mapping) - current
            mapping[va1], mapping[va2] = mapping[va2], mapping[va1]
            if gain > best_gain:
                best_gain = gain
                best_move = ("swap", va1, va2)
        if best_move is None:
            return current, mapping
        kind, x, y = best_move
        if kind == "move":
            if y is None:
                mapping.pop(x, None)
            else:
                mapping[x] = y
        else:
            mapping[x], mapping[y] = mapping[y], mapping[x]
        current += best_gain
