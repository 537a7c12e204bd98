"""Smatch precision/recall/F1 between two AMR graphs.

Triples are matched under an injective variable mapping found by
restarted hill-climbing.  The climb scores its moves from a weight table
of candidate variable pairs (Cai & Knight 2013), built once per graph
pair, instead of recounting every triple; `exhaustive_smatch` searches
every mapping and serves as the exact reference for small graphs.

No mapping can match more triples than `upper_bound`: per triple kind,
the multiset overlap of the keys a mapping cannot change (instance
label, attribute role and value, relation role).  The search stops as
soon as a mapping reaches that bound, before building the weight table
when the label-matching start already does.  The best count only moves
on a strictly higher count, so no later start could change the result:
a certified search returns the same counts as the full one.
"""

import itertools
import random
from collections import Counter, defaultdict, namedtuple

from .graph import LITERAL_KINDS

# certified: the matched count reached `upper_bound`, so it is optimal
SmatchScore = namedtuple("SmatchScore",
                         ["precision", "recall", "f1", "certified"])

SearchCounts = namedtuple("SearchCounts",
                          ["matched", "total_a", "total_b", "certified"])

TripleSet = namedtuple("TripleSet", ["instances", "attributes", "relations"])

EXHAUSTIVE_VAR_LIMIT = 8


class SmatchSizeError(ValueError):
    pass


def to_triples(graph):
    """Instance/attribute/relation triples of a graph.

    One instance triple per variable, a synthetic TOP attribute on the
    root, an attribute triple per edge to a literal and a relation triple
    per edge between variables.
    """
    instances = set()
    attributes = set()
    relations = set()
    for cid, concept in graph.concepts.items():
        if concept.kind not in LITERAL_KINDS:
            instances.add((cid, "instance", concept.label))
    attributes.add((graph.root, "TOP", graph.concept(graph.root).label))
    for rel in graph.relations:
        target = graph.concept(rel.target)
        if target.kind in LITERAL_KINDS:
            attributes.add((rel.source, rel.label, target.label))
        else:
            relations.add((rel.source, rel.label, rel.target))
    return TripleSet(instances, attributes, relations)


def triple_count(triples):
    return len(triples.instances) + len(triples.attributes) + len(triples.relations)


def _match_count(ta, tb, mapping):
    """Number of triples of `ta` whose image under `mapping` is in `tb`."""
    count = 0
    for var, _, label in ta.instances:
        if (mapping.get(var), "instance", label) in tb.instances:
            count += 1
    for var, role, value in ta.attributes:
        if (mapping.get(var), role, value) in tb.attributes:
            count += 1
    for src, role, tgt in ta.relations:
        if (mapping.get(src), role, mapping.get(tgt)) in tb.relations:
            count += 1
    return count


def _overlap(keys_a, keys_b):
    return sum((Counter(keys_a) & Counter(keys_b)).values())


def upper_bound(ta, tb):
    """Most triples of `ta` that any injective mapping can match in `tb`.

    A mapping renames variables only, so it matches an instance triple
    only to one of the same label, an attribute only to one of the same
    role and value and a relation only to one of the same role, and never
    two triples of `ta` to one of `tb`: per kind, at most the multiset
    overlap of those keys.
    """
    return (_overlap([label for _, _, label in ta.instances],
                     [label for _, _, label in tb.instances])
            + _overlap([(role, value) for _, role, value in ta.attributes],
                       [(role, value) for _, role, value in tb.attributes])
            + _overlap([role for _, role, _ in ta.relations],
                       [role for _, role, _ in tb.relations]))


def score_counts(matched, n_a, n_b, certified):
    """`SmatchScore` of `matched` triples out of `n_a` candidate and `n_b`
    reference triples; a ratio with nothing to divide by is 0.0.  Every
    graph has its TOP triple, so a total is zero only where no graph was
    scored, and `amrtk smatch` refuses an empty corpus."""
    precision = matched / n_a if n_a else 0.0
    recall = matched / n_b if n_b else 0.0
    if precision + recall == 0.0:
        return SmatchScore(precision, recall, 0.0, certified)
    return SmatchScore(precision, recall,
                       2.0 * precision * recall / (precision + recall),
                       certified)


def _label_init(vars_a, vars_b, labels_a, labels_b):
    """Heuristic start: pair variables with equal concept labels."""
    mapping = {}
    used = set()
    for va in vars_a:
        for vb in vars_b:
            if vb in used:
                continue
            if labels_a[va] == labels_b[vb]:
                mapping[va] = vb
                used.add(vb)
                break
    return mapping


def _random_init(vars_a, vars_b, rng):
    shuffled_b = list(vars_b)
    rng.shuffle(shuffled_b)
    order_a = list(vars_a)
    rng.shuffle(order_a)
    return {va: vb for va, vb in zip(order_a, shuffled_b)}


def _weight_table(ta, tb, vars_a, vars_b):
    """Candidate-pair weight table of Cai & Knight (2013).

    Maps each variable of `vars_a` to a dict, in `vars_b` order, of the
    variables of `vars_b` it can match any triple against.  Each entry
    (unary, partners) holds the number of instance, attribute and
    self-loop relation triples matched when va maps to vb, and one
    (va2, vb2) per other relation triple of va that is matched when va2
    also maps to vb2.
    """
    pairs = defaultdict(lambda: [0, []])
    for kind_a, kind_b in ((ta.instances, tb.instances),
                           (ta.attributes, tb.attributes)):
        by_key = defaultdict(list)
        for vb, role, value in kind_b:
            by_key[role, value].append(vb)
        for va, role, value in kind_a:
            for vb in by_key.get((role, value), ()):
                pairs[va, vb][0] += 1
    by_role = defaultdict(list)
    for src_b, role, tgt_b in tb.relations:
        by_role[role].append((src_b, tgt_b))
    for src, role, tgt in ta.relations:
        for src_b, tgt_b in by_role.get(role, ()):
            # an injective mapping sends a self-loop only onto a self-loop
            if src == tgt:
                if src_b == tgt_b:
                    pairs[src, src_b][0] += 1
            elif src_b != tgt_b:
                pairs[src, src_b][1].append((tgt, tgt_b))
                pairs[tgt, tgt_b][1].append((src, src_b))
    return {va: {vb: tuple(pairs[va, vb]) for vb in vars_b if (va, vb) in pairs}
            for va in vars_a}


def _contribution(table, mapping, va, vb):
    """Triples of `va` matched when it maps to `vb` and every other
    variable maps as in `mapping`."""
    entry = table[va].get(vb)
    if entry is None:
        return 0
    unary, partners = entry
    for va2, vb2 in partners:
        if mapping.get(va2) == vb2:
            unary += 1
    return unary


def _linked(table, va1, vb1, va2, vb2):
    """Relations between `va1` and `va2` matched when they map to `vb1`
    and `vb2`."""
    entry = table[va1].get(vb1)
    return entry[1].count((va2, vb2)) if entry else 0


def _held(table, mapping):
    """Contribution of each mapped variable at its current image."""
    return {va: _contribution(table, mapping, va, vb)
            for va, vb in mapping.items()}


def _move_gain(table, mapping, held, va, vb):
    """Change in matched triples when `va` moves to the unused `vb`
    (None: unmapped); `held` is `_held(table, mapping)`."""
    gain = -held.get(va, 0)
    if vb is not None:
        gain += _contribution(table, mapping, va, vb)
    return gain


def _swap_gain(table, mapping, held, va1, va2):
    """Change in matched triples when the mapped `va1` and `va2` swap
    images; `held` is `_held(table, mapping)`."""
    vb1 = mapping[va1]
    vb2 = mapping[va2]
    # both held contributions count the relations between va1 and va2,
    # the new ones (read against the unswapped mapping) none of them
    return (_contribution(table, mapping, va1, vb2)
            + _contribution(table, mapping, va2, vb1)
            + _linked(table, va1, vb2, va2, vb1)
            - held[va1] - held[va2]
            + _linked(table, va1, vb1, va2, vb2))


def _hill_climb(vars_a, mapping, table, current):
    """Steepest-ascent over single reassignments and pair swaps from
    `mapping`, which matches `current` triples.

    Each step tries the moves in `vars_a` x `vars_b` order (the rows of
    `table` keep `vars_b` order), then the swaps of every two mapped
    variables, taken in `vars_a` order, and applies the first strictly
    best one.  Gains come from the weight `table` of
    `_weight_table`, so a move costs O(degree) rather than a recount of
    every triple.  A move or swap whose new pairs have no table entry
    matches nothing through them, so its gain is at most 0 and it can
    never beat the strict test; such moves, including every move to
    unmapped, are skipped without changing the result.
    """
    while True:
        best_gain = 0
        best_move = None
        held = _held(table, mapping)
        used = set(mapping.values())
        for va in vars_a:
            for vb in table[va]:
                if vb in used:
                    continue
                gain = _move_gain(table, mapping, held, va, vb)
                if gain > best_gain:
                    best_gain = gain
                    best_move = ("move", va, vb)
        mapped = [va for va in vars_a if va in mapping]
        for i, va1 in enumerate(mapped):
            for va2 in mapped[i + 1:]:
                if (mapping[va2] not in table[va1]
                        and mapping[va1] not in table[va2]):
                    continue
                gain = _swap_gain(table, mapping, held, va1, va2)
                if gain > best_gain:
                    best_gain = gain
                    best_move = ("swap", va1, va2)
        if best_move is None:
            return current, mapping
        kind, x, y = best_move
        if kind == "move":
            mapping[x] = y
        else:
            mapping[x], mapping[y] = mapping[y], mapping[x]
        current += best_gain


def search_counts(a, b, restarts=4, seed=1):
    """(matched, total_a, total_b, certified) from hill-climbing search
    with one concept-label-matching start plus `restarts` random ones
    drawn from `random.Random(seed)`; the search stops at the first start
    that reaches `upper_bound` (certified).  Deterministic for a fixed
    seed, and equal in its counts to climbing every start."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    ta = to_triples(a)
    tb = to_triples(b)
    vars_a = a.var_ids()
    vars_b = b.var_ids()
    labels_a = {v: a.concept(v).label for v in vars_a}
    labels_b = {v: b.concept(v).label for v in vars_b}
    bound = upper_bound(ta, tb)
    start = _label_init(vars_a, vars_b, labels_a, labels_b)
    best = _match_count(ta, tb, start)
    if best < bound:
        table = _weight_table(ta, tb, vars_a, vars_b)
        rng = random.Random(seed)
        best, _ = _hill_climb(vars_a, start, table, best)
        for _ in range(restarts):
            if best == bound:
                break
            start = _random_init(vars_a, vars_b, rng)
            count, _ = _hill_climb(vars_a, start, table,
                                   _match_count(ta, tb, start))
            best = max(best, count)
    return SearchCounts(best, triple_count(ta), triple_count(tb), best == bound)


def smatch_counts(a, b, restarts=4, seed=1):
    """(matched, total_a, total_b) triple counts of `search_counts`."""
    return search_counts(a, b, restarts=restarts, seed=seed)[:3]


def smatch_score(a, b, restarts=4, seed=1):
    """Hill-climbing Smatch of graph `a` (candidate) against `b` (reference)."""
    return score_counts(*search_counts(a, b, restarts=restarts, seed=seed))


def exhaustive_counts(a, b):
    """`SearchCounts` from searching every injective variable mapping;
    guarded by a factorial size limit on the smaller set."""
    ta = to_triples(a)
    tb = to_triples(b)
    totals = triple_count(ta), triple_count(tb)
    vars_a = a.var_ids()
    vars_b = b.var_ids()
    if len(vars_a) > len(vars_b):
        # an injective map matches as many triples as its inverse does
        ta, tb, vars_a, vars_b = tb, ta, vars_b, vars_a
    if len(vars_a) > EXHAUSTIVE_VAR_LIMIT:
        raise SmatchSizeError(
            "exhaustive search limited to %d variables" % EXHAUSTIVE_VAR_LIMIT)
    best = max(_match_count(ta, tb, dict(zip(vars_a, image)))
               for image in itertools.permutations(vars_b, len(vars_a)))
    return SearchCounts(best, *totals, best == upper_bound(ta, tb))


def exhaustive_smatch(a, b):
    """Exact Smatch over every injective variable mapping."""
    return score_counts(*exhaustive_counts(a, b))
