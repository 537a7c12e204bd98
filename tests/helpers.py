"""Shared test utilities: random graph pairs, fixture paths, a generator
of hard sentences, a model that decodes until the step guard and one
whose logits overflow, the
reference Smatch hill-climbing and search, the reference fragment
grouping, the reference matching-rule pass, the reference updating
fixpoint, the brute-force candidate list, the reference tuner that scores every
candidate, the reference action scorer and trainer, the reference
legality rule, the reference decode step (state encoding, legal
names and argmax), the reference ensemble scoring and feature hash, and
the reference oracle step (action choice and application)."""

import importlib.util
import itertools
import math
import os
import random
import re
import zlib

import pytest

from amrtk.align import (
    FUZZY_PREFIX_LEN, QUANTITY_SUFFIX, UPDATING, AlignmentContext,
    AlignmentRecord, Span, collect_records, is_legal,
)
from amrtk.graph import (
    ATTRIBUTE, VARIABLE, AmrGraph, Concept, Fragment, Relation, depth_to_root,
    forest_roots, name_op_values, strip_sense,
)
from amrtk.oracle import (
    STEP_LIMIT_FACTOR, EdgeLedger, OracleError, OracleRun, oracle_run,
    prune_unaligned,
)
from amrtk.parser import (
    HASH_DIM, HASH_SEED, ActionScorer, Ensemble, TrainingError, _replay,
    best_action, encode_state, hash_features, legal_action_names,
    score_actions,
)
from amrtk.resources import (
    DEFAULT_COSINE_THRESHOLD, LemmaTable, Resources, cosine,
)
from amrtk.smatch import (
    _held, _label_init, _match_count, _move_gain, _random_init, _swap_gain,
    _weight_table, to_triples, triple_count,
)
from amrtk.surface import date_attributes, numeric_form
from amrtk.transition import (
    ALL_TAGS, BARE, BARE_ACTIONS, CACHE, CONFIRM, DROP, ENTITY, LEFT, MERGE,
    NEW, REDUCE, RELATION_ACTIONS, RIGHT, SHIFT, Action, ParserState,
    StackItem, TransitionError, _apply_entity, apply, built_relations,
    initial_state, is_terminal, legal_actions,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")

LABEL_POOL = ["want-01", "go-02", "boy", "girl", "dog", "city", "see-01", "nucleus"]
ROLE_POOL = [":ARG0", ":ARG1", ":mod", ":time", ":poss"]
VALUE_POOL = ["-", "2", "2002"]


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def bench_module(name):
    """A module of the benchmark directory, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hard_corpus(seed, count):
    """A seeded corpus of `count` sentences composed from the oracle
    fixture's parts by `bench/corpus_gen.py`, cycling through three kinds:

    - one part repeated two or three times under an `and` root, so
      same-label fragments can stack on one span;
    - two or three distinct parts joined without the `and` token, so the
      root stays unaligned and the oracle rebuilds a forest;
    - one or two parts with one word removed, so a fragment may be left
      without its word.
    """
    corpus_gen = bench_module("corpus_gen")
    parts = corpus_gen.read_parts()
    rng = random.Random(seed)
    blocks = []
    for n in range(count):
        kind = n % 3
        if kind == 0:
            group = [rng.choice(parts)] * rng.randint(2, 3)
        elif kind == 1:
            group = rng.sample(parts, rng.randint(2, 3))
        else:
            group = rng.sample(parts, rng.randint(1, 2))
        block = corpus_gen.compose(group, "hard-%d-%d" % (seed, n))
        head, _, tok, graph_text = block.split("\n", 3)
        tokens = tok.split()[2:]
        if kind == 1:
            tokens = [t for part in group for t in part.tokens if t != "."]
            tokens.append(".")
        elif kind == 2:
            del tokens[rng.randrange(len(tokens) - 1)]
        sentence = " ".join(tokens)
        blocks.append("%s\n# ::snt %s\n# ::tok %s\n%s" % (
            head, sentence, sentence, graph_text))
    return "\n".join(blocks)


def looping_model():
    """A model whose bias prefers NEW(y) to CONFIRM(x): after CONFIRM(x)
    it builds new concepts until decode's step guard stops it."""
    model = ActionScorer(["CONFIRM(x)", "NEW(y)"])
    model.table[0] = [1.0, 2.0]
    return model


def overflowing_model():
    """A model whose bias plus the `bias` feature's row overflow every
    logit to inf, so every probability of every step is NaN."""
    bias_feature = hash_features(["bias"])[0]
    model = ActionScorer(["DROP", "CONFIRM(boy)", "SHIFT"],
                         features=[bias_feature])
    model.table[0] = 1e308
    model.table[model.rows[bias_feature]] = 1e308
    return model


def random_graph(rng, n_vars):
    """A connected random labeled graph with `n_vars` variables."""
    concepts = {}
    relations = []
    ids = ["v%d" % i for i in range(n_vars)]
    for cid in ids:
        concepts[cid] = Concept(cid, rng.choice(LABEL_POOL), VARIABLE)
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


# ---------------------------------------------------------------------------
# The Smatch search that `amrtk.smatch.search_counts` replaced: it builds the
# weight table and climbs every start, whatever the first one matches.  Kept
# verbatim as the test oracle for the search that stops at the upper bound.

def _table_hill_climb(ta, tb, vars_a, mapping, table):
    """Steepest-ascent over single reassignments and pair swaps.

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
    current = _match_count(ta, tb, mapping)
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


def reference_smatch_counts(a, b, restarts=4, seed=1):
    """(matched, total_a, total_b) triple counts from hill-climbing search
    with one concept-label-matching initialization plus `restarts` random
    ones; deterministic for a fixed seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    ta = to_triples(a)
    tb = to_triples(b)
    vars_a = a.var_ids()
    vars_b = b.var_ids()
    labels_a = {v: a.concept(v).label for v in vars_a}
    labels_b = {v: b.concept(v).label for v in vars_b}
    rng = random.Random(seed)
    table = _weight_table(ta, tb, vars_a, vars_b)
    best = 0
    starts = [_label_init(vars_a, vars_b, labels_a, labels_b)]
    starts += [_random_init(vars_a, vars_b, rng) for _ in range(restarts)]
    for start in starts:
        count, _ = _table_hill_climb(ta, tb, vars_a, dict(start), table)
        if count > best:
            best = count
    return best, triple_count(ta), triple_count(tb)


def reference_fragments(graph):
    """The fragments of `graph` as a list in address order, by a separate
    walk: `name` concepts group with their :opN literal children,
    `date-entity` concepts with their literal children, and every
    concept a group does not claim is a singleton fragment."""
    claimed = set()
    fragments = []
    for cid, concept in graph.concepts.items():
        if cid in claimed:
            continue
        members = [cid]
        internal = []
        for rel in graph.outgoing(cid):
            if not graph.is_literal(rel.target):
                continue
            if (concept.label == "name" and re.match(r"^:op\d+$", rel.label)) \
                    or concept.label == "date-entity":
                members.append(rel.target)
                internal.append(rel)
        claimed.update(members)
        fragments.append(Fragment(cid, tuple(members), tuple(internal)))
    return fragments


# ---------------------------------------------------------------------------
# The resource lookups as they were before `LemmaTable` kept each entry's
# form set and `semantic_match` looked the word up first.  Kept verbatim as
# the test oracle's own lookups.

def reference_lemmas(table, word):
    """Lemmas of a form; every word is a lemma of itself."""
    word = word.lower()
    return table.entries.get(word, frozenset()) | {word}


def reference_semantic_match(table, concept_label, word,
                             threshold=DEFAULT_COSINE_THRESHOLD):
    """Strictly-greater cosine test between the sense-stripped concept
    label and the word.  Missing embeddings never match."""
    sim = cosine(table, strip_sense(concept_label).lower(), word.lower())
    return sim is not None and sim > threshold


def reference_morph_match(morph, lemmas, concept_label, word):
    """True when a derivational link connects the word (or one of its
    lemmas) to the sense-stripped concept label, or when a lemma of the
    word equals the label itself."""
    base = strip_sense(concept_label).lower()
    for form in reference_lemmas(lemmas, word):
        if (form, base) in morph:
            return True
        if form == base:
            return True
    return False


# A `name`'s `:opN` values are compared as written, but for case: the two
# lookups above, less the sense-strip.

def reference_name_semantic_match(table, value, word, threshold):
    sim = cosine(table, value.lower(), word.lower())
    return sim is not None and sim > threshold


def reference_name_morph_match(morph, lemmas, value, word):
    base = value.lower()
    return any(form == base or (form, base) in morph
               for form in reference_lemmas(lemmas, word))


class ReferenceContext:
    """What the guarded predicates below read: the graph, the tokens and
    each token's lemmas, looked up on every call."""

    def __init__(self, graph, tokens, resources):
        self.graph = graph
        self.tokens = tuple(tokens)
        self.resources = resources or Resources()

    def span_tokens(self, span):
        return self.tokens[span.start:span.end]

    def lemmas(self, token):
        return reference_lemmas(self.resources.lemmas, token)


# ---------------------------------------------------------------------------
# The guarded matching predicates and the all-spans walk that the
# token-test-on-a-fragment-shape rules of `amrtk.align` replaced: every rule
# is asked about every span and rejects the widths it cannot match.  Kept
# verbatim, but for the reference lookups above, as the test oracle for the
# rules' widths and for the per-sentence normalization of
# `AlignmentContext`.

def _exact_concept(fragment, span, ctx):
    if len(fragment) != 1 or span.end - span.start != 1:
        return False
    label = strip_sense(ctx.graph.concept(fragment.head).label).lower()
    token = ctx.tokens[span.start]
    if label == token.lower():
        return True
    if label in ctx.lemmas(token):
        return True
    num = numeric_form(token)
    return num is not None and label == num


def _named_entity_values(fragment, ctx):
    if ctx.graph.concept(fragment.head).label != "name" or len(fragment) < 2:
        return None
    return name_op_values(ctx.graph, fragment.head)


def _named_entity_exact(fragment, span, ctx):
    ops = _named_entity_values(fragment, ctx)
    if ops is None or span.end - span.start != len(ops):
        return False
    return list(ctx.span_tokens(span)) == ops


def _named_entity_nocase(fragment, span, ctx):
    ops = _named_entity_values(fragment, ctx)
    if ops is None or span.end - span.start != len(ops):
        return False
    return [t.lower() for t in ctx.span_tokens(span)] == [o.lower() for o in ops]


def _date_entity(fragment, span, ctx):
    if ctx.graph.concept(fragment.head).label != "date-entity" or len(fragment) < 2:
        return False
    gold = sorted((rel.label, ctx.graph.concept(rel.target).label)
                  for rel in fragment.relations)
    return gold == sorted(date_attributes(ctx.span_tokens(span)))


def _fuzzy_prefix(fragment, span, ctx):
    if len(fragment) != 1 or span.end - span.start != 1:
        return False
    label = strip_sense(ctx.graph.concept(fragment.head).label).lower()
    token = ctx.tokens[span.start].lower()
    prefix = 0
    for a, b in zip(label, token):
        if a != b:
            break
        prefix += 1
    return prefix >= FUZZY_PREFIX_LEN


def _extended_predicates(resources):
    threshold = resources.cosine_threshold

    def semantic_ne(fragment, span, ctx):
        ops = _named_entity_values(fragment, ctx)
        if ops is None or span.end - span.start != len(ops):
            return False
        return all(
            reference_name_semantic_match(resources.embeddings, op, token,
                                          threshold)
            for op, token in zip(ops, ctx.span_tokens(span)))

    def morph_ne(fragment, span, ctx):
        ops = _named_entity_values(fragment, ctx)
        if ops is None or span.end - span.start != len(ops):
            return False
        return all(
            reference_name_morph_match(resources.morph, resources.lemmas, op,
                                       token)
            for op, token in zip(ops, ctx.span_tokens(span)))

    def semantic_concept(fragment, span, ctx):
        if len(fragment) != 1 or span.end - span.start != 1:
            return False
        label = ctx.graph.concept(fragment.head).label
        return reference_semantic_match(resources.embeddings, label,
                                        ctx.tokens[span.start], threshold)

    def morph_concept(fragment, span, ctx):
        if len(fragment) != 1 or span.end - span.start != 1:
            return False
        label = ctx.graph.concept(fragment.head).label
        return reference_morph_match(resources.morph, resources.lemmas, label,
                                     ctx.tokens[span.start])

    return [semantic_ne, morph_ne, semantic_concept, morph_concept]


def _all_spans(n_tokens):
    for start in range(n_tokens):
        for end in range(start + 1, n_tokens + 1):
            yield Span(start, end)


def reference_matching_records(graph, tokens, resources=None, extended=False):
    """{head id -> set of AlignmentRecord} of the base matching rules, and
    of the rich-resource ones too if `extended`, by asking each guarded
    predicate about every (span, fragment) pair."""
    fragments = graph.fragments.values()
    ctx = ReferenceContext(graph, tokens, resources)
    predicates = [_exact_concept, _named_entity_exact, _date_entity,
                  _fuzzy_prefix, _named_entity_nocase]
    if extended:
        predicates += _extended_predicates(resources)
    records = {f.head: set() for f in fragments}
    for match in predicates:
        for span in _all_spans(len(tokens)):
            for fragment in fragments:
                if match(fragment, span, ctx):
                    records[fragment.head].add(AlignmentRecord(span))
    return records


# ---------------------------------------------------------------------------
# The pair predicates and the all-pairs fixpoint that the edge triggers of
# `amrtk.align`'s updating rules replaced: each round asks every updating
# rule about every ordered pair of distinct fragments.  Kept verbatim, but
# for the trigger argument `derive` never read, as the test oracle for the
# rules' triggers.

def _entity_type_pair(fragment, trigger, ctx):
    """Entity-type concept aligned to the span of its name child fragment."""
    if len(fragment) != 1:
        return False
    if ctx.graph.concept(trigger.head).label != "name":
        return False
    return any(rel.label == ":name" and rel.target == trigger.head
               for rel in ctx.graph.outgoing(fragment.head))


def _minus_polarity_pair(fragment, trigger, ctx):
    if len(fragment) != 1:
        return False
    if ctx.graph.concept(fragment.head).label != "-":
        return False
    return any(rel.label == ":polarity" and rel.source == trigger.head
               for rel in ctx.graph.incoming(fragment.head))


def _quantity_pair(fragment, trigger, ctx):
    if len(fragment) != 1 or len(trigger) != 1:
        return False
    label = ctx.graph.concept(fragment.head).label
    if label != "quantity" and not label.endswith(QUANTITY_SUFFIX):
        return False
    child = ctx.graph.concept(trigger.head)
    if numeric_form(child.label) is None:
        return False
    return any(rel.label == ":quant" and rel.target == trigger.head
               for rel in ctx.graph.outgoing(fragment.head))


PAIR_PREDICATES = {
    "entity-type": _entity_type_pair,
    "minus-polarity": _minus_polarity_pair,
    "quantity": _quantity_pair,
}


def reference_updating_records(graph, tokens, records, rules, resources=None):
    """The matching `records` ({head id -> set of AlignmentRecord}) closed
    under the updating `rules` by the all-pairs fixpoint.  A built-in rule
    is asked through the pair predicate its triggers replaced; any other
    rule through whether its triggers name the pair's trigger."""
    fragments = graph.fragments.values()
    ctx = AlignmentContext(graph, tokens, resources)
    records = {head: set(recs) for head, recs in records.items()}
    updating = [(PAIR_PREDICATES.get(rule.name) or (
        lambda f, t, ctx, _rule=rule: t.head in _rule.triggers(f, ctx)), rule)
        for rule in rules if rule.kind == UPDATING]
    changed = True
    while changed:
        changed = False
        for pair_applies, rule in updating:
            for fragment in fragments:
                for trigger in fragments:
                    if trigger.head == fragment.head:
                        continue
                    if not pair_applies(fragment, trigger, ctx):
                        continue
                    for record in list(records[trigger.head]):
                        for span in rule.derive(fragment, record, ctx):
                            new = AlignmentRecord(span, trigger.head, record.span)
                            if new not in records[fragment.head]:
                                records[fragment.head].add(new)
                                changed = True
    return records


# ---------------------------------------------------------------------------
# The dict-per-action scorer that the dense table of
# `amrtk.parser.ActionScorer` replaced: a logit adds the bias and then each
# encoded feature's weight in encoding order, and an update adds its
# coefficient to the bias and to the weight of each encoded feature, creating
# the weight if it is missing.  Kept verbatim as the test oracle for the
# table's logits, updates and sparse weights.

class ReferenceScorer:
    def __init__(self, n_actions):
        self.weights = [dict() for _ in range(n_actions)]
        self.bias = [0.0 for _ in range(n_actions)]

    def logit(self, action_idx, encoding):
        weights = self.weights[action_idx]
        total = self.bias[action_idx]
        for feat in encoding:
            total += weights.get(feat, 0.0)
        return total

    def update(self, encoding, columns, coefs):
        for idx, coef in zip(columns, coefs):
            self.bias[idx] += coef
            weights = self.weights[idx]
            for feat in encoding:
                weights[feat] = weights.get(feat, 0.0) + coef


# ---------------------------------------------------------------------------
# The per-instance trainer that the compiled instances of
# `amrtk.parser.train` replaced: each SGD step looks its feature rows up in
# `ActionScorer.rows`, and each epoch's accuracy pass scores every instance
# through `score_actions` and `reference_best_action`, one at a time.  Kept
# verbatim, with the reference legal names and argmax, as the test oracle
# for the trained model and its log.

def reference_train(corpus, epochs=30, learning_rate=0.5, seed=1,
                    dev_fraction=0.0, lemma_table=None, log=None):
    """Fit the linear scorer on oracle traces by SGD on the multiclass
    logistic objective; reports per-epoch action accuracy."""
    if not 0 <= dev_fraction < 1:
        raise TrainingError("dev fraction %r is outside [0, 1)" % dev_fraction)
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    lemma_table = lemma_table or LemmaTable()
    rng = random.Random(seed)

    predicate_lemmas = {strip_sense(action.label)
                        for example in corpus for action in example.actions
                        if action.tag == CONFIRM
                        and strip_sense(action.label) != action.label}
    replays = [_replay(example, lemma_table, predicate_lemmas)
               for example in corpus]
    indices = list(range(len(corpus)))
    rng.shuffle(indices)
    n_dev = int(len(corpus) * dev_fraction)
    dev_idx = set(indices[:n_dev])
    # one table row for each feature the training instances encode
    model = ActionScorer(
        sorted({name for steps in replays for _, _, name in steps}),
        predicate_lemmas=predicate_lemmas,
        features=(feat for i, steps in enumerate(replays) if i not in dev_idx
                  for encoding, _, _ in steps for feat in encoding))

    train_instances = []
    dev_instances = []
    for i, steps in enumerate(replays):
        bucket = dev_instances if i in dev_idx else train_instances
        # `apply` and `legal_action_names` share one legality rule, so the
        # replay has already checked that each gold name is legal here
        for encoding, state, gold_name in steps:
            bucket.append((encoding,
                           reference_legal_action_names(model, state),
                           gold_name))
    del replays  # the states were kept only to find the legal names
    if not train_instances:
        raise TrainingError("no training instances after the dev split")

    def accuracy(instances):
        if not instances:
            return 0.0
        hits = 0
        for encoding, legal, gold in instances:
            probs = score_actions(model, encoding, legal)
            hits += reference_best_action(model, probs, legal) == gold
        return hits / len(instances)

    for epoch in range(epochs):
        order = list(range(len(train_instances)))
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            encoding, legal, gold = train_instances[i]
            probs = score_actions(model, encoding, legal)
            total_loss -= math.log(max(probs[gold], 1e-300))
            columns, coefs = [], []
            for action in legal:
                coef = learning_rate * ((action == gold) - probs[action])
                if coef != 0.0:
                    columns.append(model.action_index[action])
                    coefs.append(coef)
            if columns:
                model.update(encoding, columns, coefs)
        entry = {
            "epoch": epoch + 1,
            "loss": total_loss / len(train_instances),
            "train_accuracy": accuracy(train_instances),
        }
        if dev_instances:
            entry["dev_accuracy"] = accuracy(dev_instances)
        model.train_log.append(entry)
        if log is not None:
            log(entry)
    return model


def brute_force_candidates(graph, tokens, rules, resources=None):
    """The span map of every legal record combination, each once; the
    all-unaligned candidate when none is legal."""
    records = collect_records(graph, tokens, rules, resources)
    order = list(graph.fragments)
    out = {}
    for combo in itertools.product(*(records[h] or [None] for h in order)):
        choices = dict(zip(order, combo))
        if is_legal(choices):
            cand = {h: rec.span if rec else None for h, rec in choices.items()}
            out.setdefault(tuple(cand.items()), cand)
    return list(out.values()) or [dict.fromkeys(order)]


def reference_tune(tokens, graph, alignment_set, smatch_restarts=4,
                   smatch_seed=1):
    """`oracle.tune` as it was before bound pruning: every candidate's run
    is Smatch-scored."""
    best = None
    best_run = None
    for candidate in alignment_set:
        run = oracle_run(tokens, graph, candidate,
                         smatch_restarts=smatch_restarts,
                         smatch_seed=smatch_seed)
        if best_run is None or (run.smatch_f1, -run.action_count) > \
                (best_run.smatch_f1, -best_run.action_count):
            best = candidate
            best_run = run
    return best, best_run


def reference_legal_actions(state):
    """The set of legal action tags in a state (Table rows whose
    current-state pattern matches), built from the state on every call:
    the rule `transition.legal_actions` reads from its table of state
    shapes."""
    legal = set()
    b0 = state.b0
    s0 = state.s0
    if b0 is not None and b0.is_word():
        legal.add(DROP)
        legal.add(CONFIRM)
        legal.add(ENTITY)
        if state.b1 is not None and state.b1.is_word():
            legal.add(MERGE)
    if b0 is not None and b0.is_concept():
        legal.add(NEW)
        legal.add(SHIFT)
        if s0 is not None:
            legal.add(LEFT)
            legal.add(RIGHT)
    if s0 is not None:
        legal.add(REDUCE)
        if b0 is not None:
            legal.add(CACHE)
    return legal


def assert_apply_refuses_every_illegal_tag(state):
    """`apply` raises for each tag outside the state's legal set."""
    legal = legal_actions(state)
    for tag in ALL_TAGS:
        if tag not in legal:
            action = Action(tag) if tag in BARE_ACTIONS else Action(tag, "x")
            with pytest.raises(TransitionError, match="is illegal in state"):
                apply(state, action)


# ---------------------------------------------------------------------------
# The decode step that one scan of the arcs per state and an argmax over
# exact ties replaced: `encode_state` counting each slot's incident arcs by
# a scan of its own, `legal_action_names` asking `new_arc` about each
# LEFT/RIGHT name (the arc rebuilt and looked up in the state's arcs), and
# `best_action` as a `min` over every legal name.  Kept verbatim as the
# test oracle for the decode step.

def reference_encode_state(state, pos_tags=None):
    """Deterministic sparse feature strings for a state: identity of the
    stack top two, deque front, buffer front three, the last three actions
    and arc-count buckets."""
    sigma, delta, beta, arcs, labels, _, history = state

    def describe(item):
        if item is None:
            return None, None, None
        (start, _), surface, node = item
        word = surface.lower()
        label = word if node is None else labels[node]
        tag = None
        if pos_tags is not None and start < len(pos_tags):
            tag = pos_tags[start]
        return label, word, tag

    slots = {
        "s0": sigma[-1] if sigma else None,
        "s1": sigma[-2] if len(sigma) > 1 else None,
        "d0": delta[0] if delta else None,
        "b0": beta[0] if beta else None,
        "b1": beta[1] if len(beta) > 1 else None,
        "b2": beta[2] if len(beta) > 2 else None,
    }
    feats = ["bias"]
    described = {}
    for name, item in slots.items():
        label, word, tag = describe(item)
        described[name] = label
        if label is None:
            feats.append("%s.none" % name)
            continue
        feats.append("%s.c=%s" % (name, label))
        feats.append("%s.w=%s" % (name, word))
        if tag is not None:
            feats.append("%s.t=%s" % (name, tag))
        node = item.node
        if node is not None:
            incident = sum(1 for head, _, dep in arcs if node in (head, dep))
            feats.append("%s.na=%d" % (name, min(incident, 3)))
    feats.append("s0b0.c=%s|%s" % (described["s0"], described["b0"]))
    feats.append("s0b1.c=%s|%s" % (described["s0"], described["b1"]))
    feats.append("d0b0.c=%s|%s" % (described["d0"], described["b0"]))
    for back in (1, 2, 3):
        if len(history) >= back:
            feats.append("h%d=%s" % (back, history[-back].tag))
        else:
            feats.append("h%d=_" % back)
    if history:
        feats.append("h1f=%s" % str(history[-1]))
    if len(history) >= 2:
        feats.append("h12=%s|%s" % (history[-1].tag, history[-2].tag))
    feats.append("nsig=%d" % min(len(sigma), 5))
    feats.append("ndel=%d" % min(len(delta), 5))
    feats.append("nbet=%d" % min(len(beta), 5))
    return feats


def reference_new_arc(state, action):
    """The (head, role, dependent) arc a LEFT or RIGHT action adds, or None
    when the state already has it: an arc is never built twice."""
    s0, b0 = state.s0, state.b0
    arc = (b0.node, action.label, s0.node) if action.tag == LEFT \
        else (s0.node, action.label, b0.node)
    return None if arc in state.arcs else arc


def reference_legal_action_names(model, state):
    """Vocabulary entries whose tag pattern matches the state, in
    vocabulary order, with duplicate-arc label filtering for Left/Right."""
    return [name for name, arc in model.tagged_names(legal_actions(state))
            if arc is None or reference_new_arc(state, arc) is not None]


def reference_best_action(model, probs, legal):
    """argmax with ties broken by the vocabulary's tie-break key"""
    return min(legal, key=lambda a: (-probs[a],) + model.vocabulary[a][1])


# the probabilities `assert_decode_step_matches_reference` draws from: two
# of them tie
STEP_PROBS = (0.1, 0.25, 0.25, 0.4)


def assert_decode_step_matches_reference(model, state, pos_tags, rng):
    """The decode step of `state` under `model` equals its reference: the
    encoding, the legal names and the argmax of random probabilities over
    them, which tie often and are all NaN one time in 20.  Returns whether
    the duplicate-arc rule dropped a legal name and whether an arc count
    was capped at 3."""
    assert encode_state(state, pos_tags) == \
        reference_encode_state(state, pos_tags)
    legal = legal_action_names(model, state)
    assert legal == reference_legal_action_names(model, state)
    if legal:
        if rng.random() < 0.05:
            probs = dict.fromkeys(legal, math.nan)
        else:
            probs = dict(zip(legal, rng.choices(STEP_PROBS, k=len(legal))))
        assert best_action(model, probs, legal) == \
            reference_best_action(model, probs, legal)
    dropped = len(legal) < len(model.tagged_names(legal_actions(state)))
    slots = state.sigma[-2:] + state.delta[:1] + state.beta[:3]
    capped = any(
        sum(1 for head, _, dep in state.arcs if item.node in (head, dep)) > 3
        for item in slots if item.node is not None)
    return dropped, capped


# ---------------------------------------------------------------------------
# The ensemble scoring that one gather of a stacked table replaced: each
# member gathers its own rows through `score_actions`, and a lone model's
# distribution is averaged over one member too; and the feature hash that
# formatted the salt into each feature string.  Kept verbatim as the test
# oracle for `score_actions` and `hash_features`.

def reference_averaged_scores(model, encoding, legal):
    """The members' distributions over the legal actions of one encoded
    state, averaged."""
    members = model.members if isinstance(model, Ensemble) else [model]
    total = {a: 0.0 for a in legal}
    for member in members:
        for action, prob in score_actions(member, encoding, legal).items():
            total[action] += prob
    n = len(members)
    return {a: p / n for a, p in total.items()}


def reference_hash_features(feats):
    return [zlib.crc32(("%d|%s" % (HASH_SEED, f)).encode("utf-8")) % HASH_DIM
            for f in feats]


# ---------------------------------------------------------------------------
# The oracle step that unpacking and indexing the state tuple replaced:
# `transition.apply` reading the state's and the action's named fields and
# building through the named tuples' `__new__`, `oracle.oracle_action`
# reading b0, b1 and s0 through the state's properties, and the two
# `EdgeLedger` methods it asked, here functions of the ledger.  Kept
# verbatim as the test oracle for `apply` and `oracle_run`, but for the
# legality rule, read from `reference_legal_actions`, and `_apply_entity`,
# which now takes the state's fields.

def reference_apply(state, action):
    """Apply one action, returning the successor state."""
    tag = action.tag
    if tag not in reference_legal_actions(state):
        raise TransitionError(
            "action %s is illegal in state (|sigma|=%d, |delta|=%d, |beta|=%d)"
            % (action, len(state.sigma), len(state.delta), len(state.beta)))
    sigma, delta, beta = state.sigma, state.delta, state.beta
    arcs, labels = state.arcs, state.labels
    b0 = state.b0

    if tag == DROP:
        beta = beta[1:]
    elif tag == MERGE:
        b1 = beta[1]
        merged = StackItem((b0.span[0], b1.span[1]),
                           b0.surface + "_" + b1.surface)
        beta = (merged,) + beta[2:]
    elif tag in (CONFIRM, NEW):
        # CONFIRM derives the word at b0; NEW pushes a concept before b0
        item = StackItem(b0.span, b0.surface, len(labels))
        beta = (item,) + (beta[1:] if tag == CONFIRM else beta)
        labels = labels + (action.label,)
    elif tag == ENTITY:
        beta = (StackItem(b0.span, b0.surface, len(labels)),) + beta[1:]
        arcs, labels = _apply_entity(b0.span, state.arcs, state.labels,
                                     state.tokens, action.label)
    elif tag in RELATION_ACTIONS:
        if action in built_relations(state):
            raise TransitionError(
                "%s duplicates an arc of the state" % (action,))
        s0 = sigma[-1].node
        arcs = arcs + ((b0.node, action.label, s0) if tag == LEFT
                       else (s0, action.label, b0.node),)
    elif tag == CACHE:
        sigma, delta = sigma[:-1], (sigma[-1],) + delta
    elif tag == SHIFT:
        sigma, delta, beta = sigma + delta + (b0,), (), beta[1:]
    else:  # REDUCE
        sigma = sigma[:-1]
    return ParserState(sigma, delta, beta, arcs, labels, state.tokens,
                       state.history + (action,))


def reference_open_edge_between(ledger, gold_b0, gold_s0):
    """First open edge between the two concepts; b0-headed edges
    (Left) are preferred when both directions exist."""
    for source, target in ((gold_b0, gold_s0), (gold_s0, gold_b0)):
        for rel in ledger.graph.outgoing(source):
            if rel.target == target and rel in ledger.open_edges:
                return rel
    return None


def reference_same_span_parent(ledger, gold_id):
    """Deepest pending gold parent aligned to the same span."""
    pending = ledger.pending[ledger.span_of[gold_id]]
    parents = [rel.source for rel in ledger.graph.incoming(gold_id)
               if rel.source in pending]
    if not parents:
        return None
    return max(parents, key=lambda h: depth_to_root(ledger.graph, h))


def reference_oracle_action(state, ledger):
    """Pick the next action by checking the oracle conditions in order,
    and record in the ledger the concepts and edges it builds."""
    pruned = ledger.graph
    b0 = state.b0
    s0 = state.s0
    node = len(state.labels)  # the node CONFIRM, NEW or ENTITY creates

    if b0 is not None and b0.is_word():
        span = ledger.span_at.get(b0.span[0])
        if span is None:
            return BARE[DROP]
        b1 = state.b1
        if (b1 is not None and b1.is_word()
                and span.start <= b1.span[0] < span.end):
            return BARE[MERGE]
        pending = ledger.pending[span]
        if not pending:
            raise OracleError(
                "aligned span %s has no pending concept (state: %r)"
                % (span, state.history[-3:]))
        entity_heads = [h for h in pending if len(pruned.fragments[h]) > 1]
        if len(entity_heads) == 1:
            entity = entity_heads[0]
            wrapper = ledger.entity_wrapper(entity, pending)
            top = wrapper if wrapper is not None else entity
            label = pruned.concept(top).label
            ledger.realize(top, node)
            if top != entity:
                if label in ("name", "date-entity"):
                    ledger.settle(entity)
                else:  # _apply_entity builds the name right after its head
                    ledger.realize(entity, node + 1)
                # the name node lives inside the entity fragment and never
                # reaches the stack or buffer; edges into it are unbuildable
                ledger.close_edges(entity)
            ledger.open_edges.difference_update(pruned.fragments[entity].relations)
            ledger.forfeit_outside_chain(top, span)
            return Action(ENTITY, label)
        # pending is in address order: the first deepest head is chosen
        chosen = max(pending, key=lambda h: depth_to_root(pruned, h))
        ledger.realize(chosen, node)
        ledger.forfeit_outside_chain(chosen, span)
        return Action(CONFIRM, pruned.concept(chosen).label)

    # every concept on the stack or buffer was realized when it was built
    if b0 is not None and b0.is_concept():
        gold_b0 = ledger.state_to_gold[b0.node]
        parent = reference_same_span_parent(ledger, gold_b0)
        if parent is not None:
            ledger.realize(parent, node)
            return Action(NEW, pruned.concept(parent).label)
        if s0 is not None:
            rel = reference_open_edge_between(ledger, gold_b0,
                                              ledger.state_to_gold[s0.node])
            if rel is not None:
                ledger.open_edges.remove(rel)
                if rel.source == gold_b0:
                    return Action(LEFT, rel.label)
                return Action(RIGHT, rel.label)

    if s0 is None:  # b0 is a concept: the state is not terminal
        return BARE[SHIFT]
    if b0 is not None:
        gold_s0 = ledger.state_to_gold[s0.node]
        if not (ledger.open_edges.isdisjoint(pruned.outgoing(gold_s0))
                and ledger.open_edges.isdisjoint(pruned.incoming(gold_s0))):
            return BARE[CACHE]
    # with the buffer empty, open edges of s0 can no longer be built
    return BARE[REDUCE]


def reference_oracle_run(tokens, graph, alignment, smatch_restarts=4,
                         smatch_seed=1):
    """`oracle.oracle_run` stepping through the reference action and
    application."""
    pruned = prune_unaligned(graph, alignment)
    ledger = EdgeLedger(pruned, alignment)
    state = initial_state(tokens)
    limit = STEP_LIMIT_FACTOR * len(tokens) + 100
    steps = 0
    while not is_terminal(state):
        action = reference_oracle_action(state, ledger)
        state = reference_apply(state, action)
        steps += 1
        if steps > limit:
            raise OracleError("oracle exceeded %d steps" % limit)
    return OracleRun(state, len(forest_roots(pruned)), ledger.forfeited,
                     graph, smatch_restarts, smatch_seed)
