"""Rule-based aligner producing multiple candidate alignments per
sentence/graph pair.

Matching rules compare a fragment directly with a token span; updating
rules align a fragment based on an already-aligned related fragment and
record that dependency.  All rule hits are kept per fragment, and the
candidate set is the legality-filtered Cartesian product of the
per-fragment choices.
"""

import itertools
import logging
from dataclasses import dataclass

from .graph import extract_fragments, name_op_values, strip_sense
from .resources import Resources, morph_match, semantic_match
from .surface import NEGATION_WORDS, date_attributes, numeric_form

logger = logging.getLogger(__name__)

MATCHING = "matching"
UPDATING = "updating"

DEFAULT_CANDIDATE_LIMIT = 50
DEFAULT_PER_FRAGMENT_CAP = 5
DEFAULT_PRODUCT_CAP = 100000

FUZZY_PREFIX_LEN = 4

QUANTITY_SUFFIX = "-quantity"


class AlignmentInputError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Span:
    start: int
    end: int  # exclusive

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise AlignmentInputError("bad span (%d, %d)" % (self.start, self.end))

    def covers(self, index):
        return self.start <= index < self.end

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class AlignmentRecord:
    """One way to align a fragment.

    `trigger` is None for matching-rule records.  Updating-rule records
    name the fragment (head id) they depend on and the span that fragment
    must be aligned to for this record to be legal; for span-sharing
    updates the two spans coincide.
    """
    span: Span
    trigger: str = None
    trigger_span: Span = None


class CandidateAlignment:
    """One complete fragment-head -> record choice (possibly unaligned)."""

    def __init__(self, graph, tokens, choices):
        self.graph = graph
        self.tokens = tuple(tokens)
        self.choices = dict(choices)  # head id -> AlignmentRecord

    def record(self, head):
        return self.choices.get(head)

    def span_of(self, head):
        rec = self.choices.get(head)
        return rec.span if rec else None

    def aligned_heads(self):
        return [h for h, rec in self.choices.items() if rec is not None]

    def pairs(self):
        """(head, span) pairs for scoring."""
        return {(h, rec.span) for h, rec in self.choices.items() if rec is not None}

    def key(self, fragment_order):
        unaligned = sum(1 for h in fragment_order if self.choices.get(h) is None)
        spans = tuple(
            (rec.span.start, rec.span.end) if rec is not None else (1 << 30, 1 << 30)
            for h in fragment_order
            for rec in [self.choices.get(h)])
        return (unaligned, spans)

    def __eq__(self, other):
        return (isinstance(other, CandidateAlignment)
                and self.choices == other.choices)

    def __hash__(self):
        return hash(frozenset(self.choices.items()))

    def __repr__(self):
        items = ", ".join("%s->%d-%d" % (h, r.span.start, r.span.end)
                          for h, r in self.choices.items() if r is not None)
        return "CandidateAlignment(%s)" % items


class AlignmentSet:
    def __init__(self, graph, tokens, candidates, truncated=False):
        if not candidates:
            raise AlignmentInputError("candidate list may not be empty")
        self.graph = graph
        self.tokens = tuple(tokens)
        self.candidates = list(candidates)
        self.truncated = truncated

    def __len__(self):
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, index):
        return self.candidates[index]


class AlignmentContext:
    """Everything a rule predicate may look at."""

    def __init__(self, graph, tokens, fragments, resources):
        self.graph = graph
        self.tokens = tuple(tokens)
        self.fragments = fragments
        self.resources = resources or Resources()

    def span_tokens(self, span):
        return self.tokens[span.start:span.end]

    def lemmas(self, token):
        return self.resources.lemmas.lemmas(token)


@dataclass(frozen=True)
class Rule:
    """An alignment rule.

    Matching rules implement `match(fragment, span, ctx)`.  Updating rules
    implement `pair_applies(fragment, trigger_fragment, ctx)` and, when
    the pair applies, `derive(fragment, trigger_fragment, record, ctx)`
    yields the spans the fragment may take.
    """
    name: str
    kind: str
    match: callable = None
    pair_applies: callable = None
    derive: callable = None


# ---------------------------------------------------------------------------
# matching predicates

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
    derived = sorted((role, value)
                     for role, value, _ in date_attributes(ctx.span_tokens(span)))
    return gold == derived


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


# ---------------------------------------------------------------------------
# updating rules

def _entity_type_pair(fragment, trigger, ctx):
    """Entity-type concept aligned to the span of its name child fragment."""
    if len(fragment) != 1:
        return False
    if ctx.graph.concept(trigger.head).label != "name":
        return False
    return any(rel.label == ":name" and rel.target == trigger.head
               for rel in ctx.graph.outgoing(fragment.head))


def _same_span(fragment, trigger, record, ctx):
    return [record.span]


def _minus_polarity_pair(fragment, trigger, ctx):
    if len(fragment) != 1:
        return False
    if ctx.graph.concept(fragment.head).label != "-":
        return False
    return any(rel.label == ":polarity" and rel.source == trigger.head
               for rel in ctx.graph.incoming(fragment.head))


def _negation_spans(fragment, trigger, record, ctx):
    return [Span(i, i + 1) for i, token in enumerate(ctx.tokens)
            if token.lower() in NEGATION_WORDS]


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


def base_rule_set():
    """The base rule catalog, matching rules before updating rules and
    exact matches before fuzzy ones."""
    return [
        Rule("exact-concept", MATCHING, match=_exact_concept),
        Rule("named-entity", MATCHING, match=_named_entity_exact),
        Rule("date-entity", MATCHING, match=_date_entity),
        Rule("fuzzy-prefix", MATCHING, match=_fuzzy_prefix),
        Rule("named-entity-nocase", MATCHING, match=_named_entity_nocase),
        Rule("entity-type", UPDATING,
             pair_applies=_entity_type_pair, derive=_same_span),
        Rule("minus-polarity", UPDATING,
             pair_applies=_minus_polarity_pair, derive=_negation_spans),
        Rule("quantity", UPDATING,
             pair_applies=_quantity_pair, derive=_same_span),
    ]


def extended_rule_set(resources):
    """The four rich-resource matching rules: semantic and morphological
    variants of the named-entity and single-concept matches."""
    threshold = resources.cosine_threshold

    def semantic_ne(fragment, span, ctx):
        ops = _named_entity_values(fragment, ctx)
        if ops is None or span.end - span.start != len(ops):
            return False
        return all(
            semantic_match(resources.embeddings, op, token, threshold)
            for op, token in zip(ops, ctx.span_tokens(span)))

    def morph_ne(fragment, span, ctx):
        ops = _named_entity_values(fragment, ctx)
        if ops is None or span.end - span.start != len(ops):
            return False
        return all(
            morph_match(resources.morph, resources.lemmas, op, token)
            for op, token in zip(ops, ctx.span_tokens(span)))

    def semantic_concept(fragment, span, ctx):
        if len(fragment) != 1 or span.end - span.start != 1:
            return False
        label = ctx.graph.concept(fragment.head).label
        return semantic_match(resources.embeddings, label,
                              ctx.tokens[span.start], threshold)

    def morph_concept(fragment, span, ctx):
        if len(fragment) != 1 or span.end - span.start != 1:
            return False
        label = ctx.graph.concept(fragment.head).label
        return morph_match(resources.morph, resources.lemmas, label,
                           ctx.tokens[span.start])

    return [
        Rule("semantic-named-entity", MATCHING, match=semantic_ne),
        Rule("morphological-named-entity", MATCHING, match=morph_ne),
        Rule("semantic-concept", MATCHING, match=semantic_concept),
        Rule("morphological-concept", MATCHING, match=morph_concept),
    ]


def full_rule_set(resources):
    """Base matching rules, then the extended rules, then updating rules."""
    base = base_rule_set()
    matching = [r for r in base if r.kind == MATCHING]
    updating = [r for r in base if r.kind == UPDATING]
    return matching + extended_rule_set(resources) + updating


def all_spans(n_tokens, max_len=None):
    limit = n_tokens if max_len is None else min(max_len, n_tokens)
    for start in range(n_tokens):
        for end in range(start + 1, min(start + limit, n_tokens) + 1):
            yield Span(start, end)


def collect_records(graph, tokens, rules, resources=None):
    """Run the matching pass and the updating fixpoint.

    Returns (fragments, {head id -> set of AlignmentRecord}).
    """
    fragments = extract_fragments(graph)
    ctx = AlignmentContext(graph, tokens, fragments, resources)
    matching = [r for r in rules if r.kind == MATCHING]
    updating = [r for r in rules if r.kind == UPDATING]

    records = {f.head: set() for f in fragments}
    for rule in matching:
        for span in all_spans(len(tokens)):
            for fragment in fragments:
                if rule.match(fragment, span, ctx):
                    records[fragment.head].add(AlignmentRecord(span))

    changed = True
    while changed:
        changed = False
        for rule in updating:
            for fragment in fragments:
                for trigger in fragments:
                    if trigger.head == fragment.head:
                        continue
                    if not rule.pair_applies(fragment, trigger, ctx):
                        continue
                    for record in list(records[trigger.head]):
                        for span in rule.derive(fragment, trigger, record, ctx):
                            new = AlignmentRecord(span, trigger.head, record.span)
                            if new not in records[fragment.head]:
                                records[fragment.head].add(new)
                                changed = True
    return fragments, records


def is_legal(choices):
    """Algorithm legality: an updating-derived record requires its trigger
    fragment to be aligned at the recorded span; additionally, distinct
    chosen spans must not partially overlap (identical spans may stack)."""
    for record in choices.values():
        if record is None or record.trigger is None:
            continue
        trigger_record = choices.get(record.trigger)
        if trigger_record is None or trigger_record.span != record.trigger_span:
            return False
    chosen = [r.span for r in choices.values() if r is not None]
    for a, b in itertools.combinations(set(chosen), 2):
        if a.overlaps(b):
            return False
    return True


def enumerate_alignments(graph, tokens, rules, limit=DEFAULT_CANDIDATE_LIMIT,
                         resources=None, per_fragment_cap=DEFAULT_PER_FRAGMENT_CAP,
                         product_cap=DEFAULT_PRODUCT_CAP):
    """All legal alignment combinations, deterministically ordered.

    Candidates are sorted by fewest unaligned fragments, then by span
    order, and truncated to `limit`.  When the raw product would exceed
    `product_cap`, per-fragment record sets are pruned to the
    `per_fragment_cap` best records first.
    """
    if not tokens:
        raise AlignmentInputError("token list may not be empty")
    fragments, records = collect_records(graph, tokens, rules, resources)
    order = [f.head for f in fragments]

    def record_key(rec):
        trig = rec.trigger or ""
        tspan = (rec.trigger_span.start, rec.trigger_span.end) if rec.trigger_span else (-1, -1)
        return (rec.span.start, rec.span.end, trig, tspan)

    sets = {}
    product_size = 1
    for head in order:
        options = sorted(records[head], key=record_key)
        sets[head] = options if options else [None]
        product_size *= max(1, len(options))
    if product_size > product_cap:
        logger.warning(
            "alignment product size %d exceeds cap %d; pruning to %d records "
            "per fragment", product_size, product_cap, per_fragment_cap)
        for head in order:
            if sets[head][0] is not None:
                sets[head] = sets[head][:per_fragment_cap]

    candidates = []
    seen = set()
    examined = 0
    truncated = False
    for combo in itertools.product(*(sets[h] for h in order)):
        examined += 1
        if examined > product_cap:
            logger.warning("stopped after examining %d combinations", product_cap)
            truncated = True
            break
        choices = dict(zip(order, combo))
        if not is_legal(choices):
            continue
        candidate = CandidateAlignment(graph, tokens, choices)
        if candidate not in seen:
            seen.add(candidate)
            candidates.append(candidate)
    if not candidates:
        candidates = [CandidateAlignment(graph, tokens, {h: None for h in order})]
    candidates.sort(key=lambda c: c.key(order))
    if limit is not None and len(candidates) > limit:
        candidates = candidates[:limit]
        truncated = True
    return AlignmentSet(graph, tokens, candidates, truncated=truncated)


def alignment_f1(pred, gold):
    """Precision/recall/F1 over (fragment head, span) pairs."""
    if set(pred.graph.concepts) != set(gold.graph.concepts) \
            or pred.tokens != gold.tokens:
        raise AlignmentInputError("alignments refer to different graphs or tokens")
    pred_pairs = pred.pairs()
    gold_pairs = gold.pairs()
    correct = len(pred_pairs & gold_pairs)
    precision = correct / len(pred_pairs) if pred_pairs else 0.0
    recall = correct / len(gold_pairs) if gold_pairs else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)
