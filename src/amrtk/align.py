"""Rule-based aligner producing multiple candidate alignments per
sentence/graph pair.

Matching rules compare a fragment directly with a token span and are
asked only about spans of the widths they declare for the fragment.
Updating rules align a fragment based on an already-aligned related
fragment, which they read off the fragment's own graph edges, and record
that dependency.  All rule hits are kept per fragment; a candidate maps each
fragment head to one span (or None), and the candidates are the
best-ranked legal span maps, found by a depth-first search.
"""

import itertools
from typing import NamedTuple

from .graph import name_op_values, strip_sense
from .resources import Resources, morph_match, semantic_match
from .smatch import score_counts
from .surface import NEGATION_WORDS, date_attributes, numeric_form

MATCHING = "matching"
UPDATING = "updating"

DEFAULT_CANDIDATE_LIMIT = 50

FUZZY_PREFIX_LEN = 4

QUANTITY_SUFFIX = "-quantity"


class AlignmentInputError(ValueError):
    pass


class _SpanFields(NamedTuple):
    start: int
    end: int  # exclusive


class Span(_SpanFields):
    """A token span [start, end); construction checks it is not empty."""
    __slots__ = ()

    def __new__(cls, start, end):
        if not 0 <= start < end:
            raise AlignmentInputError("bad span (%d, %d)" % (start, end))
        return tuple.__new__(cls, (start, end))

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end


class AlignmentRecord(NamedTuple):
    """One way to align a fragment.

    `trigger` is None for matching-rule records.  Updating-rule records
    name the fragment (head id) they depend on and the span that fragment
    must be aligned to for this record to be legal; for span-sharing
    updates the two spans coincide.
    """
    span: Span
    trigger: str = None
    trigger_span: Span = None


class AlignmentSet:
    """A sentence's candidates, each a span map over every fragment head."""

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
    """Everything a rule predicate may look at, worked out once per
    sentence when the context is built: each token's lowercase form
    (`lowered`), lemma set (`lemma_sets`) and numeral (`numerals`), each
    concept label's sense-stripped lowercase form (`bases`, the aligner's
    one sense-strip), each fragment head's `:opN` values (`name_values`,
    empty unless the head is a `name` with members) and sorted literal
    (role, value) pairs (`attributes`), and the one-token spans of the
    negation words (`negation_spans`).  Only `spans(width)` is built on
    first use, since the widths depend on the rules.  A context serves
    one `collect_records` call, so nothing it holds outlives the call."""

    def __init__(self, graph, tokens, resources):
        self.graph = graph
        self.tokens = tuple(tokens)
        self.resources = resources or Resources()
        lemmas = self.resources.lemmas.lemmas
        self.lowered = tuple(token.lower() for token in self.tokens)
        self.lemma_sets = tuple(lemmas(token) for token in self.tokens)
        self.numerals = tuple(numeric_form(token) for token in self.tokens)
        self.bases = {concept.label: strip_sense(concept.label).lower()
                      for concept in graph.concepts.values()}
        self.name_values = {
            head: tuple(name_op_values(graph, head))
            if graph.concepts[head].label == "name" and len(fragment) > 1
            else () for head, fragment in graph.fragments.items()}
        self.attributes = {
            head: sorted((rel.label, graph.concepts[rel.target].label)
                         for rel in fragment.relations)
            for head, fragment in graph.fragments.items()}
        self.negation_spans = tuple(
            Span(index, index + 1) for index, token in enumerate(self.lowered)
            if token in NEGATION_WORDS)
        self._rows = {}

    def span_tokens(self, span):
        return self.tokens[span.start:span.end]

    def spans(self, width):
        """Every span of `width` tokens, left to right."""
        row = self._rows.get(width)
        if row is None:
            row = self._rows[width] = tuple(
                Span(start, start + width)
                for start in range(len(self.tokens) - width + 1))
        return row


class Rule(NamedTuple):
    """An alignment rule.

    Matching rules implement `widths(fragment, ctx)`, the span lengths
    the rule can match on the fragment (empty: none), and `match(fragment,
    span, ctx)`, which is asked only about spans of those lengths.
    Updating rules implement `triggers(fragment, ctx)`, the heads of the
    other fragments the fragment's alignment may follow, and `derive(fragment,
    record, ctx)`, the spans the fragment may take given a trigger's
    record.
    """
    name: str
    kind: str
    widths: callable = None
    match: callable = None
    triggers: callable = None
    derive: callable = None


# ---------------------------------------------------------------------------
# matching rules: a token test on a fragment shape

def _concept_rule(name, same):
    """The matching rule that tests `same(base, index, ctx)` on the base
    of a single-concept fragment's label (`ctx.bases`, the one sense-strip
    of the aligner) and the token of a one-token span."""
    def widths(fragment, ctx):
        return (1,) if len(fragment) == 1 else ()

    def match(fragment, span, ctx):
        return same(ctx.bases[ctx.graph.concepts[fragment.head].label],
                    span.start, ctx)
    return Rule(name, MATCHING, widths=widths, match=match)


def _name_rule(name, same):
    """The matching rule that tests `same(value, index, ctx)` on each
    `:opN` value of a `name` fragment, as written, and the token in its
    place in a span as wide as the values."""
    def widths(fragment, ctx):
        width = len(ctx.name_values[fragment.head])
        return (width,) if width else ()

    def match(fragment, span, ctx):
        return all(same(value, index, ctx) for value, index
                   in zip(ctx.name_values[fragment.head],
                          range(span.start, span.end)))
    return Rule(name, MATCHING, widths=widths, match=match)


def _exact_concept(base, index, ctx):
    # a token's lemma set holds its own lowercase form
    return base in ctx.lemma_sets[index] or base == ctx.numerals[index]


def _same_text(value, index, ctx):
    return value == ctx.tokens[index]


def _same_nocase(value, index, ctx):
    return value.lower() == ctx.lowered[index]


def _date_widths(fragment, ctx):
    """A token yields one date attribute, or three if it is a full date,
    so k attributes take between ceil(k / 3) and k tokens."""
    if ctx.graph.concept(fragment.head).label != "date-entity" or len(fragment) < 2:
        return ()
    k = len(fragment.relations)
    return range(-(-k // 3), k + 1)


def _date_entity(fragment, span, ctx):
    return ctx.attributes[fragment.head] == sorted(
        date_attributes(ctx.span_tokens(span)))


def _fuzzy_prefix(base, index, ctx):
    """The label's base and the token share their first FUZZY_PREFIX_LEN
    characters, ignoring case."""
    prefix = base[:FUZZY_PREFIX_LEN]
    return (len(prefix) == FUZZY_PREFIX_LEN
            and prefix == ctx.lowered[index][:FUZZY_PREFIX_LEN])


# ---------------------------------------------------------------------------
# updating rules: each follows one graph edge of a single-concept fragment

def _entity_type_triggers(fragment, ctx):
    """Entity-type concept aligned to the span of its name child fragment."""
    if len(fragment) != 1:
        return []
    return [rel.target for rel in ctx.graph.outgoing(fragment.head)
            if rel.label == ":name"
            and ctx.graph.concept(rel.target).label == "name"]


def _same_span(fragment, record, ctx):
    return [record.span]


def _minus_polarity_triggers(fragment, ctx):
    if len(fragment) != 1 or ctx.graph.concept(fragment.head).label != "-":
        return []
    return [rel.source for rel in ctx.graph.incoming(fragment.head)
            if rel.label == ":polarity"]


def _negation_word_spans(fragment, record, ctx):
    return ctx.negation_spans


def _quantity_triggers(fragment, ctx):
    """A quantity concept aligned to the span of its numeric `:quant`
    child; a numeric fragment head is always a single concept."""
    if len(fragment) != 1:
        return []
    label = ctx.graph.concept(fragment.head).label
    if label != "quantity" and not label.endswith(QUANTITY_SUFFIX):
        return []
    return [rel.target for rel in ctx.graph.outgoing(fragment.head)
            if rel.label == ":quant"
            and numeric_form(ctx.graph.concept(rel.target).label) is not None]


def base_rule_set():
    """The base rule catalog, matching rules before updating rules and
    exact matches before fuzzy ones."""
    return [
        _concept_rule("exact-concept", _exact_concept),
        _name_rule("named-entity", _same_text),
        Rule("date-entity", MATCHING, widths=_date_widths, match=_date_entity),
        _concept_rule("fuzzy-prefix", _fuzzy_prefix),
        _name_rule("named-entity-nocase", _same_nocase),
        Rule("entity-type", UPDATING,
             triggers=_entity_type_triggers, derive=_same_span),
        Rule("minus-polarity", UPDATING,
             triggers=_minus_polarity_triggers, derive=_negation_word_spans),
        Rule("quantity", UPDATING,
             triggers=_quantity_triggers, derive=_same_span),
    ]


def extended_rule_set(resources):
    """The four rich-resource matching rules: the embedding and the
    morphological token tests, each on the named-entity and the
    single-concept shape.  A token's lemma forms come from the context,
    the rest from `resources`; a name value is lowercased here."""
    def semantic(form, index, ctx):
        return semantic_match(resources.embeddings, form.lower(),
                              ctx.lowered[index], resources.cosine_threshold)

    def morph(form, index, ctx):
        return morph_match(resources.morph, ctx.lemma_sets[index],
                           form.lower())

    return [
        _name_rule("semantic-named-entity", semantic),
        _name_rule("morphological-named-entity", morph),
        _concept_rule("semantic-concept", semantic),
        _concept_rule("morphological-concept", morph),
    ]


def full_rule_set(resources):
    """The base rules plus the extended rules."""
    return base_rule_set() + extended_rule_set(resources)


def collect_records(graph, tokens, rules, resources=None):
    """Run the matching pass and the updating fixpoint.

    Returns {head id -> set of AlignmentRecord}.
    """
    fragments = graph.fragments.values()
    ctx = AlignmentContext(graph, tokens, resources)
    matching = [r for r in rules if r.kind == MATCHING]
    updating = [r for r in rules if r.kind == UPDATING]

    records = {head: set() for head in graph.fragments}
    for rule in matching:
        for fragment in fragments:
            for width in rule.widths(fragment, ctx):
                for span in ctx.spans(width):
                    if rule.match(fragment, span, ctx):
                        records[fragment.head].add(AlignmentRecord(span))

    # (rule, fragment, trigger head) for every edge an updating rule
    # follows to a fragment head (a literal another fragment claims is none)
    edges = [(rule, fragment, trigger) for rule in updating
             for fragment in fragments
             for trigger in rule.triggers(fragment, ctx) if trigger in records]
    changed = True
    while changed:
        changed = False
        for rule, fragment, trigger in edges:
            for record in list(records[trigger]):
                for span in rule.derive(fragment, record, ctx):
                    new = AlignmentRecord(span, trigger, record.span)
                    if new not in records[fragment.head]:
                        records[fragment.head].add(new)
                        changed = True
    return records


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
                         resources=None, per_fragment_cap=None):
    """The first `limit` legal span assignments, ranked by the spans of
    the fragments that have records, in fragment order.  A span is legal
    for a fragment while one of its records is: a matching record, or an
    updating record whose trigger fragment keeps the trigger span; distinct
    chosen spans may not partially overlap.  A depth-first search places
    those fragments in order, each on its spans in ascending order, and
    stops at `limit` + 1 candidates; `truncated` means more exist.  Each
    candidate is a span map over every fragment head, in fragment order;
    with no legal assignment the one candidate leaves every head unaligned.
    `per_fragment_cap` is accepted for older callers and ignored.
    """
    if not tokens:
        raise AlignmentInputError("token list may not be empty")
    if limit is not None and limit < 1:
        raise AlignmentInputError("candidate limit must be at least 1")
    records = collect_records(graph, tokens, rules, resources)
    heads = [h for h in graph.fragments if records[h]]
    by_span = {h: {} for h in heads}         # span -> records, spans ascending
    dependents = {h: set() for h in heads}   # heads with a record triggered here
    covering = [set() for _ in tokens]       # heads with a span over the token
    for head in heads:
        for rec in sorted(records[head], key=lambda r: r.span):
            by_span[head].setdefault(rec.span, []).append(rec)
            for index in range(rec.span.start, rec.span.end):
                covering[index].add(head)
            if rec.trigger is not None:
                dependents[rec.trigger].add(head)

    def usable(rec, domains):
        return rec.trigger is None or rec.trigger_span in domains[rec.trigger]

    def propagate(domains, changed):
        """Drop spans partially overlapping a fragment's last span or whose
        records all need a trigger span now lost; False if a domain empties."""
        while changed:
            head = changed.pop()
            fixed = domains[head][0] if len(domains[head]) == 1 else None
            affected = dependents[head].union(
                *covering[fixed.start:fixed.end]) if fixed else dependents[head]
            for other in affected:
                kept = [s for s in domains[other]
                        if not (fixed and s.overlaps(fixed) and s != fixed)
                        and any(usable(r, domains) for r in by_span[other][s])]
                if not kept:
                    return False
                if len(kept) < len(domains[other]):
                    domains[other] = kept
                    changed.append(other)
        return True

    def search(domains, depth):
        """Legal span tuples, heads[:depth] placed, in rank order."""
        while depth < len(heads) and len(domains[heads[depth]]) == 1:
            depth += 1
        if depth == len(heads):
            yield tuple(domains[h][0] for h in heads)
            return
        for span in domains[heads[depth]]:
            narrowed = {**domains, heads[depth]: [span]}
            if propagate(narrowed, [heads[depth]]):
                yield from search(narrowed, depth + 1)

    domains = {h: list(spans) for h, spans in by_span.items()}  # spans still open
    legal = search(domains, 0) if propagate(domains, list(heads)) else ()
    found = list(itertools.islice(legal, None if limit is None else limit + 1))
    unaligned = dict.fromkeys(graph.fragments)
    candidates = [{**unaligned, **dict(zip(heads, combo))}
                  for combo in found[:limit] or [()]]
    return AlignmentSet(graph, tokens, candidates,
                        truncated=limit is not None and len(found) > limit)


def alignment_f1(pred, gold):
    """Precision/recall/F1 over the (fragment head, span) pairs of two
    candidates of one graph."""
    if pred.keys() != gold.keys():
        raise AlignmentInputError("alignments cover different fragment heads")
    pred_pairs = {(h, span) for h, span in pred.items() if span is not None}
    gold_pairs = {(h, span) for h, span in gold.items() if span is not None}
    return score_counts(len(pred_pairs & gold_pairs), len(pred_pairs),
                        len(gold_pairs), False)[:3]
