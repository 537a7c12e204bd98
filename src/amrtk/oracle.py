"""Deterministic oracle parser and alignment tuner.

Given a gold graph and one candidate alignment, the oracle emits the
action sequence that rebuilds the best achievable graph: unaligned
concepts are pruned first, then conditions are checked in a fixed order
to pick each action.  The tuner runs the oracle over every candidate and
keeps the highest-scoring one, breaking ties by the smaller action count.
"""

import logging
from dataclasses import dataclass

from . import transition
from .graph import (
    AmrGraph, Relation, bfs_depths, depth_to_root, extract_fragments,
)
from .smatch import smatch_score
from .transition import Action, apply, initial_state, is_terminal

logger = logging.getLogger(__name__)

STEP_LIMIT_FACTOR = 50

HISTOGRAM_BUCKET = 10


class OracleError(RuntimeError):
    pass


class PruneError(ValueError):
    pass


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class OracleRun:
    actions: tuple
    parsed: AmrGraph
    smatch_f1: float
    action_count: int
    n_tokens: int


def prune_unaligned(graph, alignment):
    """Remove concepts whose fragment has no aligned span.

    A removed concept with exactly one kept parent and one kept child is
    contracted (the parent edge's label survives); other removed concepts
    take their unreachable subtrees with them.  An unaligned root is
    replaced by its single kept child, or the candidate is unusable.
    """
    fragments = extract_fragments(graph)
    frag_of = {f.head: f for f in fragments}
    kept = set()
    for head in alignment.aligned_heads():
        if head in frag_of:
            kept.update(frag_of[head].members)
    if len(kept) == len(graph.concepts):
        return graph

    relations = list(graph.relations)
    root = graph.root
    for removed in [cid for cid in graph.concepts if cid not in kept]:
        in_edges = [r for r in relations
                    if r.target == removed and r.source in kept]
        out_edges = [r for r in relations
                     if r.source == removed and r.target in kept]
        if removed == root:
            if len(out_edges) == 1:
                root = out_edges[0].target
            else:
                raise PruneError(
                    "root fragment is unaligned and not contractible")
        elif len(in_edges) == 1 and len(out_edges) == 1:
            parent_edge = in_edges[0]
            child = out_edges[0].target
            contracted = Relation(parent_edge.source, child, parent_edge.label)
            duplicate = any(
                r.source == contracted.source and r.target == contracted.target
                and r.label == contracted.label for r in relations)
            if contracted.source != contracted.target and not duplicate:
                relations = [contracted if r is parent_edge else r
                             for r in relations]
        relations = [r for r in relations
                     if r.source != removed and r.target != removed]

    # keep only the component still connected to the root
    kept_graph = AmrGraph({cid: c for cid, c in graph.concepts.items()
                           if cid in kept}, relations, root)
    reachable = bfs_depths(kept_graph)
    concepts = {cid: c for cid, c in kept_graph.concepts.items()
                if cid in reachable}
    relations = [r for r in relations if r.source in reachable]
    return AmrGraph(concepts, relations, root)


class EdgeLedger:
    """Bookkeeping for one oracle run: which gold edges are processed,
    which gold concepts are realized as state concepts, and which gold
    concepts were forfeited because their span was spent."""

    def __init__(self, pruned, alignment):
        self.graph = pruned
        self.edge_keys = [(r.source, r.target, r.label) for r in pruned.relations]
        self.processed = {key: False for key in self.edge_keys}
        self.gold_to_state = {}
        self.state_to_gold = {}
        self.realized = set()
        self.forfeited = set()
        self.pending = None
        self.fragments = extract_fragments(pruned)
        self.frag_of = {f.head: f for f in self.fragments}
        self.span_of = {}
        self.order = pruned.addresses()
        for head, record in alignment.choices.items():
            if record is not None and head in self.frag_of:
                self.span_of[head] = record.span
        self.heads_order = sorted(self.span_of, key=self.order.__getitem__)

    # --- alignment geometry -------------------------------------------------

    def covering_span(self, index):
        for head in self.heads_order:
            if self.span_of[head].covers(index):
                return self.span_of[head]
        return None

    def heads_at(self, span):
        return [h for h in self.heads_order if self.span_of[h] == span]

    def unrealized_heads_at(self, span):
        return [h for h in self.heads_at(span)
                if h not in self.realized and h not in self.forfeited]

    def is_entity_fragment(self, head):
        return len(self.frag_of[head]) > 1

    def entity_wrapper(self, entity_head, candidates):
        """The entity-type concept holding a :name edge to this fragment,
        when it is aligned to the same span and still pending."""
        for rel in self.graph.incoming(entity_head):
            if rel.label == ":name" and rel.source in candidates:
                return rel.source
        return None

    # --- edge bookkeeping ---------------------------------------------------

    def unprocessed_count(self, gold_id):
        return sum(1 for key in self.edge_keys
                   if not self.processed[key] and gold_id in (key[0], key[1]))

    def unprocessed_between(self, gold_b0, gold_s0):
        """First unprocessed edge between the two concepts; b0-headed
        edges (Left) are preferred when both directions exist."""
        for source, target in ((gold_b0, gold_s0), (gold_s0, gold_b0)):
            for key in self.edge_keys:
                if key[0] == source and key[1] == target and not self.processed[key]:
                    return key
        return None

    def mark_processed(self, key):
        self.processed[key] = True

    def close_edges(self, gold_id):
        """Mark every edge of a concept processed: edges that can no
        longer be built."""
        for key in self.edge_keys:
            if gold_id in (key[0], key[1]):
                self.processed[key] = True

    # --- realization --------------------------------------------------------

    def same_span_parent(self, gold_id):
        """Deepest unrealized gold parent aligned to the same span."""
        span = self.span_of.get(gold_id)
        if span is None:
            return None
        parents = [rel.source for rel in self.graph.incoming(gold_id)
                   if self.span_of.get(rel.source) == span
                   and rel.source not in self.realized
                   and rel.source not in self.forfeited]
        if not parents:
            return None
        return max(parents, key=lambda h: (depth_to_root(self.graph, h),))

    def realize(self, gold_id, state_node):
        self.gold_to_state[gold_id] = state_node
        self.state_to_gold[state_node] = gold_id
        self.realized.add(gold_id)

    def chain_closure(self, start, span):
        """Gold concepts reachable from `start` by climbing parents that
        share the span: everything the New action can still build."""
        closure = {start}
        frontier = [start]
        while frontier:
            cid = frontier.pop()
            for rel in self.graph.incoming(cid):
                parent = rel.source
                if parent in closure or self.span_of.get(parent) != span:
                    continue
                if parent in self.realized or parent in self.forfeited:
                    continue
                closure.add(parent)
                frontier.append(parent)
        return closure

    def forfeit_outside_chain(self, built, span):
        """A span is spent once its words are consumed; same-span heads
        not reachable through the New chain can never be built, so their
        edges are marked processed to keep the run deadlock-free."""
        reachable = self.chain_closure(built, span)
        for head in self.unrealized_heads_at(span):
            if head in reachable or head == built:
                continue
            self.forfeited.add(head)
            self.close_edges(head)
            logger.debug("forfeited unreachable same-span concept %s", head)


def oracle_action(state, ledger):
    """Pick the next action by checking the oracle conditions in order."""
    pruned = ledger.graph
    b0 = state.b0
    s0 = state.s0

    if b0 is not None and b0.is_word():
        span = ledger.covering_span(b0.span[0])
        if span is None:
            return Action(transition.DROP)
        b1 = state.b1
        if b1 is not None and b1.is_word() and span.covers(b1.span[0]):
            return Action(transition.MERGE)
        pending = ledger.unrealized_heads_at(span)
        if not pending:
            raise OracleError(
                "aligned span %s has no pending concept (state: %r)"
                % (span, state.history[-3:]))
        entity_heads = [h for h in pending if ledger.is_entity_fragment(h)]
        if len(entity_heads) == 1:
            entity = entity_heads[0]
            wrapper = ledger.entity_wrapper(entity, set(pending))
            top = wrapper if wrapper is not None else entity
            ledger.pending = ("entity", top, entity, span)
            return Action(transition.ENTITY, pruned.concept(top).label)
        chosen = max(pending,
                     key=lambda h: (depth_to_root(pruned, h), -ledger.order[h]))
        ledger.pending = ("confirm", chosen, span)
        return Action(transition.CONFIRM, pruned.concept(chosen).label)

    if b0 is not None and b0.is_concept():
        gold_b0 = ledger.state_to_gold.get(b0.node)
        if gold_b0 is not None:
            parent = ledger.same_span_parent(gold_b0)
            if parent is not None:
                ledger.pending = ("new", parent)
                return Action(transition.NEW, pruned.concept(parent).label)
        if s0 is not None and s0.is_concept() and gold_b0 is not None:
            gold_s0 = ledger.state_to_gold.get(s0.node)
            if gold_s0 is not None:
                key = ledger.unprocessed_between(gold_b0, gold_s0)
                if key is not None:
                    ledger.mark_processed(key)
                    if key[0] == gold_b0:
                        return Action(transition.LEFT, key[2])
                    return Action(transition.RIGHT, key[2])

    if s0 is not None:
        gold_s0 = ledger.state_to_gold.get(s0.node) if s0.is_concept() else None
        pending_edges = (ledger.unprocessed_count(gold_s0)
                         if gold_s0 is not None else 0)
        if pending_edges > 0 and b0 is not None:
            return Action(transition.CACHE)
        # with the buffer empty, pending edges of s0 can no longer be built
        if s0.is_concept() and (pending_edges == 0 or b0 is None):
            return Action(transition.REDUCE)

    if b0 is not None and b0.is_concept():
        return Action(transition.SHIFT)

    raise OracleError(
        "no oracle condition matches (|sigma|=%d, |delta|=%d, |beta|=%d, "
        "history=%s)" % (len(state.sigma), len(state.delta), len(state.beta),
                         [str(a) for a in state.history[-5:]]))


def _finalize(ledger, state):
    """Register the concepts created by the action just applied."""
    if ledger.pending is None:
        return
    kind = ledger.pending[0]
    if kind == "confirm":
        _, gold, span = ledger.pending
        ledger.realize(gold, state.b0.node)
        ledger.forfeit_outside_chain(gold, span)
    elif kind == "new":
        _, gold = ledger.pending
        ledger.realize(gold, state.b0.node)
    elif kind == "entity":
        _, top, entity, span = ledger.pending
        head_node = state.b0.node
        ledger.realize(top, head_node)
        if top != entity:
            name_node = next((dep for head, role, dep in state.arcs
                              if head == head_node and role == ":name"), None)
            if name_node is not None:
                ledger.realize(entity, name_node)
            else:
                ledger.realized.add(entity)
            # the name node lives inside the entity fragment and never
            # reaches the stack or buffer; edges into it are unbuildable
            ledger.close_edges(entity)
        else:
            ledger.realized.add(entity)
        for rel in ledger.frag_of[entity].relations:
            key = (rel.source, rel.target, rel.label)
            if key in ledger.processed:
                ledger.mark_processed(key)
        ledger.forfeit_outside_chain(top, span)
    ledger.pending = None


def oracle_run(tokens, graph, alignment, smatch_restarts=4, smatch_seed=1):
    """Run the oracle to termination and score the rebuilt graph against
    the original gold graph."""
    try:
        pruned = prune_unaligned(graph, alignment)
    except PruneError:
        return OracleRun((), None, 0.0, 0, len(tokens))
    ledger = EdgeLedger(pruned, alignment)
    state = initial_state(tokens)
    limit = STEP_LIMIT_FACTOR * len(tokens) + 100
    steps = 0
    while not is_terminal(state):
        action = oracle_action(state, ledger)
        state = apply(state, action)
        _finalize(ledger, state)
        steps += 1
        if steps > limit:
            raise OracleError("oracle exceeded %d steps" % limit)
    parsed = transition.extract_graph(state)
    score = smatch_score(parsed, graph, restarts=smatch_restarts,
                         seed=smatch_seed)
    return OracleRun(tuple(state.history), parsed, score.f1,
                     len(state.history), len(tokens))


def tune(tokens, graph, alignment_set, smatch_restarts=4, smatch_seed=1):
    """Oracle-score every candidate; return (best candidate, its run).

    The best candidate maximizes Smatch F1, then minimizes the action
    count; remaining ties keep the earlier candidate.
    """
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


def action_stats(runs):
    """Mean action count plus a sentence-length-bucketed histogram."""
    runs = list(runs)
    if not runs:
        raise StatsError("no oracle runs to summarize")
    mean = sum(run.action_count for run in runs) / len(runs)
    histogram = {}
    for run in runs:
        bucket = (run.n_tokens // HISTOGRAM_BUCKET) * HISTOGRAM_BUCKET
        histogram.setdefault(bucket, []).append(run.action_count)
    summary = {bucket: (len(counts), sum(counts) / len(counts))
               for bucket, counts in sorted(histogram.items())}
    return mean, summary
