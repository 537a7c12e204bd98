"""Deterministic oracle parser and alignment tuner.

Given a gold graph and one candidate alignment, the oracle emits the
action sequence that rebuilds the best achievable graph: unaligned
concepts are pruned first, which may leave a forest, then conditions are
checked in a fixed order to pick each action until every tree is built.
An `EdgeLedger` holds the gold edges still open and the gold concept each
built node stands for.  A concept is its creation index, so the oracle
records the node an action creates, and the edge it builds, when it
picks the action.  The tuner runs the oracle over every candidate and
keeps the highest-scoring one, breaking ties by the smaller action count.
"""

import logging
from dataclasses import dataclass

from . import transition
from .graph import (
    AmrGraph, Relation, depth_to_root, extract_fragments,
)
from .smatch import smatch_score
from .transition import Action, apply, initial_state, is_terminal

logger = logging.getLogger(__name__)

STEP_LIMIT_FACTOR = 50


class OracleError(RuntimeError):
    pass


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class OracleRun:
    actions: tuple
    parsed: AmrGraph
    smatch_f1: float
    trees: int  # source concepts of the pruned graph: the trees rebuilt
    certified: bool  # the Smatch count reached its upper bound

    @property
    def action_count(self):
        return len(self.actions)


def prune_unaligned(graph, alignment):
    """Remove concepts whose fragment has no aligned span.

    A removed concept with exactly one kept parent and one kept child is
    contracted (the parent edge's label survives); every other edge of a
    removed concept is dropped.  What is left may be a forest, named by
    the gold root if it is kept and else by its first source concept; a
    candidate that aligns nothing leaves the empty graph (root None).
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
    for removed in [cid for cid in graph.concepts if cid not in kept]:
        in_edges = [r for r in relations
                    if r.target == removed and r.source in kept]
        out_edges = [r for r in relations
                     if r.source == removed and r.target in kept]
        if len(in_edges) == 1 and len(out_edges) == 1:
            parent_edge = in_edges[0]
            child = out_edges[0].target
            contracted = Relation(parent_edge.source, child, parent_edge.label)
            if contracted.source != contracted.target \
                    and contracted not in relations:
                relations = [contracted if r is parent_edge else r
                             for r in relations]
        relations = [r for r in relations
                     if r.source != removed and r.target != removed]

    concepts = {cid: c for cid, c in graph.concepts.items() if cid in kept}
    root = graph.root
    if root not in concepts:
        targets = {r.target for r in relations}
        # a forest of directed cycles has no source: name its first concept
        root = next((cid for cid in concepts if cid not in targets),
                    next(iter(concepts), None))
    return AmrGraph(concepts, relations, root)


class EdgeLedger:
    """Bookkeeping for one oracle run.

    `open_edges` holds the gold edges still to be built, keyed (source,
    target, role) in the pruned graph's relation order; an edge leaves it
    when it is built or can no longer be.  `state_to_gold` maps each
    built node to the gold concept it stands for, and `settled` holds the
    gold concepts realized as a node or forfeited because their span was
    spent.  Both are recorded when the oracle picks the action that
    builds the concept."""

    def __init__(self, pruned, alignment):
        self.graph = pruned
        self.open_edges = dict.fromkeys(
            (r.source, r.target, r.label) for r in pruned.relations)
        self.state_to_gold = {}
        self.settled = set()
        self.frag_of = {f.head: f for f in extract_fragments(pruned)}
        self.span_of = {head: span for head, span in alignment.choices.items()
                        if span is not None and head in self.frag_of}
        self.order = pruned.addresses()
        self.heads_order = sorted(self.span_of, key=self.order.__getitem__)

    # --- alignment geometry -------------------------------------------------

    def covering_span(self, index):
        for head in self.heads_order:
            if self.span_of[head].covers(index):
                return self.span_of[head]
        return None

    def unsettled_heads_at(self, span):
        return [h for h in self.heads_order
                if self.span_of[h] == span and h not in self.settled]

    def entity_wrapper(self, entity_head, candidates):
        """The entity-type concept holding a :name edge to this fragment,
        when it is aligned to the same span and still pending."""
        for rel in self.graph.incoming(entity_head):
            if rel.label == ":name" and rel.source in candidates:
                return rel.source
        return None

    # --- open edges ---------------------------------------------------------

    def has_open_edge(self, gold_id):
        return any(gold_id in key[:2] for key in self.open_edges)

    def open_edge_between(self, gold_b0, gold_s0):
        """First open edge between the two concepts; b0-headed edges
        (Left) are preferred when both directions exist."""
        for source, target in ((gold_b0, gold_s0), (gold_s0, gold_b0)):
            for key in self.open_edges:
                if key[0] == source and key[1] == target:
                    return key
        return None

    def close_edges(self, gold_id):
        """Close every open edge of a concept: edges that can no longer
        be built."""
        for key in [key for key in self.open_edges if gold_id in key[:2]]:
            del self.open_edges[key]

    # --- realization --------------------------------------------------------

    def same_span_parent(self, gold_id):
        """Deepest unsettled gold parent aligned to the same span."""
        span = self.span_of.get(gold_id)
        if span is None:
            return None
        parents = [rel.source for rel in self.graph.incoming(gold_id)
                   if self.span_of.get(rel.source) == span
                   and rel.source not in self.settled]
        if not parents:
            return None
        return max(parents, key=lambda h: depth_to_root(self.graph, h))

    def realize(self, gold_id, state_node):
        self.state_to_gold[state_node] = gold_id
        self.settled.add(gold_id)

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
                if parent in self.settled:
                    continue
                closure.add(parent)
                frontier.append(parent)
        return closure

    def forfeit_outside_chain(self, built, span):
        """A span is spent once its words are consumed; same-span heads
        not reachable through the New chain can never be built, so their
        edges are closed to keep the run deadlock-free."""
        reachable = self.chain_closure(built, span)
        for head in self.unsettled_heads_at(span):
            if head in reachable or head == built:
                continue
            self.settled.add(head)
            self.close_edges(head)
            logger.debug("forfeited unreachable same-span concept %s", head)


def oracle_action(state, ledger):
    """Pick the next action by checking the oracle conditions in order,
    and record in the ledger the concepts and edges it builds."""
    pruned = ledger.graph
    b0 = state.b0
    s0 = state.s0
    node = len(state.labels)  # the node CONFIRM, NEW or ENTITY creates

    if b0 is not None and b0.is_word():
        span = ledger.covering_span(b0.span[0])
        if span is None:
            return Action(transition.DROP)
        b1 = state.b1
        if b1 is not None and b1.is_word() and span.covers(b1.span[0]):
            return Action(transition.MERGE)
        pending = ledger.unsettled_heads_at(span)
        if not pending:
            raise OracleError(
                "aligned span %s has no pending concept (state: %r)"
                % (span, state.history[-3:]))
        entity_heads = [h for h in pending if len(ledger.frag_of[h]) > 1]
        if len(entity_heads) == 1:
            entity = entity_heads[0]
            wrapper = ledger.entity_wrapper(entity, set(pending))
            top = wrapper if wrapper is not None else entity
            label = pruned.concept(top).label
            ledger.realize(top, node)
            if top != entity:
                if label in ("name", "date-entity"):
                    ledger.settled.add(entity)
                else:  # _apply_entity builds the name right after its head
                    ledger.realize(entity, node + 1)
                # the name node lives inside the entity fragment and never
                # reaches the stack or buffer; edges into it are unbuildable
                ledger.close_edges(entity)
            for rel in ledger.frag_of[entity].relations:
                ledger.open_edges.pop((rel.source, rel.target, rel.label), None)
            ledger.forfeit_outside_chain(top, span)
            return Action(transition.ENTITY, label)
        chosen = max(pending,
                     key=lambda h: (depth_to_root(pruned, h), -ledger.order[h]))
        ledger.realize(chosen, node)
        ledger.forfeit_outside_chain(chosen, span)
        return Action(transition.CONFIRM, pruned.concept(chosen).label)

    # every concept on the stack or buffer was realized when it was built
    if b0 is not None and b0.is_concept():
        gold_b0 = ledger.state_to_gold[b0.node]
        parent = ledger.same_span_parent(gold_b0)
        if parent is not None:
            ledger.realize(parent, node)
            return Action(transition.NEW, pruned.concept(parent).label)
        if s0 is not None:
            key = ledger.open_edge_between(gold_b0,
                                           ledger.state_to_gold[s0.node])
            if key is not None:
                del ledger.open_edges[key]
                if key[0] == gold_b0:
                    return Action(transition.LEFT, key[2])
                return Action(transition.RIGHT, key[2])

    if s0 is None:  # b0 is a concept: the state is not terminal
        return Action(transition.SHIFT)
    if b0 is not None and ledger.has_open_edge(ledger.state_to_gold[s0.node]):
        return Action(transition.CACHE)
    # with the buffer empty, open edges of s0 can no longer be built
    return Action(transition.REDUCE)


def oracle_run(tokens, graph, alignment, smatch_restarts=4, smatch_seed=1):
    """Run the oracle to termination and score the rebuilt graph against
    the original gold graph."""
    pruned = prune_unaligned(graph, alignment)
    ledger = EdgeLedger(pruned, alignment)
    state = initial_state(tokens)
    limit = STEP_LIMIT_FACTOR * len(tokens) + 100
    steps = 0
    while not is_terminal(state):
        action = oracle_action(state, ledger)
        state = apply(state, action)
        steps += 1
        if steps > limit:
            raise OracleError("oracle exceeded %d steps" % limit)
    parsed = transition.extract_graph(state)
    score = smatch_score(parsed, graph, restarts=smatch_restarts,
                         seed=smatch_seed)
    trees = sum(1 for cid in pruned.concepts if not pruned.incoming(cid))
    return OracleRun(state.history, parsed, score.f1, trees, score.certified)


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

