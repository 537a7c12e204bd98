"""Deterministic oracle parser and alignment tuner.

Given a gold graph and one candidate alignment, the oracle emits the
action sequence that rebuilds the best achievable graph: unaligned
concepts are pruned first, which may leave a forest, then conditions are
checked in a fixed order to pick each action until every tree is built.
An `EdgeLedger` holds the pruned graph's edges still open, the aligned
heads still pending on each span and the gold concept each built node
stands for; each fact has one home there, and a concept's edges are read
from the graph's own adjacency lists, so a step looks facts up instead of
scanning for them.  A concept is its creation index, so the oracle
records the node an action creates, and the edge it builds, when it
picks the action.  The tuner runs the oracle over every candidate,
Smatch-searches only those that can win and keeps the highest-scoring
one, breaking ties by the smaller action count, then by candidate order.
"""

from functools import cached_property

from . import transition
from .graph import AmrGraph, Relation, depth_to_root, forest_roots
from .smatch import (
    score_counts, smatch_score, to_triples, triple_count, upper_bound,
)
from .transition import BARE, Action, apply, initial_state

STEP_LIMIT_FACTOR = 50


class OracleError(RuntimeError):
    pass


class OracleRun:
    """One oracle run: its `actions`, the number of `trees` it rebuilt
    (`forest_roots` of the pruned graph), the number of aligned concepts
    it `forfeited` (`EdgeLedger.forfeited`) and, read on first use, the
    rebuilt graph `parsed` and its Smatch against the gold graph:
    `smatch_f1`, and `certified` when the matched count reached its upper
    bound.  Deferring the graph and its score lets `tune` drop a run that
    cannot win before paying for either; once read, the run lets go of
    the terminal state and the gold graph."""

    def __init__(self, state, trees, forfeited, gold, smatch_restarts,
                 smatch_seed):
        self.actions = state.history
        self.trees = trees
        self.forfeited = forfeited
        self._state = state
        self._gold = gold
        self._smatch_args = {"restarts": smatch_restarts, "seed": smatch_seed}

    @property
    def action_count(self):
        return len(self.actions)

    @cached_property
    def parsed(self):
        parsed = transition.extract_graph(self._state)
        del self._state
        return parsed

    @cached_property
    def _score(self):
        score = smatch_score(self.parsed, self._gold, **self._smatch_args)
        del self._gold, self._smatch_args
        return score

    @property
    def smatch_f1(self):
        return self._score.f1

    @property
    def certified(self):
        return self._score.certified


def prune_unaligned(graph, alignment):
    """Remove concepts whose fragment the span map leaves unaligned.

    A removed concept with exactly one kept parent and one kept child is
    contracted (the parent edge's label survives); every other edge of a
    removed concept is dropped.  What is left may be a forest, named by
    the gold root if it is kept and else by the first of its
    `graph.forest_roots`; a candidate that aligns nothing leaves the
    empty graph (root None).
    """
    fragments = graph.fragments
    kept = set()
    for head, span in alignment.items():
        if span is not None and head in fragments:
            kept.update(fragments[head].members)
    if len(kept) == len(graph.concepts):
        return graph

    contracted = {}  # parent edge of a contracted concept -> its new edge
    for removed in [cid for cid in graph.concepts if cid not in kept]:
        in_edges = [r for r in graph.incoming(removed) if r.source in kept]
        out_edges = [r for r in graph.outgoing(removed) if r.target in kept]
        if len(in_edges) == 1 and len(out_edges) == 1:
            parent_edge = in_edges[0]
            edge = Relation(parent_edge.source, out_edges[0].target,
                            parent_edge.label)
            if edge.source != edge.target \
                    and edge not in graph.outgoing(edge.source) \
                    and edge not in contracted.values():
                contracted[parent_edge] = edge
    relations = [rel for rel in (contracted.get(r, r) for r in graph.relations)
                 if rel.source in kept and rel.target in kept]

    concepts = {cid: c for cid, c in graph.concepts.items() if cid in kept}
    root = graph.root if graph.root in kept else None
    return AmrGraph(concepts, relations, root)


class EdgeLedger:
    """Bookkeeping for one oracle run.

    `open_edges` holds the pruned graph's relations still to be built; a
    relation leaves it when it is built or can no longer be, and the
    graph's own adjacency lists give a concept's edges in relation order.
    `pending` maps each aligned span to the heads aligned there that are
    neither realized nor forfeited, in address order, and `span_at` maps
    a token to the span of the first aligned head, in address order, that
    covers it.  `state_to_gold` maps each built node to the gold concept
    it stands for.  A head is settled, and a node recorded, when the
    oracle picks the action that builds it; `forfeited` counts the heads
    settled unbuilt by `forfeit_outside_chain`."""

    def __init__(self, pruned, alignment):
        self.graph = pruned
        self.open_edges = set(pruned.relations)
        self.state_to_gold = {}
        self.forfeited = 0
        self.span_of = {head: span for head, span in alignment.items()
                        if span is not None and head in pruned.fragments}
        self.pending = {}
        self.span_at = {}
        for head in pruned.concepts:  # address order
            span = self.span_of.get(head)
            if span is not None:
                self.pending.setdefault(span, {})[head] = None
                for index in range(span.start, span.end):
                    self.span_at.setdefault(index, span)

    def settle(self, head):
        """The head is realized or can no longer be: it leaves `pending`."""
        del self.pending[self.span_of[head]][head]

    def entity_wrapper(self, entity_head, candidates):
        """The entity-type concept holding a :name edge to this fragment,
        when it is aligned to the same span and still pending."""
        for rel in self.graph.incoming(entity_head):
            if rel.label == ":name" and rel.source in candidates:
                return rel.source
        return None

    # --- open edges ---------------------------------------------------------

    def close_edges(self, gold_id):
        """Close every open edge of a concept: edges that can no longer
        be built."""
        self.open_edges.difference_update(self.graph.outgoing(gold_id))
        self.open_edges.difference_update(self.graph.incoming(gold_id))

    # --- realization --------------------------------------------------------

    def realize(self, gold_id, state_node):
        self.state_to_gold[state_node] = gold_id
        self.settle(gold_id)

    def chain_closure(self, start, span):
        """Gold concepts reachable from `start` by climbing parents still
        pending on the span: everything the New action can still build."""
        pending = self.pending[span]
        closure = {start}
        frontier = [start]
        while frontier:
            cid = frontier.pop()
            for rel in self.graph.incoming(cid):
                parent = rel.source
                if parent in pending and parent not in closure:
                    closure.add(parent)
                    frontier.append(parent)
        return closure

    def forfeit_outside_chain(self, built, span):
        """A span is spent once its words are consumed; same-span heads
        not reachable through the New chain can never be built, so their
        edges are closed to keep the run deadlock-free."""
        reachable = self.chain_closure(built, span)
        for head in [h for h in self.pending[span] if h not in reachable]:
            self.settle(head)
            self.close_edges(head)
            self.forfeited += 1


def oracle_action(state, ledger):
    """Pick the next action by checking the oracle conditions in order,
    and record in the ledger the concepts and edges it builds."""
    sigma, _, beta, _, labels, _, history = state
    pruned = ledger.graph
    node = len(labels)  # the node CONFIRM, NEW or ENTITY creates
    if not beta:
        # with the buffer empty, open edges of s0 can no longer be built
        return BARE[transition.REDUCE]
    (start, _), _, b0 = beta[0]
    if b0 is None:  # a word
        span = ledger.span_at.get(start)
        if span is None:
            return BARE[transition.DROP]
        if len(beta) > 1:
            (b1_start, _), _, b1 = beta[1]
            if b1 is None and span[0] <= b1_start < span[1]:
                return BARE[transition.MERGE]
        pending = ledger.pending[span]
        if not pending:
            raise OracleError(
                "aligned span %s has no pending concept (state: %r)"
                % (span, history[-3:]))
        entity_heads = [h for h in pending if len(pruned.fragments[h]) > 1]
        if len(entity_heads) == 1:
            entity = entity_heads[0]
            wrapper = ledger.entity_wrapper(entity, pending)
            top = wrapper if wrapper is not None else entity
            label = pruned.concepts[top].label
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
            return Action(transition.ENTITY, label)
        # pending is in address order: the first deepest head is chosen
        chosen = max(pending, key=lambda h: depth_to_root(pruned, h))
        ledger.realize(chosen, node)
        ledger.forfeit_outside_chain(chosen, span)
        return Action(transition.CONFIRM, pruned.concepts[chosen].label)

    # every concept on the stack or buffer was realized when it was built;
    # its deepest pending parent on the same span is built first
    gold_b0 = ledger.state_to_gold[b0]
    pending = ledger.pending[ledger.span_of[gold_b0]]
    if pending:
        parents = [source for source, _, _ in pruned.incoming(gold_b0)
                   if source in pending]
        if parents:
            parent = max(parents, key=lambda h: depth_to_root(pruned, h))
            ledger.realize(parent, node)
            return Action(transition.NEW, pruned.concepts[parent].label)
    if not sigma:
        return BARE[transition.SHIFT]
    gold_s0 = ledger.state_to_gold[sigma[-1][2]]
    open_edges = ledger.open_edges
    # the first open edge between them, b0-headed (Left) first; a
    # relation is (source, target, label)
    for rel in pruned.outgoing(gold_b0):
        if rel[1] == gold_s0 and rel in open_edges:
            open_edges.remove(rel)
            return Action(transition.LEFT, rel[2])
    for rel in pruned.outgoing(gold_s0):
        if rel[1] == gold_b0 and rel in open_edges:
            open_edges.remove(rel)
            return Action(transition.RIGHT, rel[2])
    if not (open_edges.isdisjoint(pruned.outgoing(gold_s0))
            and open_edges.isdisjoint(pruned.incoming(gold_s0))):
        return BARE[transition.CACHE]
    return BARE[transition.REDUCE]


def oracle_run(tokens, graph, alignment, smatch_restarts=4, smatch_seed=1):
    """Run the oracle to termination; the run scores the rebuilt graph
    against the original gold graph when its score is first read."""
    pruned = prune_unaligned(graph, alignment)
    ledger = EdgeLedger(pruned, alignment)
    state = initial_state(tokens)
    limit = STEP_LIMIT_FACTOR * len(tokens) + 100
    steps = 0
    while state[2] or state[0]:  # not terminal
        action = oracle_action(state, ledger)
        state = apply(state, action)
        steps += 1
        if steps > limit:
            raise OracleError("oracle exceeded %d steps" % limit)
    return OracleRun(state, len(forest_roots(pruned)), ledger.forfeited,
                     graph, smatch_restarts, smatch_seed)


def tune(tokens, graph, alignment_set, smatch_restarts=4, smatch_seed=1):
    """Run the oracle over every candidate, Smatch-search only the runs
    that can still win and return (best candidate, its run).

    The best candidate maximizes the key (Smatch F1, -action count);
    remaining ties keep the earlier candidate, so a later run wins only
    on a strictly higher key.  A run is not searched when even its best
    possible key, (F1 of the `upper_bound` count, -action count), cannot
    beat the best key so far: F1 does not fall as the matched count
    rises.  No F1 exceeds 1.0, so once the best run scores 1.0 a run with
    no fewer actions is dropped before its graph is extracted.  Each
    search is seeded alone, so the result equals scoring every candidate.
    """
    gold = None  # the gold graph's triples, built when a bound first needs them
    best = best_run = best_key = None
    for candidate in alignment_set:
        run = oracle_run(tokens, graph, candidate,
                         smatch_restarts=smatch_restarts,
                         smatch_seed=smatch_seed)
        if best_key is not None:
            # the best key any run can reach needs no graph
            if (1.0, -run.action_count) <= best_key:
                continue
            if gold is None:
                gold = to_triples(graph)
            triples = to_triples(run.parsed)
            bound = score_counts(upper_bound(triples, gold),
                                 triple_count(triples), triple_count(gold),
                                 True).f1
            if (bound, -run.action_count) <= best_key:
                continue
        key = (run.smatch_f1, -run.action_count)
        if best_key is None or key > best_key:
            best, best_run, best_key = candidate, run, key
    return best, best_run
