"""The list-based transition system: states, action legality and action
application.

A state is (sigma, delta, beta, arcs): a stack of processed items, a
deque of stack items set aside to be pushed back, a buffer of unprocessed
items and the growing arc set.  The first five actions derive concepts
from words; Left/Right build arcs; Cache/Shift/Reduce move items.
"""

import re
from dataclasses import dataclass, replace

from .graph import (
    ATTRIBUTE, CONSTANT, AmrGraph, Concept, Relation, classify_label,
)
from .surface import date_attributes, entity_name_pieces

WORD = "word"
CONCEPT = "concept"

DROP = "DROP"
MERGE = "MERGE"
CONFIRM = "CONFIRM"
ENTITY = "ENTITY"
NEW = "NEW"
LEFT = "LEFT"
RIGHT = "RIGHT"
CACHE = "CACHE"
SHIFT = "SHIFT"
REDUCE = "REDUCE"

RELATION_ACTIONS = frozenset({LEFT, RIGHT})
BARE_ACTIONS = frozenset({DROP, MERGE, CACHE, SHIFT, REDUCE})
ALL_TAGS = (DROP, MERGE, CONFIRM, ENTITY, NEW, LEFT, RIGHT, CACHE, SHIFT, REDUCE)

_ACTION_RE = re.compile(r"^([A-Z]+)(?:\((.*)\))?$")

MULTI_ROOT_LABEL = "multi-sentence"
EMPTY_GRAPH_LABEL = "amr-empty"


class TransitionError(ValueError):
    pass


class StateError(ValueError):
    pass


@dataclass(frozen=True)
class Action:
    tag: str
    label: str = None

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise TransitionError("unknown action tag %r" % self.tag)
        if self.tag in BARE_ACTIONS and self.label is not None:
            raise TransitionError("%s takes no label" % self.tag)
        if self.tag not in BARE_ACTIONS and not self.label:
            raise TransitionError("%s requires a label" % self.tag)

    def __str__(self):
        if self.label is None:
            return self.tag
        return "%s(%s)" % (self.tag, self.label)


def parse_action(text):
    match = _ACTION_RE.match(text.strip())
    if not match:
        raise TransitionError("cannot parse action %r" % text)
    tag, label = match.groups()
    return Action(tag, label)


@dataclass(frozen=True)
class StackItem:
    kind: str            # WORD or CONCEPT
    span: tuple          # (start, end) token span of origin, or None
    node: str = None     # concept id for CONCEPT items
    surface: str = ""    # joined surface form

    def is_word(self):
        return self.kind == WORD

    def is_concept(self):
        return self.kind == CONCEPT


@dataclass(frozen=True)
class ParserState:
    sigma: tuple
    delta: tuple
    beta: tuple
    arcs: tuple                  # (head id, role, dependent id), creation order
    concepts: tuple              # (id, label) pairs, creation order
    tokens: tuple
    counter: int = 0
    history: tuple = ()

    @property
    def s0(self):
        return self.sigma[-1] if self.sigma else None

    @property
    def b0(self):
        return self.beta[0] if self.beta else None

    @property
    def b1(self):
        return self.beta[1] if len(self.beta) > 1 else None

    def concept_label(self, node):
        for nid, label in self.concepts:
            if nid == node:
                return label
        raise StateError("unknown node %r" % node)


def initial_state(tokens):
    if not tokens:
        raise TransitionError("token list may not be empty")
    beta = tuple(StackItem(WORD, (i, i + 1), surface=token)
                 for i, token in enumerate(tokens))
    return ParserState(sigma=(), delta=(), beta=beta, arcs=(), concepts=(),
                       tokens=tuple(tokens))


def is_terminal(state):
    return not state.beta and not state.sigma


def legal_actions(state):
    """The set of legal action tags in a state (Table rows whose
    current-state pattern matches)."""
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
        if s0 is not None and s0.is_concept():
            legal.add(LEFT)
            legal.add(RIGHT)
    if s0 is not None and b0 is not None:
        legal.add(CACHE)
    if s0 is not None and s0.is_concept():
        legal.add(REDUCE)
    return legal


def _new_node(state, label):
    node = "n%d" % state.counter
    return node, state.counter + 1, state.concepts + ((node, label),)


def apply(state, action):
    """Apply one action, returning the successor state."""
    if action.tag not in legal_actions(state):
        raise TransitionError(
            "action %s is illegal in state (|sigma|=%d, |delta|=%d, |beta|=%d)"
            % (action, len(state.sigma), len(state.delta), len(state.beta)))
    history = state.history + (action,)
    b0 = state.b0

    if action.tag == DROP:
        return replace(state, beta=state.beta[1:], history=history)

    if action.tag == MERGE:
        b1 = state.b1
        merged = StackItem(WORD, (b0.span[0], b1.span[1]),
                           surface=b0.surface + "_" + b1.surface)
        return replace(state, beta=(merged,) + state.beta[2:], history=history)

    if action.tag == CONFIRM:
        node, counter, concepts = _new_node(state, action.label)
        item = StackItem(CONCEPT, b0.span, node=node, surface=b0.surface)
        return replace(state, beta=(item,) + state.beta[1:], concepts=concepts,
                       counter=counter, history=history)

    if action.tag == ENTITY:
        return _apply_entity(state, action, history)

    if action.tag == NEW:
        node, counter, concepts = _new_node(state, action.label)
        item = StackItem(CONCEPT, b0.span, node=node, surface=b0.surface)
        return replace(state, beta=(item,) + state.beta, concepts=concepts,
                       counter=counter, history=history)

    if action.tag in RELATION_ACTIONS:
        s0 = state.s0
        if action.tag == LEFT:
            arc = (b0.node, action.label, s0.node)
        else:
            arc = (s0.node, action.label, b0.node)
        if arc in state.arcs:
            raise TransitionError("duplicate arc %r" % (arc,))
        if arc[0] == arc[2]:
            raise TransitionError("self-loop arc on %r" % arc[0])
        return replace(state, arcs=state.arcs + (arc,), history=history)

    if action.tag == CACHE:
        return replace(state, sigma=state.sigma[:-1],
                       delta=(state.sigma[-1],) + state.delta, history=history)

    if action.tag == SHIFT:
        sigma = state.sigma + state.delta + (b0,)
        return replace(state, sigma=sigma, delta=(), beta=state.beta[1:],
                       history=history)

    if action.tag == REDUCE:
        return replace(state, sigma=state.sigma[:-1], history=history)

    raise TransitionError("unhandled action %s" % action)  # pragma: no cover


def _apply_entity(state, action, history):
    """Derive the buffer front into an entity: the head concept plus an
    internal fragment built from the span's surface tokens."""
    b0 = state.b0
    head_label = action.label
    counter = state.counter
    concepts = state.concepts
    arcs = state.arcs
    span_tokens = list(state.tokens[b0.span[0]:b0.span[1]])

    def make(label):
        nonlocal counter, concepts
        node = "n%d" % counter
        counter += 1
        concepts = concepts + ((node, label),)
        return node

    head = make(head_label)
    if head_label == "date-entity":
        for role, value, quoted in date_attributes(span_tokens):
            child = make(value)
            arcs = arcs + ((head, role, child),)
    elif head_label == "name":
        for i, piece in enumerate(entity_name_pieces(span_tokens), start=1):
            child = make(piece)
            arcs = arcs + ((head, ":op%d" % i, child),)
    else:
        name_node = make("name")
        arcs = arcs + ((head, ":name", name_node),)
        for i, piece in enumerate(entity_name_pieces(span_tokens), start=1):
            child = make(piece)
            arcs = arcs + ((name_node, ":op%d" % i, child),)
    item = StackItem(CONCEPT, b0.span, node=head, surface=b0.surface)
    return replace(state, beta=(item,) + state.beta[1:], arcs=arcs,
                   concepts=concepts, counter=counter, history=history)


_NUMERIC_RE = re.compile(r"^-?\d+(\.\d+)?$")


def _built_kind(label, under_name, under_date):
    if under_name:
        return CONSTANT
    if under_date or _NUMERIC_RE.match(label) or label in ("-", "+"):
        return ATTRIBUTE
    return classify_label(label)


def extract_graph(state, force=False):
    """Read the derived graph out of a terminal state.

    The root is the unique concept without incoming arcs; several such
    concepts hang off a synthetic multi-sentence root instead.
    """
    if not is_terminal(state) and not force:
        raise StateError("cannot extract a graph from a non-terminal state")
    if not state.concepts:
        empty = Concept("n0", EMPTY_GRAPH_LABEL, classify_label(EMPTY_GRAPH_LABEL))
        return AmrGraph({"n0": empty}, [], "n0")

    name_children = set()
    date_children = set()
    heads_of = {}
    for head, role, dep in state.arcs:
        heads_of.setdefault(dep, []).append(head)
    label_of = dict(state.concepts)
    for head, role, dep in state.arcs:
        if label_of.get(head) == "name" and role.startswith(":op"):
            name_children.add(dep)
        if label_of.get(head) == "date-entity":
            date_children.add(dep)

    concepts = {}
    for node, label in state.concepts:
        kind = _built_kind(label, node in name_children, node in date_children)
        concepts[node] = Concept(node, label, kind)
    relations = [Relation(head, dep, role) for head, role, dep in state.arcs]

    roots = [node for node, _ in state.concepts if node not in heads_of]
    if not roots:
        roots = [state.concepts[0][0]]
    if len(roots) == 1:
        root = roots[0]
    else:
        root = "nroot"
        concepts = {root: Concept(root, MULTI_ROOT_LABEL,
                                  classify_label(MULTI_ROOT_LABEL)), **concepts}
        for i, node in enumerate(roots, start=1):
            relations.append(Relation(root, node, ":snt%d" % i))
    return AmrGraph(concepts, relations, root)
