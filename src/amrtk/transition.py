"""The list-based transition system: states, action legality and action
application.

A state is (sigma, delta, beta, arcs, labels, tokens, history): a stack
of processed items, a deque of stack items set aside to be pushed back, a
buffer of unprocessed items, the growing arc set, the concept labels, the
sentence's tokens and the actions applied so far.  The first five actions
derive concepts from words; Left/Right build arcs; Cache/Shift/Reduce move
items.

Each concept is its creation index: `labels[i]` is the label of concept
i, an item holds the index of its concept in `node` (None for a word),
and an arc is a (head, role, dependent) triple of indices.  SHIFT alone
pushes onto sigma (the deque, then b0, which must be a concept), and
CACHE alone fills the deque (from sigma's top), so sigma and delta hold
concepts alone; each concept lives in exactly one item.

States, items and actions are named tuples, compared and hashed by
their fields, and the legal tags of a state are the one frozenset kept
for its shape, so a step builds no more than its successor.  The hot
readers (`apply`, `legal_actions`, the oracle's step) unpack or index
these tuples rather than read their named fields, which in Python 3.11
cost about twice a dataclass attribute, and build them with
`tuple.__new__`, as `_make` does.
"""

import re
from typing import NamedTuple

from .graph import (
    ATTRIBUTE, CONSTANT, VARIABLE, AmrGraph, Concept, Relation, forest_roots,
)
from .surface import date_attributes, entity_name_pieces

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


# the parser's errors live here, beside the transition system's, so the
# CLI can name them without importing the parser (and numpy)
class TrainingError(ValueError):
    pass


class DecodeError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


class StateError(ValueError):
    pass


class _ActionFields(NamedTuple):
    tag: str
    label: str = None


class Action(_ActionFields):
    """One transition; construction checks the tag and its label."""
    __slots__ = ()

    def __new__(cls, tag, label=None):
        if tag not in ALL_TAGS:
            raise TransitionError("unknown action tag %r" % (tag,))
        if tag in BARE_ACTIONS and label is not None:
            raise TransitionError("%s takes no label" % tag)
        if tag not in BARE_ACTIONS and not label:
            raise TransitionError("%s requires a label" % tag)
        return tuple.__new__(cls, (tag, label))

    def __str__(self):
        if self.label is None:
            return self.tag
        return "%s(%s)" % (self.tag, self.label)


# the one Action of each bare tag, built once
BARE = {tag: Action(tag) for tag in BARE_ACTIONS}


def parse_action(text):
    match = _ACTION_RE.match(text.strip())
    if not match:
        raise TransitionError("cannot parse action %r" % text)
    tag, label = match.groups()
    return Action(tag, label)


class StackItem(NamedTuple):
    span: tuple          # (start, end) token span of origin
    surface: str         # joined surface form
    node: int = None     # index of the item's concept; None for a word

    def is_word(self):
        return self.node is None

    def is_concept(self):
        return self.node is not None


class ParserState(NamedTuple):
    sigma: tuple
    delta: tuple
    beta: tuple
    arcs: tuple                  # (head, role, dependent) nodes, creation order
    labels: tuple                # concept labels; a concept's node is its index
    tokens: tuple
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


_new = tuple.__new__  # a named tuple from its fields, as `_make` builds it


def initial_state(tokens):
    if not tokens:
        raise TransitionError("token list may not be empty")
    beta = tuple(StackItem((i, i + 1), token) for i, token in enumerate(tokens))
    return ParserState(sigma=(), delta=(), beta=beta, arcs=(), labels=(),
                       tokens=tuple(tokens))


def is_terminal(state):
    return not state.beta and not state.sigma


# the kinds of a state's b0 in its shape (None when the buffer is empty)
WORD = "word"
CONCEPT = "concept"


def _shape_tags(b0, b1_word, has_s0):
    """The legal action tags of a state shape (Table rows whose
    current-state pattern matches): `b0` is None, WORD or CONCEPT,
    `b1_word` whether b1 is a word, `has_s0` whether sigma is non-empty."""
    legal = set()
    if b0 == WORD:
        legal.update((DROP, CONFIRM, ENTITY))
        if b1_word:
            legal.add(MERGE)
    if b0 == CONCEPT:
        legal.update((NEW, SHIFT))
        if has_s0:
            legal.update((LEFT, RIGHT))
    if has_s0:
        legal.add(REDUCE)
        if b0 is not None:
            legal.add(CACHE)
    return frozenset(legal)


# one interned tag set per state shape, built once
_LEGAL_BY_SHAPE = {
    (b0, b1_word, has_s0): _shape_tags(b0, b1_word, has_s0)
    for b0 in (None, WORD, CONCEPT)
    for b1_word in (False, True)
    for has_s0 in (False, True)
}


def _legal_tags(sigma, beta):
    """The interned legal tag set of a stack and buffer's shape."""
    return _LEGAL_BY_SHAPE[
        None if not beta else WORD if beta[0][2] is None else CONCEPT,
        len(beta) > 1 and beta[1][2] is None, bool(sigma)]


def legal_actions(state):
    """The frozenset of legal action tags in a state, the one interned for
    the state's shape."""
    return _legal_tags(state[0], state[2])


def apply(state, action):
    """Apply one action, returning the successor state."""
    sigma, delta, beta, arcs, labels, tokens, history = state
    tag, label = action
    if tag not in _legal_tags(sigma, beta):
        raise TransitionError(
            "action %s is illegal in state (|sigma|=%d, |delta|=%d, |beta|=%d)"
            % (action, len(sigma), len(delta), len(beta)))
    # the tags in about the order the oracle uses them, most often first
    if tag == CACHE:
        sigma, delta = sigma[:-1], (sigma[-1],) + delta
    elif tag == SHIFT:
        sigma, delta, beta = sigma + delta + (beta[0],), (), beta[1:]
    elif tag == REDUCE:
        sigma = sigma[:-1]
    elif tag == CONFIRM or tag == NEW:
        # CONFIRM derives the word at b0; NEW pushes a concept before b0
        span, surface, _ = beta[0]
        item = _new(StackItem, (span, surface, len(labels)))
        beta = (item,) + (beta[1:] if tag == CONFIRM else beta)
        labels = labels + (label,)
    elif tag == LEFT or tag == RIGHT:
        s0, b0 = sigma[-1][2], beta[0][2]
        arc = (b0, label, s0) if tag == LEFT else (s0, label, b0)
        if arc in arcs:
            raise TransitionError(
                "%s duplicates an arc of the state" % (action,))
        arcs = arcs + (arc,)
    elif tag == DROP:
        beta = beta[1:]
    elif tag == ENTITY:
        span, surface, _ = beta[0]
        beta = (_new(StackItem, (span, surface, len(labels))),) + beta[1:]
        arcs, labels = _apply_entity(span, arcs, labels, tokens, label)
    else:  # MERGE
        (start, _), surface, _ = beta[0]
        (_, end), b1_surface, _ = beta[1]
        merged = _new(StackItem, ((start, end), surface + "_" + b1_surface,
                                  None))
        beta = (merged,) + beta[2:]
    return _new(ParserState, (sigma, delta, beta, arcs, labels, tokens,
                              history + (action,)))


def built_relations(state):
    """The set of LEFT and RIGHT actions that would build an arc the
    state already has between s0 and b0, as (tag, role) pairs, which an
    `Action` equals: LEFT(r) for an arc b0 -r-> s0, RIGHT(r) for
    s0 -r-> b0.  No such action is legal, so an arc is never built twice.
    One scan of the arcs answers for every role."""
    s0, b0 = state.sigma[-1].node, state.beta[0].node
    built = set()
    for head, role, dep in state.arcs:
        if head == b0 and dep == s0:
            built.add((LEFT, role))
        elif head == s0 and dep == b0:
            built.add((RIGHT, role))
    return built


def _apply_entity(span, arcs, labels, tokens, head_label):
    """(arcs, labels) of a state once its buffer front, over `span`, is
    derived into an entity: the head concept plus an internal fragment
    built from the span's surface tokens.

    The oracle relies on this layout: the head is node len(labels).  A
    `date-entity` head takes its date attributes, a `name` head its :opN
    pieces; any other head takes a :name concept at the next node, head
    + 1, and the pieces hang off that."""
    head = len(labels)
    labels = list(labels) + [head_label]
    arcs = list(arcs)
    span_tokens = tokens[span[0]:span[1]]

    def attach(parent, role, label):
        """A new concept under `parent`: its node."""
        arcs.append((parent, role, len(labels)))
        labels.append(label)
        return len(labels) - 1

    if head_label == "date-entity":
        for role, value in date_attributes(span_tokens):
            attach(head, role, value)
    else:
        name = head if head_label == "name" else attach(head, ":name", "name")
        for i, piece in enumerate(entity_name_pieces(span_tokens), start=1):
            attach(name, ":op%d" % i, piece)
    return tuple(arcs), tuple(labels)


_NUMERIC_RE = re.compile(r"^-?\d+(\.\d+)?$")


def _built_kind(label, under_name, under_date):
    if under_name:
        return CONSTANT
    if under_date or _NUMERIC_RE.match(label) or label in ("-", "+"):
        return ATTRIBUTE
    return VARIABLE


def extract_graph(state):
    """Read the derived graph out of a terminal state.

    Concept i is named n<i>, so address order is creation order.  The
    roots are `graph.forest_roots`: a single root is the graph's root;
    several hang off a synthetic multi-sentence root.
    """
    if not is_terminal(state):
        raise StateError("cannot extract a graph from a non-terminal state")
    labels = state.labels
    if not labels:
        empty = Concept("n0", EMPTY_GRAPH_LABEL, VARIABLE)
        return AmrGraph({"n0": empty}, [], "n0")

    heads = set()
    name_children = set()
    date_children = set()
    for head, role, dep in state.arcs:
        heads.add(head)
        if labels[head] == "name" and role.startswith(":op"):
            name_children.add(dep)
        if labels[head] == "date-entity":
            date_children.add(dep)

    ids = ["n%d" % node for node in range(len(labels))]
    concepts = {}
    for node, label in enumerate(labels):
        # a concept that heads an arc, or stands alone, is a variable,
        # whatever its label
        kind = VARIABLE if node in heads or len(labels) == 1 \
            else _built_kind(label, node in name_children, node in date_children)
        concepts[ids[node]] = Concept(ids[node], label, kind)
    relations = [Relation(ids[head], ids[dep], role)
                 for head, role, dep in state.arcs]

    graph = AmrGraph(concepts, relations, None)
    roots = forest_roots(graph)
    if len(roots) == 1:
        return graph
    root = "nroot"
    concepts = {root: Concept(root, MULTI_ROOT_LABEL, VARIABLE), **concepts}
    for i, node in enumerate(roots, start=1):
        relations.append(Relation(root, node, ":snt%d" % i))
    return AmrGraph(concepts, relations, root)
