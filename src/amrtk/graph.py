"""AMR graph data model plus Penman-notation reading/writing.

Graphs are rooted, directed and labeled.  Constants (quoted strings,
numbers, `-` polarity and other bare literals) are modeled as leaf
concepts so that triple extraction and fragment grouping can treat every
node uniformly.
"""

import logging
import re
from dataclasses import dataclass

logger = logging.getLogger(__name__)

# concept kinds
PREDICATE = "predicate"
ENTITY_TYPE = "entity-type"
NAME = "name"
CONSTANT = "constant"          # quoted string literal
ATTRIBUTE = "attribute-value"  # unquoted literal: numbers, '-', 'imperative', ...

LITERAL_KINDS = (CONSTANT, ATTRIBUTE)

_SENSE_RE = re.compile(r"-\d+$")
# bare atoms of this shape that never get defined are treated as dangling
# variable references rather than constants
_VAR_LIKE_RE = re.compile(r"^[a-z]\d*$")
_TOKEN_RE = re.compile(r'\(|\)|/|"(?:[^"\\]|\\.)*"|[^\s()/]+')
_OP_ROLE_RE = re.compile(r"^:op\d+$")


def strip_sense(label):
    """`run-01` -> `run`; labels without a sense suffix are unchanged."""
    return _SENSE_RE.sub("", label)


class PenmanError(ValueError):
    """Base class for Penman reading problems."""


class PenmanSyntaxError(PenmanError):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class PenmanStructureError(PenmanError):
    pass


class SerializationError(ValueError):
    pass


class GraphLookupError(KeyError):
    pass


@dataclass(frozen=True)
class Concept:
    id: str
    label: str
    kind: str


@dataclass(frozen=True)
class Relation:
    source: str
    target: str
    label: str  # role, e.g. ':ARG0'


def classify_label(label, quoted=False):
    """Kind of a node given its label text."""
    if quoted:
        return CONSTANT
    if label == "name":
        return NAME
    if _SENSE_RE.search(label):
        return PREDICATE
    return ENTITY_TYPE


class AmrGraph:
    """Immutable-by-convention rooted graph of concepts and relations.

    `concepts` preserves first-appearance order, which doubles as the node
    addressing scheme for alignment files.
    """

    def __init__(self, concepts, relations, root, metadata=None):
        self.concepts = dict(concepts)  # id -> Concept, insertion-ordered
        self.relations = tuple(relations)
        self.root = root
        self.metadata = dict(metadata or {})
        if root not in self.concepts:
            raise PenmanStructureError("root %r is not a concept" % root)
        seen = set()
        for rel in self.relations:
            if rel.source == rel.target:
                raise PenmanStructureError("self-loop on %r" % rel.source)
            key = (rel.source, rel.target, rel.label)
            if key in seen:
                raise PenmanStructureError("duplicate relation %r" % (key,))
            seen.add(key)
        self._out = {}
        self._in = {}
        for rel in self.relations:
            self._out.setdefault(rel.source, []).append(rel)
            self._in.setdefault(rel.target, []).append(rel)
        self._depths = None

    def concept(self, cid):
        try:
            return self.concepts[cid]
        except KeyError:
            raise GraphLookupError(cid)

    def outgoing(self, cid):
        return self._out.get(cid, [])

    def incoming(self, cid):
        return self._in.get(cid, [])

    def is_literal(self, cid):
        return self.concept(cid).kind in LITERAL_KINDS

    def var_ids(self):
        """Ids of non-literal concepts (the Smatch variables)."""
        return [cid for cid, c in self.concepts.items() if c.kind not in LITERAL_KINDS]

    def addresses(self):
        """id -> position in first-appearance order."""
        return {cid: i for i, cid in enumerate(self.concepts)}

    def is_connected(self):
        return len(bfs_depths(self)) == len(self.concepts)

    def __repr__(self):
        return "AmrGraph(root=%r, %d concepts, %d relations)" % (
            self.root, len(self.concepts), len(self.relations))


@dataclass(frozen=True)
class Fragment:
    """A connected alignable unit: a head concept plus grouped children."""
    head: str
    members: tuple
    relations: tuple

    def __len__(self):
        return len(self.members)


def tokenize_penman(text):
    tokens = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        between = text[pos:match.start()]
        if between.strip():
            raise PenmanSyntaxError("unexpected character %r" % between.strip()[0], pos)
        tokens.append((match.group(), match.start()))
        pos = match.end()
    if text[pos:].strip():
        raise PenmanSyntaxError("unexpected trailing text", pos)
    return tokens


class _PenmanReader:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize_penman(text)
        self.i = 0
        self.defined = {}     # var -> label
        self.order = []       # variable definition order
        self.edges = []       # (source var, role, ('var'|'atom'|'quoted', value, pos))

    def peek(self):
        if self.i >= len(self.tokens):
            raise PenmanSyntaxError("unexpected end of input", len(self.text))
        return self.tokens[self.i]

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        tok, pos = self.take()
        if tok != value:
            raise PenmanSyntaxError("expected %r, found %r" % (value, tok), pos)

    def parse(self):
        root = self.parse_node()
        if self.i != len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise PenmanSyntaxError("trailing token %r" % tok, pos)
        return root

    def parse_node(self):
        self.expect("(")
        var, vpos = self.take()
        if var in "()/" or var.startswith('"'):
            raise PenmanSyntaxError("expected a variable, found %r" % var, vpos)
        self.expect("/")
        label, lpos = self.take()
        if label in "()/":
            raise PenmanSyntaxError("expected a concept label, found %r" % label, lpos)
        if label.startswith('"'):
            label = label[1:-1]
        if var in self.defined:
            raise PenmanStructureError("duplicate definition of variable %r" % var)
        self.defined[var] = label
        self.order.append(("var", var))
        while True:
            tok, pos = self.peek()
            if tok == ")":
                self.take()
                return var
            if not tok.startswith(":"):
                raise PenmanSyntaxError("expected a role or ')', found %r" % tok, pos)
            role = self.take()[0]
            tok, tpos = self.peek()
            if tok == "(":
                # reserve the slot first so edges stay in textual order even
                # though the child subtree is parsed before the append
                slot = len(self.edges)
                self.edges.append(None)
                child = self.parse_node()
                self.edges[slot] = (var, role, ("var", child, tpos))
            else:
                value, vpos2 = self.take()
                if value in ")/":
                    raise PenmanSyntaxError("missing value for role %s" % role, vpos2)
                if value.startswith('"'):
                    literal = value[1:-1].replace('\\"', '"')
                    self.edges.append((var, role, ("quoted", literal, vpos2)))
                else:
                    self.edges.append((var, role, ("atom", value, vpos2)))


def parse_penman(text, metadata=None):
    """Read one Penman expression into an AmrGraph.

    Variable names are kept as concept ids.  Repeated variables become
    re-entrancies.  Unquoted atoms that match a defined variable are
    references; short variable-shaped atoms (`x`, `n2`) that are never
    defined raise a structure error, anything else becomes a literal node.
    """
    reader = _PenmanReader(text)
    root = reader.parse()

    concepts = {}
    lit_ids = iter("_lit%d" % i for i in range(10 ** 6))
    relations = []
    # interleave definitions and literals back into appearance order
    resolved_edges = []
    for source, role, (kind, value, pos) in reader.edges:
        if kind == "var" or (kind == "atom" and value in reader.defined):
            resolved_edges.append((source, role, value, None))
        elif kind == "atom" and _VAR_LIKE_RE.match(value):
            raise PenmanStructureError(
                "dangling reference to undefined variable %r" % value)
        else:
            lid = next(lit_ids)
            while lid in reader.defined:
                lid = next(lit_ids)
            node_kind = CONSTANT if kind == "quoted" else ATTRIBUTE
            resolved_edges.append((source, role, lid, Concept(lid, value, node_kind)))

    # appearance order: walk edges in file order, defining variables at their
    # first occurrence (the reader recorded definition order separately)
    def_order = [v for k, v in reader.order if k == "var"]
    emitted = set()
    first_var = def_order[0]
    concepts[first_var] = Concept(first_var, reader.defined[first_var],
                                  classify_label(reader.defined[first_var]))
    emitted.add(first_var)
    for source, role, target, literal in resolved_edges:
        if literal is not None:
            concepts[literal.id] = literal
        elif target not in emitted:
            concepts[target] = Concept(target, reader.defined[target],
                                       classify_label(reader.defined[target]))
            emitted.add(target)
        relations.append(Relation(source, target, role))
    for var in def_order:
        if var not in emitted:  # defensive; definitions happen along edges
            concepts[var] = Concept(var, reader.defined[var],
                                    classify_label(reader.defined[var]))
            emitted.add(var)

    return AmrGraph(concepts, relations, root, metadata=metadata)


def _render_literal(concept):
    if concept.kind == CONSTANT:
        return '"%s"' % concept.label.replace('"', '\\"')
    return concept.label


def serialize_penman(graph, indent=4):
    """Write a graph back to Penman text.

    Variables are renumbered c0, c1, ... in visit order; re-entrant nodes
    are defined once and referenced by bare variable afterwards.
    """
    if not graph.is_connected():
        raise SerializationError("graph is not connected; cannot serialize")
    names = {}

    def name_of(cid):
        if cid not in names:
            names[cid] = "c%d" % len(names)
        return names[cid]

    defined = set()

    def render(cid, depth):
        concept = graph.concept(cid)
        var = name_of(cid)
        defined.add(cid)
        parts = ["(%s / %s" % (var, concept.label)]
        pad = "\n" + " " * (indent * (depth + 1))
        for rel in graph.outgoing(cid):
            target = graph.concept(rel.target)
            if target.kind in LITERAL_KINDS:
                value = _render_literal(target)
            elif rel.target in defined:
                value = name_of(rel.target)
            else:
                value = render(rel.target, depth + 1)
            parts.append("%s%s %s" % (pad, rel.label, value))
        return "".join(parts) + ")"

    # re-entrancies reachable only through undirected edges cannot be
    # emitted from the root; the connectivity check above still lets them
    # through when directed reachability fails
    text = render(graph.root, 0)
    if len(defined) + sum(1 for c in graph.concepts.values()
                          if c.kind in LITERAL_KINDS) < len(graph.concepts):
        raise SerializationError("some concepts are unreachable from the root "
                                 "via directed edges")
    return text


def extract_fragments(graph):
    """Partition the concept set into alignable fragments.

    `name` concepts group with their :opN literal children and
    `date-entity` concepts with their literal attribute children; every
    other concept is a singleton fragment.
    """
    claimed = set()
    fragments = []
    for cid, concept in graph.concepts.items():
        if cid in claimed:
            continue
        members = [cid]
        internal = []
        if concept.label == "name":
            for rel in graph.outgoing(cid):
                if _OP_ROLE_RE.match(rel.label) and graph.is_literal(rel.target):
                    members.append(rel.target)
                    internal.append(rel)
        elif concept.label == "date-entity":
            for rel in graph.outgoing(cid):
                if graph.is_literal(rel.target):
                    members.append(rel.target)
                    internal.append(rel)
        claimed.update(members)
        fragments.append(Fragment(cid, tuple(members), tuple(internal)))
    # leftover literals claimed by nothing become singletons in order
    return fragments


def name_op_values(graph, name_id):
    """Values of :op1..:opN under a name concept, in numerical order."""
    ops = []
    for rel in graph.outgoing(name_id):
        match = _OP_ROLE_RE.match(rel.label)
        if match and graph.is_literal(rel.target):
            ops.append((int(rel.label[3:]), graph.concept(rel.target).label))
    return [value for _, value in sorted(ops)]


def depth_to_root(graph, cid):
    """Longest acyclic directed path length from the root to `cid`.

    Cyclic graphs (re-entrancy misuse) fall back to shortest-path depth
    with a warning; nodes reachable only against edge direction get their
    undirected BFS distance.
    """
    if cid not in graph.concepts:
        raise GraphLookupError(cid)
    if graph._depths is None:
        graph._depths = _compute_depths(graph)
    return graph._depths[cid]


def _compute_depths(graph):
    order = _topological_order(graph)
    depths = {}
    if order is not None:
        depths[graph.root] = 0
        for cid in order:
            if cid not in depths:
                continue
            for rel in graph.outgoing(cid):
                cand = depths[cid] + 1
                if depths.get(rel.target, -1) < cand:
                    depths[rel.target] = cand
    else:
        logger.warning("cycle detected; graph distance falls back to shortest path")
        depths = bfs_depths(graph, directed=True)
    missing = [cid for cid in graph.concepts if cid not in depths]
    if missing:
        undirected = bfs_depths(graph)
        for cid in missing:
            depths[cid] = undirected.get(cid, 0)
    return depths


def _topological_order(graph):
    indeg = {cid: 0 for cid in graph.concepts}
    for rel in graph.relations:
        indeg[rel.target] += 1
    queue = [cid for cid, d in indeg.items() if d == 0]
    order = []
    while queue:
        cid = queue.pop(0)
        order.append(cid)
        for rel in graph.outgoing(cid):
            indeg[rel.target] -= 1
            if indeg[rel.target] == 0:
                queue.append(rel.target)
    if len(order) != len(graph.concepts):
        return None
    return order


def bfs_depths(graph, directed=False):
    """Breadth-first distance from the root to every concept it reaches,
    following edges in both directions unless `directed`."""
    depths = {graph.root: 0}
    queue = [graph.root]
    for cid in queue:
        neighbors = [rel.target for rel in graph.outgoing(cid)]
        if not directed:
            neighbors += [rel.source for rel in graph.incoming(cid)]
        for nxt in neighbors:
            if nxt not in depths:
                depths[nxt] = depths[cid] + 1
                queue.append(nxt)
    return depths
