"""AMR graph data model plus Penman-notation reading/writing.

Graphs are rooted, directed and labeled.  Constants (quoted strings,
numbers, `-` polarity and other bare literals) are modeled as leaf
concepts so that triple extraction and fragment grouping can treat every
node uniformly.
"""

import functools
import itertools
import re
from typing import NamedTuple

# concept kinds
VARIABLE = "variable"          # the concept of a variable
CONSTANT = "constant"          # quoted string literal
ATTRIBUTE = "attribute-value"  # unquoted literal: numbers, '-', 'imperative', ...

LITERAL_KINDS = (CONSTANT, ATTRIBUTE)

_SENSE_RE = re.compile(r"-\d+$")
# bare atoms of this shape that never get defined are treated as dangling
# variable references rather than constants
_VAR_LIKE_RE = re.compile(r"^[a-z]\d*$")
_TOKEN_RE = re.compile(r'\(|\)|/|(?P<quoted>"(?:[^"\\]|\\.)*")|[^\s()/]+')
_BARE_ATOM_RE = re.compile(r'[^\s()/"][^\s()/]*')
_OP_ROLE_RE = re.compile(r"^:op\d+$")
_ESCAPE_RE = re.compile(r"\\(.)")
INDENT = 4  # spaces per nesting level of written Penman


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


class Concept(NamedTuple):
    id: str
    label: str
    kind: str


class Relation(NamedTuple):
    source: str
    target: str
    label: str  # role, e.g. ':ARG0'


class AmrGraph:
    """Immutable-by-convention rooted graph of concepts and relations.

    `concepts` preserves first-appearance order, which doubles as the node
    addressing scheme for alignment files.
    """

    def __init__(self, concepts, relations, root):
        self.concepts = dict(concepts)  # id -> Concept, insertion-ordered
        self.relations = tuple(relations)
        self.root = root
        if root is not None and root not in self.concepts:
            raise PenmanStructureError("root %r is not a concept" % root)
        seen = set()
        for rel in self.relations:
            if rel.source == rel.target:
                raise PenmanStructureError("self-loop on %r" % (rel.source,))
            for end in (rel.source, rel.target):
                if end not in self.concepts:
                    raise PenmanStructureError(
                        "relation %r names %r, which is not a concept"
                        % (tuple(rel), end))
            if rel in seen:
                raise PenmanStructureError(
                    "duplicate relation %r" % (tuple(rel),))
            seen.add(rel)
        self._out = {}
        self._in = {}
        for rel in self.relations:
            self._out.setdefault(rel.source, []).append(rel)
            self._in.setdefault(rel.target, []).append(rel)
        # only the empty graph has no root: None names any other graph
        # by the first of its forest roots
        if root is None and self.concepts:
            self.root = forest_roots(self)[0]

    @functools.cached_property
    def _forest(self):
        """(forest roots, depth of each concept), computed on first use."""
        return _roots_and_depths(self)

    @functools.cached_property
    def fragments(self):
        """Head id -> `Fragment`, the alignable units, in address order.

        `name` concepts group with their :opN literal children and
        `date-entity` concepts with their literal attribute children;
        every other concept is a singleton fragment.  Computed on first
        use; every caller shares the one map, which none may change."""
        fragments = {}
        claimed = set()
        for cid, concept in self.concepts.items():
            if cid in claimed:
                continue
            internal = ()
            if concept.label in ("name", "date-entity"):
                internal = tuple(
                    rel for rel in self.outgoing(cid)
                    if self.is_literal(rel.target)
                    and (concept.label == "date-entity"
                         or _OP_ROLE_RE.match(rel.label)))
            members = (cid,) + tuple(rel.target for rel in internal)
            claimed.update(members)
            fragments[cid] = Fragment(cid, members, internal)
        return fragments

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

    def __repr__(self):
        return "AmrGraph(root=%r, %d concepts, %d relations)" % (
            self.root, len(self.concepts), len(self.relations))


class Fragment:
    """A connected alignable unit: a head concept plus grouped children.

    Its length is its member count, so it is not a named tuple; it is
    compared and hashed by its fields, and is not changed once built."""
    __slots__ = ("head", "members", "relations")

    def __init__(self, head, members, relations):
        self.head = head
        self.members = members
        self.relations = relations

    def _key(self):
        return self.head, self.members, self.relations

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Fragment(head=%r, members=%r, relations=%r)" % self._key()


def tokenize_penman(text):
    """(token, offset) pairs: every character but whitespace starts or
    continues a token, so only whitespace lies between them."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.group().startswith('"') and not match.group("quoted"):
            raise PenmanSyntaxError("unterminated quote", match.start())
        tokens.append((match.group(), match.start()))
    return tokens


class _PenmanReader:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize_penman(text)
        self.i = 0
        self.defined = {}     # var -> label
        self.edges = []       # (source var, role, ('var'|'atom'|'quoted', value))

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
            label = _unquote(label)
        if var in self.defined:
            raise PenmanStructureError("duplicate definition of variable %r" % var)
        self.defined[var] = label
        while True:
            tok, pos = self.peek()
            if tok == ")":
                self.take()
                return var
            if not tok.startswith(":"):
                raise PenmanSyntaxError("expected a role or ')', found %r" % tok, pos)
            role = self.take()[0]
            if self.peek()[0] == "(":
                # reserve the slot first so edges stay in textual order even
                # though the child subtree is parsed before the append
                slot = len(self.edges)
                self.edges.append(None)
                child = self.parse_node()
                self.edges[slot] = (var, role, ("var", child))
            else:
                value, vpos2 = self.take()
                if value in ")/":
                    raise PenmanSyntaxError("missing value for role %s" % role, vpos2)
                if value.startswith('"'):
                    self.edges.append((var, role, ("quoted", _unquote(value))))
                else:
                    self.edges.append((var, role, ("atom", value)))


def parse_penman(text):
    """Read one Penman expression into an AmrGraph.

    Variable names are kept as concept ids.  Repeated variables become
    re-entrancies.  Unquoted atoms that match a defined variable are
    references; short variable-shaped atoms (`x`, `n2`) that are never
    defined raise a structure error, anything else becomes a literal node.
    """
    reader = _PenmanReader(text)
    root = reader.parse()
    defined = reader.defined
    # _lit0, _lit1, ..., skipping the names of defined variables
    lit_ids = (lid for lid in ("_lit%d" % i for i in itertools.count())
               if lid not in defined)

    # appearance order: the root, then edges in file order, defining each
    # variable at its first occurrence; every other variable is an edge
    # target, so this reaches them all
    concepts = {root: Concept(root, defined[root], VARIABLE)}
    relations = []
    for source, role, (kind, value) in reader.edges:
        if kind == "var" or (kind == "atom" and value in defined):
            target = value
            if target not in concepts:
                concepts[target] = Concept(target, defined[target], VARIABLE)
        elif kind == "atom" and _VAR_LIKE_RE.match(value):
            raise PenmanStructureError(
                "dangling reference to undefined variable %r" % value)
        else:
            target = next(lit_ids)
            concepts[target] = Concept(
                target, value, CONSTANT if kind == "quoted" else ATTRIBUTE)
        relations.append(Relation(source, target, role))
    return AmrGraph(concepts, relations, root)


def _unquote(token):
    """The text of a quoted token: `\\x` stands for `x`."""
    return _ESCAPE_RE.sub(r"\1", token[1:-1])


def _render_atom(text, quoted=False):
    """`text` as one token: bare unless quoted or it would not read back."""
    if quoted or not _BARE_ATOM_RE.fullmatch(text):
        return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')
    return text


def serialize_penman(graph):
    """Write a graph back to Penman text.

    Variables are renumbered c0, c1, ... in visit order; re-entrant nodes
    are defined once and referenced by bare variable afterwards.  The
    empty graph, and a graph with a concept that the walk from the root
    along edge direction does not reach, raise `SerializationError`.
    """
    if graph.root is None:
        raise SerializationError("the empty graph cannot be serialized")
    names = {}  # variable -> its name, in visit order
    reached = {graph.root}  # every concept the walk reaches, literals too

    def render(cid, depth):
        var = names[cid] = "c%d" % len(names)
        parts = ["(%s / %s" % (var, _render_atom(graph.concept(cid).label))]
        pad = "\n" + " " * (INDENT * (depth + 1))
        for rel in graph.outgoing(cid):
            reached.add(rel.target)
            target = graph.concept(rel.target)
            if target.kind in LITERAL_KINDS:
                # a variable-shaped bare value would read back as a reference
                value = _render_atom(target.label, target.kind == CONSTANT
                                     or bool(_VAR_LIKE_RE.match(target.label)))
            elif rel.target in names:
                value = names[rel.target]
            else:
                value = render(rel.target, depth + 1)
            parts.append("%s%s %s" % (pad, rel.label, value))
        return "".join(parts) + ")"

    text = render(graph.root, 0)
    if len(reached) < len(graph.concepts):
        raise SerializationError("some concepts are unreachable from the root "
                                 "via directed edges")
    return text


def name_op_values(graph, name_id):
    """Values of :op1..:opN under a name concept, in numerical order."""
    ops = []
    for rel in graph.outgoing(name_id):
        match = _OP_ROLE_RE.match(rel.label)
        if match and graph.is_literal(rel.target):
            ops.append((int(rel.label[3:]), graph.concept(rel.target).label))
    return [value for _, value in sorted(ops)]


def forest_roots(graph):
    """The roots of a graph's trees, the one rule for them: the source
    concepts (those with no incoming edge) in address order, then, in
    address order, each concept that no earlier root reaches, such as
    one on a cycle without a source.  Such a root takes the place of
    each earlier root it reaches, so no root reaches another.  The
    sources of an acyclic graph reach every concept, so only a cyclic
    graph is walked."""
    return graph._forest[0]


def depth_to_root(graph, cid):
    """Longest directed path length to `cid` from a source concept (one
    with no incoming edge, such as the root of each tree of a forest).

    A cyclic graph (re-entrancy misuse) has no longest path: there the
    depth is the shortest-path distance from the first of its
    `forest_roots`, in that order, that reaches `cid`.
    """
    if cid not in graph.concepts:
        raise GraphLookupError(cid)
    return graph._forest[1][cid]


def _roots_and_depths(graph):
    indeg = dict.fromkeys(graph.concepts, 0)
    for rel in graph.relations:
        indeg[rel.target] += 1
    sources = [cid for cid, d in indeg.items() if not d]
    order = list(sources)
    depths = dict.fromkeys(sources, 0)
    for cid in order:  # a queue: each concept joins once its last edge is in
        depth = depths[cid] + 1
        for rel in graph.outgoing(cid):
            target = rel.target
            if depths.get(target, 0) < depth:
                depths[target] = depth
            indeg[target] -= 1
            if not indeg[target]:
                order.append(target)
    if len(order) == len(graph.concepts):
        return sources, depths
    walks = {}  # root -> breadth-first depths of what it reaches
    reached = set()
    for cid in sources + list(graph.concepts):
        if cid not in reached:
            walk = bfs_depths(graph, cid)
            walks = {root: w for root, w in walks.items() if root not in walk}
            walks[cid] = walk
            reached.update(walk)
    depths = {}
    for walk in walks.values():
        for node, depth in walk.items():
            depths.setdefault(node, depth)
    return list(walks), depths


def bfs_depths(graph, start):
    """Breadth-first distance from `start` to every concept it reaches
    along edge direction."""
    depths = {start: 0}
    queue = [start]
    for cid in queue:
        for rel in graph.outgoing(cid):
            if rel.target not in depths:
                depths[rel.target] = depths[cid] + 1
                queue.append(rel.target)
    return depths
