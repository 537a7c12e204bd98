"""Line-oriented corpus IO: blank-line-separated blocks of `# ::key`
metadata headers followed by one Penman graph.

Alignment lines use the span|heads item format: `s-e|h1+h2` aligns the
token span [s, e) to the fragments whose head concepts sit at addresses
h1 and h2 in the graph's first-appearance order.  Distinct spans may
not overlap; identical ones stack.  Multiple candidates are carried as
repeated `::alignments-k` lines.
"""

import io
import re

from .align import Span
from .graph import parse_penman

_META_RE = re.compile(r"^# ::(\S+) ?(.*)$")
# a candidate's index k is written one way only, so no two lines share it
_ALIGN_K_RE = re.compile(r"^alignments-(0|[1-9][0-9]*)$")
_ITEM_RE = re.compile(r"^(\d+)-(\d+)\|(\d+(?:\+\d+)*)$")

HEADER_ORDER = ["id", "snt", "tok", "pos"]

# the headers amrtk reads, besides `alignments-k`: a block gives each once
_READ_KEYS = frozenset({"id", "tok", "snt", "pos", "alignments"})


class CorpusFormatError(ValueError):
    pass


class CorpusDocument:
    def __init__(self, metadata, graph=None, graph_text=None):
        self.metadata = dict(metadata)
        self.graph = graph
        self.graph_text = graph_text

    @property
    def id(self):
        return self.metadata.get("id")

    @property
    def tokens(self):
        if "tok" in self.metadata:
            return self.metadata["tok"].split()
        if "snt" in self.metadata:
            return self.metadata["snt"].split()
        return []

    @property
    def pos(self):
        if "pos" in self.metadata:
            tags = self.metadata["pos"].split()
            if len(tags) != len(self.tokens):
                raise CorpusFormatError(
                    "document %s: %d POS tags for %d tokens"
                    % (self.id, len(tags), len(self.tokens)))
            return tags
        return None

    def alignment_candidates(self):
        """Span maps parsed from the ::alignments-k lines, in index order,
        or from the single ::alignments line; a block may not carry both."""
        if self.graph is None:
            raise CorpusFormatError("document %s has no graph" % self.id)
        lines = sorted((int(match.group(1)), value)
                       for key, value in self.metadata.items()
                       if (match := _ALIGN_K_RE.match(key)))
        if "alignments" in self.metadata:
            if lines:
                raise CorpusFormatError(
                    "document %s has both ::alignments and ::alignments-k "
                    "lines" % self.id)
            lines = [(0, self.metadata["alignments"])]
        return [parse_alignment(value, self.graph, self.tokens)
                for _, value in lines]

    def _strip_alignments(self):
        self.metadata = {k: v for k, v in self.metadata.items()
                         if not _ALIGN_K_RE.match(k) and k != "alignments"}

    def set_candidates(self, candidates):
        self._strip_alignments()
        for k, choices in enumerate(candidates):
            self.metadata["alignments-%d" % k] = format_alignment(
                self.graph, choices)

    def set_alignment(self, choices):
        self._strip_alignments()
        self.metadata["alignments"] = format_alignment(self.graph, choices)


def format_alignment(graph, choices):
    """The alignment line of a span map over the graph's fragment heads."""
    addresses = graph.addresses()
    by_span = {}
    for head, span in choices.items():
        if span is not None:
            by_span.setdefault(span, []).append(addresses[head])
    items = []
    for span in sorted(by_span, key=lambda s: (s.start, s.end)):
        heads = "+".join(str(a) for a in sorted(by_span[span]))
        items.append("%d-%d|%s" % (span.start, span.end, heads))
    return " ".join(items)


def parse_alignment(text, graph, tokens):
    """The span map of an alignment line: its heads in the line's order,
    then the graph's unaligned fragment heads, mapped to None."""
    order = list(graph.concepts)
    choices = {}
    for item in text.split():
        match = _ITEM_RE.match(item)
        if not match:
            raise CorpusFormatError("bad alignment item %r" % item)
        start, end = int(match.group(1)), int(match.group(2))
        if not 0 <= start < end <= len(tokens):
            raise CorpusFormatError("alignment span %s out of range" % item)
        for addr in match.group(3).split("+"):
            index = int(addr)
            if index >= len(order):
                raise CorpusFormatError("alignment address %s out of range" % addr)
            head = order[index]
            if head not in graph.fragments:
                raise CorpusFormatError("address %s is not a fragment head" % addr)
            if head in choices:
                raise CorpusFormatError("address %s is aligned twice" % addr)
            choices[head] = Span(start, end)
    # sorted, two distinct spans overlap only if neighbours do
    spans = sorted(set(choices.values()))
    for span, next_span in zip(spans, spans[1:]):
        if span.overlaps(next_span):
            raise CorpusFormatError(
                "alignment spans %d-%d and %d-%d overlap"
                % (*span, *next_span))
    for head in graph.fragments:
        choices.setdefault(head, None)
    return choices


def read_blocks(source):
    """(metadata, body lines) for each blank-line-separated block of a
    path, stream or string.  A string is text when it is empty or holds a
    newline, else a path.  `# ::key value` lines are metadata; other `#`
    lines are comments and are skipped.  A later line of a key replaces
    the earlier, except that a block may not repeat a key amrtk reads
    (`_READ_KEYS` and `alignments-k`), nor give an `alignments-k` key whose
    k is not 0 or an ASCII number without leading zeros."""
    if isinstance(source, str) and source and "\n" not in source:
        with open(source, encoding="utf-8") as handle:
            return read_blocks(handle)
    if isinstance(source, str):
        source = io.StringIO(source)
    blocks = []
    block = None
    for number, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            block = None
            continue
        if block is None:
            block = ({}, [])
            blocks.append(block)
        match = _META_RE.match(line)
        if match:
            key = match.group(1)
            indexed = _ALIGN_K_RE.match(key)
            if key.startswith("alignments-") and not indexed:
                raise CorpusFormatError(
                    "line %d: ::%s is not an ::alignments-k key "
                    "(k = 0, 1, 2, ...)" % (number, key))
            if key in block[0] and (indexed or key in _READ_KEYS):
                raise CorpusFormatError(
                    "line %d repeats ::%s within its block" % (number, key))
            block[0][key] = match.group(2)
        elif not line.startswith("#"):
            block[1].append(line)
    return blocks


def write_blocks(blocks, stream):
    """Write (metadata, body lines) blocks, blank-line separated, with the
    HEADER_ORDER keys first and the other keys in insertion order."""
    for i, (metadata, body) in enumerate(blocks):
        if i:
            stream.write("\n")
        keys = [k for k in HEADER_ORDER if k in metadata]
        keys += [k for k in metadata if k not in HEADER_ORDER]
        for key in keys:
            stream.write("# ::%s %s\n" % (key, metadata[key]))
        for line in body:
            stream.write(line + "\n")


def read_corpus(source):
    """Read CorpusDocuments from a path, stream or string."""
    documents = []
    for metadata, graph_lines in read_blocks(source):
        graph_text = "\n".join(graph_lines) or None
        graph = parse_penman(graph_text) if graph_text else None
        documents.append(CorpusDocument(metadata, graph, graph_text))
    return documents


def write_corpus(documents, stream):
    write_blocks([(doc.metadata, [doc.graph_text] if doc.graph_text else [])
                  for doc in documents], stream)


def corpus_to_string(documents):
    out = io.StringIO()
    write_corpus(documents, out)
    return out.getvalue()


def read_traces(source):
    """Read an action-trace file: metadata headers then one action per
    line, blank-line separated.  Returns (metadata, action strings) pairs."""
    return [(metadata, [line.strip() for line in lines])
            for metadata, lines in read_blocks(source)]


def write_traces(blocks, stream):
    write_blocks(blocks, stream)
