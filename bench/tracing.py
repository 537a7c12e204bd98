"""Outside-in tracing for the pipeline benchmark.

Spans are recorded from the benchmark's own files: the benchmark opens
spans around the library calls it makes, and `instrument` temporarily
rebinds the module-level names that the library's own callers look up
(`amrtk.oracle.smatch_score`, `amrtk.align.collect_records`, ...), so no
file of the program changes.  Everything is kept in memory; the caller
writes the spans out when the run ends.
"""

import contextlib
import time

import amrtk.align
import amrtk.corpus
import amrtk.oracle
import amrtk.parser

# (module, attribute, metric name, mode).  "span" keeps one record per call;
# "time" only adds up calls and seconds (for functions called thousands of
# times per sentence); "count" only counts calls.
HOOKS = [
    (amrtk.align, "collect_records", "align.collect_records", "span"),
    (amrtk.align, "is_legal", "align.is_legal", "count"),
    (amrtk.align, "semantic_match", "resources.semantic_match", "time"),
    (amrtk.align, "morph_match", "resources.morph_match", "time"),
    (amrtk.oracle, "oracle_run", "oracle.run", "span"),
    (amrtk.oracle, "prune_unaligned", "oracle.prune", "time"),
    (amrtk.oracle, "smatch_score", "smatch", "span"),
    (amrtk.oracle, "apply", "transition.apply", "time"),
    (amrtk.parser, "encode_state", "parser.encode_state", "time"),
    (amrtk.parser, "hash_features", "parser.hash_features", "time"),
    (amrtk.parser, "legal_action_names", "parser.legal_action_names", "time"),
    (amrtk.parser, "parse_action", "parser.parse_action", "count"),
    (amrtk.parser, "score_actions", "parser.score_actions", "time"),
    (amrtk.corpus, "parse_penman", "graph.parse_penman", "time"),
]


def triple_count(graph):
    """Smatch triples of a graph: one instance per variable, one per edge
    and the TOP attribute."""
    return len(graph.var_ids()) + len(graph.relations) + 1


class Tracer:
    """Spans and per-name totals of one traced pass.

    `totals[name]` is `[calls, seconds, self seconds]`; a span's self time
    is its duration minus the time of the traced calls made inside it.
    """

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.counts = {}
        self.sentence = None
        self._stack = []  # open frames: [name, start, child seconds, span id]

    def _enter(self, name, keep):
        span_id = None
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, span_id = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            self.spans[span_id] = {
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "sentence": self.sentence}

    @contextlib.contextmanager
    def span(self, name, keep=True):
        frame = self._enter(name, keep)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, function, name, mode):
        if mode == "count":
            def counted(*args, **kwargs):
                self.count(name)
                return function(*args, **kwargs)
            return counted
        keep = mode == "span"

        def timed(*args, **kwargs):
            if name == "smatch":
                self.count("smatch.triples",
                           triple_count(args[0]) + triple_count(args[1]))
            frame = self._enter(name, keep)
            try:
                value = function(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                self._exit(frame)
            if name == "oracle.run":
                self.count("oracle.actions", value.action_count)
                if not value.actions:
                    self.count("oracle.empty_runs")
            return value
        return timed

    @contextlib.contextmanager
    def instrument(self):
        """Rebind every hooked name for the duration of the block."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in HOOKS]
        try:
            for (module, attr, name, mode), (_, _, original) in zip(HOOKS, saved):
                setattr(module, attr, self._wrap(original, name, mode))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


@contextlib.contextmanager
def recording_smatch(pairs):
    """Rebind `amrtk.oracle.smatch_score` for the duration of the block so
    that every call also appends `(a, b, restarts, seed)` to `pairs`."""
    original = amrtk.oracle.smatch_score

    def recorded(a, b, restarts=4, seed=1):
        pairs.append((a, b, restarts, seed))
        return original(a, b, restarts=restarts, seed=seed)

    amrtk.oracle.smatch_score = recorded
    try:
        yield pairs
    finally:
        amrtk.oracle.smatch_score = original


class NullTracer:
    """The untraced stand-in: spans cost one call and record nothing."""

    sentence = None

    @contextlib.contextmanager
    def span(self, name, keep=True):
        yield

    def count(self, name, n=1):
        pass

    @contextlib.contextmanager
    def instrument(self):
        yield self
