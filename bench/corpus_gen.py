"""Seeded corpus generator for the pipeline benchmark.

Sentences are composed from the blocks of the oracle fixture corpus: two or
more parts go under an `and` root as `:op1 .. :opN`, with an `and` token
between the parts' token sequences; a single part is emitted unchanged.
Each part's variables get a per-part suffix, so parts never collide.

A workload's corpus is a number of decks; a deck uses every fixture part
exactly once.  The grouping of parts into sentences and their order inside
a sentence follow from the workload and the deck number; the seed orders
the sentences of the corpus and names them.  The seed does not regroup
parts because the cost of tuning a sentence depends on which parts it
joins and in which order (Smatch search follows variable order): letting
the seed regroup moved the tune time of compose-long by up to a third
between seeds, more than any bound the benchmark could keep.

- compose-long: three decks of four sentences of four parts, one part
  from each size quartile of the fixture, and no two parts of a sentence
  sharing a concept label or literal value.  Candidates then come only
  from the parts themselves and the `and` root.  Twelve sentences keep a
  pass short enough for several passes per run.
- compose-short: three decks of eight single parts and four
  label-disjoint pairs.

Run as a script to print a corpus:

    python3 bench/corpus_gen.py --workload compose-long --seed 3
"""

import argparse
import os
import random
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(REPO, "tests", "fixtures", "oracle_corpus.amr")

DECKS = {"compose-long": 3, "compose-short": 3}

LONG_PARTS = 4
SHORT_SINGLES = 8

_META_RE = re.compile(r"^# ::(\S+) ?(.*)$")
_PENMAN_TOKEN_RE = re.compile(r'\(|\)|/|"(?:[^"\\]|\\.)*"|[^\s()/]+')


class Part:
    """One fixture block: its id, tokens and Penman text."""

    def __init__(self, ident, tokens, graph_text):
        self.id = ident
        self.tokens = tokens
        self.graph_text = graph_text
        pen = [m.group() for m in _PENMAN_TOKEN_RE.finditer(graph_text)]
        self.variables = {pen[i + 1] for i, tok in enumerate(pen[:-1])
                          if tok == "("}
        literals = [tok for previous, tok in zip(pen, pen[1:])
                    if previous.startswith(":") and tok != "("
                    and tok not in self.variables]
        labels = [tok for previous, tok in zip(pen, pen[1:]) if previous == "/"]
        self.vocabulary = set(labels) | set(literals)
        self.size = len(labels) + len(literals)


def read_parts(path=FIXTURE):
    """The fixture blocks, read as text: the program under test does not
    build its own input."""
    with open(path, encoding="utf-8") as handle:
        blocks = handle.read().strip().split("\n\n")
    parts = []
    for block in blocks:
        metadata = {}
        graph_lines = []
        for line in block.splitlines():
            match = _META_RE.match(line)
            if match:
                metadata[match.group(1)] = match.group(2)
            else:
                graph_lines.append(line)
        parts.append(Part(metadata["id"], metadata["tok"].split(),
                          "\n".join(graph_lines)))
    return parts


def rename_variables(part, suffix):
    """The part's Penman text with every variable `v` renamed `v<suffix>`:
    the token after `(` and bare role values equal to a variable (the
    re-entrancies).  Concept labels and quoted strings are kept."""
    out = []
    last = 0
    previous = None
    for tok in _PENMAN_TOKEN_RE.finditer(part.graph_text):
        text = tok.group()
        out.append(part.graph_text[last:tok.start()])
        out.append(text + suffix
                   if text in part.variables and previous != "/" else text)
        last = tok.end()
        previous = text
    out.append(part.graph_text[last:])
    return "".join(out)


def compose(parts, sentence_id):
    """One corpus block joining `parts` under an `and` root."""
    if len(parts) == 1:
        tokens = parts[0].tokens
        graph_text = parts[0].graph_text
    else:
        tokens = []
        lines = ["(a / and"]
        for index, part in enumerate(parts, start=1):
            if tokens:
                tokens.append("and")
            tokens.extend(part.tokens[:-1] if part.tokens[-1] == "."
                          else part.tokens)
            nested = rename_variables(part, "_%d" % index)
            lines.append("    :op%d %s" % (index, nested.replace("\n", "\n    ")))
        tokens.append(".")
        graph_text = "\n".join(lines) + ")"
    sentence = " ".join(tokens)
    return "# ::id %s\n# ::snt %s\n# ::tok %s\n%s\n" % (
        sentence_id, sentence, sentence, graph_text)


def _extend_disjoint(rng, groups, columns):
    """Add one part from each column to every group, so that no group
    holds two parts sharing a label; a backtracking search over shuffled
    columns."""
    columns = [rng.sample(column, len(column)) for column in columns]

    def place(slot):
        if slot == len(columns) * len(groups):
            return True
        column, group = divmod(slot, len(groups))
        group = groups[group]
        for part in list(columns[column]):
            if all(part.vocabulary.isdisjoint(q.vocabulary) for q in group):
                group.append(part)
                columns[column].remove(part)
                if place(slot + 1):
                    return True
                columns[column].append(group.pop())
        return False

    if not place(0):
        raise ValueError("no label-disjoint grouping of the fixture parts")


def _strata(parts, count):
    """The parts split into `count` equal size classes, smallest first."""
    ordered = sorted(parts, key=lambda p: (p.size, p.id))
    width = len(ordered) // count
    return [ordered[i * width:(i + 1) * width] for i in range(count)]


def deck_groups(workload, deck, parts):
    """The part groups of one deck.  They follow from the workload and the
    deck number only."""
    rng = random.Random("%s/%d" % (workload, deck))
    if workload == "compose-long":
        groups = [[] for _ in range(len(parts) // LONG_PARTS)]
        _extend_disjoint(rng, groups, _strata(parts, LONG_PARTS))
    elif workload == "compose-short":
        small, large = _strata(parts, 2)
        rng.shuffle(small)
        rng.shuffle(large)
        half = SHORT_SINGLES // 2
        groups = [[p] for p in small[half:]]
        _extend_disjoint(rng, groups, [large[half:]])
        groups += [[p] for p in small[:half] + large[:half]]
    else:
        raise ValueError("unknown workload %r" % workload)
    for group in groups:
        rng.shuffle(group)
    return groups


def generate(workload, seed, parts=None):
    """The corpus text of a workload at a seed: the sentences of its decks
    in seed order, with ids naming workload and seed."""
    parts = parts if parts is not None else read_parts()
    groups = [group for deck in range(DECKS[workload])
              for group in deck_groups(workload, deck, parts)]
    random.Random("%s/%d" % (workload, seed)).shuffle(groups)
    blocks = [compose(group, "%s-%d-%d" % (workload, seed, n))
              for n, group in enumerate(groups)]
    return "\n".join(blocks)


def main(argv=None):
    cmd = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cmd.add_argument("--workload", choices=sorted(DECKS), required=True)
    cmd.add_argument("--seed", type=int, required=True)
    args = cmd.parse_args(argv)
    sys.stdout.write(generate(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
