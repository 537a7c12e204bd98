"""Trainable greedy transition parser.

States are featurized into sparse vectors hashed into one fixed feature
space and scored by a linear multiclass model (softmax over the legal
actions) whose weights are one dense table over the features the model
has seen; the model is trained on oracle action traces.  An ensemble
decodes with the per-step average of its members' action distributions,
all scoring the same encoding of each state from one stacked table.
"""

import itertools
import json
import math
import random
import re
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import strip_sense
from .resources import LemmaTable
from . import transition
from .transition import (
    CONFIRM, LEFT, RELATION_ACTIONS, Action, DecodeError, ModelFormatError,
    TrainingError, TransitionError, apply, extract_graph, initial_state,
    is_terminal, legal_actions, parse_action,
)

MODEL_FORMAT = "amrtk-model"
MODEL_VERSION = 1

LEMMA_ACTION = "CONFIRM-LEMMA"

# the feature space every model shares: features hash into HASH_DIM
# buckets, salted with HASH_SEED
HASH_DIM = 1 << 20
HASH_SEED = 1
# the CRC of the salt, which `hash_features` continues over each feature
_SALT_CRC = zlib.crc32(b"%d|" % HASH_SEED)
STEP_FACTOR = 20


@dataclass(frozen=True)
class TrainingExample:
    tokens: tuple
    actions: tuple
    pos: tuple = None


@dataclass
class DecodeResult:
    graph: object
    actions: tuple
    warning: str = None


def encode_state(state, pos_tags=None):
    """Deterministic sparse feature strings for a state: identity of the
    stack top two, deque front, buffer front three, the last three actions
    and arc-count buckets.  One scan of the arcs counts the incident arcs
    of every slot's concept."""
    # unpacking and indexing read a named tuple's fields faster than its
    # attributes: item[2] is an item's node, action[0] an action's tag
    sigma, delta, beta, arcs, labels, _, history = state
    slots = (
        ("s0", sigma[-1] if sigma else None),
        ("s1", sigma[-2] if len(sigma) > 1 else None),
        ("d0", delta[0] if delta else None),
        ("b0", beta[0] if beta else None),
        ("b1", beta[1] if len(beta) > 1 else None),
        ("b2", beta[2] if len(beta) > 2 else None),
    )
    incident = {item[2]: 0 for _, item in slots
                if item is not None and item[2] is not None}
    if incident:
        for head, _, dep in arcs:
            if head in incident:
                incident[head] += 1
            if dep != head and dep in incident:
                incident[dep] += 1
    n_tags = 0 if pos_tags is None else len(pos_tags)
    feats = ["bias"]
    described = []
    for name, item in slots:
        if item is None:
            feats.append(f"{name}.none")
            described.append(None)
            continue
        (start, _), surface, node = item
        word = surface.lower()
        label = word if node is None else labels[node]
        described.append(label)
        feats.append(f"{name}.c={label}")
        feats.append(f"{name}.w={word}")
        if start < n_tags and pos_tags[start] is not None:
            feats.append(f"{name}.t={pos_tags[start]}")
        if node is not None:
            feats.append(f"{name}.na={min(incident[node], 3)}")
    s0, _, d0, b0, b1, _ = described
    feats.append(f"s0b0.c={s0}|{b0}")
    feats.append(f"s0b1.c={s0}|{b1}")
    feats.append(f"d0b0.c={d0}|{b0}")
    for back in (1, 2, 3):
        if len(history) >= back:
            feats.append(f"h{back}={history[-back][0]}")
        else:
            feats.append(f"h{back}=_")
    if history:
        feats.append(f"h1f={history[-1]}")
    if len(history) >= 2:
        feats.append(f"h12={history[-1][0]}|{history[-2][0]}")
    feats.append(f"nsig={min(len(sigma), 5)}")
    feats.append(f"ndel={min(len(delta), 5)}")
    feats.append(f"nbet={min(len(beta), 5)}")
    return feats


def hash_features(feats):
    """The CRC-32 of each feature's UTF-8 bytes after the salt
    `HASH_SEED|`, folded into HASH_DIM buckets"""
    return [zlib.crc32(f.encode(), _SALT_CRC) % HASH_DIM for f in feats]


def encode(state, pos_tags=None, memo=None):
    """The hashed feature ids of a state, the same for every model.
    `memo` maps each feature string hashed so far to its id, and the call
    extends it; callers share one across states so that `hash_features`
    sees each feature string once."""
    memo = {} if memo is None else memo
    feats = encode_state(state, pos_tags)
    missing = [f for f in feats if f not in memo]
    if missing:
        memo.update(zip(missing, hash_features(missing)))
    return list(map(memo.__getitem__, feats))


class ActionScorer:
    """Linear multiclass model over an action vocabulary, held as one dense
    table with a column per action.  Row 0 holds the biases; each hashed
    feature id the model knows has its own row (`rows`).  A feature id
    without a row weighs zero for every action.  One more row, `zero_row`,
    past the feature rows, stays zero: it pads the row-index blocks of the
    instances that `train` compiles.  The nonzero cells of the feature
    rows are the sparse weights a model file holds."""

    def __init__(self, actions, predicate_lemmas=(), features=()):
        self.actions = list(actions)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.vocabulary = parse_vocabulary(self.actions)
        self.predicate_lemmas = set(predicate_lemmas)
        self.train_log = []
        self.rows = {feat: row for row, feat in enumerate(
            dict.fromkeys(features), start=1)}
        self.zero_row = len(self.rows) + 1
        self.table = np.zeros((self.zero_row + 1, len(self.actions)))
        self._by_tags = {}

    def tagged_names(self, tags):
        """(name, action) of each vocabulary entry whose tag is in the
        frozenset `tags`, in vocabulary order; the action only for LEFT
        and RIGHT, whose legality also depends on the arcs of the state,
        else None.  The entries are found once per set of tags."""
        entries = self._by_tags.get(tags)
        if entries is None:
            entries = []
            for name in self.actions:
                action, _ = self.vocabulary[name]
                tag = CONFIRM if action is None else action.tag
                if tag in tags:
                    entries.append((name, action if tag in RELATION_ACTIONS
                                    else None))
            entries = self._by_tags[tags] = tuple(entries)
        return entries

    @property
    def bias(self):
        return self.table[0].tolist()

    @property
    def weights(self):
        """{feature id: weight} of the nonzero cells, one dict per action
        (a copy: writing to it changes nothing)."""
        ids = np.array([0] + list(self.rows))
        views = []
        for col in range(len(self.actions)):
            rows = np.flatnonzero(self.table[1:self.zero_row, col]) + 1
            views.append(dict(zip(ids[rows].tolist(),
                                  self.table[rows, col].tolist())))
        return views

    def logits(self, encoding, columns):
        """The bias plus the encoded features' weights of each action
        column, added one row at a time in encoding order.  `accumulate`
        keeps that order where `sum` may add pairwise, which would move
        the last bits of a logit and with them every trained model.  An
        SGD step of `train` accumulates the same rows of its compiled
        instance as flat table cells; its accuracy pass adds them one row
        position at a time, and `zero_row` where an instance is shorter."""
        rows = self.rows
        block = self.table.take([0] + [rows[f] for f in encoding if f in rows],
                                axis=0).take(columns, axis=1)
        return np.add.accumulate(block, axis=0)[-1].tolist()

    def update(self, encoding, columns, coefs):
        """Add coefs[j] to the bias of action column columns[j] and to its
        weight of each encoded feature, once per time the feature is
        encoded.  Every encoded feature needs a row."""
        offsets = np.array([0] + [self.rows[f] for f in encoding])
        self.add_at(np.asarray(columns)[:, None] + offsets * len(self.actions),
                    coefs)

    def add_at(self, cells, coefs):
        """`update` of flat table cells, one line of them per column:
        coefs[j] to each cell of line j, once per time the line holds it"""
        # one coefficient per cell: numpy 2.4's `ufunc.at` adds garbage
        # when it broadcasts the values over a 2-D index
        cells = cells.ravel()
        np.add.at(self.table.reshape(-1), cells,
                  np.array(coefs).repeat(len(cells) // len(coefs)))


def _softmax(logits):
    peak = max(logits)
    exps = [math.exp(x - peak) for x in logits]
    # added left to right on every Python: from 3.12 `sum` compensates,
    # which would move the bits of every probability and trained model
    total = 0.0
    for x in exps:
        total += x
    return [x / total for x in exps]


def score_actions(model, encoding, legal):
    """Probability distribution over the legal actions (softmax with all
    illegal actions masked out).  An ensemble's is the average of its
    members' distributions, added in member order; a lone model's is its
    own, which averaging over one member would leave bit for bit."""
    legal = list(legal)
    if not legal:
        raise DecodeError("no legal actions to score")
    logits = model.logits(encoding, [model.action_index[a] for a in legal])
    n = len(legal)
    if len(logits) == n:
        return dict(zip(legal, _softmax(logits)))
    total = [0.0] * n
    for start in range(0, len(logits), n):
        probs = _softmax(logits[start:start + n])
        total = [t + p for t, p in zip(total, probs)]
    members = len(logits) // n
    return dict(zip(legal, [t / members for t in total]))


class Ensemble:
    """Decodes with the average of the members' action distributions.

    The members' tables are stacked into one when the ensemble is made:
    its rows are the union of the members' feature rows after the bias
    row, column block k holds member k's table, and a member's cells of a
    feature it has no row for are zero.  So one gather per step reads
    every member's logits; the zero cells add +0.0, which changes no sum
    but the sign of a zero logit, and no probability."""

    def __init__(self, members):
        if not members:
            raise DecodeError("ensemble needs at least one member")
        first = members[0]
        for member in members[1:]:
            if member.actions != first.actions:
                raise DecodeError("ensemble members must share an action vocabulary")
            if member.predicate_lemmas != first.predicate_lemmas:
                raise DecodeError(
                    "ensemble members must share their predicate lemmas")
        self.members = list(members)
        self.actions, self.action_index = first.actions, first.action_index
        self.vocabulary = first.vocabulary
        self.predicate_lemmas = first.predicate_lemmas
        self.tagged_names = first.tagged_names
        self.rows = {feat: row for row, feat in enumerate(dict.fromkeys(
            feat for member in members for feat in member.rows), start=1)}
        width = len(self.actions)
        self.offsets = range(0, width * len(members), width)
        self.table = np.zeros((len(self.rows) + 1, width * len(members)))
        for offset, member in zip(self.offsets, members):
            block = self.table[:, offset:offset + width]
            block[0] = member.table[0]
            block[[self.rows[f] for f in member.rows]] = \
                member.table[list(member.rows.values())]

    def logits(self, encoding, columns):
        """Each member's logits of the action columns, member after member,
        from one gather of the stacked table (see `ActionScorer.logits`)"""
        return ActionScorer.logits(self, encoding, [
            offset + col for offset in self.offsets for col in columns])


def lemma_label(surface, lemma_table, predicate_lemmas):
    """The label CONFIRM-LEMMA materializes to: the sense-stripped lemma
    of the word, with `-01` appended when it was seen as a predicate."""
    word = surface.lower()
    lemmas = lemma_table.lemmas(word)
    others = sorted(lemmas - {word})
    lemma = others[0] if others else word
    if lemma in predicate_lemmas:
        return lemma + "-01"
    return lemma


def _replay(example, lemma_table, predicate_lemmas, memo=None):
    """(encoding, state, gold name) for each gold action of a trace.  A
    CONFIRM whose label is the word's lemma label is named CONFIRM-LEMMA.
    Each state is encoded through `memo` (see `encode`)."""
    state = initial_state(example.tokens)
    steps = []
    for action in example.actions:
        successor = apply(state, action)  # raises on an illegal gold action
        name = str(action)
        if action.tag == CONFIRM and action.label == lemma_label(
                state.b0.surface, lemma_table, predicate_lemmas):
            name = LEMMA_ACTION
        steps.append((encode(state, example.pos, memo), state, name))
        state = successor
    if not is_terminal(state):  # an empty trace, say
        raise TrainingError("trace of %r stops before a terminal state"
                            % " ".join(example.tokens))
    return steps


_TAG_RANK = {tag: i for i, tag in enumerate(transition.ALL_TAGS)}


def parse_vocabulary(names):
    """name -> (action, tie-break key) for each vocabulary entry.

    CONFIRM-LEMMA has no fixed action (its label depends on the word) and
    sorts among the CONFIRM actions as if its label were `0-lemma`.  The
    key orders by the transition table's row order, then by label.
    """
    table = {}
    for name in names:
        if name == LEMMA_ACTION:
            table[name] = (None, (_TAG_RANK[CONFIRM], "0-lemma"))
        else:
            action = parse_action(name)
            table[name] = (action, (_TAG_RANK[action.tag], action.label or ""))
    return table


def legal_action_names(model, state):
    """Vocabulary entries whose tag pattern matches the state, in
    vocabulary order, less each LEFT or RIGHT that would build an arc the
    state already has (`transition.built_relations`, one scan of the
    arcs per state)."""
    tags = legal_actions(state)
    built = transition.built_relations(state) if LEFT in tags else ()
    return [name for name, action in model.tagged_names(tags)
            if action is None or action not in built]


def best_action(model, probs, legal):
    """The legal name of the highest probability; among names that tie
    exactly, the first by the vocabulary's tie-break key.  When no
    probability is a number (an overflowed logit makes every one NaN),
    the first legal name."""
    top = max(probs.values())
    best = [name for name in legal if probs[name] == top]
    if len(best) == 1:
        return best[0]
    if not best:
        return legal[0]
    vocabulary = model.vocabulary
    return min(best, key=lambda name: vocabulary[name][1])


def materialize(model, name, state, lemma_table):
    action, _ = model.vocabulary[name]
    if action is None:
        return Action(CONFIRM, lemma_label(state.b0.surface, lemma_table,
                                           model.predicate_lemmas))
    return action


def train(corpus, epochs=30, learning_rate=0.5, seed=1, dev_fraction=0.0,
          lemma_table=None, log=None):
    """Fit the linear scorer on oracle traces by SGD on the multiclass
    logistic objective; reports per-epoch action accuracy.

    Each feature string is hashed once per call, and each instance is
    compiled once, before the first epoch, into the table rows it adds and
    its legal action columns (`CompiledInstances`), so an SGD step gathers,
    accumulates and updates table cells by index and looks up no feature.
    The SGD pass skips an instance with one legal action: its probability
    is 1, so its step adds nothing to the loss and changes no weight.  The
    accuracy passes score every instance of a split at once, its rows
    padded with the model's zero row.  Fewer than one epoch, a learning
    rate that is not a positive number, and an epoch whose loss is not a
    finite number raise `TrainingError`: the model would not load."""
    if not 0 <= dev_fraction < 1:
        raise TrainingError("dev fraction %r is outside [0, 1)" % dev_fraction)
    if epochs < 1:
        raise TrainingError("epochs must be at least 1, not %r" % epochs)
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise TrainingError(
            "learning rate %r is not a positive number" % learning_rate)
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    lemma_table = lemma_table or LemmaTable()
    rng = random.Random(seed)

    predicate_lemmas = {strip_sense(action.label)
                        for example in corpus for action in example.actions
                        if action.tag == CONFIRM
                        and strip_sense(action.label) != action.label}
    memo = {}  # feature string -> id, for this call only
    replays = [_replay(example, lemma_table, predicate_lemmas, memo)
               for example in corpus]
    indices = list(range(len(corpus)))
    rng.shuffle(indices)
    n_dev = int(len(corpus) * dev_fraction)
    dev_idx = set(indices[:n_dev])
    # one table row for each feature the training instances encode
    model = ActionScorer(
        sorted({name for steps in replays for _, _, name in steps}),
        predicate_lemmas=predicate_lemmas,
        features=(feat for i, steps in enumerate(replays) if i not in dev_idx
                  for encoding, _, _ in steps for feat in encoding))

    train_instances = []
    dev_instances = []
    for i, steps in enumerate(replays):
        bucket = dev_instances if i in dev_idx else train_instances
        # `apply` and `legal_action_names` share one legality rule, so the
        # replay has already checked that each gold name is legal here
        for encoding, state, gold_name in steps:
            bucket.append((encoding, legal_action_names(model, state),
                           gold_name))
    del replays  # the states were kept only to find the legal names
    if not train_instances:
        raise TrainingError("no training instances after the dev split")
    train_set = CompiledInstances(model, train_instances)
    dev_set = CompiledInstances(model, dev_instances)

    # a weight may overflow to inf, and inf - inf is nan: the loss check
    # reports either as a `TrainingError`, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = list(range(len(train_instances)))
            rng.shuffle(order)
            total_loss = train_set.descend(model, order, learning_rate)
            if not math.isfinite(total_loss):
                raise TrainingError(
                    "the loss of epoch %d is not a finite number; the "
                    "learning rate %r is too large"
                    % (epoch + 1, learning_rate))
            entry = {
                "epoch": epoch + 1,
                "loss": total_loss / len(train_instances),
                "train_accuracy": train_set.accuracy(model),
            }
            if dev_instances:
                entry["dev_accuracy"] = dev_set.accuracy(model)
            model.train_log.append(entry)
            if log is not None:
                log(entry)
    return model


# a top legal logit at most this far above the next one may tie with it in
# probability, so `CompiledInstances.accuracy` scores that instance the
# exact way
NEAR_TIE = 1e-9


class CompiledInstances:
    """Training instances (encoding, legal names, gold name) compiled
    against a model's table.

    Row i of `offsets` holds the flat cell offset of each table row that
    instance i adds: the bias row, then the row of each encoded feature in
    encoding order (`zero_row` for a feature without one), padded to the
    longest instance with the zero row.  `steps` holds, per instance, what
    `descend` needs for its SGD step: the unpadded part of its offsets as a
    column (a view), its legal action columns, the position of the gold
    action among them and whether a row repeats in it (its step then adds
    through `ActionScorer.add_at`); or None for an instance with one legal
    action, whose step would change nothing."""

    def __init__(self, model, instances):
        self.instances = instances
        self.width = width = len(model.actions)
        feature_rows, zero = model.rows, model.zero_row
        rows = [[0] + [feature_rows.get(f, zero) for f in encoding]
                for encoding, _, _ in instances]
        columns = [[model.action_index[a] for a in legal]
                   for _, legal, _ in instances]
        lengths = np.array([len(line) for line in rows], dtype=int)
        self.offsets = np.full((len(rows), lengths.max(initial=1)), zero)
        self.offsets[np.arange(self.offsets.shape[1]) < lengths[:, None]] = \
            list(itertools.chain.from_iterable(rows))
        self.offsets *= width
        self.illegal = np.ones((len(rows), width), dtype=bool)
        self.illegal[np.arange(len(rows)).repeat([len(c) for c in columns]),
                     list(itertools.chain.from_iterable(columns))] = False
        self.steps = [
            (offsets[:len(line), None], np.array(cols), legal.index(gold),
             len(set(line)) < len(line)) if len(cols) > 1 else None
            for offsets, line, cols, (_, legal, gold)
            in zip(self.offsets, rows, columns, instances)]
        self.gold_columns = np.array(
            [model.action_index[gold] for _, _, gold in instances])

    def descend(self, model, order, learning_rate):
        """One SGD step on each instance in `order`: the summed loss.

        A step gathers a block of table cells, a line per row of the
        instance and a column per legal action, and accumulates the lines
        into the logits, as `ActionScorer.logits` adds them.  Each column
        then gains learning_rate x (gold indicator - probability) in each
        of its cells.  A zero coefficient leaves its cells as they are,
        since no update makes a cell -0.0, so a cell holds a weight only
        where some update moved it."""
        flat = model.table.reshape(-1)
        total_loss = 0.0
        for i in order:
            step = self.steps[i]
            if step is None:
                continue
            offsets, columns, gold, repeats = step
            cells = offsets + columns
            block = flat[cells]
            probs = _softmax(np.add.accumulate(block)[-1].tolist())
            total_loss -= math.log(max(probs[gold], 1e-300))
            # learning_rate x (0 - p) for each other column, up to the
            # sign of a zero coefficient, which adds nothing either way
            coefs = np.array(probs) * -learning_rate
            coefs[gold] = learning_rate * (1 - probs[gold])
            if repeats:
                model.add_at(cells.T, coefs)
                continue
            # no cell repeats, so adding each coefficient once to its
            # cells is what `add_at` does
            block += coefs
            flat[cells] = block
        return total_loss

    def accuracy(self, model):
        """The share of instances whose best legal action under `model` is
        the gold one, as `score_actions` and `best_action` decide it.

        The logits of all instances are summed one row position at a time:
        the additions of `ActionScorer.logits` in the same order, and the
        zero row adds +0.0, which moves no argmax.  The best legal action
        is then the argmax, unless the next legal logit is within
        `NEAR_TIE` (or a logit is not finite): only then can a probability
        tie bring in the vocabulary's tie-break, and the instance is scored
        the exact way.  Gathering every instance's rows at once would hold
        a line of logits per row in memory."""
        if not self.instances:
            return 0.0
        table = model.table
        logits = table.take(self.offsets[:, 0] // self.width, axis=0)
        for offsets in self.offsets.T[1:]:
            logits += table.take(offsets // self.width, axis=0)
        logits[self.illegal] = -np.inf
        best = logits.argmax(axis=1)
        picked = np.arange(len(best))
        top = logits[picked, best]
        logits[picked, best] = -np.inf
        clear = (top - logits.max(axis=1) > NEAR_TIE) & np.isfinite(top)
        hits = int(np.count_nonzero(clear & (best == self.gold_columns)))
        for i in np.flatnonzero(~clear).tolist():
            encoding, legal, gold = self.instances[i]
            probs = score_actions(model, encoding, legal)
            hits += best_action(model, probs, legal) == gold
        return hits / len(self.instances)


def decode(model, tokens, pos=None, lemma_table=None):
    """Greedy decode to a terminal state; a step guard plus a drop/reduce
    drain guarantee a graph comes back even for a badly-scored model.
    The warning names the drain and counts the steps at which no score
    was a number, where decoding took the first legal name."""
    lemma_table = lemma_table or LemmaTable()
    state = initial_state(tokens)
    limit = STEP_FACTOR * len(tokens)
    memo = {}  # feature string -> id, for this sentence only
    warnings = []
    steps = 0
    unscored = 0
    while not is_terminal(state):
        legal = legal_action_names(model, state)
        if not legal or steps >= limit:
            warnings.append("fallback drain after %d steps" % steps)
            state = _drain(state)
            break
        probs = score_actions(model, encode(state, pos, memo), legal)
        name = best_action(model, probs, legal)
        # NaN only when best_action found no number among the scores
        unscored += probs[name] != probs[name]
        state = apply(state, materialize(model, name, state, lemma_table))
        steps += 1
    if unscored:
        warnings.append("no score was a number at %d of %d steps"
                        % (unscored, steps))
    return DecodeResult(extract_graph(state), state.history,
                        "; ".join(warnings) or None)


def _drain(state):
    """Drop the buffer's words, shift its concepts, then empty the stack:
    a terminal state from any state."""
    while not is_terminal(state):
        if state.b0 is None:
            tag = transition.REDUCE
        elif state.b0.is_word():
            tag = transition.DROP
        else:
            tag = transition.SHIFT
        state = apply(state, transition.BARE[tag])
    return state


def save_model(model, path):
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hash_dim": HASH_DIM,
        "hash_seed": HASH_SEED,
        "actions": model.actions,
        "bias": model.bias,
        "weights": [{str(k): v for k, v in w.items()} for w in model.weights],
        "predicate_lemmas": sorted(model.predicate_lemmas),
        # the CONFIRM-LEMMA rewrite is always on; the key keeps the file
        # layout older readers expect
        "lemma_fallback": True,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise ModelFormatError("%s is not JSON: %s" % (path, err))
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("%s is not an amrtk model file" % path)
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            "unsupported model version %r" % payload.get("version"))
    space = (payload.get("hash_dim"), payload.get("hash_seed"))
    if space != (HASH_DIM, HASH_SEED):
        raise ModelFormatError(
            "model hashes features with dimension %r and seed %r; "
            "amrtk uses %d and %d" % (space + (HASH_DIM, HASH_SEED)))
    try:
        actions, bias, weights, lemmas = (payload[key] for key in (
            "actions", "bias", "weights", "predicate_lemmas"))
    except KeyError as err:
        raise ModelFormatError("%s lacks the key %s" % (path, err))
    if not (isinstance(actions, list) and isinstance(lemmas, list)
            and all(isinstance(name, str) for name in actions + lemmas)):
        raise ModelFormatError(
            "%s: actions and predicate_lemmas must be lists of strings" % path)
    repeated = [name for name, n in Counter(actions).items() if n > 1]
    if repeated:
        raise ModelFormatError(
            "%s names the action %s more than once" % (path, repeated[0]))
    if not (isinstance(bias, list) and isinstance(weights, list)) \
            or len(actions) != len(bias) or len(actions) != len(weights):
        raise ModelFormatError(
            "%s needs one bias and one weight row per action" % path)
    if not all(_is_weight(b) for b in bias):
        raise ModelFormatError("%s has a bias that is not a number" % path)
    rows = [_weight_row(row, path) for row in weights]
    try:
        model = ActionScorer(actions, predicate_lemmas=lemmas,
                             features=(feat for row in rows for feat in row))
    except TransitionError as err:  # an action name that does not parse
        raise ModelFormatError("%s: %s" % (path, err))
    model.table[0] = bias
    for col, row in enumerate(rows):
        model.table[[model.rows[feat] for feat in row], col] = \
            list(row.values())
    return model


_FEATURE_KEY = re.compile(r"0|[1-9][0-9]*")


def _is_weight(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _weight_row(row, path):
    """{feature id: weight} of one weight row of a model file"""
    if not isinstance(row, dict):
        raise ModelFormatError(
            "%s has a weight row that is not an object: %.40r" % (path, row))
    parsed = {}
    for key, value in row.items():
        if not _FEATURE_KEY.fullmatch(key) or int(key) >= HASH_DIM:
            raise ModelFormatError(
                "%s has a weight key that is not a feature id: %.40r"
                % (path, key))
        if not _is_weight(value):
            raise ModelFormatError(
                "%s has a weight that is not a number: %.40r" % (path, value))
        parsed[int(key)] = value
    return parsed
