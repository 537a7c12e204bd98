"""One pass of the amrtk pipeline, driven through the library calls that the
`align -> tune -> oracle -> train -> parse -> smatch` commands make.

Every stage starts from the previous stage's output text, works one
sentence at a time, and ends by writing its own text in memory through
the same corpus readers and writers as `amrtk.cli`.  A sentence that
raises in a stage is recorded as failed and left out of later stages.
Between sentences, epochs and oracle runs the pass times the calibration
kernel (bench/calibration.py); the time that takes is left out of every
item and stage.
"""

import io
import json
import logging
import time
import zlib

from amrtk import align as align_mod
from amrtk import corpus as corpus_mod
from amrtk import oracle as oracle_mod
from amrtk import parser as parser_mod
from amrtk import smatch as smatch_mod
from amrtk import transition
from amrtk.graph import serialize_penman

from calibration import Calibrator
from tracing import triple_count

STAGES = ("align", "tune", "oracle", "train", "parse", "smatch")

# command-line defaults of the matching `amrtk` commands
MAX_CANDIDATES = 50
PER_FRAGMENT_CAP = 5
RESTARTS = 4
SMATCH_SEED = 1
LEARNING_RATE = 0.5
EPOCHS = 10

# calls between which a long item (a sentence in `tune`) ticks the
# calibrator
TICK_HOOKS = [(oracle_mod, "oracle_run")]


class Failure:
    def __init__(self, stage, sentence, error):
        self.stage = stage
        self.sentence = sentence
        self.type = type(error).__name__
        self.message = str(error)

    def key(self):
        return (self.stage, self.sentence, self.type, self.message)

    def __str__(self):
        return "FAILED %s %s %s: %s" % (self.stage, self.sentence, self.type,
                                        self.message)


class WarningCounter(logging.Handler):
    """Counts the aligner's product-cap warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class PassResult:
    """Outputs, timings and counters of one pass."""

    def __init__(self):
        self.texts = {}           # stage -> output text
        self.stage_s = {}         # stage -> wall seconds
        self.stage_at = {}        # stage -> its midpoint (perf_counter)
        self.item_s = {stage: {} for stage in STAGES}  # stage -> id -> s
        self.item_at = {stage: {} for stage in STAGES}  # its midpoint
        self.reference = []       # (moment, seconds) of the kernel runs
        self.completed = dict.fromkeys(STAGES, 0)
        self.attempted = dict.fromkeys(STAGES, 0)
        self.failures = []
        self.oracle_f1 = []       # winning candidate per tuned sentence
        self.candidates = 0
        self.truncated = 0
        self.actions = 0          # gold actions in the training traces
        self.drains = 0
        self.product_cap_hits = 0
        self.smatch_pairs = []    # (pred graph, gold graph)
        self.smatch_counts = (0, 0, 0)  # matched, pred and gold triples

    def outputs(self):
        """Everything a pass writes, for byte comparison between passes."""
        return (tuple(self.texts.get(stage, "") for stage in STAGES),
                tuple(f.key() for f in self.failures))

    def drop_outputs(self):
        """Forget the texts and graphs, keeping timings and counters, so
        that passes kept for their timings do not grow the heap."""
        self.texts = {}
        self.smatch_pairs = []


def _write(tracer, writer, items):
    with tracer.span("corpus.write"):
        out = io.StringIO()
        writer(items, out)
        return out.getvalue()


def _read(tracer, reader, text):
    with tracer.span("corpus.read"):
        return reader(text)


def _each(result, tracer, calibrator, stage, documents, work):
    """Run `work` on every document, one at a time, recording failures and
    the time each document took."""
    done = []
    for doc in documents:
        calibrator.tick()
        tracer.sentence = doc.id
        result.attempted[stage] += 1
        spent = calibrator.spent
        start = time.perf_counter()
        try:
            value = work(doc)
        except Exception as error:  # noqa: BLE001 - counted and reported
            result.failures.append(Failure(stage, doc.id, error))
            continue
        finally:
            end = time.perf_counter()
            result.item_s[stage][doc.id] = \
                end - start - (calibrator.spent - spent)
            result.item_at[stage][doc.id] = (start + end) / 2
        result.completed[stage] += 1
        done.append((doc, value))
    tracer.sentence = None
    return done


def _tokens(doc):
    if not doc.tokens:
        raise corpus_mod.CorpusFormatError(
            "document %s has no ::tok or ::snt line" % doc.id)
    return doc.tokens


def _align(result, tracer, calibrator, text, resources, rules):
    documents = _read(tracer, corpus_mod.read_corpus, text)

    def one(doc):
        with tracer.span("align.enumerate"):
            return align_mod.enumerate_alignments(
                doc.graph, _tokens(doc), rules, limit=MAX_CANDIDATES,
                resources=resources, per_fragment_cap=PER_FRAGMENT_CAP)

    done = _each(result, tracer, calibrator, "align", documents, one)
    for doc, aset in done:
        doc.set_candidates(aset.candidates)
        result.candidates += len(aset)
        result.truncated += aset.truncated
    return _write(tracer, corpus_mod.write_corpus, [doc for doc, _ in done])


def _tune(result, tracer, calibrator, text):
    documents = _read(tracer, corpus_mod.read_corpus, text)

    def one(doc):
        with tracer.span("tune.sentence"):
            candidates = doc.alignment_candidates()
            aset = align_mod.AlignmentSet(doc.graph, _tokens(doc), candidates)
            return oracle_mod.tune(aset.tokens, doc.graph, aset,
                                   smatch_restarts=RESTARTS,
                                   smatch_seed=SMATCH_SEED)

    done = _each(result, tracer, calibrator, "tune", documents, one)
    for doc, (best, run) in done:
        doc.set_alignment(best)
        doc.metadata["oracle-smatch"] = "%.4f" % run.smatch_f1
        doc.metadata["oracle-actions"] = str(run.action_count)
        result.oracle_f1.append(run.smatch_f1)
    return _write(tracer, corpus_mod.write_corpus, [doc for doc, _ in done])


def _tuned_candidate(doc):
    candidates = doc.alignment_candidates()
    if len(candidates) != 1:
        raise corpus_mod.CorpusFormatError(
            "document %s needs exactly one alignment; found %d"
            % (doc.id, len(candidates)))
    return candidates[0]


def _oracle(result, tracer, calibrator, text):
    documents = _read(tracer, corpus_mod.read_corpus, text)

    def one(doc):
        run = oracle_mod.oracle_run(_tokens(doc), doc.graph,
                                    _tuned_candidate(doc),
                                    smatch_restarts=RESTARTS,
                                    smatch_seed=SMATCH_SEED)
        metadata = {k: doc.metadata[k] for k in ("id", "tok", "pos")
                    if k in doc.metadata}
        metadata["oracle-smatch"] = "%.4f" % run.smatch_f1
        return metadata, [str(a) for a in run.actions]

    done = _each(result, tracer, calibrator, "oracle", documents, one)
    return _write(tracer, corpus_mod.write_traces, [block for _, block in done])


def _train(result, tracer, calibrator, text, lemmas, model_seeds):
    blocks = _read(tracer, corpus_mod.read_traces, text)
    examples = []
    for metadata, action_lines in blocks:
        tokens = tuple(metadata["tok"].split())
        pos = tuple(metadata["pos"].split()) if "pos" in metadata else None
        actions = tuple(transition.parse_action(line) for line in action_lines)
        examples.append(parser_mod.TrainingExample(tokens, actions, pos))
    result.actions = sum(len(e.actions) for e in examples)
    models = []
    for seed in model_seeds:
        name = "model-%d" % seed
        result.attempted["train"] += 1
        calibrator.tick()
        spent = calibrator.spent
        start = time.perf_counter()
        try:
            # the per-epoch log that `amrtk train` prints; here it times
            # the calibration kernel between epochs
            with tracer.span("parser.train"):
                models.append(parser_mod.train(
                    examples, epochs=EPOCHS, learning_rate=LEARNING_RATE,
                    seed=seed, lemma_table=lemmas,
                    log=lambda entry: calibrator.tick()))
        except Exception as error:  # noqa: BLE001 - counted and reported
            result.failures.append(Failure("train", name, error))
            continue
        finally:
            end = time.perf_counter()
            result.item_s["train"][name] = \
                end - start - (calibrator.spent - spent)
            result.item_at["train"][name] = (start + end) / 2
        result.completed["train"] += 1
    return models


def _parse(result, tracer, calibrator, text, models, lemmas):
    documents = _read(tracer, corpus_mod.read_corpus, text)
    if not models:
        return ""
    model = models[0] if len(models) == 1 else parser_mod.Ensemble(models)

    def one(doc):
        with tracer.span("parser.decode"):
            decoded = parser_mod.decode(model, _tokens(doc), pos=doc.pos,
                                        lemma_table=lemmas)
        with tracer.span("graph.serialize_penman", keep=False):
            graph_text = serialize_penman(decoded.graph)
        metadata = {k: doc.metadata[k] for k in ("id", "snt", "tok", "pos")
                    if k in doc.metadata}
        if decoded.warning:
            metadata["parse-warning"] = decoded.warning
        return corpus_mod.CorpusDocument(metadata, decoded.graph, graph_text)

    done = _each(result, tracer, calibrator, "parse", documents, one)
    result.drains = sum(1 for _, out in done if "parse-warning" in out.metadata)
    return _write(tracer, corpus_mod.write_corpus, [out for _, out in done])


def _smatch(result, tracer, calibrator, gold_text, pred_text):
    gold = {doc.id: doc for doc in _read(tracer, corpus_mod.read_corpus,
                                         gold_text)}
    pred = _read(tracer, corpus_mod.read_corpus, pred_text)

    def one(doc):
        gold_graph = gold[doc.id].graph
        with tracer.span("smatch"):
            tracer.count("smatch.triples",
                         triple_count(doc.graph) + triple_count(gold_graph))
            counts = smatch_mod.smatch_counts(doc.graph, gold_graph,
                                              restarts=RESTARTS,
                                              seed=SMATCH_SEED)
        return gold_graph, counts

    done = _each(result, tracer, calibrator, "smatch", pred, one)
    matched = total_pred = total_gold = 0
    for doc, (gold_graph, (m, n_pred, n_gold)) in done:
        result.smatch_pairs.append((doc.graph, gold_graph))
        matched += m
        total_pred += n_pred
        total_gold += n_gold
    result.smatch_counts = (matched, total_pred, total_gold)
    return "%d\t%d\t%d\n" % result.smatch_counts


def _model_digest(models):
    """One line per model: vocabulary size and a checksum of its weights,
    standing in for the model file that `amrtk train` writes."""
    lines = []
    for model in models:
        weights = [sorted(w.items()) for w in model.weights]
        payload = json.dumps([model.actions, model.bias, weights])
        lines.append("%d\t%08x\n" % (len(model.actions),
                                      zlib.crc32(payload.encode("utf-8"))))
    return "".join(lines)


def _stage(result, tracer, calibrator, stage, step):
    """Run `step()` as one timed stage, less the calibration it ran."""
    spent = calibrator.spent
    start = time.perf_counter()
    with tracer.span("stage." + stage):
        output = step()
    end = time.perf_counter()
    result.stage_s[stage] = end - start - (calibrator.spent - spent)
    result.stage_at[stage] = (start + end) / 2
    return output


def run_pass(corpus_text, resources, rules, lemmas, model_seeds, tracer):
    """Run every stage over `corpus_text` and return its PassResult."""
    result = PassResult()
    texts = result.texts
    calibrator = Calibrator(tracer)
    calibrator.sample()
    counter = WarningCounter()
    logger = logging.getLogger(align_mod.__name__)
    propagate = logger.propagate
    logger.addHandler(counter)
    logger.propagate = False

    def stage(name, step):
        return _stage(result, tracer, calibrator, name, step)

    try:
        with tracer.instrument(), calibrator.ticking(TICK_HOOKS):
            texts["align"] = stage("align", lambda: _align(
                result, tracer, calibrator, corpus_text, resources, rules))
            texts["tune"] = stage("tune", lambda: _tune(
                result, tracer, calibrator, texts["align"]))
            texts["oracle"] = stage("oracle", lambda: _oracle(
                result, tracer, calibrator, texts["tune"]))
            models = stage("train", lambda: _train(
                result, tracer, calibrator, texts["oracle"], lemmas,
                model_seeds))
            texts["parse"] = stage("parse", lambda: _parse(
                result, tracer, calibrator, texts["tune"], models, lemmas))
            texts["smatch"] = stage("smatch", lambda: _smatch(
                result, tracer, calibrator, texts["tune"], texts["parse"]))
    finally:
        logger.removeHandler(counter)
        logger.propagate = propagate
    calibrator.sample()
    result.reference = calibrator.samples
    texts["train"] = _model_digest(models)
    result.product_cap_hits = counter.count
    return result
