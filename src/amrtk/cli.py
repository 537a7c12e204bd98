"""Command-line pipeline: align -> tune -> oracle -> train -> parse,
plus smatch scoring and oracle action statistics.

Commands read and write blank-line-separated corpus blocks (stdin/stdout
capable via `-`) and put all randomness behind an explicit seed, so
identical invocations produce byte-identical output.
"""

import argparse
import contextlib
import os
import sys

from . import align as align_mod
from . import corpus as corpus_mod
from . import oracle as oracle_mod
from . import resources as resources_mod
from . import smatch as smatch_mod
from . import transition
from .graph import GraphLookupError, PenmanError, serialize_penman

RESOURCE_DIR_ENV = "AMRTK_RESOURCES"

ERROR_CODES = [
    (corpus_mod.CorpusFormatError, "corpus"),
    (PenmanError, "penman"),
    (GraphLookupError, "graph"),
    (resources_mod.ResourceFormatError, "resource"),
    (transition.ModelFormatError, "model"),
    (transition.TrainingError, "train"),
    (transition.DecodeError, "decode"),
    (align_mod.AlignmentInputError, "align"),
    (oracle_mod.OracleError, "oracle"),
    (oracle_mod.StatsError, "stats"),
    (smatch_mod.SmatchSizeError, "smatch"),
    (transition.TransitionError, "transition"),
    (FileNotFoundError, "io"),
    (PermissionError, "io"),
    (ValueError, "input"),
]


def _resource_path(path):
    if path is None:
        return None
    base = os.environ.get(RESOURCE_DIR_ENV)
    if base and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _read(path, reader):
    """`reader` applied to the file at `path`; `-` is stdin, left open."""
    if path == "-":
        return reader(sys.stdin)
    with open(path, encoding="utf-8") as stream:
        return reader(stream)


def _open_output(path):
    """A context manager for the output; `-` is stdout, left open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write(path, writer, items):
    with _open_output(path) as stream:
        writer(items, stream)


def _load_table(loader, path):
    """The TSV table `loader` reads at the resolved `path`; a line on
    stderr names the malformed lines it skipped."""
    path = _resource_path(path)
    table = loader(path)
    if table.skipped:
        sys.stderr.write("%s: skipped %d malformed line(s)\n"
                         % (path, table.skipped))
    return table


def _load_lemmas(args):
    """The lemma table named by `--lemmas`, or None."""
    if not args.lemmas:
        return None
    return _load_table(resources_mod.load_lemmas, args.lemmas)


def _load_resources(args):
    """The resources named on the `align` command line."""
    embeddings = morph = None
    if args.embeddings:
        embeddings = resources_mod.load_embeddings(_resource_path(args.embeddings))
    if args.morph:
        morph = _load_table(resources_mod.load_morphosemantic, args.morph)
    lemmas = _load_lemmas(args)
    return resources_mod.Resources(embeddings=embeddings, morph=morph,
                                   lemmas=lemmas,
                                   cosine_threshold=args.cosine_threshold)


def _require_tokens(doc):
    tokens = doc.tokens
    if not tokens:
        raise corpus_mod.CorpusFormatError(
            "document %s has no ::tok or ::snt line" % doc.id)
    return tokens


# ---------------------------------------------------------------------------
# commands

def cmd_align(args):
    resources = _load_resources(args)
    if args.base_only:
        rules = align_mod.base_rule_set()
    else:
        rules = align_mod.full_rule_set(resources)
    documents = _read(args.input, corpus_mod.read_corpus)
    truncated = 0
    for doc in documents:
        if doc.graph is None:
            raise corpus_mod.CorpusFormatError(
                "document %s has no graph" % doc.id)
        aset = align_mod.enumerate_alignments(
            doc.graph, _require_tokens(doc), rules,
            limit=args.max_candidates, resources=resources)
        doc.set_candidates(aset.candidates)
        truncated += aset.truncated
    _write(args.output, corpus_mod.write_corpus, documents)
    sys.stderr.write("truncated-sentences\t%d\n" % truncated)
    return 0


def cmd_tune(args):
    documents = _read(args.input, corpus_mod.read_corpus)
    if not documents:
        raise corpus_mod.CorpusFormatError("the corpus holds no documents")
    runs = []
    for doc in documents:
        candidates = doc.alignment_candidates()
        if not candidates:
            raise corpus_mod.CorpusFormatError(
                "document %s has no alignment candidates" % doc.id)
        best, run = oracle_mod.tune(_require_tokens(doc), doc.graph,
                                    candidates, smatch_restarts=args.restarts,
                                    smatch_seed=args.seed)
        doc.set_alignment(best)
        doc.metadata["oracle-smatch"] = "%.4f" % run.smatch_f1
        doc.metadata["oracle-actions"] = str(run.action_count)
        runs.append(run)
    _write(args.output, corpus_mod.write_corpus, documents)
    mean_f1 = sum(r.smatch_f1 for r in runs) / len(runs)
    mean_actions = sum(r.action_count for r in runs) / len(runs)
    forests = sum(1 for r in runs if r.trees > 1)
    certified = sum(1 for r in runs if r.certified)
    forfeited = sum(r.forfeited for r in runs)
    report = ("mean-oracle-smatch\t%.4f\nmean-actions\t%.2f\n"
              "forest-sentences\t%d\ncertified-sentences\t%d\n"
              "forfeited-concepts\t%d\n"
              % (mean_f1, mean_actions, forests, certified, forfeited))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stderr.write(report)
    return 0


def _tuned_candidate(doc):
    candidates = doc.alignment_candidates()
    if len(candidates) != 1:
        raise corpus_mod.CorpusFormatError(
            "document %s needs exactly one alignment (run `amrtk tune`); "
            "found %d" % (doc.id, len(candidates)))
    return candidates[0]


def cmd_oracle(args):
    blocks = []
    for doc in _read(args.input, corpus_mod.read_corpus):
        tokens = _require_tokens(doc)
        run = oracle_mod.oracle_run(tokens, doc.graph, _tuned_candidate(doc),
                                    smatch_restarts=args.restarts,
                                    smatch_seed=args.seed)
        metadata = {k: doc.metadata[k] for k in ("id", "tok", "pos")
                    if k in doc.metadata}
        metadata.setdefault("tok", " ".join(tokens))
        metadata["oracle-smatch"] = "%.4f" % run.smatch_f1
        blocks.append((metadata, [str(a) for a in run.actions]))
    _write(args.output, corpus_mod.write_traces, blocks)
    return 0


def _trace_tokens(metadata):
    """The tokens of a trace block, which must have a ::tok line."""
    if "tok" not in metadata:
        raise corpus_mod.CorpusFormatError("trace block lacks ::tok")
    return tuple(metadata["tok"].split())


def _read_training_corpus(path):
    from . import parser as parser_mod
    examples = []
    for metadata, action_lines in _read(path, corpus_mod.read_traces):
        tokens = _trace_tokens(metadata)
        pos = tuple(metadata["pos"].split()) if "pos" in metadata else None
        if pos is not None and len(pos) != len(tokens):
            raise corpus_mod.CorpusFormatError(
                "trace block ::pos arity mismatch")
        actions = tuple(transition.parse_action(line) for line in action_lines)
        examples.append(parser_mod.TrainingExample(tokens, actions, pos))
    return examples


def cmd_train(args):
    from . import parser as parser_mod
    examples = _read_training_corpus(args.traces)
    lemma_table = _load_lemmas(args)
    model = parser_mod.train(
        examples, epochs=args.epochs, learning_rate=args.learning_rate,
        seed=args.seed, dev_fraction=args.dev_fraction,
        lemma_table=lemma_table,
        log=lambda entry: sys.stderr.write(
            "epoch %d\tloss %.4f\ttrain-acc %.4f%s\n" % (
                entry["epoch"], entry["loss"], entry["train_accuracy"],
                "\tdev-acc %.4f" % entry["dev_accuracy"]
                if "dev_accuracy" in entry else "")))
    parser_mod.save_model(model, args.model)
    return 0


def cmd_parse(args):
    from . import parser as parser_mod
    members = [parser_mod.load_model(path) for path in args.model]
    model = members[0] if len(members) == 1 else parser_mod.Ensemble(members)
    lemma_table = _load_lemmas(args)
    out_docs = []
    for doc in _read(args.input, corpus_mod.read_corpus):
        result = parser_mod.decode(model, _require_tokens(doc), pos=doc.pos,
                                   lemma_table=lemma_table)
        metadata = {k: doc.metadata[k] for k in ("id", "snt", "tok", "pos")
                    if k in doc.metadata}
        if result.warning:
            metadata["parse-warning"] = result.warning
        out_docs.append(corpus_mod.CorpusDocument(
            metadata, result.graph, serialize_penman(result.graph)))
    _write(args.output, corpus_mod.write_corpus, out_docs)
    return 0


def cmd_smatch(args):
    gold_docs = _read(args.gold, corpus_mod.read_corpus)
    pred_docs = _read(args.pred, corpus_mod.read_corpus)
    if len(gold_docs) != len(pred_docs):
        raise corpus_mod.CorpusFormatError(
            "gold has %d graphs, pred has %d" % (len(gold_docs), len(pred_docs)))
    if not gold_docs:
        raise corpus_mod.CorpusFormatError("gold and pred hold no graphs")
    matched = total_pred = total_gold = certified = 0
    for gold_doc, pred_doc in zip(gold_docs, pred_docs):
        pred, gold = pred_doc.graph, gold_doc.graph
        if gold is None or pred is None:
            raise corpus_mod.CorpusFormatError("block without a graph")
        if None not in (gold_doc.id, pred_doc.id) and gold_doc.id != pred_doc.id:
            raise corpus_mod.CorpusFormatError(
                "gold block %s is paired with pred block %s"
                % (gold_doc.id, pred_doc.id))
        if args.exhaustive:
            counts = smatch_mod.exhaustive_counts(pred, gold)
        else:
            counts = smatch_mod.search_counts(
                pred, gold, restarts=args.restarts, seed=args.seed)
        matched += counts.matched
        total_pred += counts.total_a
        total_gold += counts.total_b
        certified += counts.certified
    score = smatch_mod.score_counts(matched, total_pred, total_gold, certified)
    sys.stdout.write("%.4f\t%.4f\t%.4f\n" % score[:3])
    sys.stderr.write("certified-pairs\t%d\n" % certified)
    return 0


def cmd_stats(args):
    blocks = []
    for path in args.traces:
        blocks.extend(_read(path, corpus_mod.read_traces))
    if not blocks:
        raise oracle_mod.StatsError("no trace blocks found")
    rows = [(len(_trace_tokens(metadata)), len(actions))
            for metadata, actions in blocks]
    with _open_output(args.output) as out:
        for row in rows:
            out.write("%d\t%d\n" % row)
    total = sum(n_actions for _, n_actions in rows)
    sys.stderr.write("mean-actions\t%.2f\n" % (total / len(blocks)))
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_io(sub, output_default="-"):
    sub.add_argument("--input", "-i", default="-",
                     help="input corpus file (default: stdin)")
    sub.add_argument("--output", "-o", default=output_default,
                     help="output file (default: stdout)")


def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=1, help="random seed")


def build_arg_parser():
    cmd = argparse.ArgumentParser(
        prog="amrtk",
        description="AMR alignment, oracle parsing and transition-based parsing.")
    subs = cmd.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("align", help="annotate a corpus with candidate alignments")
    _add_io(sub)
    sub.add_argument("--embeddings", help="GloVe-layout embedding file")
    sub.add_argument("--morph", help="morphosemantic link TSV")
    sub.add_argument("--lemmas", help="lemma TSV")
    sub.add_argument("--base-only", action="store_true",
                     help="disable the extended semantic/morphological rules")
    sub.add_argument("--max-candidates", type=int,
                     default=align_mod.DEFAULT_CANDIDATE_LIMIT)
    sub.add_argument("--cosine-threshold", type=float,
                     default=resources_mod.DEFAULT_COSINE_THRESHOLD)
    sub.set_defaults(func=cmd_align)

    sub = subs.add_parser("tune", help="pick the best candidate per sentence "
                                       "with the oracle parser")
    _add_io(sub)
    _add_seed(sub)
    sub.add_argument("--restarts", type=int, default=4)
    sub.add_argument("--report", help="write the mean-score report here "
                                      "instead of stderr")
    sub.set_defaults(func=cmd_tune)

    sub = subs.add_parser("oracle", help="export oracle action traces")
    _add_io(sub)
    _add_seed(sub)
    sub.add_argument("--restarts", type=int, default=4)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("train", help="train an action scorer on traces")
    sub.add_argument("--traces", required=True, help="trace file from `oracle`")
    sub.add_argument("--model", required=True, help="model file to write")
    sub.add_argument("--epochs", type=int, default=30)
    sub.add_argument("--learning-rate", type=float, default=0.5)
    sub.add_argument("--dev-fraction", type=float, default=0.0)
    sub.add_argument("--lemmas", help="lemma TSV for the copy-lemma action")
    _add_seed(sub)
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("parse", help="parse sentences with trained model(s)")
    _add_io(sub)
    sub.add_argument("--model", action="append", required=True,
                     help="model file; repeat to decode as an ensemble")
    sub.add_argument("--lemmas", help="lemma TSV for the copy-lemma action")
    sub.set_defaults(func=cmd_parse)

    sub = subs.add_parser("smatch", help="score two graph files")
    sub.add_argument("--gold", required=True)
    sub.add_argument("--pred", required=True)
    sub.add_argument("--restarts", type=int, default=4)
    sub.add_argument("--exhaustive", action="store_true",
                     help="exact search (small graphs only)")
    _add_seed(sub)
    sub.set_defaults(func=cmd_smatch)

    sub = subs.add_parser("stats", help="sentence-length/action-count TSV "
                                        "from trace files")
    sub.add_argument("--traces", nargs="+", required=True)
    sub.add_argument("--output", "-o", default="-")
    sub.set_defaults(func=cmd_stats)
    return cmd


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - single reporting point
        for exc_type, code in ERROR_CODES:
            if isinstance(err, exc_type):
                sys.stderr.write("ERR:%s: %s\n" % (code, err))
                return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
