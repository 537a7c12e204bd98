"""Pipeline benchmark for amrtk.

Generates the corpus of a workload from its seed (bench/corpus_gen.py) and
runs whole passes of align -> tune -> oracle -> train -> parse -> smatch
over it (bench/pipeline.py) until `--seconds` are spent, at least
MIN_PASSES times.  The loop is closed: one process, one thread, one
sentence at a time.  Between passes, fresh interpreters measure the set-up
time, spread over the run.  Every pass must write the same bytes as the
first; the first pass is also read back through the corpus readers, and
the Smatch calls it makes are recorded and checked against exhaustive
search.

A time is taken per item: each sentence in each stage, each model in
`train`, and the rest of each stage (reading and writing its corpus).
Every time is in calibrated seconds (bench/calibration.py): it is scaled
by how fast a fixed reference kernel ran next to it, so that a stretch in
which the shared host runs slower does not move the figures.  Each item
counts at its median over the passes.

    python3 bench/run.py --workload compose-short --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

`--trace 0` reports the end-to-end metrics.  `--trace 1` also runs a
traced pass (bench/tracing.py) after every untraced one, reports the
per-layer metrics and the tracing overhead instead, and writes the spans
to bench/results/.  Failed sentences are printed as
`FAILED <stage> <id> <error>` lines.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
SRC = os.path.join(REPO, "src")
RESOURCE_DIR = os.path.join(REPO, "tests", "fixtures", "resources")
RESULTS = os.path.join(BENCH, "results")
if not os.path.isdir(os.path.join(SRC, "amrtk")):
    sys.exit("bench/run.py: no amrtk sources under %s" % SRC)
sys.path.insert(0, SRC)

import corpus_gen  # noqa: E402
import pipeline  # noqa: E402
from amrtk import align as align_mod  # noqa: E402
from amrtk import corpus as corpus_mod  # noqa: E402
from amrtk import resources as resources_mod  # noqa: E402
from amrtk import smatch as smatch_mod  # noqa: E402
from amrtk.graph import AmrGraph, serialize_penman  # noqa: E402
from calibration import scale, scale_at  # noqa: E402
from tracing import NullTracer, Tracer, recording_smatch  # noqa: E402

# Seeds of the parser models trained in each pass; two decode as an
# ensemble.
MODEL_SEEDS = {
    "compose-long": (1,),
    "compose-short": (1, 2),
}

SETUP_LAUNCHES = 11
# What every amrtk command pays before its first sentence.  Then the
# launch prints the moment it was done (perf_counter is the system's
# monotonic clock, shared by all processes) and the times of a few runs
# of the calibration kernel, which calibrate the launch where it ran.
SETUP_CODE = """
import os, sys, time
import amrtk.cli
from amrtk import resources
base = sys.argv[1]
resources.load_embeddings(os.path.join(base, "embeddings.txt"))
resources.load_morphosemantic(os.path.join(base, "morph.tsv"))
resources.load_lemmas(os.path.join(base, "lemmas.tsv"))
done = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from calibration import time_kernel
print(done, *[time_kernel() for _ in range(5)])
"""

MIN_PASSES = 3
# pairs whose exhaustive Smatch search stays under this many mappings
EXACT_MAPPINGS = 5040
# mappings that the exhaustive checks of one run may search in all
CHECK_MAPPINGS = 200000
TAIL_ABOVE = 10

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("align.sents_per_s", "1/s"), ("tune.sents_per_s", "1/s"),
    ("oracle.sents_per_s", "1/s"), ("train.actions_per_s", "1/s"),
    ("parse.sents_per_s", "1/s"), ("smatch.pairs_per_s", "1/s"),
    ("tune.sent_ms.p50", "ms"), ("tune.sent_ms.tail", "ms"),
    ("tune.oracle_f1", "F1"), ("parse.smatch_f1", "F1"),
    ("completed_share", "share"), ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("smatch.calls", "count"), ("smatch.s", "s"), ("smatch.ms_per_call", "ms"),
    ("smatch.triples_per_call", "count"), ("smatch.below_exact_share", "share"),
    ("smatch.exact_checked", "count"),
    ("align.collect_records.s", "s"),
    ("resources.semantic_match.calls", "count"),
    ("resources.semantic_match.s", "s"),
    ("resources.morph_match.calls", "count"), ("resources.morph_match.s", "s"),
    ("align.enumerate.self_s", "s"), ("align.is_legal.calls", "count"),
    ("align.candidates", "count"), ("align.legal_ratio", "share"),
    ("align.truncated_share", "share"), ("align.product_cap_hits", "count"),
    ("oracle.runs", "count"), ("oracle.run.self_s", "s"),
    ("oracle.prune.s", "s"), ("oracle.actions", "count"),
    ("oracle.errors", "count"), ("oracle.empty_runs", "count"),
    ("transition.apply.calls", "count"), ("transition.apply.s", "s"),
    ("parser.encode_state.calls", "count"), ("parser.encode_state.s", "s"),
    ("parser.hash_features.s", "s"),
    ("parser.legal_action_names.calls", "count"),
    ("parser.legal_action_names.s", "s"),
    ("parser.parse_action.calls", "count"),
    ("parser.score_actions.calls", "count"), ("parser.score_actions.s", "s"),
    ("parser.train.self_s", "s"), ("parser.decode.s", "s"),
    ("parser.drain_fallbacks", "count"),
    ("corpus.read_s", "s"), ("corpus.write_s", "s"),
    ("graph.parse_penman.calls", "count"), ("graph.parse_penman.s", "s"),
    ("graph.serialize_penman.s", "s"),
    ("resources.load_s", "s"), ("trace.overhead_s", "s"),
]


def setup_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def launch_setup(env):
    """Calibrated wall time of a fresh interpreter that imports amrtk and
    loads the three fixture resource files."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, RESOURCE_DIR,
                           BENCH], cwd=REPO, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    end, *samples = map(float, done.stdout.split())
    return (end - start) * scale(samples)


def load_resources():
    return resources_mod.Resources(
        embeddings=resources_mod.load_embeddings(
            os.path.join(RESOURCE_DIR, "embeddings.txt")),
        morph=resources_mod.load_morphosemantic(
            os.path.join(RESOURCE_DIR, "morph.tsv")),
        lemmas=resources_mod.load_lemmas(
            os.path.join(RESOURCE_DIR, "lemmas.tsv")))


def tail(samples, above=TAIL_ABOVE):
    """(value, percentile): the highest nearest-rank percentile with at
    least `above` samples beyond it, or the median when there are too few
    samples for a higher one.  The samples are one latency per distinct
    sentence."""
    n = len(samples)
    if n <= 2 * above:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - above - 1], 100.0 * (n - above) / n


def check_readback(result):
    """Problems found reading each stage's output back: writing what the
    corpus readers return must give the same text, and every parsed graph
    must serialize to the text it was read from."""
    problems = []
    for stage in ("align", "tune", "parse"):
        text = result.texts[stage]
        documents = corpus_mod.read_corpus(text) if text else []
        if corpus_mod.corpus_to_string(documents) != text:
            problems.append("%s output does not read back" % stage)
        if stage == "parse":
            for doc in documents:
                if serialize_penman(doc.graph) != doc.graph_text:
                    problems.append("parse graph %s does not round-trip"
                                    % doc.id)
    blocks = corpus_mod.read_traces(result.texts["oracle"])
    out = io.StringIO()
    corpus_mod.write_traces(blocks, out)
    if out.getvalue() != result.texts["oracle"]:
        problems.append("oracle traces do not read back")
    return problems


def subgraph(graph, top):
    """The part of `graph` reachable from `top`, rooted there."""
    seen = {top}
    stack = [top]
    while stack:
        for rel in graph.outgoing(stack.pop()):
            if rel.target not in seen:
                seen.add(rel.target)
                stack.append(rel.target)
    return AmrGraph({c: graph.concepts[c] for c in graph.concepts if c in seen},
                    [r for r in graph.relations
                     if r.source in seen and r.target in seen], top)


def sub_pairs(a, b):
    """The pair itself and, when both graphs join parts under an `and`
    root, each pair of parts under the same `:opN` role."""
    yield a, b
    if a.concept(a.root).label != "and" or b.concept(b.root).label != "and":
        return
    ops_a = {rel.label: rel.target for rel in a.outgoing(a.root)}
    for rel in b.outgoing(b.root):
        if rel.label.startswith(":op") and rel.label in ops_a:
            yield subgraph(a, ops_a[rel.label]), subgraph(b, rel.target)


def graph_key(graph):
    return graph.root, tuple(graph.concepts.values()), graph.relations


def check_smatch(pairs):
    """(problems, checked, below): hill-climbing counts against exhaustive
    search.  `pairs` are (candidate, reference, restarts, seed) as the
    pipeline scored them; each distinct pair and part pair (`sub_pairs`)
    is checked where exhaustive search is cheap, in order, until
    CHECK_MAPPINGS mappings are searched."""
    problems = []
    seen = set()
    below = 0
    budget = CHECK_MAPPINGS
    for a, b, restarts, seed in pairs:
        for x, y in sub_pairs(a, b):
            small, large = sorted((len(x.var_ids()), len(y.var_ids())))
            mappings = math.perm(large, small)
            key = (graph_key(x), graph_key(y), restarts, seed)
            if small > smatch_mod.EXHAUSTIVE_VAR_LIMIT or \
                    mappings > min(EXACT_MAPPINGS, budget) or key in seen:
                continue
            seen.add(key)
            budget -= mappings
            matched = smatch_mod.smatch_counts(x, y, restarts, seed)[0]
            exact = smatch_mod.exhaustive_counts(x, y)[0]
            if matched > exact:
                problems.append("smatch count %d exceeds the exact %d"
                                % (matched, exact))
            below += matched < exact
    return problems, len(seen), below


def item_seconds(passes, stage, item):
    """Calibrated seconds of one item at its median pass."""
    return statistics.median(
        p.item_s[stage][item] * scale_at(p.reference, p.item_at[stage][item])
        for p in passes)


def stage_seconds(passes, stage):
    """Calibrated time of one stage over the corpus: every item of the
    stage at its median pass, plus the rest of the stage at its median
    pass."""
    rest = statistics.median(
        (p.stage_s[stage] - sum(p.item_s[stage].values()))
        * scale_at(p.reference, p.stage_at[stage]) for p in passes)
    return rest + sum(item_seconds(passes, stage, item)
                      for item in passes[0].item_s[stage])


def wall_seconds(passes):
    return sum(stage_seconds(passes, stage) for stage in pipeline.STAGES)


def tune_latencies(passes):
    """Calibrated milliseconds of each tuned sentence at its median pass."""
    failed = {f.sentence for f in passes[0].failures if f.stage == "tune"}
    return [1000.0 * item_seconds(passes, "tune", item)
            for item in passes[0].item_s["tune"] if item not in failed]


def end_to_end(passes, setup_s, model_count):
    """End-to-end metrics.  Times as in `stage_seconds`; scores, counts and
    the completed share from the first pass, whose outputs every other
    pass repeats."""
    first = passes[0]

    def rate(stage):
        return first.completed[stage] / stage_seconds(passes, stage)

    tune_ms = tune_latencies(passes)
    tail_ms, tail_pct = tail(tune_ms) if tune_ms else (0.0, 0.0)
    matched, n_pred, n_gold = first.smatch_counts
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_seconds(passes),
        "align.sents_per_s": rate("align"),
        "tune.sents_per_s": rate("tune"),
        "oracle.sents_per_s": rate("oracle"),
        "train.actions_per_s": (first.actions * pipeline.EPOCHS * model_count
                                / stage_seconds(passes, "train")),
        "parse.sents_per_s": rate("parse"),
        "smatch.pairs_per_s": rate("smatch"),
        "tune.sent_ms.p50": statistics.median(tune_ms) if tune_ms else 0.0,
        "tune.sent_ms.tail": tail_ms,
        "tune.oracle_f1": (statistics.fmean(first.oracle_f1)
                           if first.oracle_f1 else 0.0),
        "parse.smatch_f1": (2 * precision * recall / (precision + recall)
                            if precision + recall else 0.0),
        "completed_share": (sum(first.completed.values())
                            / sum(first.attempted.values())),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tune.sent_ms.tail.percentile": tail_pct,
             "tune.sent_ms.samples": len(tune_ms),
             "scale": [scale([s for _, s in p.reference]) for p in passes],
             "stage_s": {stage: [p.stage_s[stage] for p in passes]
                         for stage in pipeline.STAGES}}
    return metrics, notes


def raw_layer(tracer, result):
    """Per-pass totals behind the per-layer metrics: keys ending in `_s`
    are calibrated seconds, the others counts."""
    factor = scale([seconds for _, seconds in result.reference])
    raw = {"align.candidates": result.candidates,
           "align.truncated": result.truncated,
           "align.completed": result.completed["align"],
           "align.product_cap_hits": result.product_cap_hits,
           "parser.drain_fallbacks": result.drains}
    raw.update(tracer.counts)
    for name, (calls, seconds, self_seconds) in tracer.totals.items():
        raw[name + ".calls"] = calls
        raw[name + ".s"] = seconds * factor
        raw[name + ".self_s"] = self_seconds * factor
    return raw


def combine(raws):
    """Counts of the first pass, and seconds at the median pass."""
    names = set().union(*raws)
    return {name: statistics.median(r.get(name, 0) for r in raws)
            if name.endswith("_s") or name.endswith(".s")
            else raws[0].get(name, 0) for name in names}


def per_layer(raw, overhead_s, checks, load_s):
    def ratio(a, b):
        return a / b if b else 0.0

    def get(name):
        return raw.get(name, 0)

    return {
        "smatch.calls": get("smatch.calls"),
        "smatch.s": get("smatch.s"),
        "smatch.ms_per_call": ratio(1000.0 * get("smatch.s"),
                                    get("smatch.calls")),
        "smatch.triples_per_call": ratio(get("smatch.triples"),
                                         get("smatch.calls")),
        "smatch.below_exact_share": ratio(checks["below"], checks["checked"]),
        "smatch.exact_checked": checks["checked"],
        "align.collect_records.s": get("align.collect_records.s"),
        "resources.semantic_match.calls": get("resources.semantic_match.calls"),
        "resources.semantic_match.s": get("resources.semantic_match.s"),
        "resources.morph_match.calls": get("resources.morph_match.calls"),
        "resources.morph_match.s": get("resources.morph_match.s"),
        "align.enumerate.self_s": get("align.enumerate.self_s"),
        "align.is_legal.calls": get("align.is_legal"),
        "align.candidates": get("align.candidates"),
        "align.legal_ratio": ratio(get("align.candidates"),
                                   get("align.is_legal")),
        "align.truncated_share": ratio(get("align.truncated"),
                                       get("align.completed")),
        "align.product_cap_hits": get("align.product_cap_hits"),
        "oracle.runs": get("oracle.run.calls"),
        "oracle.run.self_s": get("oracle.run.self_s"),
        "oracle.prune.s": get("oracle.prune.s"),
        "oracle.actions": get("oracle.actions"),
        "oracle.errors": get("oracle.run.errors"),
        "oracle.empty_runs": get("oracle.empty_runs"),
        "transition.apply.calls": get("transition.apply.calls"),
        "transition.apply.s": get("transition.apply.s"),
        "parser.encode_state.calls": get("parser.encode_state.calls"),
        "parser.encode_state.s": get("parser.encode_state.s"),
        "parser.hash_features.s": get("parser.hash_features.s"),
        "parser.legal_action_names.calls":
            get("parser.legal_action_names.calls"),
        "parser.legal_action_names.s": get("parser.legal_action_names.s"),
        "parser.parse_action.calls": get("parser.parse_action"),
        "parser.score_actions.calls": get("parser.score_actions.calls"),
        "parser.score_actions.s": get("parser.score_actions.s"),
        "parser.train.self_s": get("parser.train.self_s"),
        "parser.decode.s": get("parser.decode.s"),
        "parser.drain_fallbacks": get("parser.drain_fallbacks"),
        "corpus.read_s": get("corpus.read.s"),
        "corpus.write_s": get("corpus.write.s"),
        "graph.parse_penman.calls": get("graph.parse_penman.calls"),
        "graph.parse_penman.s": get("graph.parse_penman.s"),
        "graph.serialize_penman.s": get("graph.serialize_penman.s"),
        "resources.load_s": load_s,
        "trace.overhead_s": overhead_s,
    }


def run_workload(workload, seed, seconds, traced, out=sys.stdout,
                 parts=None, launches=SETUP_LAUNCHES, min_passes=MIN_PASSES):
    """Run one workload; returns the result object of the last output line.
    Tests pass a few fixture `parts`, one set-up launch and one pass."""
    start = time.perf_counter()
    deadline = start + seconds
    resources = load_resources()
    load_s = time.perf_counter() - start
    rules = align_mod.full_rule_set(resources)
    model_seeds = MODEL_SEEDS[workload]
    corpus_text = corpus_gen.generate(workload, seed, parts)
    env = setup_env()

    def one_pass(tracer):
        return pipeline.run_pass(corpus_text, resources, rules,
                                 resources.lemmas, model_seeds, tracer)

    setup_times = []
    passes = []
    traces = []
    problems = []
    while True:
        began = time.perf_counter()
        if passes:
            result = one_pass(NullTracer())
            if result.outputs() != passes[0].outputs():
                problems.append("pass %d wrote other outputs than pass 0"
                                % len(passes))
            result.drop_outputs()
        else:
            scored = []
            with recording_smatch(scored):
                result = one_pass(NullTracer())
            problems += check_readback(result)
            scored += [(pred, gold, pipeline.RESTARTS, pipeline.SMATCH_SEED)
                       for pred, gold in result.smatch_pairs]
            smatch_problems, checked, below = check_smatch(scored)
            del scored
            problems += smatch_problems
            if not checked:
                problems.append("no Smatch pair was checked against "
                                "exhaustive search")
            for failure in result.failures:
                out.write("%s\n" % failure)
        passes.append(result)
        if traced:
            tracer = Tracer()
            traces.append((tracer, one_pass(tracer)))
            if traces[-1][1].outputs() != passes[0].outputs():
                problems.append("traced pass %d wrote different outputs"
                                % (len(passes) - 1))
            traces[-1][1].drop_outputs()
        # set-up launches spread over the run, in step with the passes
        elapsed = time.perf_counter() - start
        due = math.ceil(launches * elapsed / seconds) if seconds else launches
        while len(setup_times) < min(due, launches):
            setup_times.append(launch_setup(env))
        now = time.perf_counter()
        if len(passes) >= min_passes and now + (now - began) > deadline:
            break
    while len(setup_times) < launches:
        setup_times.append(launch_setup(env))
    for problem in problems:
        out.write("CHECK FAILED %s\n" % problem)

    metrics, notes = end_to_end(passes, statistics.median(setup_times),
                                len(model_seeds))
    notes.update({"workload": workload, "seed": seed, "passes": len(passes),
                  "sentences": passes[0].attempted["align"],
                  "setup_s": setup_times,
                  "smatch.exact_checked": checked,
                  "failures": [f.key() for f in passes[0].failures],
                  "problems": problems})
    units = dict(END_TO_END)
    if traced:
        traced_passes = [result for _, result in traces]
        raw = combine([raw_layer(t, r) for t, r in traces])
        notes["end_to_end"] = metrics
        metrics = per_layer(raw, wall_seconds(traced_passes)
                            - wall_seconds(passes),
                            {"checked": checked, "below": below}, load_s)
        units = dict(PER_LAYER)
        write_spans(workload, seed, traces)
    for name, value in metrics.items():
        out.write("%-34s %14.6f %s\n" % (name, value, units[name]))
    out.write("%s passes over %d sentences; tune.sent_ms.tail is p%.1f of %d\n"
              % (notes["passes"], notes["sentences"],
                 notes["tune.sent_ms.tail.percentile"],
                 notes["tune.sent_ms.samples"]))
    write_notes(workload, seed, traced, notes)
    every = passes + [result for _, result in traces]
    attempted = sum(sum(p.attempted.values()) for p in every)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(sum(p.completed.values()) for p in every),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_spans(workload, seed, traces):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        for index, (tracer, _) in enumerate(traces):
            for span in tracer.spans:
                handle.write(json.dumps(dict(span, **{"pass": index})) + "\n")


def write_notes(workload, seed, traced, notes):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-%d-trace%d.json" % (workload, seed,
                                                         int(traced)))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(notes, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    cmd = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cmd.add_argument("--workload", required=True,
                     choices=sorted(MODEL_SEEDS) + ["all"])
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--seconds", type=float, required=True)
    cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cmd.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so peak memory is each workload's own
        for workload in sorted(MODEL_SEEDS):
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
