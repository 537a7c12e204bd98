import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import amrtk.cli
from amrtk import parser as parser_mod
from amrtk.align import full_rule_set
from amrtk.cli import main
from amrtk.graph import GraphLookupError
from helpers import (
    BENCH, bench_module, fixture, looping_model, overflowing_model,
)

RES = dict(
    embeddings=fixture("resources", "embeddings.txt"),
    morph=fixture("resources", "morph.tsv"),
    lemmas=fixture("resources", "lemmas.tsv"),
)


def read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_interpreter(*argv):
    """Run `python -c` with `argv` in a new interpreter that imports this
    amrtk; returns the finished process, its output captured as text."""
    src = os.path.dirname(os.path.dirname(amrtk.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", *argv], env=env,
                          capture_output=True, text=True)


# `amrtk` with the arguments after it, for `fresh_interpreter`
CLI_MAIN = "import sys, amrtk.cli; sys.exit(amrtk.cli.main(sys.argv[1:]))"


def align_tune(tmp_path, capsys, source=None):
    source = source or fixture("train_corpus.amr")
    aligned = str(tmp_path / "aligned.amr")
    tuned = str(tmp_path / "tuned.amr")
    code, _, _ = run_cli(capsys, "align", "-i", source, "-o", aligned,
                         "--embeddings", RES["embeddings"],
                         "--morph", RES["morph"], "--lemmas", RES["lemmas"])
    assert code == 0
    code, _, _ = run_cli(capsys, "tune", "-i", aligned, "-o", tuned)
    assert code == 0
    return aligned, tuned


def test_align_annotates_every_block(tmp_path, capsys):
    aligned, _ = align_tune(tmp_path, capsys)
    text = read_text(aligned)
    assert text.count("::alignments-0") == 10


def test_align_max_candidates_one(tmp_path, capsys):
    out = str(tmp_path / "one.amr")
    code, _, _ = run_cli(capsys, "align", "-i", fixture("train_corpus.amr"),
                         "-o", out, "--lemmas", RES["lemmas"],
                         "--max-candidates", "1")
    assert code == 0
    text = read_text(out)
    assert "::alignments-0" in text
    assert "::alignments-1" not in text


def test_align_base_only_reproducible(tmp_path, capsys):
    out1 = str(tmp_path / "a.amr")
    out2 = str(tmp_path / "b.amr")
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "align", "-i", fixture("train_corpus.amr"),
                             "-o", out, "--base-only")
        assert code == 0
    assert read_text(out1) == read_text(out2)


# sha256 of the align, tune and oracle outputs; a change to any of them
# changes what every later stage reads.  The compose corpora are the
# benchmark's workloads at seed 1.
PINNED_DIGESTS = {
    "compose-long": (
        "dd5f15c8cd4ed852efcedc16836370daafd585223800ec129768da00618ddd7b",
        "6f9fd45b19468c13bf046fd6ec25c5d64f795176aa6ef90789fa088e4b923bdf",
        "e4e2aa2bf4be730730f80ab866813cdf9f6da7fe7651f8ff63211a7d8a96f75e"),
    "compose-short": (
        "cd8f4df6bc3020e5da2fd0e68df7e68763935d25f60c1d3cb6ea75002fa674cf",
        "4a709f249ef64d1ff918b8407e95d085a955a723af9eabcb23c35f44cb1963b6",
        "f61c842d037fee649a3004df7d95338ba832beedb6dfc69728b4b2acd8be444c"),
    "train_corpus": (
        "fcafb7024be47758f851a6b935cb113a2fd2831596ba2a5d9b5d9aab642e0996",
        "e60f8a5c44ae34ce4c6b80dcb3cbf2b28fb3677286b7ef46e45b6377d3365d6c",
        "0f35632587704c78eeade00048fc63e47fa5a0dc9dd422e3ad6ade255d63d5e1"),
    "oracle_corpus": (
        "db94106b3a0c103dc5457c40305653ba6757b098840aed5ecb3b4307f80551e8",
        "eefb4d1bd63505b3a2238bb8c249c2277ac0abbcfba31b4ef3dea804dab10d6f",
        "c2ec0f53d4e36f7ba417528df96be71f7d59dc00e51a7b0b43bb7a94ba5b6f54"),
}


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def corpus_path(tmp_path, corpus):
    """A fixture corpus, or a benchmark corpus generated at seed 1."""
    if corpus.startswith("compose-"):
        path = tmp_path / (corpus + ".amr")
        path.write_text(bench_module("corpus_gen").generate(corpus, 1),
                        encoding="utf-8")
        return str(path)
    return fixture(corpus + ".amr")


def align_tune_oracle(tmp_path, capsys, source):
    """Paths of the align, tune and oracle outputs for the corpus file at
    `source`."""
    aligned, tuned, traces = (str(tmp_path / name)
                              for name in ("aligned", "tuned", "traces"))
    steps = [
        ("align", "-i", source, "-o", aligned,
         "--embeddings", RES["embeddings"], "--morph", RES["morph"],
         "--lemmas", RES["lemmas"]),
        ("tune", "-i", aligned, "-o", tuned, "--seed", "1",
         "--report", str(tmp_path / "report")),
        ("oracle", "-i", tuned, "-o", traces, "--seed", "1"),
    ]
    for argv in steps:
        assert run_cli(capsys, *argv)[0] == 0
    return aligned, tuned, traces


@pytest.mark.parametrize("corpus", sorted(PINNED_DIGESTS))
def test_align_tune_oracle_bytes_pinned(tmp_path, capsys, corpus):
    paths = align_tune_oracle(tmp_path, capsys, corpus_path(tmp_path, corpus))
    assert tuple(sha256_of(path) for path in paths) == PINNED_DIGESTS[corpus]


def test_a_release_header_changes_no_byte(tmp_path, capsys):
    # an AMR release file opens with a comment-only line and a blank line
    headed = tmp_path / "headed.amr"
    headed.write_text("# AMR release; corpus: fixture\n\n"
                      + read_text(fixture("train_corpus.amr")),
                      encoding="utf-8")
    paths = align_tune_oracle(tmp_path, capsys, str(headed))
    assert tuple(sha256_of(path) for path in paths) == \
        PINNED_DIGESTS["train_corpus"]


def test_release_keys_on_the_id_line_change_no_other_byte(tmp_path, capsys):
    # an AMR release file's `::id` line gives several keys
    released = tmp_path / "released.amr"
    released.write_text(re.sub(
        r"(?m)^# ::id .*", r"\g<0> ::date 2012-12-04T17:55:20 "
        "::annotator fixture ::preferred",
        read_text(fixture("train_corpus.amr"))), encoding="utf-8")
    paths = align_tune_oracle(tmp_path, capsys, str(released))
    texts = [re.sub(r"(?m)^# ::(date|annotator|preferred)( .*)?\n", "",
                    read_text(path)) for path in paths]
    assert tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                 for text in texts) == PINNED_DIGESTS["train_corpus"]


@pytest.mark.parametrize("workload", ["compose-long", "compose-short"])
def test_the_benchmark_writes_what_the_cli_writes(tmp_path, capsys,
                                                  monkeypatch, workload):
    # bench/pipeline.py drives the library calls of `amrtk align`, `tune`
    # and `oracle` itself; at seed 1 its texts are the commands' bytes
    monkeypatch.syspath_prepend(BENCH)
    run = bench_module("run")
    resources = run.load_resources()
    result = run.pipeline.run_pass(
        run.corpus_gen.generate(workload, 1), resources,
        full_rule_set(resources), resources.lemmas, run.MODEL_SEEDS[workload],
        run.NullTracer())
    paths = align_tune_oracle(tmp_path, capsys, corpus_path(tmp_path, workload))
    assert [result.texts[stage] for stage in ("align", "tune", "oracle")] \
        == [read_text(path) for path in paths]


@pytest.mark.parametrize("corpus, certified", [
    ("train_corpus", 10), ("oracle_corpus", 16)])
def test_tune_reports_certified_sentences(tmp_path, capsys, corpus, certified):
    align_tune_oracle(tmp_path, capsys, corpus_path(tmp_path, corpus))
    assert read_text(tmp_path / "report").splitlines()[3] == \
        "certified-sentences\t%d" % certified


@pytest.mark.parametrize("limit, truncated", [("1", 1), (None, 0)])
def test_align_reports_truncated_sentences(tmp_path, capsys, limit, truncated):
    aligned = str(tmp_path / "aligned")
    argv = ["align", "-i", fixture("oracle_corpus.amr"), "-o", aligned,
            "--embeddings", RES["embeddings"], "--morph", RES["morph"],
            "--lemmas", RES["lemmas"]]
    if limit:
        argv += ["--max-candidates", limit]
    assert run_cli(capsys, *argv) == (
        0, "", "truncated-sentences\t%d\n" % truncated)
    if limit is None:
        assert sha256_of(aligned) == PINNED_DIGESTS["oracle_corpus"][0]


# sha256 of two `train` model files and their stderr logs (seed 2 holds
# out a dev split), then of `parse` with model 1 and with both as an
# ensemble; the compose corpora are the benchmark's workloads at seed 1
PARSER_DIGESTS = {
    "train_corpus": (
        "85a6ecca2aef2f723055a8ced39ac35ff6668aa94ef1b325dfe95e571a0a3ba2",
        "664e4ef44724dd553fa3066e46a6ad5b7e59b31d7b5a18c4b636c040aafceaef",
        "32d9516227929e4499c6293ae1ffe13e65d1931ac7b8da9f8b3b2626f33ca3bd",
        "05604b7ed42ac1650d67f5df37f97bdb6d405114b565306957a5215ffce5b04f",
        "487dc762bf30a47c683eab64178520531ee4c893be76bc28caa7f6f8965fe0b7",
        "487dc762bf30a47c683eab64178520531ee4c893be76bc28caa7f6f8965fe0b7"),
    "oracle_corpus": (
        "4c758ded7252e15aced7006ae1050cd1f93b5cd2ef4009e7210011d7d13d508c",
        "a788867b92de75cbb15d5fb45a7b1eb47b0f45386be5a30bf90b9235e1e40bee",
        "84c52152adaaeb9c27269806fcf10cd1195250ea4f3050038411ca91a512e048",
        "83c24cd52d77a38ac204340401287faa8df072c51d7f663865bd718c0613bce8",
        "0133a08e5ea71d40988342c3d32046d0ef68d16135d6f870ed0d81c8ce6aa4ab",
        "2bb6c19d0db8e8f0467c40de58b738bbd9db4645e9a6b897c94a739d676b4a57"),
    "compose-long": (
        "f86b527ea67b55e3a0090c79039d08f3e9063c051737120b4573f39124f7858b",
        "53d76aa12bfffc33d28ea4bfaa1c1a7caefe3887454000e9ccefea0d30d6b853",
        "dc35bdfcd52c3f5a5c42b172e24bdedabc7ab500cc5ab573efaa3a5471bdda22",
        "15e195227c4ab9dc321d3066205615ef8afdd73e7fc05c0baff56d4c20e71432",
        "52f82ed42161f3156b11e5203d217fe78d15ade1925606baf643070eb90fa538",
        "70e8b519bccadf96e2583e90061ee9b0d87c0b84adf07ec2a4bd765965546300"),
    "compose-short": (
        "afc8d35c80b9c7231b275acadcaa81f90a0bee6f4bf0974fa148bbbd87e7732d",
        "84c6df605f3d938bcc8158b4b1a83cf162103c2247128c976af7f0d8d8a082fe",
        "6a3a44876810f6920e31bc38c4c2104ed98c3f2031818ae1eb5bacff833384e2",
        "1e88ad6bbe6bb6b735b8c1fffe4382cae4471e8f013fa9ebb83248f72263e144",
        "c3dff323b72b9fe91df9877ed9381a3552d0a5a0416ad162f148609dde8c2afc",
        "c3dff323b72b9fe91df9877ed9381a3552d0a5a0416ad162f148609dde8c2afc"),
}


@pytest.mark.parametrize("corpus", sorted(PARSER_DIGESTS))
def test_train_parse_bytes_pinned(tmp_path, capsys, corpus):
    _, tuned, traces = align_tune_oracle(tmp_path, capsys,
                                         corpus_path(tmp_path, corpus))
    digests = []
    models = []
    for seed, extra in (("1", ()), ("2", ("--dev-fraction", "0.3"))):
        model = str(tmp_path / ("model-" + seed))
        code, _, err = run_cli(capsys, "train", "--traces", traces,
                               "--model", model, "--epochs", "12",
                               "--seed", seed, "--lemmas", RES["lemmas"],
                               *extra)
        assert code == 0
        digests += [sha256_of(model),
                    hashlib.sha256(err.encode("utf-8")).hexdigest()]
        models.append(model)
    for count in (1, 2):
        parsed = str(tmp_path / ("parsed-%d" % count))
        argv = ["parse", "-i", tuned, "-o", parsed, "--lemmas", RES["lemmas"]]
        for model in models[:count]:
            argv += ["--model", model]
        assert run_cli(capsys, *argv)[0] == 0
        digests.append(sha256_of(parsed))
    assert tuple(digests) == PARSER_DIGESTS[corpus]


def test_train_and_stats_read_snt_traces_as_tok_traces(tmp_path, capsys):
    traces = align_tune_oracle(tmp_path, capsys,
                               fixture("train_corpus.amr"))[2]
    snt_traces = str(tmp_path / "snt-traces")
    with open(snt_traces, "w", encoding="utf-8") as handle:
        handle.write(read_text(traces).replace("# ::tok ", "# ::snt "))
    assert "::tok" not in read_text(snt_traces)
    outputs = []
    for path in (traces, snt_traces):
        model = path + ".model"
        code, _, log = run_cli(capsys, "train", "--traces", path, "--model",
                               model, "--epochs", "3", "--lemmas",
                               RES["lemmas"])
        assert code == 0
        outputs.append((read_text(model), log,
                        run_cli(capsys, "stats", "--traces", path)))
    assert outputs[0] == outputs[1]


def test_tune_writes_metadata_and_report(tmp_path, capsys):
    source = fixture("train_corpus.amr")
    aligned = str(tmp_path / "aligned.amr")
    tuned = str(tmp_path / "tuned.amr")
    report = str(tmp_path / "report.tsv")
    run_cli(capsys, "align", "-i", source, "-o", aligned,
            "--lemmas", RES["lemmas"], "--morph", RES["morph"])
    code, _, _ = run_cli(capsys, "tune", "-i", aligned, "-o", tuned,
                         "--report", report)
    assert code == 0
    text = read_text(tuned)
    assert text.count("::alignments ") == 10
    assert text.count("::oracle-smatch 1.0000") == 10
    assert "::oracle-actions" in text
    lines = read_text(report).splitlines()
    assert lines[0] == "mean-oracle-smatch\t1.0000"
    assert lines[1].startswith("mean-actions\t")
    assert lines[2] == "forest-sentences\t0"
    assert lines[3] == "certified-sentences\t10"


HAND_COUNTED_CORPUS = """# ::id hand-1
# ::tok boy sleep
(s / sleep-01 :ARG0 (b / boy))

# ::id hand-2
# ::tok sleep
(s / sleep-01)

# ::id hand-3
# ::tok boy
(b / boy)
"""


def test_tune_report_mean_actions_hand_summed(tmp_path, capsys):
    # CONFIRM SHIFT CONFIRM LEFT REDUCE SHIFT REDUCE, then CONFIRM SHIFT
    # REDUCE twice: (7 + 3 + 3) / 3 actions
    source = tmp_path / "hand.amr"
    source.write_text(HAND_COUNTED_CORPUS, encoding="utf-8")
    aligned, tuned, report = (
        str(tmp_path / name) for name in ("aligned", "tuned", "report"))
    assert run_cli(capsys, "align", "-i", str(source), "-o", aligned,
                   "--base-only")[0] == 0
    assert run_cli(capsys, "tune", "-i", aligned, "-o", tuned,
                   "--report", report)[0] == 0
    counts = [int(line.split()[-1]) for line in read_text(tuned).splitlines()
              if line.startswith("# ::oracle-actions ")]
    assert counts == [7, 3, 3]
    assert read_text(report).splitlines()[1] == "mean-actions\t%.2f" % (13 / 3)


AND_CORPUS = """# ::id and-1
# ::tok the boy sleeps , the girl rests .
(a / and
    :op1 (s / sleep-01 :ARG0 (b / boy))
    :op2 (r / rest-01 :ARG0 (g / girl)))
"""


def test_unaligned_root_rebuilds_forest(tmp_path, capsys):
    # `and` has no token: tune and oracle rebuild both conjuncts
    source = tmp_path / "and.amr"
    source.write_text(AND_CORPUS, encoding="utf-8")
    aligned, tuned, traces, report = (
        str(tmp_path / name) for name in ("aligned", "tuned", "traces", "report"))
    assert run_cli(capsys, "align", "-i", str(source), "-o", aligned,
                   "--base-only")[0] == 0
    assert run_cli(capsys, "tune", "-i", aligned, "-o", tuned,
                   "--report", report)[0] == 0
    assert "::oracle-smatch 0.6000" in read_text(tuned)
    assert read_text(report).splitlines()[2] == "forest-sentences\t1"
    assert run_cli(capsys, "oracle", "-i", tuned, "-o", traces)[0] == 0
    text = read_text(traces)
    assert "::oracle-smatch 0.6000" in text
    assert text.count("LEFT(:ARG0)") == 2


CYCLE_BESIDE_TREE = """# ::id cycle-1
# ::tok the boy cried , the teacher of math
# ::alignments-0 1-2|1 2-3|2 5-6|3+4 7-8|5
(a / and
    :op1 (b / boy :ARG0-of (c / cry-01 :ARG0 b))
    :op2 (p / person :ARG0-of (t / teach-01 :ARG1 (m / math))))
"""


def test_a_sourceless_cycle_counts_as_a_tree_of_a_forest(tmp_path, capsys):
    # with `and` unaligned, the boy/cry cycle has no source: the rebuilt
    # graph has two trees, and the sentence is a forest sentence
    source = tmp_path / "aligned.amr"
    source.write_text(CYCLE_BESIDE_TREE, encoding="utf-8")
    report = str(tmp_path / "report")
    assert run_cli(capsys, "tune", "-i", str(source), "-o", "-",
                   "--report", report)[0] == 0
    assert read_text(report).splitlines()[2] == "forest-sentences\t1"


def test_tune_on_a_cyclic_graph_writes_only_its_report(tmp_path):
    # in a new interpreter, as a shell runs the command, nothing reaches
    # stderr ahead of the report
    source = tmp_path / "aligned.amr"
    source.write_text(CYCLE_BESIDE_TREE, encoding="utf-8")
    done = fresh_interpreter(
        CLI_MAIN, "tune", "-i", str(source), "-o", str(tmp_path / "tuned.amr"))
    assert (done.returncode, done.stdout) == (0, "")
    assert done.stderr == ("mean-oracle-smatch\t0.6923\nmean-actions\t23.00\n"
                           "forest-sentences\t1\ncertified-sentences\t1\n"
                           "forfeited-concepts\t0\n")


FIVE_BOYS = "# ::id five-boys\n# ::tok %s\n(a / and %s)\n" % (
    " ".join("the boy and".split() * 5),
    " ".join(":op%d (b%d / boy)" % (i, i) for i in range(1, 6)))


def test_tune_reports_the_concepts_its_winners_forfeit(tmp_path, capsys):
    # every candidate stacks boys on one span: the winner puts b1 and b2
    # on the first `boy`, builds b1 there and forfeits b2
    aligned = str(tmp_path / "aligned.amr")
    source = tmp_path / "five-boys.amr"
    source.write_text(FIVE_BOYS, encoding="utf-8")
    assert run_cli(capsys, "align", "-i", str(source), "-o", aligned,
                   "--base-only")[0] == 0
    report = str(tmp_path / "report")
    assert run_cli(capsys, "tune", "-i", aligned, "-o", "-",
                   "--report", report)[0] == 0
    assert read_text(report).splitlines()[4] == "forfeited-concepts\t1"


def malformed_tables(tmp_path):
    """A morphosemantic and a lemma TSV that each hold one malformed line."""
    morph = tmp_path / "morph.tsv"
    morph.write_text("example\texemplify\nexample exemplify\n", encoding="utf-8")
    lemmas = tmp_path / "lemmas.tsv"
    lemmas.write_text("runs\trun\nsleeps\tsleep\textra\n", encoding="utf-8")
    return str(morph), str(lemmas)


def test_a_malformed_table_line_is_reported_before_the_counts(tmp_path):
    # a new interpreter, as a shell runs each command: the warning bytes
    # are those of its first run, before any handler could be set up
    morph, lemmas = malformed_tables(tmp_path)
    done = fresh_interpreter(
        CLI_MAIN, "align", "-i", fixture("train_corpus.amr"),
        "-o", str(tmp_path / "aligned.amr"), "--morph", morph,
        "--lemmas", lemmas)
    assert (done.returncode, done.stdout) == (0, "")
    assert done.stderr == ("%s: skipped 1 malformed line(s)\n"
                           "%s: skipped 1 malformed line(s)\n"
                           "truncated-sentences\t0\n" % (morph, lemmas))


def test_train_reports_a_malformed_lemma_line_before_its_epochs(tmp_path):
    _, lemmas = malformed_tables(tmp_path)
    traces = tmp_path / "traces.txt"
    traces.write_text("# ::tok the cat\nDROP\nCONFIRM(cat)\nSHIFT\nREDUCE\n",
                      encoding="utf-8")
    done = fresh_interpreter(
        CLI_MAIN, "train", "--traces", str(traces),
        "--model", str(tmp_path / "model.json"), "--epochs", "2",
        "--lemmas", lemmas)
    assert (done.returncode, done.stdout) == (0, "")
    lines = done.stderr.splitlines(keepends=True)
    assert lines[0] == "%s: skipped 1 malformed line(s)\n" % lemmas
    assert [line.split("\t")[0] for line in lines[1:]] == ["epoch 1", "epoch 2"]


PERSONS = """\
# ::id persons
# ::tok Person and Person and Person
(a / and
    :op1 (p1 / person :name (n1 / name :op1 "Person"))
    :op2 (p2 / person :name (n2 / name :op1 "Person"))
    :op3 (p3 / person :name (n3 / name :op1 "Person")))
"""


def test_one_candidate_per_span_assignment(tmp_path, capsys):
    # each `person` has a matching and an updating (entity-type) record on
    # its name's span, yet a span assignment is kept once, so the 50 kept
    # candidates reach the one that puts every person on its own token
    source = tmp_path / "persons.amr"
    source.write_text(PERSONS, encoding="utf-8")
    aligned, tuned, report = (str(tmp_path / name)
                              for name in ("aligned", "tuned", "report"))
    assert run_cli(capsys, "align", "-i", str(source), "-o", aligned,
                   "--base-only")[0] == 0
    lines = [line for line in read_text(aligned).splitlines()
             if line.startswith("# ::alignments-")]
    assert len(lines) == 50
    assert len({line.split(" ", 2)[2] for line in lines}) == 50
    assert run_cli(capsys, "tune", "-i", aligned, "-o", tuned,
                   "--report", report)[0] == 0
    assert read_text(report).splitlines()[0] == "mean-oracle-smatch\t1.0000"


def test_full_pipeline(tmp_path, capsys):
    _, tuned = align_tune(tmp_path, capsys)
    traces = str(tmp_path / "traces.txt")
    model = str(tmp_path / "model.json")
    parsed = str(tmp_path / "parsed.amr")

    code, _, _ = run_cli(capsys, "oracle", "-i", tuned, "-o", traces)
    assert code == 0
    trace_text = read_text(traces)
    assert "CONFIRM" in trace_text and "SHIFT" in trace_text

    code, _, err = run_cli(capsys, "train", "--traces", traces,
                           "--model", model, "--epochs", "25",
                           "--lemmas", RES["lemmas"])
    assert code == 0
    assert "train-acc 1.0000" in err

    code, _, _ = run_cli(capsys, "parse", "-i", tuned, "-o", parsed,
                         "--model", model, "--lemmas", RES["lemmas"])
    assert code == 0

    gold = tuned
    code, out, _ = run_cli(capsys, "smatch", "--gold", gold, "--pred", parsed)
    assert code == 0
    assert out.strip() == "1.0000\t1.0000\t1.0000"


def test_parse_ensemble_identity(tmp_path, capsys):
    _, tuned = align_tune(tmp_path, capsys)
    traces = str(tmp_path / "traces.txt")
    model = str(tmp_path / "model.json")
    run_cli(capsys, "oracle", "-i", tuned, "-o", traces)
    run_cli(capsys, "train", "--traces", traces, "--model", model,
            "--epochs", "15", "--lemmas", RES["lemmas"])
    single = str(tmp_path / "single.amr")
    double = str(tmp_path / "double.amr")
    run_cli(capsys, "parse", "-i", tuned, "-o", single, "--model", model,
            "--lemmas", RES["lemmas"])
    run_cli(capsys, "parse", "-i", tuned, "-o", double, "--model", model,
            "--model", model, "--lemmas", RES["lemmas"])
    assert read_text(single) == read_text(double)


def test_parse_writes_the_drain_warning(tmp_path, capsys):
    path = str(tmp_path / "model.json")
    parser_mod.save_model(looping_model(), path)
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok a\n(c / cat)\n")
    code, out, _ = run_cli(capsys, "parse", "-i", str(corpus), "-o", "-",
                           "--model", path)
    assert code == 0
    assert "# ::parse-warning fallback drain after 20 steps\n" in out


def test_parse_writes_the_unscored_steps_warning(tmp_path, capsys):
    path = str(tmp_path / "model.json")
    parser_mod.save_model(overflowing_model(), path)
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok boy runs\n(b / boy)\n")
    with pytest.warns(RuntimeWarning):
        code, out, _ = run_cli(capsys, "parse", "-i", str(corpus), "-o", "-",
                               "--model", path)
    assert code == 0
    assert "# ::parse-warning no score was a number at 2 of 2 steps\n" in out


def test_smatch_identical_files(capsys):
    code, out, err = run_cli(capsys, "smatch", "--gold", fixture("graphs.amr"),
                             "--pred", fixture("graphs.amr"))
    assert code == 0
    assert out.strip() == "1.0000\t1.0000\t1.0000"
    assert err == "certified-pairs\t18\n"


def test_smatch_exhaustive_flag(capsys):
    code, out, err = run_cli(capsys, "smatch",
                             "--gold", fixture("train_corpus.amr"),
                             "--pred", fixture("train_corpus.amr"),
                             "--exhaustive")
    assert code == 0
    assert out.strip() == "1.0000\t1.0000\t1.0000"
    assert err == "certified-pairs\t10\n"


@pytest.mark.parametrize("extra", [(), ("--exhaustive",)])
def test_smatch_reports_an_uncertified_pair(tmp_path, capsys, extra):
    # the bound counts the :r relation, which no mapping matches
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    gold.write_text("(x / a :r (y / b))\n", encoding="utf-8")
    pred.write_text("(y / b :r (x / a))\n", encoding="utf-8")
    assert run_cli(capsys, "smatch", "--gold", str(gold), "--pred", str(pred),
                   *extra) == (0, "0.5000\t0.5000\t0.5000\n",
                               "certified-pairs\t0\n")


def test_smatch_refuses_empty_files(tmp_path, capsys):
    # no graph on either side: a score of 0 would hide a corpus that read
    # as nothing
    empty = tmp_path / "empty.amr"
    empty.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "smatch", "--gold", str(empty),
                             "--pred", str(empty))
    assert (code, out) == (2, "")
    assert err.startswith("ERR:corpus:")


def test_tune_refuses_an_empty_corpus(tmp_path, capsys):
    # no sentence to tune: a mean oracle Smatch of 0 would hide a corpus
    # that read as nothing
    empty = tmp_path / "empty.amr"
    empty.write_text("", encoding="utf-8")
    tuned = tmp_path / "tuned.amr"
    code, out, err = run_cli(capsys, "tune", "-i", str(empty),
                             "-o", str(tuned))
    assert (code, out) == (2, "")
    assert err.startswith("ERR:corpus:")
    assert "mean-oracle-smatch" not in err
    assert not tuned.exists()


def test_smatch_rejects_blocks_paired_with_other_ids(tmp_path, capsys):
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    gold.write_text("# ::id a\n(x / a)\n\n# ::id b\n(y / b)\n", encoding="utf-8")
    pred.write_text("# ::id b\n(y / b)\n\n# ::id a\n(x / a)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "smatch", "--gold", str(gold),
                             "--pred", str(pred))
    assert (code, out) == (2, "")
    assert err.startswith("ERR:corpus:")


def test_stats_tsv(tmp_path, capsys):
    _, tuned = align_tune(tmp_path, capsys)
    traces = str(tmp_path / "traces.txt")
    run_cli(capsys, "oracle", "-i", tuned, "-o", traces)
    code, out, err = run_cli(capsys, "stats", "--traces", traces)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 10
    assert all(len(row) == 2 for row in rows)
    assert rows[0][0] == "4"  # The boy sleeps .
    assert err.startswith("mean-actions\t")


def test_missing_file_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "align", "-i", str(tmp_path / "nope.amr"),
                           "-o", "-")
    assert code == 2
    assert err.startswith("ERR:io:")


@pytest.mark.parametrize("command", [
    "align -i {d} -o -", "train --traces {t} --model {d} --epochs 1"],
    ids=["input", "model"])
def test_a_directory_in_place_of_a_file_errors(tmp_path, capsys, command):
    # every OSError, IsADirectoryError too, is an ERR:io line
    directory = tmp_path / "dir"
    directory.mkdir()
    traces = tmp_path / "traces.txt"
    traces.write_text("# ::tok boy\nCONFIRM(boy)\nSHIFT\nREDUCE\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys,
                             *command.format(d=directory, t=traces).split())
    errors = [line for line in err.splitlines() if line.startswith("ERR:")]
    assert (code, out) == (2, "")
    assert len(errors) == 1 and err.endswith(errors[0] + "\n")
    assert errors[0].startswith("ERR:io: ") and str(directory) in errors[0]


def test_bad_model_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok a\n(c / cat)\n")
    code, _, err = run_cli(capsys, "parse", "-i", str(corpus), "-o", "-",
                           "--model", str(bad))
    assert code == 2
    assert err.startswith("ERR:model:")


@pytest.mark.parametrize("text", ["[1]", '{"format": '],
                         ids=["list", "truncated"])
def test_model_file_not_an_object(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok a\n(c / cat)\n")
    code, _, err = run_cli(capsys, "parse", "-i", str(corpus), "-o", "-",
                           "--model", str(bad))
    assert code == 2
    assert err.startswith("ERR:model:")


# {key: value} breaking a valid model file; a value of None deletes the key
BROKEN_MODELS = {
    "hash_dim": {"hash_dim": parser_mod.HASH_DIM + 1},
    "hash_seed": {"hash_seed": parser_mod.HASH_SEED + 1},
    "no-actions": {"actions": None},
    "no-bias": {"bias": None},
    "no-weights": {"weights": None},
    "no-predicate_lemmas": {"predicate_lemmas": None},
    "short-bias": {"bias": []},
    "number-action": {"actions": [1]},
    "unparsed-action": {"actions": ["HOP"]},
    "number-predicate_lemmas": {"predicate_lemmas": 5},
    "short-weights": {"weights": []},
    "long-bias": {"bias": [0.0, 0.0]},
    "text-bias": {"bias": ["x"]},
    "list-weight-row": {"weights": [[1, 2]]},
    "text-weight-key": {"weights": [{"x": 1.0}]},
    "padded-weight-key": {"weights": [{"07": 1.0}]},
    "outside-weight-key": {"weights": [{str(parser_mod.HASH_DIM): 1.0}]},
    "text-weight": {"weights": [{"7": "x"}]},
    "bool-weight": {"weights": [{"7": True}]},
    # the first column would be dead, and DROP would get two shares of
    # the softmax
    "repeated-action": {"actions": ["DROP", "DROP"], "bias": [0.0, 0.0],
                        "weights": [{}, {}]},
}


# a model file that `parse` loads: one action, no weight
MODEL_TEXT = json.dumps({
    "format": "amrtk-model", "version": 1, "actions": ["DROP"], "bias": [0.0],
    "weights": [{}], "predicate_lemmas": [], "lemma_fallback": True,
    "hash_dim": parser_mod.HASH_DIM, "hash_seed": parser_mod.HASH_SEED})


@pytest.mark.parametrize("case", list(BROKEN_MODELS))
def test_foreign_feature_space_errors(tmp_path, capsys, case):
    model = json.loads(MODEL_TEXT)
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok a\n(c / cat)\n")
    path = tmp_path / "model.json"
    argv = ("parse", "-i", str(corpus), "-o", "-", "--model", str(path))
    path.write_text(json.dumps(model))
    assert run_cli(capsys, *argv)[0] == 0
    for key, value in BROKEN_MODELS[case].items():
        if value is None:
            del model[key]
        else:
            model[key] = value
    path.write_text(json.dumps(model))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("ERR:model:")


@pytest.mark.parametrize("actions", [[], ["CONFIRM(cat)", "SHIFT"]],
                         ids=["empty", "short"])
def test_train_rejects_an_incomplete_trace(tmp_path, capsys, actions):
    traces = tmp_path / "traces.txt"
    traces.write_text("# ::tok the cat\nDROP\nCONFIRM(cat)\nSHIFT\nREDUCE\n"
                      "\n# ::tok a cat\n" + "".join(a + "\n" for a in actions),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "train", "--traces", str(traces),
                           "--model", str(tmp_path / "model.json"))
    assert code == 2
    assert err.startswith("ERR:train:")


def test_train_rejects_a_negative_dev_fraction(tmp_path, capsys):
    _, tuned = align_tune(tmp_path, capsys)
    traces = str(tmp_path / "traces.txt")
    assert run_cli(capsys, "oracle", "-i", tuned, "-o", traces)[0] == 0
    code, _, err = run_cli(capsys, "train", "--traces", traces,
                           "--model", str(tmp_path / "model.json"),
                           "--epochs", "1", "--dev-fraction", "-0.5")
    assert code == 2
    assert err.startswith("ERR:train:")



@pytest.mark.parametrize("argv", [("--learning-rate", "nan"),
                                  ("--learning-rate", "1e308"),
                                  ("--epochs", "0")],
                         ids=["nan-rate", "overflowing-rate", "no-epoch"])
def test_train_writes_no_model_that_parse_refuses(tmp_path, capsys, argv):
    traces = tmp_path / "traces.txt"
    traces.write_text("# ::tok the cat\nDROP\nCONFIRM(cat)\nSHIFT\nREDUCE\n",
                      encoding="utf-8")
    model = tmp_path / "model.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "train", "--traces", str(traces),
                               "--model", str(model), *argv)
    assert code == 2
    # the error is the first line: no numpy warning comes before it
    assert err.startswith("ERR:train:")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not model.exists()


def test_parse_refuses_an_ensemble_of_foreign_vocabularies(tmp_path, capsys):
    # CONFIRM(feline) names a concept that is not the word: the second
    # model's action vocabulary holds it where the first holds
    # CONFIRM-LEMMA
    models = []
    for name, concept in (("a", "cat"), ("b", "feline")):
        traces = tmp_path / ("traces-%s.txt" % name)
        traces.write_text("# ::tok the cat\nDROP\nCONFIRM(%s)\nSHIFT\n"
                          "REDUCE\n" % concept, encoding="utf-8")
        model = str(tmp_path / ("model-%s.json" % name))
        assert run_cli(capsys, "train", "--traces", str(traces),
                       "--model", model, "--epochs", "1")[0] == 0
        models += ["--model", model]
    corpus = tmp_path / "in.amr"
    corpus.write_text("# ::tok the cat\n(c / cat)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", "-i", str(corpus), *models)
    assert (code, out) == (2, "")
    assert err.startswith("ERR:decode:")


def test_parse_refuses_an_ensemble_of_foreign_predicate_lemmas(tmp_path,
                                                              capsys):
    # both vocabularies name CONFIRM(run-01) and CONFIRM(run) CONFIRM-LEMMA,
    # but only the first model has seen `run` as a predicate: the ensemble
    # used to decide by its first member whether `run` becomes run-01
    models = []
    for name, concept in (("a", "run-01"), ("b", "run")):
        traces = tmp_path / ("traces-%s.txt" % name)
        traces.write_text("# ::tok run\nCONFIRM(%s)\nSHIFT\nREDUCE\n"
                          % concept, encoding="utf-8")
        model = str(tmp_path / ("model-%s.json" % name))
        assert run_cli(capsys, "train", "--traces", str(traces),
                       "--model", model, "--epochs", "1")[0] == 0
        models.append(model)
    corpus = tmp_path / "in.amr"
    corpus.write_text("# ::tok run\n(r / run-01)\n", encoding="utf-8")
    for first, second in (models, models[::-1]):
        code, out, err = run_cli(capsys, "parse", "-i", str(corpus),
                                 "--model", first, "--model", second)
        assert (code, out) == (2, "")
        assert err == "ERR:decode: ensemble members must share their " \
            "predicate lemmas\n"


@pytest.mark.parametrize("argv", [("--cosine-threshold", "nan"),
                                  ("--cosine-threshold", "inf"),
                                  ("--cosine-threshold=-inf",)],
                         ids=["nan", "inf", "minus-inf"])
def test_align_refuses_a_non_finite_cosine_threshold(tmp_path, capsys, argv):
    # no cosine is greater than nan or inf and every one is greater than
    # -inf: such a threshold used to turn the embedding rule off (or on)
    # without a word (frozen-freeze is the embedding match)
    corpus = tmp_path / "lake.amr"
    corpus.write_text("# ::tok the lake frozen\n"
                      "(f / freeze-01 :ARG1 (l / lake))\n", encoding="utf-8")
    base = ("align", "-i", str(corpus), "--embeddings", RES["embeddings"])
    code, out, _ = run_cli(capsys, *base, "--cosine-threshold", "0.7")
    assert code == 0
    assert "# ::alignments-0 1-2|1 2-3|0\n" in out
    code, out, err = run_cli(capsys, *base, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ERR:input: cosine threshold")


LAKE = "# ::tok the lake frozen\n(f / freeze-01 :ARG1 (l / lake))\n"


@pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
def test_align_refuses_an_embeddings_file_with_no_vector(tmp_path, capsys,
                                                        text):
    # such a file used to run align without the embedding rule, silently
    corpus = tmp_path / "lake.amr"
    corpus.write_text(LAKE, encoding="utf-8")
    vectors = tmp_path / "empty.txt"
    vectors.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "align", "-i", str(corpus),
                             "--embeddings", str(vectors))
    assert (code, out) == (2, "")
    assert err == "ERR:resource: %s: no word vectors\n" % vectors


@pytest.mark.parametrize("threshold, alignments", [
    ("2", None), ("-2", None), ("1", "1-2|1"), ("0.7", "1-2|1 2-3|0"),
    ("-1", "1-2|1 2-3|0")])
def test_align_takes_a_cosine_threshold_in_minus_one_to_one(
        tmp_path, capsys, threshold, alignments):
    # a cosine lies in [-1, 1]: 2 used to turn the embedding rule off and
    # -2 to let every embedded word match every embedded label
    corpus = tmp_path / "lake.amr"
    corpus.write_text(LAKE, encoding="utf-8")
    code, out, err = run_cli(capsys, "align", "-i", str(corpus),
                             "--embeddings", RES["embeddings"],
                             "--cosine-threshold=" + threshold)
    if alignments is None:
        assert (code, out) == (2, "")
        assert err.startswith("ERR:input: cosine threshold must lie in")
    else:
        assert code == 0
        assert "# ::alignments-0 %s\n" % alignments in out


# one block per refusal that no other test reaches: the command, the
# files it reads ({name} is the path of file `name`) and its one error
# line, in which {name} is that path too
REFUSALS = {
    "align-without-tokens": (
        "align -i {c}", {"c": "# ::id s1\n(b / boy)\n"},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "align-without-graph": (
        "align -i {c}", {"c": "# ::id s1\n# ::tok boy\n"},
        "ERR:corpus: document s1 has no graph"),
    "tune-without-candidates": (
        "tune -i {c}", {"c": "# ::id s1\n# ::tok boy\n(b / boy)\n"},
        "ERR:corpus: document s1 has no ::alignments or ::alignments-k "
        "line"),
    "tune-aligned-without-tokens": (
        "tune -i {c}", {"c": "# ::id s1\n# ::alignments 0-1|0\n(b / boy)\n"},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "oracle-without-tokens": (
        "oracle -i {c}",
        {"c": "# ::id s1\n# ::alignments 0-1|0\n(b / boy)\n"},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "parse-without-tokens": (
        "parse -i {c} --model {model}",
        {"c": "# ::id s1\n(b / boy)\n", "model": MODEL_TEXT},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "oracle-untuned": (
        "oracle -i {c}", {"c": "# ::id s1\n# ::tok boy\n(b / boy)\n"},
        "ERR:corpus: document s1 has no ::alignments or ::alignments-k "
        "line"),
    "oracle-candidates": (
        "oracle -i {c}", {"c": "# ::id s1\n# ::tok boy\n"
                               "# ::alignments-0 0-1|0\n"
                               "# ::alignments-1 0-1|0\n(b / boy)\n"},
        "ERR:corpus: document s1 needs exactly one alignment "
        "(run `amrtk tune`); found 2"),
    "oracle-alignment-not-a-head": (
        "oracle -i {c}", {"c": "# ::tok Korea\n# ::alignments 0-1|2\n"
                               "(c / country :name (n / name :op1 Korea))\n"},
        "ERR:corpus: address 2 is not a fragment head"),
    "oracle-alignment-twice": (
        "oracle -i {c}", {"c": "# ::tok the boy\n# ::alignments 0-1|0 1-2|0\n"
                               "(b / boy)\n"},
        "ERR:corpus: address 0 is aligned twice"),
    "oracle-alignment-overlap": (
        "oracle -i {c}", {"c": "# ::tok the tall boy\n"
                               "# ::alignments 0-2|0 1-3|1\n"
                               "(b / boy :mod (t / tall))\n"},
        "ERR:corpus: alignment spans 0-2 and 1-3 overlap"),
    "oracle-mixed-alignment-lines": (
        "oracle -i {c}", {"c": "# ::id s1\n# ::tok the boy\n"
                               "# ::alignments 0-1|0\n"
                               "# ::alignments-0 1-2|0\n(b / boy)\n"},
        "ERR:corpus: document s1 has both ::alignments and ::alignments-k "
        "lines"),
    "tune-alignment-index-leading-zero": (
        "tune -i {c}", {"c": "# ::tok the boy\n# ::alignments-1 1-2|0\n"
                             "# ::alignments-01 0-1|0\n(b / boy)\n"},
        "ERR:corpus: line 3: ::alignments-01 is not an ::alignments-k key "
        "(k = 0, 1, 2, ...)"),
    "tune-alignment-index-not-ascii": (
        "tune -i {c}", {"c": "# ::tok the boy\n"
                             "# ::alignments-٣ 1-2|0\n(b / boy)\n"},
        "ERR:corpus: line 2: ::alignments-٣ is not an ::alignments-k "
        "key (k = 0, 1, 2, ...)"),
    "tune-repeated-alignment-index": (
        "tune -i {c}", {"c": "# ::tok the boy\n# ::alignments-0 1-2|0\n"
                             "# ::alignments-0 0-1|0\n(b / boy)\n"},
        "ERR:corpus: line 3 repeats ::alignments-0 within its block"),
    "oracle-repeated-alignments": (
        "oracle -i {c}", {"c": "# ::tok the boy\n# ::alignments 0-1|0\n"
                               "# ::alignments 1-2|0\n(b / boy)\n"},
        "ERR:corpus: line 3 repeats ::alignments within its block"),
    "align-repeated-tok": (
        "align -i {c}", {"c": "(g / girl)\n\n# ::tok the boy\n# ::snt x\n"
                              "# ::tok a boy\n(b / boy)\n"},
        "ERR:corpus: line 5 repeats ::tok within its block"),
    "align-repeated-id": (
        "align -i {c}", {"c": "# ::id a\n# ::id b\n# ::tok the boy\n"
                              "(b / boy)\n"},
        "ERR:corpus: line 2 repeats ::id within its block"),
    "train-trace-without-tok": (
        "train --traces {t} --model {m}",
        {"t": "# ::id s1\nCONFIRM(boy)\nSHIFT\nREDUCE\n"},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "train-pos-arity": (
        "train --traces {t} --model {m}",
        {"t": "# ::tok boy\n# ::pos NN VB\nCONFIRM(boy)\nSHIFT\nREDUCE\n"},
        "ERR:corpus: document None: 2 POS tags for 1 tokens"),
    "train-without-blocks": (
        "train --traces {t} --model {m}", {"t": ""},
        "ERR:corpus: input {t} holds no block"),
    "smatch-count-mismatch": (
        "smatch --gold {g} --pred {p}",
        {"g": "(b / boy)\n\n(g / girl)\n", "p": "(b / boy)\n"},
        "ERR:corpus: gold has 2 graphs, pred has 1"),
    "smatch-block-without-graph": (
        "smatch --gold {g} --pred {p}",
        {"g": "(b / boy)\n", "p": "# ::tok boy\n"},
        "ERR:corpus: document None has no graph"),
    "smatch-gold-without-blocks": (
        "smatch --gold {g} --pred {p}", {"g": "", "p": "(b / boy)\n"},
        "ERR:corpus: input {g} holds no block"),
    "smatch-pred-without-blocks": (
        "smatch --gold {g} --pred {p}", {"g": "(b / boy)\n", "p": ""},
        "ERR:corpus: input {p} holds no block"),
    "stats-without-blocks": (
        "stats --traces {t}", {"t": ""},
        "ERR:corpus: input {t} holds no block"),
    "stats-one-trace-file-without-blocks": (
        "stats --traces {t} {u}",
        {"t": "# ::tok boy\nCONFIRM(boy)\nSHIFT\nREDUCE\n", "u": ""},
        "ERR:corpus: input {u} holds no block"),
    "stats-trace-without-tok": (
        "stats --traces {t}",
        {"t": "# ::tok boy\nCONFIRM(boy)\n\n# ::id s2\nSHIFT\nREDUCE\n"},
        "ERR:corpus: document s2 gives no token (::tok, else ::snt)"),
    "stats-trace-with-an-empty-tok-line": (
        "stats --traces {t}", {"t": "# ::id s1\n# ::tok \nSHIFT\n"},
        "ERR:corpus: document s1 gives no token (::tok, else ::snt)"),
    "align-without-blocks": (
        "align -i {c}", {"c": ""}, "ERR:corpus: input {c} holds no block"),
    "oracle-without-blocks": (
        "oracle -i {c}", {"c": ""}, "ERR:corpus: input {c} holds no block"),
    "parse-without-blocks": (
        "parse -i {c} --model {model}", {"c": "", "model": MODEL_TEXT},
        "ERR:corpus: input {c} holds no block"),
}


@pytest.mark.parametrize("command, files, line", REFUSALS.values(),
                         ids=list(REFUSALS))
def test_each_refusal_ends_in_its_err_line(tmp_path, capsys, command, files,
                                           line):
    paths = {"m": str(tmp_path / "model.json")}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *command.format(**paths).split())
    assert (code, out, err) == (2, "", line.format(**paths) + "\n")
    assert not os.path.exists(paths["m"])


# Run in a fresh interpreter: numpy stays out of sys.modules through the
# import of amrtk.cli and the five commands that do no array math, and
# comes in with `train`.  Writes [step, exit code, numpy loaded] rows as
# JSON to steps.json.
IMPORT_BOUNDARY = """
import json, os, sys
import amrtk.cli
fixtures, out = sys.argv[1], sys.argv[2]
res = os.path.join(fixtures, "resources")
path = lambda name: os.path.join(out, name)
steps = [("import", 0, "numpy" in sys.modules)]
for argv in (
        ["align", "-i", os.path.join(fixtures, "train_corpus.amr"),
         "-o", path("aligned.amr"),
         "--embeddings", os.path.join(res, "embeddings.txt"),
         "--morph", os.path.join(res, "morph.tsv"),
         "--lemmas", os.path.join(res, "lemmas.tsv")],
        ["tune", "-i", path("aligned.amr"), "-o", path("tuned.amr")],
        ["oracle", "-i", path("tuned.amr"), "-o", path("traces.txt")],
        ["smatch", "--gold", path("tuned.amr"), "--pred", path("tuned.amr")],
        ["stats", "--traces", path("traces.txt"), "-o", path("stats.tsv")],
        ["train", "--traces", path("traces.txt"), "--model", path("m.json"),
         "--epochs", "1"]):
    code = amrtk.cli.main(argv)
    steps.append((argv[0], code, "numpy" in sys.modules))
with open(path("steps.json"), "w") as handle:
    json.dump(steps, handle)
"""


def test_only_train_and_parse_import_numpy(tmp_path):
    done = fresh_interpreter(IMPORT_BOUNDARY, fixture(), str(tmp_path))
    assert done.returncode == 0, done.stderr
    steps = json.loads(read_text(str(tmp_path / "steps.json")))
    assert [tuple(step) for step in steps] == [
        ("import", 0, False), ("align", 0, False), ("tune", 0, False),
        ("oracle", 0, False), ("smatch", 0, False), ("stats", 0, False),
        ("train", 0, True)]


# Run in a fresh interpreter: the import of amrtk.cli and the five
# commands that do no array math load none of the standard library's
# costly start-up modules.  Writes [step, exit code, those loaded] rows as
# JSON to steps.json.
STARTUP_IMPORTS = """
import json, os, sys
import amrtk.cli
fixtures, out = sys.argv[1], sys.argv[2]
res = os.path.join(fixtures, "resources")
path = lambda name: os.path.join(out, name)
costly = lambda: [m for m in ("dataclasses", "inspect", "logging")
                  if m in sys.modules]
steps = [("import", 0, costly())]
for argv in (
        ["align", "-i", os.path.join(fixtures, "train_corpus.amr"),
         "-o", path("aligned.amr"),
         "--embeddings", os.path.join(res, "embeddings.txt"),
         "--morph", os.path.join(res, "morph.tsv"),
         "--lemmas", os.path.join(res, "lemmas.tsv")],
        ["tune", "-i", path("aligned.amr"), "-o", path("tuned.amr")],
        ["oracle", "-i", path("tuned.amr"), "-o", path("traces.txt")],
        ["smatch", "--gold", path("tuned.amr"), "--pred", path("tuned.amr")],
        ["stats", "--traces", path("traces.txt"), "-o", path("stats.tsv")]):
    code = amrtk.cli.main(argv)
    steps.append((argv[0], code, costly()))
with open(path("steps.json"), "w") as handle:
    json.dump(steps, handle)
"""


def test_commands_start_without_dataclasses_inspect_or_logging(tmp_path):
    done = fresh_interpreter(STARTUP_IMPORTS, fixture(), str(tmp_path))
    assert done.returncode == 0, done.stderr
    steps = json.loads(read_text(str(tmp_path / "steps.json")))
    assert steps == [[step, 0, []] for step in (
        "import", "align", "tune", "oracle", "smatch", "stats")]


def test_a_graph_lookup_error_ends_in_an_err_line(capsys, monkeypatch):
    # no command input found so far reaches a missing concept id
    def lookup(args):
        raise GraphLookupError("c9")

    monkeypatch.setattr(amrtk.cli, "cmd_smatch", lookup)
    code, out, err = run_cli(capsys, "smatch", "--gold", "-", "--pred", "-")
    assert (code, out, err) == (2, "", "ERR:graph: 'c9'\n")


def test_oracle_requires_single_alignment(tmp_path, capsys):
    aligned, _ = align_tune(tmp_path, capsys, fixture("train_corpus.amr"))
    # the aligned (multi-candidate) file is rejected by `oracle`
    code, _, err = run_cli(capsys, "oracle", "-i", aligned, "-o", "-")
    if code == 0:
        # every sentence had exactly one candidate, which is acceptable
        return
    assert err.startswith("ERR:corpus:")


def test_resource_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AMRTK_RESOURCES", fixture("resources"))
    out = str(tmp_path / "aligned.amr")
    code, _, _ = run_cli(capsys, "align", "-i", fixture("train_corpus.amr"),
                         "-o", out, "--lemmas", "lemmas.tsv")
    assert code == 0
    assert "::alignments-0" in read_text(out)
