from amrtk.cli import main
from helpers import fixture

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


def test_smatch_identical_files(capsys):
    code, out, _ = run_cli(capsys, "smatch", "--gold", fixture("graphs.amr"),
                           "--pred", fixture("graphs.amr"))
    assert code == 0
    assert out.strip() == "1.0000\t1.0000\t1.0000"


def test_smatch_exhaustive_flag(capsys):
    code, out, _ = run_cli(capsys, "smatch", "--gold", fixture("train_corpus.amr"),
                           "--pred", fixture("train_corpus.amr"), "--exhaustive")
    assert code == 0
    assert out.strip() == "1.0000\t1.0000\t1.0000"


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


def test_bad_model_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    corpus = tmp_path / "c.amr"
    corpus.write_text("# ::tok a\n(c / cat)\n")
    code, _, err = run_cli(capsys, "parse", "-i", str(corpus), "-o", "-",
                           "--model", str(bad))
    assert code == 2
    assert err.startswith("ERR:model:")


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
