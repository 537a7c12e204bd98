import io

import pytest

from amrtk.align import (
    CandidateAlignment, Span, base_rule_set, enumerate_alignments,
    full_rule_set,
)
from amrtk.corpus import (
    CorpusFormatError, corpus_to_string, format_alignment, parse_alignment,
    read_corpus, read_traces, write_traces,
)
from amrtk.resources import (
    Resources, load_embeddings, load_lemmas, load_morphosemantic,
)
from helpers import bench_module, fixture

SAMPLE = """\
# ::id x1
# ::snt The boy sleeps .
# ::tok The boy sleeps .
# ::pos DT NN VBZ .
(s / sleep-01
    :ARG0 (b / boy))

# ::id x2
# ::tok hello
(h / hello)
"""


def test_read_corpus_blocks():
    docs = read_corpus(SAMPLE)
    assert len(docs) == 2
    assert docs[0].id == "x1"
    assert docs[0].tokens == ["The", "boy", "sleeps", "."]
    assert docs[0].pos == ["DT", "NN", "VBZ", "."]
    assert docs[0].graph.concept(docs[0].graph.root).label == "sleep-01"
    assert docs[1].pos is None


def test_read_corpus_fixture_files():
    docs = read_corpus(fixture("oracle_corpus.amr"))
    assert len(docs) == 16
    assert all(doc.graph is not None for doc in docs)
    docs2 = read_corpus(fixture("graphs.amr"))
    assert len(docs2) == 18


def test_tokens_come_from_snt_without_tok():
    doc = read_corpus("# ::snt The boy  sleeps\n(s / sleep-01)\n")[0]
    assert doc.tokens == ["The", "boy", "sleeps"]


def test_candidates_of_a_block_without_a_graph_are_refused():
    doc = read_corpus("# ::id s1\n# ::tok boy\n# ::alignments 0-1|0\n")[0]
    with pytest.raises(CorpusFormatError, match=r"^document s1 has no graph$"):
        doc.alignment_candidates()


def test_pos_arity_mismatch():
    doc = read_corpus("# ::tok a b\n# ::pos X\n(c / cat)\n")[0]
    with pytest.raises(CorpusFormatError):
        doc.pos


def test_alignment_round_trip():
    docs = read_corpus(SAMPLE)
    doc = docs[0]
    cand = CandidateAlignment(doc.graph, doc.tokens, {
        "s": Span(2, 3),
        "b": Span(1, 2),
    })
    line = format_alignment(cand)
    assert line == "1-2|1 2-3|0"
    parsed = parse_alignment(line, doc.graph, doc.tokens)
    assert parsed.span_of("s") == Span(2, 3)
    assert parsed.span_of("b") == Span(1, 2)


def test_alignment_stacked_heads():
    text = '(c / country :name (n / name :op1 "Fr"))'
    doc = read_corpus("# ::tok Fr\n" + text + "\n")[0]
    cand = CandidateAlignment(doc.graph, doc.tokens, {
        "c": Span(0, 1),
        "n": Span(0, 1),
    })
    line = format_alignment(cand)
    assert line == "0-1|0+1"
    parsed = parse_alignment(line, doc.graph, doc.tokens)
    assert parsed.span_of("c") == parsed.span_of("n") == Span(0, 1)


def candidate_corpora():
    """The fixture corpora and the benchmark workloads at seeds 1-3."""
    corpus_gen = bench_module("corpus_gen")
    yield read_corpus(fixture("train_corpus.amr"))
    yield read_corpus(fixture("oracle_corpus.amr"))
    for workload in ("compose-long", "compose-short"):
        for seed in (1, 2, 3):
            yield read_corpus(corpus_gen.generate(workload, seed))


@pytest.mark.parametrize("extended", [False, True], ids=["base", "full"])
def test_enumerated_candidates_round_trip_and_are_distinct(extended):
    resources = Resources(
        embeddings=load_embeddings(fixture("resources", "embeddings.txt")),
        morph=load_morphosemantic(fixture("resources", "morph.tsv")),
        lemmas=load_lemmas(fixture("resources", "lemmas.tsv")))
    rules = full_rule_set(resources) if extended else base_rule_set()
    for docs in candidate_corpora():
        for doc in docs:
            aset = enumerate_alignments(doc.graph, doc.tokens, rules,
                                        resources=resources)
            assert len(set(aset)) == len(aset), doc.id
            for cand in aset:
                line = format_alignment(cand)
                assert parse_alignment(line, doc.graph, doc.tokens) == cand, line


def test_alignment_bad_item():
    doc = read_corpus("# ::tok a\n(c / cat)\n")[0]
    with pytest.raises(CorpusFormatError):
        parse_alignment("zz", doc.graph, doc.tokens)
    with pytest.raises(CorpusFormatError):
        parse_alignment("0-9|0", doc.graph, doc.tokens)
    with pytest.raises(CorpusFormatError):
        parse_alignment("0-1|7", doc.graph, doc.tokens)


@pytest.mark.parametrize("line", ["0-1|0 1-2|0", "0-1|0+0", "0-1|0+1 0-1|1"])
def test_alignment_giving_a_fragment_two_spans_is_refused(line):
    # no span is kept silently over another; amrtk's writer lists each
    # fragment once, so only a hand-written line can do this
    doc = read_corpus("# ::tok the boy\n(b / boy :mod (t / tall))\n")[0]
    with pytest.raises(CorpusFormatError, match="aligned twice"):
        parse_alignment(line, doc.graph, doc.tokens)


@pytest.mark.parametrize("line", ["0-2|0 1-3|1", "1-3|1 0-2|0",
                                  "0-3|0 1-2|1", "0-1|0 0-2|1"])
def test_alignment_with_overlapping_spans_is_refused(line):
    # `align.is_legal` forbids distinct spans that overlap, so no aligner
    # candidate has them; the oracle would merge across the spans
    doc = read_corpus("# ::tok the tall boy\n(b / boy :mod (t / tall))\n")[0]
    with pytest.raises(CorpusFormatError, match="overlap"):
        parse_alignment(line, doc.graph, doc.tokens)


@pytest.mark.parametrize("line", ["1-3|0+1", "1-3|0 1-3|1", "0-1|0 1-3|1"])
def test_alignment_with_stacked_or_adjacent_spans_is_read(line):
    doc = read_corpus("# ::tok the tall boy\n(b / boy :mod (t / tall))\n")[0]
    cand = parse_alignment(line, doc.graph, doc.tokens)
    assert all(span is not None for span in cand.choices.values())


def test_candidates_round_trip():
    docs = read_corpus(SAMPLE)
    doc = docs[0]
    first = CandidateAlignment(doc.graph, doc.tokens,
                               {"s": Span(2, 3), "b": None})
    second = CandidateAlignment(doc.graph, doc.tokens,
                                {"s": None, "b": Span(1, 2)})
    doc.set_candidates([first, second])
    text = corpus_to_string(docs)
    reread = read_corpus(text)[0]
    candidates = reread.alignment_candidates()
    assert len(candidates) == 2
    assert candidates[0].span_of("s") == Span(2, 3)
    assert candidates[0].span_of("b") is None
    assert candidates[1].span_of("b") == Span(1, 2)


def test_single_alignment_write():
    docs = read_corpus(SAMPLE)
    doc = docs[0]
    doc.set_candidates([CandidateAlignment(doc.graph, doc.tokens, {
        "s": Span(2, 3), "b": None})])
    doc.set_alignment(CandidateAlignment(doc.graph, doc.tokens, {
        "s": Span(2, 3), "b": Span(1, 2)}))
    text = corpus_to_string(docs)
    assert "::alignments-0" not in text
    assert "::alignments 1-2|1 2-3|0" in text


def test_write_preserves_graph_text():
    docs = read_corpus(SAMPLE)
    text = corpus_to_string(docs)
    assert "(s / sleep-01\n    :ARG0 (b / boy))" in text


def test_traces_round_trip():
    blocks = [({"id": "x", "tok": "a b"}, ["DROP", "CONFIRM(boy)", "SHIFT"])]
    out = io.StringIO()
    write_traces(blocks, out)
    reread = read_traces(out.getvalue())
    assert reread == blocks


def test_empty_text_is_an_empty_corpus():
    # an empty string is text, not the path ""
    assert read_corpus("") == []
    assert read_traces("") == []
    assert read_corpus("\n") == []
