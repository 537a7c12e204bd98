import math
from array import array

import pytest

from amrtk.align import AlignmentRecord, Span, collect_records, extended_rule_set
from amrtk.graph import parse_penman
from amrtk.resources import (
    EmbeddingTable, LemmaTable, MorphLinkTable, ResourceFormatError,
    Resources, cosine, load_embeddings, load_lemmas, load_morphosemantic,
    morph_match, semantic_match,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_embeddings_small(tmp_path):
    path = write(tmp_path, "vec.txt", "the 1.0 0.0 0.0\ncat 0.5 0.5 0.0\n")
    table = load_embeddings(path)
    assert table.dimension == 3
    assert len(table) == 2
    vector, norm = table.vector_and_norm("the")
    assert list(vector) == [1.0, 0.0, 0.0] and norm == 1.0


def test_load_embeddings_dimension_mismatch(tmp_path):
    path = write(tmp_path, "vec.txt", "a 1.0 0.0 0.0\nb 1.0 0.0\n")
    with pytest.raises(ResourceFormatError) as err:
        load_embeddings(path)
    assert ":2:" in str(err.value)


def test_load_embeddings_bad_number(tmp_path):
    path = write(tmp_path, "vec.txt", "a 1.0 x 0.0\n")
    with pytest.raises(ResourceFormatError):
        load_embeddings(path)


def test_load_embeddings_duplicates_keep_first(tmp_path):
    path = write(tmp_path, "vec.txt", "a 1.0 0.0\na 0.0 1.0\n")
    table = load_embeddings(path)
    assert list(table.vector_and_norm("a")[0]) == [1.0, 0.0]


def test_cosine_identity_and_orthogonal(tmp_path):
    path = write(tmp_path, "vec.txt", "x 1.0 0.0 0.0\ny 0.0 1.0 0.0\n")
    table = load_embeddings(path)
    assert cosine(table, "x", "x") == pytest.approx(1.0)
    assert cosine(table, "x", "y") == pytest.approx(0.0)
    assert cosine(table, "x", "missing") is None


def test_cosine_hand_computed(tmp_path):
    path = write(tmp_path, "vec.txt", "act 1.0 2.0 2.0\naction 2.0 1.0 2.0\n")
    table = load_embeddings(path)
    expected = (2.0 + 2.0 + 4.0) / (3.0 * 3.0)
    assert cosine(table, "act", "action") == pytest.approx(expected, abs=1e-9)


def test_cosine_symmetry(tmp_path):
    path = write(tmp_path, "vec.txt", "a 0.3 0.4 0.1\nb 0.9 0.1 0.7\n")
    table = load_embeddings(path)
    assert cosine(table, "a", "b") == cosine(table, "b", "a")


def test_cosine_zero_norm_absent(tmp_path):
    path = write(tmp_path, "vec.txt", "z 0.0 0.0\na 1.0 1.0\n")
    table = load_embeddings(path)
    assert cosine(table, "z", "a") is None


def rich_records(text, tokens, resources):
    """The records of the rich-resource rules on the graph's root."""
    graph = parse_penman(text)
    records = collect_records(graph, tokens, extended_rule_set(resources),
                              resources)
    return records[graph.root]


def test_semantic_concept_rule_strips_sense(tmp_path):
    path = write(tmp_path, "vec.txt", "run 1.0 0.0\nsprint 0.9 0.2\n")
    res = Resources(embeddings=load_embeddings(path))
    both = {AlignmentRecord(Span(0, 1)), AlignmentRecord(Span(1, 2))}
    assert rich_records("(r / run-01)", ["run", "sprint"], res) == both
    assert rich_records("(r / run-99)", ["Run", "SPRINT"], res) == both


def test_semantic_match_boundary_is_strict():
    # integer components make the norms exact: dot = 7, norms 1 and 10,
    # so the computed cosine is the float 0.7 itself
    import numpy as np
    table = EmbeddingTable(4, {
        "a": np.array([1.0, 0.0, 0.0, 0.0]),
        "b": np.array([7.0, 5.0, 5.0, 1.0]),
    })
    assert cosine(table, "a", "b") == 0.7
    assert not semantic_match(table, "a", "b")
    assert semantic_match(table, "a", "b", threshold=0.69)


def test_cosine_matches_the_numpy_formula_up_to_rounding():
    # the plain-Python sums add in another order than BLAS does, so the
    # two may differ in the last bits, never by more
    import random
    import numpy as np
    rng = random.Random(3)
    vectors = {"w%d" % i: [rng.uniform(-1, 1) for _ in range(300)]
               for i in range(20)}
    table = EmbeddingTable(300, vectors)
    for a, b in zip(sorted(vectors), sorted(vectors)[1:]):
        v1, v2 = np.array(vectors[a]), np.array(vectors[b])
        expected = float(np.dot(v1, v2)) / (
            math.sqrt(float(np.dot(v1, v1))) * math.sqrt(float(np.dot(v2, v2))))
        assert cosine(table, a, b) == pytest.approx(expected, rel=0, abs=1e-12)


def test_semantic_match_missing_word_never_matches(tmp_path):
    path = write(tmp_path, "vec.txt", "run 1.0 0.0\n")
    table = load_embeddings(path)
    assert not semantic_match(table, "run", "jog")


def test_morph_match_link():
    morph = MorphLinkTable({("example", "exemplify")})
    assert morph_match(morph, frozenset({"example"}), "exemplify")
    assert not morph_match(morph, frozenset({"sample"}), "exemplify")
    # the concept rule hands the matcher the label's sense-stripped base
    res = Resources(morph=morph)
    assert rich_records("(e / exemplify-01)", ["a", "sample", "Example"],
                        res) == {AlignmentRecord(Span(2, 3))}


def test_morph_match_via_lemma():
    morph = MorphLinkTable({("action", "act")})
    lemmas = LemmaTable({"actions": {"action"}})
    assert morph_match(morph, lemmas.lemmas("actions"), "act")
    res = Resources(morph=morph, lemmas=lemmas)
    assert rich_records("(a / act-01)", ["ACTIONS", "acts"],
                        res) == {AlignmentRecord(Span(0, 1))}


def test_morph_match_empty_tables():
    morph = MorphLinkTable(set())
    assert not morph_match(morph, LemmaTable().lemmas("example"), "exemplify")
    assert not rich_records("(e / exemplify-01)", ["example"], Resources())


def test_load_morphosemantic(tmp_path):
    path = write(tmp_path, "morph.tsv",
                 "# comment\nexample\texemplify\naction\tact\nbad line no tab\n")
    table = load_morphosemantic(path)
    assert len(table) == 2
    assert table.skipped == 1
    assert ("example", "exemplify") in table


def test_load_morphosemantic_duplicates(tmp_path):
    path = write(tmp_path, "morph.tsv", "a\tb\na\tb\n")
    assert len(load_morphosemantic(path)) == 1


def test_load_lemmas(tmp_path):
    path = write(tmp_path, "lem.tsv", "froze\tfreeze\nactions\taction,act\n")
    table = load_lemmas(path)
    assert table.lemmas("froze") == {"froze", "freeze"}
    assert table.lemmas("actions") == {"actions", "action", "act"}
    assert table.lemmas("unknown") == {"unknown"}


def test_loaders_idempotent(tmp_path):
    path = write(tmp_path, "morph.tsv", "a\tb\nc\td\n")
    assert load_morphosemantic(path).links == load_morphosemantic(path).links
    path2 = write(tmp_path, "vec.txt", "a 1.0 2.0\n")
    first = load_embeddings(path2)
    second = load_embeddings(path2)
    assert first.dimension == second.dimension
    assert set(first.vectors) == set(second.vectors)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_load_embeddings_non_finite_component(tmp_path, component):
    path = write(tmp_path, "vec.txt",
                 "a 1.0 0.0\nb 0.5 %s\n" % component)
    with pytest.raises(ResourceFormatError,
                       match=":2: non-finite vector component"):
        load_embeddings(path)


def test_a_table_caches_the_norms_of_its_vectors(tmp_path):
    table = EmbeddingTable(2, {"a": (3.0, 4.0), "z": (0.0, 0.0)})
    assert table.vector_and_norm("A") == ((3.0, 4.0), 5.0)
    assert table.vector_and_norm("z") == ((0.0, 0.0), 0.0)
    assert table.vector_and_norm("missing") is None
    loaded = load_embeddings(write(tmp_path, "vec.txt", "a 3 4\nz 0 0\n"))
    assert loaded.vector_and_norm("a") == (array("d", [3.0, 4.0]), 5.0)
    assert loaded.vector_and_norm("z")[1] == 0.0


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_resources_refuse_a_non_finite_cosine_threshold(threshold):
    with pytest.raises(ValueError, match="cosine threshold"):
        Resources(cosine_threshold=float(threshold))


def test_load_embeddings_refuses_a_word_without_numbers(tmp_path):
    with pytest.raises(ResourceFormatError, match=r":2: no vector components$"):
        load_embeddings(write(tmp_path, "vec.txt", "\nboy\ngirl 1.0\n"))


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
def test_load_embeddings_refuses_a_file_with_no_vector(tmp_path, text):
    with pytest.raises(ResourceFormatError, match="no word vectors"):
        load_embeddings(write(tmp_path, "vec.txt", text))

