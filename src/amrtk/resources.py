"""Loaders and lookups for the semantic resources used by the aligner:
word embeddings (GloVe text layout), a morphosemantic link table and a
lemma table.  All tables are read-only after load."""

import math
from array import array
from operator import mul

DEFAULT_COSINE_THRESHOLD = 0.7


class ResourceFormatError(ValueError):
    pass


def _dot(v1, v2):
    return sum(map(mul, v1, v2))


class EmbeddingTable:
    """Word vectors keyed by lowercase word (`load_embeddings` stores each
    as an `array('d')`, 8 bytes a component).  The Euclidean norm of each
    vector is computed once, when the table is built, so a cosine costs
    one dot product."""

    def __init__(self, dimension, vectors):
        self.dimension = dimension
        self.vectors = vectors
        self._norms = {word: math.sqrt(_dot(vector, vector))
                       for word, vector in vectors.items()}

    def __len__(self):
        return len(self.vectors)

    def vector_and_norm(self, word):
        """(vector, Euclidean norm) of a word, or None when it has none."""
        word = word.lower()
        vector = self.vectors.get(word)
        if vector is None:
            return None
        return vector, self._norms[word]


class MorphLinkTable:
    def __init__(self, links, skipped=0):
        self.links = frozenset(links)  # (word form, concept base label)
        self.skipped = skipped

    def __len__(self):
        return len(self.links)

    def __contains__(self, pair):
        return pair in self.links


class LemmaTable:
    def __init__(self, entries=None, skipped=0):
        self.entries = {k: frozenset(v) for k, v in (entries or {}).items()}
        self.skipped = skipped
        # each entry's lemmas with the form itself, built once
        self._forms = {k: v | {k} for k, v in self.entries.items()}

    def __len__(self):
        return len(self.entries)

    def lemmas(self, word):
        """Lemmas of a form; every word is a lemma of itself."""
        word = word.lower()
        forms = self._forms.get(word)
        return frozenset((word,)) if forms is None else forms


class Resources:
    """Bundle handed to the aligner; any table may be empty."""

    def __init__(self, embeddings=None, morph=None, lemmas=None,
                 cosine_threshold=DEFAULT_COSINE_THRESHOLD):
        if not -1.0 <= cosine_threshold <= 1.0:
            # a cosine lies in [-1, 1]: no cosine is greater than a larger
            # threshold (or nan) and every one is greater than a smaller
            # one, so the embedding rule would silently never (or always)
            # fire
            raise ValueError("cosine threshold must lie in [-1, 1], not %r"
                             % cosine_threshold)
        self.embeddings = embeddings or EmbeddingTable(0, {})
        self.morph = morph or MorphLinkTable(())
        self.lemmas = lemmas or LemmaTable()
        self.cosine_threshold = cosine_threshold


def load_embeddings(path):
    """Read a GloVe-layout text file: word then N decimals per line.

    Duplicate words keep the first occurrence; a file with no vector,
    dimension mismatches and non-finite values are format errors."""
    vectors = {}
    dimension = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word = parts[0].lower()
            try:
                values = array("d", map(float, parts[1:]))
            except ValueError as err:
                raise ResourceFormatError(
                    "%s:%d: unparseable number (%s)" % (path, lineno, err))
            if dimension is None:
                dimension = len(values)
                if dimension == 0:
                    raise ResourceFormatError(
                        "%s:%d: no vector components" % (path, lineno))
            elif len(values) != dimension:
                raise ResourceFormatError(
                    "%s:%d: expected %d components, found %d"
                    % (path, lineno, dimension, len(values)))
            if not all(map(math.isfinite, values)):
                raise ResourceFormatError(
                    "%s:%d: non-finite vector component" % (path, lineno))
            if word not in vectors:
                vectors[word] = values
    if not vectors:
        raise ResourceFormatError("%s: no word vectors" % path)
    return EmbeddingTable(dimension, vectors)


def _load_tsv(path):
    rows = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                skipped += 1
                continue
            rows.append((parts[0].strip().lower(), parts[1].strip().lower()))
    return rows, skipped


def load_morphosemantic(path):
    """2-column TSV of (word form, concept base label) derivational links."""
    rows, skipped = _load_tsv(path)
    return MorphLinkTable(rows, skipped=skipped)


def load_lemmas(path):
    """2-column TSV mapping an inflected form to comma-separated lemmas."""
    rows, skipped = _load_tsv(path)
    entries = {}
    for form, lemma_field in rows:
        lemmas = {l.strip() for l in lemma_field.split(",") if l.strip()}
        entries.setdefault(form, set()).update(lemmas)
    return LemmaTable(entries, skipped=skipped)


def _cosine(e1, e2):
    """Cosine of two (vector, norm) pairs, or None when either is None
    or has a zero norm."""
    if e1 is None or e2 is None or e1[1] == 0.0 or e2[1] == 0.0:
        return None
    return _dot(e1[0], e2[0]) / (e1[1] * e2[1])


def cosine(table, w1, w2):
    """Cosine similarity of two words, or None when either is missing
    or has a zero-norm vector."""
    return _cosine(table.vector_and_norm(w1), table.vector_and_norm(w2))


def semantic_match(table, form, word, threshold=DEFAULT_COSINE_THRESHOLD):
    """Strictly-greater cosine test between two forms, compared as given.
    Missing embeddings never match, so a word without a vector is refused
    before the form is looked up."""
    found = table.vector_and_norm(word)
    sim = None if found is None else _cosine(table.vector_and_norm(form), found)
    return sim is not None and sim > threshold


def morph_match(morph, forms, base):
    """True when one of a token's lemma forms (its lowercase form among
    them) equals the lowercase `base` or has a derivational link to it."""
    return base in forms or any((form, base) in morph for form in forms)
