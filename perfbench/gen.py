"""Seeded inputs modelled on the documents table that the repository's own
benchmark indexes and dedups (``documents.parquet`` of the sf0.1 test
data, 5,000 rows; ``bench.py`` reads it) and on the query set that
benchmark runs. Every constant below is a measurement of one of the two;
``perfbench/corpus_stats.py`` repeats the corpus measurements on a copy
of the table. Everything here is a pure function of the seed; the
program under test only ever sees the generated tables and query
strings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

# ---- page corpus (measured on documents.parquet, sf0.1) -----------------
# the 30 words of the table's text, each 3.26-3.39 % of its 270,704 words
# (a uniform draw of that size spreads about +-2 %, so: uniform)
WORDS = ("a agg batch big column customer data fast filter group hash join "
         "key line merge order part query row scan slow small sort spark "
         "stream table the value vector window").split()
# words per page: every length from 10 to 100 occurs, mean 54.1, sd 25.7
# (a uniform 10..100 has mean 55, sd 26.3)
PAGE_WORDS = (10, 100)
# 250 rows (5.0 %) end in a marker word that occurs nowhere else; 243 of
# them are another row of the table plus the marker. 8 rows (0.16 %) are
# verbatim copies of another row.
MARKER = "dup"
NEAR_DUP_SHARE = 250 / 5000
EXACT_DUP_SHARE = 8 / 5000


@dataclass
class Corpus:
    """``vocab[ids[offsets[i]:offsets[i+1]]]`` is row ``i``'s text;
    ``src[i]`` is the row it was copied from (itself for an original)."""
    vocab: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    urls: list[str]

    @property
    def n_docs(self) -> int:
        return len(self.urls)

    def words_of(self, i: int) -> np.ndarray:
        return self.ids[self.offsets[i]:self.offsets[i + 1]]

    def texts(self) -> list[str]:
        w = self.vocab
        return [" ".join(w[self.words_of(i)]) for i in range(self.n_docs)]

    def table(self) -> pa.Table:
        return pa.table({"url": pa.array(self.urls, pa.string()),
                         "text": pa.array(self.texts(), pa.string())})

    def dedup_table(self) -> pa.Table:
        """(doc_id, text) as the dedup functions take it; ``src`` is for
        the checks only and is dropped before the program sees it."""
        return pa.table({
            "doc_id": pa.array(np.arange(self.n_docs, dtype=np.int64)),
            "text": pa.array(self.texts(), pa.string()),
            "src": pa.array(self.src.astype(np.int64))})

    def doc_freq(self, word: int) -> int:
        """Independent df of one word: rows that contain it."""
        hit = self.ids == word
        return int(np.count_nonzero(np.add.reduceat(hit, self.offsets[:-1])))


def corpus(seed: int, n_rows: int) -> Corpus:
    """``n_rows`` rows drawn from the measured model: originals of
    uniform length and uniform words, plus near and verbatim copies of
    originals at the measured shares, in a seeded order."""
    rng = np.random.default_rng([seed, 1])
    n_near = int(round(n_rows * NEAR_DUP_SHARE))
    n_exact = int(round(n_rows * EXACT_DUP_SHARE))
    n_orig = n_rows - n_near - n_exact
    lo, hi = PAGE_WORDS
    lens = rng.integers(lo, hi + 1, size=n_orig)
    words = np.split(rng.integers(0, len(WORDS), size=int(lens.sum())),
                     np.cumsum(lens)[:-1])
    marker = len(WORDS)
    src = np.concatenate((np.arange(n_orig),
                          rng.choice(n_orig, size=n_near + n_exact,
                                     replace=False)))
    rows = words + [np.append(words[s], marker) for s in src[n_orig:][:n_near]]
    rows += [words[s] for s in src[n_orig + n_near:]]
    order = rng.permutation(n_rows)
    rows = [rows[i] for i in order]
    # ``src`` renumbered to row positions after the shuffle
    pos = np.empty(n_rows, dtype=np.int64)
    pos[order] = np.arange(n_rows)
    src = pos[src[order]]
    offsets = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    return Corpus(np.array(WORDS + [MARKER]), np.concatenate(rows), offsets,
                  src, [f"http://pages.example/{seed}/{i:07d}"
                        for i in range(n_rows)])


# ---- queries (measured on bench.py's query set) -------------------------
# the words of WORDS that the index analyzer drops
STOPWORDS = ("a", "the")
# bag-of-words queries: 2 of its 20 have 2 terms, 16 have 3, 2 have 4
BOW_TERMS = {2: 2, 3: 16, 4: 2}
# kind: (model, template, distributed entry point); the positional and
# synonym shapes are the ones bench.py runs, with its operator widths
KINDS = {
    "bm25_bow": ("bm25", None, "bm25_batch"),
    "indri_bow": ("indri", None, "indri_batch"),
    "bm25_near": ("bm25", "#sum(#near/2({a} {b}) {c})", "bm25_structured"),
    "bm25_window": ("bm25", "#sum(#window/8({a} {b}) {c})",
                    "bm25_structured"),
    "bm25_syn": ("bm25", "#sum(#syn({a} {b}) {c})", "bm25_structured"),
    "indri_wand": ("indri", "#wand( 0.7 #and( {a} {b} ) 0.2 #and( #near/1( "
                   "{a} {b} ) ) 0.1 #and( #window/8( {a} {b} ) ) )",
                   "indri_structured"),
    "indri_syn": ("indri", "#and(#syn({a} {b}) {c})", "indri_structured"),
}
# the driver-side queries bench.py times on one QueryEngine per model
DRIVER_MIX = {"bm25_bow": 20, "bm25_near": 1, "bm25_window": 1,
              "indri_wand": 1, "indri_syn": 1}
# the batches bench.py sends through the distributed entry points:
# entry point -> the kinds of one batch (20 BM25, 3 structured, 10 Indri)
BATCHES = {"bm25_batch": ["bm25_bow"] * 20,
           "bm25_structured": ["bm25_near", "bm25_window", "bm25_syn"],
           "indri_batch": ["indri_bow"] * 10}


def query(corpus: Corpus, kind: str, rng: np.random.Generator) -> str:
    """One query of ``kind``. Its terms are distinct indexed words taken
    at random word positions of the corpus, so they follow the corpus's
    own word frequencies. Stopwords are skipped (bench.py's queries hold
    one in 58 terms), so a positional operator always has two terms."""
    tmpl = KINDS[kind][1]
    if tmpl is None:
        sizes, counts = zip(*BOW_TERMS.items())
        n = int(rng.choice(sizes, p=np.array(counts) / sum(counts)))
    else:
        n = 3
    terms: list[str] = []
    while len(terms) < n:
        w = str(corpus.vocab[corpus.ids[rng.integers(0, corpus.ids.size)]])
        if w not in terms and w not in STOPWORDS:
            terms.append(w)
    if tmpl is None:
        return " ".join(terms)
    return tmpl.format(a=terms[0], b=terms[1], c=terms[2])


def driver_stream(corpus: Corpus, seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` (kind, query) pairs: kinds in the fixed ``DRIVER_MIX``
    shares, seeded order within each block of the mix; every query drawn
    afresh (no query log exists to measure repetition from)."""
    rng = np.random.default_rng([seed, 3])
    block = [k for k, m in DRIVER_MIX.items() for _ in range(m)]
    kinds = [k for _ in range(-(-n // len(block)))
             for k in rng.permutation(block)][:n]
    return [(k, query(corpus, k, rng)) for k in kinds]


def batch_stream(corpus: Corpus, seed: int,
                 n: int) -> list[tuple[str, list[tuple[str, str]]]]:
    """``n`` (entry point, [(kind, query)]) batches: the three ``BATCHES``
    in a seeded order within each round of three."""
    rng = np.random.default_rng([seed, 4])
    entries = [e for _ in range(-(-n // len(BATCHES)))
               for e in rng.permutation(list(BATCHES))][:n]
    return [(str(e), [(k, query(corpus, k, rng)) for k in BATCHES[e]])
            for e in entries]
