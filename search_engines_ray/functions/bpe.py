"""BPE tokenizer training (Sennrich et al. 2016, "Neural Machine
Translation of Rare Words with Subword Units") — the training-data op a
corpus pipeline runs before token counting at scale.

Scale design (the one real trainers use — SentencePiece / HF tokenizers
train on WORD COUNTS, not the raw stream): ONE distributed pass builds
the word histogram (per-batch Counter partials → a single (word, cnt)
groupby-sum exchange; the corpus text never moves again), the driver
then runs the merge loop over the vocabulary-sized histogram — every
pair count is the Σ over words of (in-word pair occurrences × word
count), identical to counting over the raw stream, at 1/avg-word-freq
of the work. ``max_words`` caps the histogram at the top-K words by
count (ties: word asc) — the standard truncation, logged loudly, since
a 100 TB crawl's long tail is hapax noise.

Determinism: merge ties break by (count desc, pair lexicographically
asc); histogram ties by (count desc, word asc). No floats anywhere.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa

from ..analysis.tokenizer import simple_tokenize

END = "</w>"


def word_histogram(ds, text_col: str = "text",
                   max_words: int | None = None) -> list[tuple[str, int]]:
    """→ [(word, count)] sorted (count desc, word asc), optionally
    truncated to the top ``max_words``. One partial-Counter map + one
    (word, cnt) groupby-sum exchange — word strings cross the wire
    once, pre-aggregated per batch."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in b[text_col].to_pylist():
            c.update(simple_tokenize(t or ""))
        words = sorted(c)
        return pa.table({"word": pa.array(words, pa.string()),
                         "cnt": pa.array([c[w] for w in words], pa.int64())})

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("cnt", alias_name="cnt"))
    rows = [(r["word"], int(r["cnt"])) for r in agg.iter_rows()]
    rows.sort(key=lambda wc: (-wc[1], wc[0]))
    if max_words is not None and len(rows) > max_words:
        rows = rows[:max_words]
    return rows


def train_on_histogram(hist: list[tuple[str, int]],
                       num_merges: int) -> list[tuple[str, str, int]]:
    """Classic BPE merge loop over a word histogram → [(left, right,
    pair_count)] in merge order. Words split to characters + a ``</w>``
    end-of-word symbol; each iteration merges the globally most
    frequent adjacent symbol pair (weighted by word count)."""
    words = [(list(w) + [END], c) for w, c in hist]
    merges: list[tuple[str, str, int]] = []
    for _ in range(num_merges):
        pairs: Counter = Counter()
        for syms, cnt in words:
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += cnt
        if not pairs:
            break
        (a, b), best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((a, b, int(best)))
        ab = a + b
        for syms, _cnt in words:
            i = 0
            while i < len(syms) - 1:
                if syms[i] == a and syms[i + 1] == b:
                    syms[i:i + 2] = [ab]
                else:
                    i += 1
    return merges


def bpe_train(ds, num_merges: int = 50, text_col: str = "text",
              max_words: int | None = None) -> pa.Table:
    """→ Arrow (rank, left, right, freq): the learned merge table."""
    merges = train_on_histogram(
        word_histogram(ds, text_col, max_words=max_words), num_merges)
    return pa.table({
        "rank": pa.array(range(1, len(merges) + 1), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "freq": pa.array([m[2] for m in merges], pa.int64())})
