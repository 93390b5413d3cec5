"""Text-analysis operators for training-data pipelines: language ID,
quality scoring, token statistics, document fingerprinting. All
vectorize per batch; the heuristics are deterministic (no models in this
environment) and DuckDB-mirrorable where used as oracle-checked queries.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..analysis.tokenizer import LUCENE_STOP_WORDS, simple_tokenize
from .partitioning import ROWS_PER_PART, estimate_rows, exchange, part_of, plan

# Rows each exchange moves per input doc (see partitioning.plan). The
# (term, doc) exchanges of distinctive_terms and more_like_this carry
# 23.2 distinct terms per doc, measured on sf0.1 ``documents``. The
# per-batch term and bigram partials of the other operators are bounded
# by the vocabulary, and sf0.1's is 31 words (931 bigrams), so their fold
# compresses there as no real corpus would (0.006–0.77 rows per doc):
# they use 1, the digest constant.
_DOC_TERM_DOCS_PER_PART = ROWS_PER_PART // 24
_VOCAB_DOCS_PER_PART = ROWS_PER_PART

# function-word profiles for a tiny trigram-free language-ID heuristic
_LANG_PROFILES = {
    "en": frozenset("the of and to a in is it you that he was for on are".split()),
    "de": frozenset("der die das und ist ich nicht ein zu mit sich auf für".split()),
    "fr": frozenset("le la les et de un une est je ne pas pour dans".split()),
    "es": frozenset("el la los las y de un una es en que no por con".split()),
}

_BPE_ISH_RE = re.compile(r"[a-z]+|[0-9]|[^a-z0-9\s]")


def round6(x) -> np.ndarray:
    """Half-away-from-zero 6-dp rounding — matches the DuckDB oracle
    expression ``floor(x*1000000 + 0.5)/1000000`` bit for bit (numpy/
    Python ``round`` banker's-rounds, DuckDB rounds half away)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


class LanguageId:
    """Function-word-ratio language ID; ``unknown`` under ``min_hits``."""

    def __init__(self, text_col: str = "text", min_hits: int = 1):
        self.text_col = text_col
        self.min_hits = min_hits

    def classify(self, text: str) -> str:
        toks = simple_tokenize(text or "")
        if not toks:
            return "unknown"
        best, best_hits = "unknown", self.min_hits - 1
        for lang, words in _LANG_PROFILES.items():
            hits = sum(1 for t in toks if t in words)
            if hits > best_hits:
                best, best_hits = lang, hits
        return best

    def __call__(self, b: pa.Table) -> pa.Table:
        langs = [self.classify(t) for t in b[self.text_col].to_pylist()]
        return b.append_column("detected_lang", pa.array(langs, pa.string()))


def language_id(ds, text_col: str = "text"):
    # stateless task + process-global classifier (profiles are tiny but
    # the pattern matters: no fixed pool width capping throughput)
    from ..util import proc_cached

    def fn(b: pa.Table) -> pa.Table:
        clf = proc_cached(("langid", text_col),
                          lambda: LanguageId(text_col=text_col))
        return clf(b)

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_batch(b: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc quality signals (all float64, rounded to 6 dp so the
    DuckDB oracle hashes identically): n_tokens, alpha_ratio,
    stopword_ratio, mean_token_len."""
    texts = b[text_col].to_pylist()
    n_tok = np.empty(len(texts), dtype=np.int64)
    alpha = np.empty(len(texts), dtype=np.float64)
    stopr = np.empty(len(texts), dtype=np.float64)
    mtl = np.empty(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        toks = simple_tokenize(t)
        n_tok[i] = len(toks)
        # ascii-alpha on purpose: mirrors the DuckDB oracle expression
        # regexp_replace(text, '[^a-zA-Z]', '', 'g')
        n_alpha = sum(1 for c in t if ("a" <= c <= "z") or ("A" <= c <= "Z"))
        alpha[i] = n_alpha / len(t) if t else 0.0
        stopr[i] = (sum(1 for w in toks if w in LUCENE_STOP_WORDS) / len(toks)
                    if toks else 0.0)
        mtl[i] = (sum(map(len, toks)) / len(toks)) if toks else 0.0
    out = pa.table({c: b[c] for c in b.column_names})
    out = out.append_column("n_tokens", pa.array(n_tok))
    out = out.append_column("alpha_ratio", pa.array(round6(alpha)))
    out = out.append_column("stopword_ratio", pa.array(round6(stopr)))
    out = out.append_column("mean_token_len", pa.array(round6(mtl)))
    return out


def quality_scores(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: quality_batch(b, text_col),
                          batch_format="pyarrow")


def token_stats(ds, text_col: str = "text"):
    """Whitespace tokens + BPE-ish subword count per doc."""
    def fn(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        ws = np.array([len((t or "").split()) for t in texts], dtype=np.int64)
        bpe = np.array([len(_BPE_ISH_RE.findall((t or "").lower()))
                        for t in texts], dtype=np.int64)
        out = pa.table({c: b[c] for c in b.column_names})
        out = out.append_column("ws_tokens", pa.array(ws))
        out = out.append_column("bpe_ish_tokens", pa.array(bpe))
        return out
    return ds.map_batches(fn, batch_format="pyarrow")


_B = 1099511628211       # FNV-ish rolling base
_MOD = (1 << 61) - 1


def _rolling_hashes(tokens: list[str], w: int) -> np.ndarray:
    """Rabin-Karp rolling hash over word ``w``-grams."""
    import hashlib
    hs = [int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big") % _MOD
          for t in tokens]
    if len(hs) < w:
        hs = hs + [0] * (w - len(hs))
    out = np.empty(max(len(hs) - w + 1, 1), dtype=np.uint64)
    cur = 0
    power = pow(_B, w - 1, _MOD)
    for i, h in enumerate(hs):
        cur = (cur * _B + h) % _MOD
        if i >= w:
            cur = (cur - hs[i - w] * pow(_B, w, _MOD)) % _MOD
        if i >= w - 1:
            out[i - w + 1] = cur
    return out


def doc_fingerprint(ds, text_col: str = "text", id_col: str = "doc_id",
                    window: int = 8, keep_mod: int = 16):
    """Winnowing-style fingerprints: rolling-hash word 8-grams, keep
    hashes ≡ 0 (mod keep_mod) plus the minimum (never-empty guarantee).
    → Dataset (doc_id, fingerprint: list<uint64>)."""
    def fn(b: pa.Table) -> pa.Table:
        ids, fps = b[id_col].to_pylist(), []
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            if not toks:
                fps.append([])
                continue
            hs = _rolling_hashes(toks, window)
            sel = hs[hs % keep_mod == 0]
            if sel.size == 0:
                sel = hs[[int(np.argmin(hs))]]
            fps.append(sorted(set(int(x) for x in sel)))
        return pa.table({id_col: pa.array(ids),
                         "fingerprint": pa.array(fps, pa.list_(pa.uint64()))})
    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_batch(b: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style per-doc repetition signals (Rae et al. 2021 §A1.1,
    word-level because this corpus has no line structure):
    ``dup_token_frac`` = 1 − distinct/total tokens, ``top_token_frac``
    = most-frequent-token count / total, ``dup_bigram_frac`` = 1 −
    distinct/total word bigrams. All 6-dp rounded for the DuckDB
    oracle; empty docs score 0 on every signal."""
    texts = b[text_col].to_pylist()
    n = len(texts)
    dup_tok = np.zeros(n, dtype=np.float64)
    top_tok = np.zeros(n, dtype=np.float64)
    dup_bg = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        toks = simple_tokenize(t or "")
        if not toks:
            continue
        arr = np.asarray(toks, dtype=object)
        _, counts = np.unique(arr, return_counts=True)
        dup_tok[i] = 1.0 - counts.size / len(toks)
        top_tok[i] = counts.max() / len(toks)
        if len(toks) >= 2:
            bgs = np.char.add(np.char.add(arr[:-1].astype(str), " "),
                              arr[1:].astype(str))
            dup_bg[i] = 1.0 - np.unique(bgs).size / (len(toks) - 1)
    out = pa.table({c: b[c] for c in b.column_names})
    out = out.append_column("dup_token_frac", pa.array(round6(dup_tok)))
    out = out.append_column("top_token_frac", pa.array(round6(top_tok)))
    out = out.append_column("dup_bigram_frac", pa.array(round6(dup_bg)))
    return out


def repetition_stats(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: repetition_batch(b, text_col),
                          batch_format="pyarrow")


def heuristic_filter(ds, text_col: str = "text",
                     min_tokens: int = 20, max_tokens: int = 100_000,
                     min_mean_len: float = 2.0, max_mean_len: float = 10.0,
                     min_stopword_ratio: float = 0.0,
                     max_dup_token_frac: float = 0.9):
    """C4/Gopher-style quality gate: a boolean ``keep`` per doc from the
    already-oracle-checked quality + repetition signals (C4: Raffel et
    al. 2020 §2.2; Gopher rules as above). Emits (…, keep) rather than
    dropping rows so the decision itself is auditable — a production
    pipeline chains ``.filter(expr="keep")``."""
    def fn(b: pa.Table) -> pa.Table:
        q = quality_batch(b, text_col)
        r = repetition_batch(b, text_col)
        n_tok = q["n_tokens"].to_numpy()
        mtl = q["mean_token_len"].to_numpy()
        stop = q["stopword_ratio"].to_numpy()
        dup = r["dup_token_frac"].to_numpy()
        keep = ((n_tok >= min_tokens) & (n_tok <= max_tokens)
                & (mtl >= min_mean_len) & (mtl <= max_mean_len)
                & (stop >= min_stopword_ratio)
                & (dup <= max_dup_token_frac))
        out = pa.table({c: b[c] for c in b.column_names})
        return out.append_column("keep", pa.array(keep))
    return ds.map_batches(fn, batch_format="pyarrow")


# PII patterns chosen inside the RE2 ∩ Python-re common subset so the
# DuckDB oracle's regexp_* calls match byte for byte.
_PII_EMAIL_RE = re.compile(r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}")
_PII_PHONE_RE = re.compile(r"\d{3}-\d{3}-\d{4}")
_PII_IPV4_RE = re.compile(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}")


def pii_scrub(ds, text_col: str = "text", out_col: str = "scrubbed"):
    """Redact emails → ``<EMAIL>``, phones → ``<PHONE>``, IPv4 →
    ``<IP>`` (in that order: the phone pattern must not eat the ipv4
    dotted quads and vice versa — ordering is part of the contract and
    mirrored in the oracle's nested regexp_replace). Adds per-doc match
    counts alongside the scrubbed text."""
    def fn(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        n = len(texts)
        n_email = np.empty(n, dtype=np.int64)
        n_phone = np.empty(n, dtype=np.int64)
        n_ip = np.empty(n, dtype=np.int64)
        scrubbed = []
        for i, t in enumerate(texts):
            t = t or ""
            t, n_email[i] = _PII_EMAIL_RE.subn("<EMAIL>", t)
            t, n_phone[i] = _PII_PHONE_RE.subn("<PHONE>", t)
            t, n_ip[i] = _PII_IPV4_RE.subn("<IP>", t)
            scrubbed.append(t)
        out = pa.table({c: b[c] for c in b.column_names})
        out = out.append_column("n_emails", pa.array(n_email))
        out = out.append_column("n_phones", pa.array(n_phone))
        out = out.append_column("n_ipv4", pa.array(n_ip))
        return out.append_column(out_col, pa.array(scrubbed, pa.string()))
    return ds.map_batches(fn, batch_format="pyarrow")


def top_bigrams(ds, text_col: str = "text", k: int = 50,
                num_parts: int | None = None):
    """Corpus-level word-bigram counts, top ``k`` (count desc, bigram
    asc). Three-stage shape built for 100 TB: (1) per-batch Counter
    pre-aggregation so the exchange carries one row per distinct bigram
    per batch, not one per occurrence; (2) hash-partitioned per-part
    exact sums + per-part top-k (a bigram lives in exactly one part, so
    the per-part cut is globally safe); (3) a ≤ parts × k row
    single-block merge."""
    from collections import Counter
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        c = Counter()
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            c.update(" ".join(p) for p in zip(toks, toks[1:]))
        bigrams = list(c.keys())
        # the per-part top-k cut is safe because every worker routes a
        # bigram to the same part. Sentinel row (part -1, dropped in
        # per_part) keeps the schema alive through Ray's sort-groupby
        # when no doc has a bigram.
        return pa.table({
            "part": pa.array(np.append(part_of(bigrams, parts), -1)),
            "bigram": pa.array(bigrams + [""], pa.string()),
            "n": pa.array(np.concatenate([
                np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                np.array([0], dtype=np.int64)]))})

    def per_part(g: pa.Table):
        # the sentinel group (part -1) passes THROUGH as a marker row
        # (n = -1, dropped in final) — a 0-row output block would be
        # dropped and the schema lost with it
        import pandas as pd
        df = g.to_pandas()
        if (df["part"] < 0).any():
            df = df[df["part"] >= 0]
            if df.empty:
                return pd.DataFrame({"bigram": pd.Series([""], dtype=object),
                                     "n": pd.Series([-1], dtype=np.int64)})
        s = df.groupby("bigram", sort=False)["n"].sum()
        top = s.sort_index().sort_values(kind="stable", ascending=False)[:k]
        return pd.DataFrame({"bigram": top.index.to_numpy(),
                             "n": top.to_numpy()})

    def final(b: pa.Table) -> pa.Table:
        import pandas as pd
        df = b.to_pandas()
        df = df[df["n"] >= 0].sort_values(
            ["n", "bigram"], ascending=[False, True], kind="stable")[:k]
        return pa.Table.from_pandas(df.reset_index(drop=True))

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, per_part, "pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def kwic_snippets(ds, term: str, text_col: str = "text",
                  id_col: str = "doc_id", context_chars: int = 40):
    """Keyword-in-context result snippets — the search-results surface
    of the engine (the reference emits ranked ids only; a web UI needs
    the snippet). For docs containing ``term`` (case-insensitive raw
    substring match): 1-based first match position, non-overlapping
    match count, and the snippet of ``context_chars`` chars around the
    first match. Pure per-batch string kernels (Arrow lower + substring
    search to prune non-matching rows zero-copy, Python slicing only on
    the matched minority); embarrassingly parallel, no exchange."""
    t = term.lower()

    def fn(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        low = pc.utf8_lower(b[text_col])
        has = pc.match_substring(low, t)
        kept = b.filter(has)
        low_kept = pc.utf8_lower(kept[text_col]).to_pylist()
        texts = kept[text_col].to_pylist()
        n = len(texts)
        first = np.empty(n, dtype=np.int64)
        cnt = np.empty(n, dtype=np.int64)
        snip = []
        for i, (s, sl) in enumerate(zip(texts, low_kept)):
            idx = sl.find(t)
            first[i] = idx + 1
            cnt[i] = sl.count(t)
            start = max(0, idx - context_chars)
            snip.append(s[start:idx + len(t) + context_chars])
        return pa.table({id_col: kept[id_col],
                         "first_pos": pa.array(first),
                         "n_matches": pa.array(cnt),
                         "snippet": pa.array(snip, pa.string())})
    return ds.map_batches(fn, batch_format="pyarrow")


def best_passage(ds, query_terms: list[str], window: int = 15,
                 text_col: str = "text", id_col: str = "doc_id"):
    """Multi-term best-passage snippet — the highlighting surface for a
    ranked result page: for each doc, the ``window``-token span covering
    the MOST DISTINCT query terms, canonically aligned so candidate
    starts are the query-term hit positions themselves (any maximal
    window can shift right to its first covered hit without losing
    coverage); ties break to the smallest start. → Dataset (``id_col``,
    start 1-based token pos, n_match distinct terms covered, snippet =
    the window's tokens space-joined). Docs with no hit emit nothing.
    Per-batch token kernel, no exchange — run it over the (small)
    candidate set of a top-k search, not the whole corpus."""
    qs = sorted(set(query_terms))

    def fn(b: pa.Table) -> pa.Table:
        out_id, out_s, out_c, out_snip = [], [], [], []
        for d, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if not toks:
                continue
            arr = np.asarray(toks, dtype=object)
            hit = np.flatnonzero(np.isin(arr, qs))
            if hit.size == 0:
                continue
            best_c, best_s = 0, -1
            for p in hit:
                in_win = hit[(hit >= p) & (hit < p + window)]
                c = len({toks[i] for i in in_win})
                if c > best_c:
                    best_c, best_s = c, int(p)
            out_id.append(d)
            out_s.append(best_s + 1)
            out_c.append(best_c)
            out_snip.append(" ".join(toks[best_s:best_s + window]))
        return pa.table({
            id_col: pa.array(out_id, b.schema.field(id_col).type),
            "start": pa.array(out_s, pa.int64()),
            "n_match": pa.array(out_c, pa.int64()),
            "snippet": pa.array(out_snip, pa.string())})
    return ds.map_batches(fn, batch_format="pyarrow")


def distinctive_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                      k: int = 5, num_parts: int | None = None):
    """→ Dataset (``id_col``, term, tf, df, rank 1..k): each doc's k
    most distinctive terms — highest in-doc term frequency, corpus
    document frequency as the tie-breaker (rarer wins), then term asc.
    A tf·idf-style doc profiler with integer-exact ordering (no float
    idf, so the DuckDB oracle matches bit for bit).

    One term-keyed exchange carries distinct (term, doc, tf) rows —
    the index build's shape; df is annotated inside the term partition
    (a term lives in exactly one partition, so its df is complete
    there); the per-doc top-k cut is a second small exchange on doc id
    over already-k-boundable rows."""
    from ..analysis.tokenizer import simple_tokenize
    parts, blocks = plan(estimate_rows(ds), _DOC_TERM_DOCS_PER_PART,
                         num_parts)

    def tf_rows(b: pa.Table) -> pa.Table:
        terms, docs, tfs = [], [], []
        for did, text in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(text or "")
            if not toks:
                continue
            t, c = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
            terms.append(t)
            tfs.append(c)
            docs.append(np.full(len(t), did, dtype=np.int64))
        terms = np.concatenate(terms) if terms else np.empty(0, object)
        return pa.table({
            "part": pa.array(part_of(terms, parts)),
            "term": pa.array(terms.tolist(), pa.string()),
            id_col: pa.array(np.concatenate(docs) if docs
                             else np.empty(0, np.int64)),
            "tf": pa.array(np.concatenate(tfs).astype(np.int64) if tfs
                           else np.empty(0, np.int64))})

    def annotate_df(g: pa.Table) -> pd.DataFrame:
        import pandas as pd
        term = np.asarray(g["term"].to_pylist(), dtype=object)
        if not len(term):
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "term": pd.Series([], dtype=object),
                                 "tf": pd.Series([], dtype=np.int64),
                                 "df": pd.Series([], dtype=np.int64)})
        doc = g[id_col].to_numpy(zero_copy_only=False)
        tf = g["tf"].to_numpy(zero_copy_only=False)
        order = np.argsort(term, kind="stable")
        ts = term[order]
        starts = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(ts)])))
        df_per_row = np.repeat(seg_len.astype(np.int64), seg_len)
        return pd.DataFrame({id_col: doc[order], "term": ts,
                             "tf": tf[order], "df": df_per_row})

    def topk(g: pa.Table) -> pd.DataFrame:
        import pandas as pd
        doc = g[id_col].to_numpy(zero_copy_only=False)
        if not len(doc):
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "term": pd.Series([], dtype=object),
                                 "tf": pd.Series([], dtype=np.int64),
                                 "df": pd.Series([], dtype=np.int64),
                                 "rank": pd.Series([], dtype=np.int64)})
        term = np.asarray(g["term"].to_pylist(), dtype=object)
        tf = g["tf"].to_numpy(zero_copy_only=False)
        df = g["df"].to_numpy(zero_copy_only=False)
        order = np.lexsort((term, df, -tf, doc))
        d = doc[order]
        bound = np.concatenate(([True], d[1:] != d[:-1]))
        seg_start = np.maximum.accumulate(
            np.where(bound, np.arange(len(d)), 0))
        rank = np.arange(len(d)) - seg_start
        keep = order[rank < k]
        return pd.DataFrame({id_col: doc[keep], "term": term[keep],
                             "tf": tf[keep], "df": df[keep],
                             "rank": (rank[rank < k] + 1).astype(np.int64)})

    import pandas as pd  # noqa: F401  (map_groups pandas outputs)

    annotated = exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                         blocks, annotate_df, "pyarrow")

    def by_doc(b: pa.Table) -> pa.Table:
        doc = b[id_col].to_numpy(zero_copy_only=False)
        return b.append_column("part", pa.array(part_of(doc, parts)))

    return exchange(annotated.map_batches(by_doc, batch_format="pyarrow"),
                    blocks, topk, "pyarrow") \
        .select_columns([id_col, "term", "tf", "df", "rank"])


def unigram_lm_surprisal(ds, text_col: str = "text",
                         id_col: str = "doc_id",
                         num_parts: int | None = None):
    """→ Dataset (``id_col``, n_tokens, mean_surprisal): CCNet-style
    LM quality scoring with a corpus-fit add-one-smoothed unigram LM —
    mean per-token surprisal −log2((c+1)/(N+V)) in bits (= log2 of the
    doc's unigram perplexity). Per-token surprisal is quantized to an
    integer 1e-4-bit grid BEFORE summing so partial sums are
    associative and the DuckDB oracle matches despite libm log2
    differing from numpy's by a few ulp (a flip would need the true
    value within ~1e-11 of a grid edge).

    Two passes over the input: (1) corpus token counts via per-batch
    Counter partials + a hash-partitioned exact sum — the vocab table
    (not the corpus) is what reaches the driver and is ray.put once,
    read per worker through the process cache; (2) a stateless scoring
    map. At web scale cap the broadcast vocab to the top-V tokens
    (everything else smooths to c=0) — here the corpus vocabulary IS
    the LM, matching the SQL oracle exactly. Empty docs are omitted
    (no tokens to score)."""
    from collections import Counter
    import ray

    from ..analysis.tokenizer import simple_tokenize
    from ..util import proc_cached
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        c = Counter()
        for t in b[text_col].to_pylist():
            c.update(simple_tokenize(t or ""))
        terms = list(c.keys())
        return pa.table({"part": pa.array(part_of(terms, parts)),
                         "term": pa.array(terms, pa.string()),
                         "c": pa.array(np.fromiter(c.values(), np.int64,
                                                   count=len(c)))})

    def sum_part(g: pa.Table):
        import pandas as pd
        df = g.to_pandas()
        if df.empty:
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype=np.int64)})
        s = df.groupby("term", sort=False)["c"].sum()
        return pd.DataFrame({"term": s.index.to_numpy(),
                             "c": s.to_numpy(np.int64)})

    vocab = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                     blocks, sum_part, "pyarrow").to_pandas()
    n_total = int(vocab["c"].sum())
    v_size = len(vocab)
    # integer surprisal per vocab entry, computed ONCE driver-side
    su = np.floor(-np.log2((vocab["c"].to_numpy(np.float64) + 1.0)
                           / (n_total + v_size)) * 1e4 + 0.5).astype(np.int64)
    ref = ray.put(dict(zip(vocab["term"], su)))

    def score(b: pa.Table) -> pa.Table:
        lut = proc_cached(("unigram_lm", ref.hex()), lambda: ray.get(ref),
                          cap=1)
        ids, n_toks, means = [], [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if not toks:
                continue
            total = sum(lut[tok] for tok in toks)
            ids.append(did)
            n_toks.append(len(toks))
            means.append(total / len(toks) / 1e4)
        return pa.table({id_col: pa.array(np.asarray(ids, np.int64)),
                         "n_tokens": pa.array(np.asarray(n_toks, np.int64)),
                         "mean_surprisal": pa.array(round6(means))})

    return ds.map_batches(score, batch_format="pyarrow")


def prefix_suggest(ds, prefix: str, text_col: str = "text", k: int = 10,
                   num_parts: int | None = None):
    """→ Dataset (term, df, rank 1..k): autocomplete — the k corpus
    terms starting with ``prefix``, by document frequency desc then
    term asc. The prefix filter applies at the map side, so the
    exchange carries only per-(batch, matching-term) partial df rows —
    at web scale this is the job that builds the suggestion dictionary,
    not a per-keystroke query path. A term lives in exactly one hash
    partition, so per-part df sums are exact and the per-part top-k cut
    is globally safe; the final merge sees ≤ parts × k rows."""
    from ..analysis.tokenizer import simple_tokenize
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        df: dict[str, int] = {}
        for t in b[text_col].to_pylist():
            for w in set(simple_tokenize(t or "")):
                if w.startswith(prefix):
                    df[w] = df.get(w, 0) + 1
        terms = list(df.keys())
        # sentinel row (part -1, dropped downstream): Ray's sort-based
        # groupby erases the SCHEMA of a zero-row dataset, so a prefix
        # with no matches would otherwise return a column-less result
        return pa.table({"part": pa.array(np.append(part_of(terms, parts),
                                                    -1)),
                         "term": pa.array(terms + [""], pa.string()),
                         "df": pa.array(np.concatenate([
                             np.fromiter(df.values(), np.int64,
                                         count=len(df)),
                             np.array([0], dtype=np.int64)]))})

    def per_part(g: pa.Table):
        # the sentinel group (part -1) passes THROUGH as a marker row —
        # a 0-row output block would be dropped and the schema lost
        import pandas as pd
        df = g.to_pandas()
        if (df["part"] < 0).any():
            df = df[df["part"] >= 0]
            if df.empty:
                return pd.DataFrame({"term": pd.Series([""], dtype=object),
                                     "df": pd.Series([-1], dtype=np.int64)})
        s = df.groupby("term", sort=False)["df"].sum()
        top = s.sort_index().sort_values(kind="stable", ascending=False)[:k]
        return pd.DataFrame({"term": top.index.to_numpy(),
                             "df": top.to_numpy(np.int64)})

    def final(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["df"] >= 0].sort_values(
            ["df", "term"], ascending=[False, True], kind="stable")[:k]
        return pa.table({
            "term": pa.array(df["term"].to_numpy(dtype=object).tolist(),
                             pa.string()),
            "df": pa.array(df["df"].to_numpy(np.int64)),
            "rank": pa.array(np.arange(1, len(df) + 1, dtype=np.int64))})

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, per_part, "pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute), the same
    definition as DuckDB's ``levenshtein`` — two-row DP."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


_SPELL_SCHEMA = pa.schema([("query_term", pa.string()),
                           ("suggestion", pa.string()),
                           ("distance", pa.int64()), ("df", pa.int64())])


def _spell_table(rows: list) -> pa.Table:
    """``spell_suggest`` rows (query_term, suggestion, distance, df) →
    a table typed even at 0 rows."""
    cols = list(zip(*rows)) or [()] * 4
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, _SPELL_SCHEMA)],
                    schema=_SPELL_SCHEMA)


def spell_suggest(ds, query_terms: list[str], text_col: str = "text",
                  num_parts: int | None = None, max_distance: int = 3):
    """→ Dataset (query_term, suggestion, distance, df): did-you-mean —
    for each query term, the corpus vocabulary term minimizing
    (edit distance, −df, term asc), among terms within
    ``max_distance``. Query terms with no vocab term in range are
    omitted.

    Shape: the vocabulary df table is built with the usual per-batch
    partial + hash-partitioned exact sum; the tiny query-term list
    rides into every vocab partition inside the map closure (it IS the
    broadcast side); each partition emits at most |query_terms| local
    winners, so the final merge sees ≤ parts × |terms| rows. The DP
    kernel is per (vocab term, query term) — bounded by vocab size,
    never corpus size, and trivially parallel across partitions."""
    from ..analysis.tokenizer import simple_tokenize

    qterms = sorted(set(query_terms))
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        df: dict[str, int] = {}
        for t in b[text_col].to_pylist():
            for w in set(simple_tokenize(t or "")):
                df[w] = df.get(w, 0) + 1
        terms = list(df.keys())
        # sentinel row (part -1, dropped in local_best): keeps the
        # schema alive through Ray's sort-groupby when no vocab matches
        return pa.table({"part": pa.array(np.append(part_of(terms, parts),
                                                    -1)),
                         "term": pa.array(terms + [""], pa.string()),
                         "df": pa.array(np.concatenate([
                             np.fromiter(df.values(), np.int64,
                                         count=len(df)),
                             np.array([0], dtype=np.int64)]))})

    def local_best(g: pa.Table) -> pa.Table:
        # the sentinel group (part -1) passes THROUGH as a marker row
        # (distance -1, dropped in final) — a 0-row output block would
        # be dropped and the schema lost with it
        vdf = g.to_pandas()
        if (vdf["part"] < 0).any():
            vdf = vdf[vdf["part"] >= 0]
            if vdf.empty:
                return _spell_table([("", "", -1, -1)])
        if vdf.empty:
            return _spell_table([])
        s = vdf.groupby("term", sort=True)["df"].sum()
        vocab, dfs = s.index.to_numpy(), s.to_numpy(np.int64)
        rows = []
        for q in qterms:
            best = None
            for v, d in zip(vocab, dfs):
                # cheap length lower bound prunes most DP calls
                if abs(len(v) - len(q)) > max_distance:
                    continue
                dist = _levenshtein(q, v)
                if dist > max_distance:
                    continue
                key = (dist, -d, v)
                if best is None or key < best:
                    best = key
            if best is not None:
                rows.append((q, best[2], best[0], -best[1]))
        return _spell_table(rows)

    def final(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df[df["distance"] >= 0]
        df = df.sort_values(["query_term", "distance", "df", "suggestion"],
                            ascending=[True, True, False, True],
                            kind="stable")
        return pa.Table.from_pandas(
            df.groupby("query_term", sort=True).head(1),
            schema=_SPELL_SCHEMA, preserve_index=False)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, local_best, "pyarrow") \
        .repartition(1) \
        .map_batches(final, batch_format="pyarrow", batch_size=None)


def chunk_documents(ds, text_col: str = "text", id_col: str = "doc_id",
                    max_tokens: int = 64, stride: int | None = None,
                    emit_text: bool = False):
    """→ Dataset (``id_col``, chunk_id 1.., n_tokens, chunk_md5[, chunk]):
    split each doc into training-ready windows of ``max_tokens`` tokens,
    window starts every ``stride`` tokens (default = max_tokens, i.e.
    non-overlapping; smaller stride = overlapping context windows). The
    final partial window is kept. Docs with no tokens are omitted.

    Embarrassingly parallel — one map stage, no exchange; output rows ≈
    n_tokens/stride per doc, bounded per batch. ``emit_text=False``
    ships the md5 of each chunk instead of the chunk text — the shape
    for audit/dedup joins where the downstream consumer re-reads the
    payload lazily; pass True to materialize the text (the actual
    training-data write path)."""
    import hashlib
    from ..analysis.tokenizer import simple_tokenize

    step = stride or max_tokens
    if step < 1 or step > max_tokens:
        raise ValueError("stride must be in [1, max_tokens]")

    def fn(b: pa.Table) -> pa.Table:
        ids, cids, ntoks, md5s, texts = [], [], [], [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if not toks:
                continue
            cid = 0
            for s in range(0, len(toks), step):
                w = toks[s:s + max_tokens]
                cid += 1
                chunk = " ".join(w)
                ids.append(did)
                cids.append(cid)
                ntoks.append(len(w))
                md5s.append(hashlib.md5(chunk.encode()).hexdigest())
                if emit_text:
                    texts.append(chunk)
                if s + max_tokens >= len(toks):
                    break
        cols = {id_col: pa.array(np.asarray(ids, np.int64)),
                "chunk_id": pa.array(np.asarray(cids, np.int64)),
                "n_tokens": pa.array(np.asarray(ntoks, np.int64)),
                "chunk_md5": pa.array(md5s, pa.string())}
        if emit_text:
            cols["chunk"] = pa.array(texts, pa.string())
        return pa.table(cols)
    return ds.map_batches(fn, batch_format="pyarrow")


# entity set chosen small and explicit so the DuckDB oracle's replace()
# chain mirrors it byte for byte, in this exact order
_HTML_ENTITIES = (("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"),
                  ("&quot;", '"'), ("&#39;", "'"), ("&nbsp;", " "))
_TAG_RE = re.compile(r"<[^>]*>")
_WS_RE = re.compile(r"\s+")


def strip_html_str(h: str) -> str:
    """Tags → space, entity unescape (fixed order), whitespace collapse,
    trim — the extraction kernel."""
    s = _TAG_RE.sub(" ", h or "")
    for ent, ch in _HTML_ENTITIES:
        s = s.replace(ent, ch)
    return _WS_RE.sub(" ", s).strip()


def strip_html(ds, html_col: str = "html", out_col: str = "clean_text"):
    """→ input columns + ``out_col``: boilerplate-free text from an
    HTML payload — tag removal, small-entity unescape, whitespace
    collapse (the extraction step of a Common-Crawl-style pipeline;
    the index build's ``extract_text`` is the byte-exact inverse of the
    synthetic wrapper, THIS op is the lossy general-HTML path). Pure
    per-batch compiled-regex kernel, no exchange."""
    def fn(b: pa.Table) -> pa.Table:
        vals = b[html_col].to_pylist()
        clean = [strip_html_str(h.decode() if isinstance(h, bytes) else h)
                 for h in vals]
        out = pa.table({c: b[c] for c in b.column_names})
        return out.append_column(out_col, pa.array(clean, pa.string()))
    return ds.map_batches(fn, batch_format="pyarrow")


def more_like_this(ds, query_doc_id: int, text_col: str = "text",
                   id_col: str = "doc_id", k: int = 10,
                   num_parts: int | None = None):
    """→ Dataset (``id_col``, score): the k documents most similar to
    ``query_doc_id`` by tf·idf cosine (idf = ln(N/df), N = docs with
    ≥1 token; the query doc itself excluded; candidates = docs sharing
    ≥1 term, standard MLT semantics), score desc / id asc, 6 dp.

    Lucene's MoreLikeThis, distributed: pass 1 streams the corpus once
    for N and the query doc's token vector (broadcast — one doc);
    pass 2 is ``distinctive_terms``' exchange pair — (term, doc, tf)
    rows term-keyed so each partition holds a term's complete df and
    can emit per-doc PARTIAL (dot, norm²) sums (the combiner bounds
    the second exchange at docs × partitions rows), then a doc-keyed
    fold finishes both sums. The final top-k is a per-batch cut + one
    driver merge over ≤ batches × k rows (the exact-ANN pattern)."""
    import math

    import ray.data as rd

    from ..analysis.tokenizer import simple_tokenize

    qid = int(query_doc_id)

    def nothing():
        # one typed block, not one more pass over the input that maps
        # each of its blocks to an empty table
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                       "score": pa.array([], pa.float64())}))

    def meta(b: pa.Table) -> pa.Table:
        n = 0
        qtext = None
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if toks:
                n += 1
            if int(did) == qid:
                qtext = t or ""
        return pa.table({"n": pa.array([n], pa.int64()),
                         "qtext": pa.array([qtext], pa.string())})

    parts_tbl = pa.concat_tables(list(ds.map_batches(
        meta, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")))
    n_docs = int(np.sum(parts_tbl["n"].to_numpy()))
    qtexts = [x for x in parts_tbl["qtext"].to_pylist() if x is not None]
    if not qtexts or n_docs == 0:
        return nothing()
    qt, qc = np.unique(np.asarray(simple_tokenize(qtexts[0]),
                                  dtype=object), return_counts=True)
    tfq = dict(zip(qt.tolist(), qc.astype(np.int64).tolist()))
    parts, blocks = plan(estimate_rows(ds), _DOC_TERM_DOCS_PER_PART,
                         num_parts)

    def tf_rows(b: pa.Table) -> pa.Table:
        terms, docs, tfs = [], [], []
        for did, text in zip(b[id_col].to_pylist(),
                             b[text_col].to_pylist()):
            toks = simple_tokenize(text or "")
            if not toks:
                continue
            t, c = np.unique(np.asarray(toks, dtype=object),
                             return_counts=True)
            terms.append(t)
            tfs.append(c)
            docs.append(np.full(len(t), did, dtype=np.int64))
        terms = np.concatenate(terms) if terms else np.empty(0, object)
        return pa.table({
            "part": pa.array(part_of(terms, parts)),
            "term": pa.array(terms.tolist(), pa.string()),
            id_col: pa.array(np.concatenate(docs) if docs
                             else np.empty(0, np.int64)),
            "tf": pa.array(np.concatenate(tfs).astype(np.int64) if tfs
                           else np.empty(0, np.int64))})

    def partials(g: pa.Table) -> pa.Table:
        term = np.asarray(g["term"].to_pylist(), dtype=object)
        if not len(term):
            return pa.table({"part": pa.array([], pa.int32()),
                             id_col: pa.array([], pa.int64()),
                             "dot": pa.array([], pa.float64()),
                             "nsq": pa.array([], pa.float64())})
        doc = g[id_col].to_numpy(zero_copy_only=False)
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        ut, inv = np.unique(term, return_inverse=True)
        df = np.zeros(ut.size, np.int64)
        np.add.at(df, inv, 1)
        idf = np.log(n_docs / df.astype(np.float64))
        wq = np.asarray([tfq.get(t, 0) for t in ut.tolist()], np.float64) \
            * idf
        wgt = tf * idf[inv]
        contrib_dot = wgt * wq[inv]
        contrib_nsq = wgt * wgt
        ud, dinv = np.unique(doc, return_inverse=True)
        sdot = np.zeros(ud.size, np.float64)
        snsq = np.zeros(ud.size, np.float64)
        np.add.at(sdot, dinv, contrib_dot)
        np.add.at(snsq, dinv, contrib_nsq)
        return pa.table({
            "part": pa.array(part_of(ud, parts)),
            id_col: pa.array(ud),
            "dot": pa.array(sdot),
            "nsq": pa.array(snsq)})

    def fold_doc(g: pa.Table) -> pa.Table:
        doc = g[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(doc, kind="stable")
        d, dt, ns = (doc[order], g["dot"].to_numpy()[order],
                     g["nsq"].to_numpy()[order])
        bound = np.concatenate(([True], d[1:] != d[:-1]))
        first = np.flatnonzero(bound)
        return pa.table({id_col: pa.array(d[first]),
                         "dot": pa.array(np.add.reduceat(dt, first)),
                         "nsq": pa.array(np.add.reduceat(ns, first))})

    sums = exchange(exchange(ds.map_batches(tf_rows, batch_format="pyarrow"),
                             blocks, partials, "pyarrow"),
                    blocks, fold_doc, "pyarrow").materialize()

    qrow = [b for b in sums.map_batches(
        lambda b: b.filter(pa.compute.equal(b[id_col], qid)),
        batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows]
    if not qrow:
        return nothing()
    nq = math.sqrt(float(qrow[0]["nsq"][0].as_py()))

    def topk(b: pa.Table) -> pa.Table:
        doc = b[id_col].to_numpy(zero_copy_only=False)
        dt = b["dot"].to_numpy(zero_copy_only=False)
        ns = b["nsq"].to_numpy(zero_copy_only=False)
        keep = (doc != qid) & (dt > 0)
        doc, dt, ns = doc[keep], dt[keep], ns[keep]
        raw = dt / (np.sqrt(ns) * nq)
        order = np.lexsort((doc, -raw))[:k]
        return pa.table({id_col: pa.array(doc[order]),
                         "raw": pa.array(raw[order])})

    cand = list(sums.map_batches(topk, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow"))
    if not cand:                    # no doc shares a term with the query
        return nothing()
    cand = pa.concat_tables(cand)
    doc = cand[id_col].to_numpy(zero_copy_only=False)
    raw = cand["raw"].to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, -raw))[:k]
    return rd.from_arrow(pa.table({
        id_col: pa.array(doc[order]),
        "score": pa.array(round6(raw[order]))}))


def pmi_collocations(ds, text_col: str = "text", k: int = 20,
                     min_count: int = 5, num_parts: int | None = None,
                     max_broadcast_bytes: int = 256 << 20):
    """→ Dataset (bigram, n, pmi): the corpus's top-``k`` collocations
    by pointwise mutual information, ``pmi = ln(p(ab)/(p(a)p(b)))``
    with unigram/bigram probabilities over their own occurrence
    totals, restricted to bigrams with count ≥ ``min_count``
    (pmi desc, bigram asc). The Church & Hanks (1990) association
    measure behind every phrase-mining pipeline.

    Shape: pass 1 hash-partitions pre-aggregated unigram partials,
    keeps counts ≥ ``min_count`` (a bigram can never out-count its
    rarer word, so this also prunes pass 2's candidates) and broadcasts
    the surviving vocab ONCE, byte-guarded; pass 2 hash-partitions
    bigram partials — a bigram lives in one partition, so each part
    scores PMI locally against the broadcast vocab and cuts its own
    top-k; the driver merges ≤ parts × k rows."""
    import math
    from collections import Counter

    import ray

    from ..analysis.tokenizer import simple_tokenize
    from ..util import proc_cached
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def uni_partial(b: pa.Table) -> pa.Table:
        c = Counter()
        nbi = 0
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            c.update(toks)
            nbi += max(0, len(toks) - 1)
        words = list(c.keys())
        return pa.table({
            "part": pa.array(np.append(part_of(words, parts), -1)),
            "w": pa.array(words + [""], pa.string()),
            "n": pa.array(np.concatenate([
                np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                np.array([nbi], np.int64)]))})

    def uni_fold(g: pa.Table) -> pa.Table:
        import pandas as pd
        df = g.to_pandas()
        sent = df[df["part"] < 0]
        if len(sent):
            return pa.table({"w": pa.array(["\x00nbi"], pa.string()),
                             "n": pa.array([int(sent["n"].sum())],
                                           pa.int64())})
        agg = df.groupby("w", sort=False)["n"].sum()
        agg = agg[agg >= min_count]
        return pa.table({"w": pa.array(agg.index.tolist(), pa.string()),
                         "n": pa.array(agg.to_numpy(np.int64))})

    uni_parts, nbytes = [], 0
    n_bi_total = 0
    for b in exchange(ds.map_batches(uni_partial, batch_format="pyarrow"),
                      blocks, uni_fold, "pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        ws = b["w"].to_pylist()
        ns = b["n"].to_numpy(zero_copy_only=False)
        for w, n in zip(ws, ns):
            if w == "\x00nbi":
                n_bi_total += int(n)
                continue
            nbytes += len(w) + 8
            if nbytes > max_broadcast_bytes:
                raise ValueError(
                    f"min_count-pruned vocabulary exceeds the "
                    f"{max_broadcast_bytes >> 20} MiB broadcast guard — "
                    "raise min_count or join unigram counts by key "
                    "instead of broadcasting")
            uni_parts.append((w, int(n)))
    uni = dict(uni_parts)
    # N_uni = TOTAL token occurrences, not just the pruned vocab's —
    # a dedicated count scan (the pruned table can't provide it)
    tot = ds.map_batches(
        lambda b: pa.table({"nu": pa.array([sum(
            len(simple_tokenize(t or "")) for t in
            b[text_col].to_pylist())], pa.int64())}),
        batch_format="pyarrow").sum("nu")
    n_uni_total = int(tot or 0)
    ref = ray.put(uni)

    def bi_partial(b: pa.Table) -> pa.Table:
        vocab = proc_cached(("pmi_uni", ref.hex()), lambda: ray.get(ref),
                            cap=1)
        c = Counter()
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            c.update(" ".join(p) for p in zip(toks, toks[1:])
                     if p[0] in vocab and p[1] in vocab)
        grams = list(c.keys())
        return pa.table({
            "part": pa.array(np.append(part_of(grams, parts), -1)),
            "bigram": pa.array(grams + [""], pa.string()),
            "n": pa.array(np.concatenate([
                np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                np.array([0], np.int64)]))})

    def bi_score(g: pa.Table) -> pa.Table:
        import pandas as pd
        vocab = proc_cached(("pmi_uni", ref.hex()), lambda: ray.get(ref),
                            cap=1)
        df = g.to_pandas()
        df = df[df["part"] >= 0]
        if df.empty:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "pmi": pa.array([], pa.float64())})
        agg = df.groupby("bigram", sort=False)["n"].sum()
        agg = agg[agg >= min_count]
        rows = []
        for gram, nab in agg.items():
            a, bw = gram.split(" ", 1)
            p_ab = nab / n_bi_total
            p_a = vocab[a] / n_uni_total
            p_b = vocab[bw] / n_uni_total
            rows.append((gram, int(nab), math.log(p_ab / (p_a * p_b))))
        rows.sort(key=lambda r: (-r[2], r[0]))
        rows = rows[:k]
        return pa.table({
            "bigram": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array(np.asarray([r[1] for r in rows], np.int64)),
            "pmi": pa.array(np.asarray([r[2] for r in rows]))})

    cand = pa.concat_tables(list(
        exchange(ds.map_batches(bi_partial, batch_format="pyarrow"),
                 blocks, bi_score, "pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")))
    pmi = cand["pmi"].to_numpy(zero_copy_only=False)
    grams = np.asarray(cand["bigram"].to_pylist(), dtype=object)
    order = np.lexsort((grams, -pmi))[:k]
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "bigram": pa.array(grams[order].tolist(), pa.string()),
        "n": pa.array(cand["n"].to_numpy(zero_copy_only=False)[order]),
        "pmi": pa.array(round6(pmi[order]))}))


def naive_bayes_train(ds, text_col: str = "text", label_col: str = "lang",
                      num_parts: int | None = None) -> dict:
    """Multinomial Naive Bayes trainer (add-one smoothing) → a plain
    model dict the predictor broadcasts. Distributed shape: ONE pass of
    per-batch (label, term, count) Counter partials hash-partitioned by
    term — the label×vocab count table (not the corpus) is all that
    reaches the driver. Log-probabilities are quantized to the 1e-4
    integer grid at TRAIN time (same trick as ``unigram_lm_surprisal``)
    so prediction sums are associative and SQL-mirrorable."""
    from collections import Counter
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        cnt: Counter = Counter()         # (label, term) -> tf
        docs: Counter = Counter()        # label -> n_docs
        for lab, t in zip(b[label_col].to_pylist(), b[text_col].to_pylist()):
            docs[lab] += 1
            for w in simple_tokenize(t or ""):
                cnt[(lab, w)] += 1
        keys = list(cnt.keys())
        # doc-count rows ride the same exchange as term "" (no real
        # term is empty after tokenization)
        return pa.table({
            "part": pa.array(np.concatenate(
                [part_of([t for _, t in keys], parts),
                 np.full(len(docs), -1, np.int32)])),
            "label": pa.array([k[0] for k in keys] + list(docs),
                              pa.string()),
            "term": pa.array([k[1] for k in keys] + [""] * len(docs),
                             pa.string()),
            "c": pa.array(np.concatenate(
                [np.fromiter(cnt.values(), np.int64, count=len(cnt)),
                 np.fromiter(docs.values(), np.int64, count=len(docs))]))})

    def sum_part(g: pa.Table):
        df = g.to_pandas()
        if df.empty:
            return pd.DataFrame({"label": pd.Series([], dtype=object),
                                 "term": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype=np.int64)})
        s = df.groupby(["label", "term"], sort=False)["c"].sum().reset_index()
        return s

    agg = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                   blocks, sum_part, "pyarrow").to_pandas()
    doc_rows = agg[agg["term"] == ""]
    tok_rows = agg[agg["term"] != ""]
    n_docs = {lab: int(c) for lab, c in
              zip(doc_rows["label"], doc_rows["c"])}
    n_train = sum(n_docs.values())
    labels = sorted(n_docs)
    n_tok = tok_rows.groupby("label")["c"].sum().to_dict()
    v_size = tok_rows["term"].nunique()

    def ilog(x: float) -> int:
        return int(np.floor(np.log(x) * 1e4 + 0.5))

    prior = {lab: ilog(n_docs[lab] / n_train) for lab in labels}
    # per (label, term) smoothed log-prob + per-label unseen fallback
    lp: dict = {}
    for lab, term, c in zip(tok_rows["label"], tok_rows["term"],
                            tok_rows["c"]):
        lp[(lab, term)] = ilog((int(c) + 1) / (int(n_tok[lab]) + v_size))
    unseen = {lab: ilog(1.0 / (int(n_tok.get(lab, 0)) + v_size))
              for lab in labels}
    return {"labels": labels, "prior": prior, "lp": lp, "unseen": unseen}


def naive_bayes_predict(ds, model: dict, text_col: str = "text",
                        id_col: str = "doc_id"):
    """→ Dataset (``id_col``, pred): argmax label under the trained NB
    model (ties → label asc); docs with no tokens are omitted. The
    model broadcasts once via ``ray.put`` and is read through the
    process cache — a stateless scoring map, the standard
    model-inference stage shape."""
    import ray

    from ..util import proc_cached
    ref = ray.put(model)

    def score(b: pa.Table) -> pa.Table:
        m = proc_cached(("nb_model", ref.hex()), lambda: ray.get(ref),
                        cap=1)
        labels, prior, lp, unseen = (m["labels"], m["prior"], m["lp"],
                                     m["unseen"])
        ids, preds = [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if not toks:
                continue
            best, best_s = None, None
            for lab in labels:
                s = prior[lab]
                u = unseen[lab]
                for w in toks:
                    s += lp.get((lab, w), u)
                if best_s is None or s > best_s:
                    best, best_s = lab, s
            ids.append(did)
            preds.append(best)
        return pa.table({id_col: pa.array(np.asarray(ids, np.int64)),
                         "pred": pa.array(preds, pa.string())})

    return ds.map_batches(score, batch_format="pyarrow")


def bigram_lm_perplexity(ds, text_col: str = "text",
                         id_col: str = "doc_id",
                         num_parts: int | None = None):
    """→ Dataset (``id_col``, n_bigrams, bits): CCNet-style LM quality
    scoring one order up from ``unigram_lm_surprisal`` — mean per-BIGRAM
    surprisal in bits under a corpus-fit Laplace-smoothed bigram LM,
    ``p(w2|w1) = (c(w1,w2)+1) / (c(w1,·)+V)`` (the doc's log2 bigram
    perplexity; the CCNet filter buckets on exactly this number).
    Per-bigram surprisal is quantized to the integer 1e-4-bit grid
    BEFORE summing (associative partial sums, oracle-exact despite libm
    vs numpy log2 ulp differences — same trick as the unigram op).

    Shape: ONE keyed exchange of (kind, key, count) partials — the
    bigram/unigram LM table, not the corpus, reaches the driver
    (context counts c(w1,·) and the vocabulary size V both derive from
    it driver-side), is quantized once, and ships via ``ray.put``
    through the process cache; scoring is a stateless map. At web
    scale cap the table to the top-B bigrams (everything else smooths
    to c=0); here the corpus-fit table IS the LM, matching the SQL
    oracle exactly. Docs with < 2 tokens are omitted."""
    from collections import Counter
    import ray

    from ..analysis.tokenizer import simple_tokenize
    from ..util import proc_cached

    # separator must be a SPACE, not "\x00": pandas' string hashtable
    # (the groupby in sum_part) treats object strings as C strings and
    # collapses keys at an embedded NUL; simple_tokenize terms are
    # [a-z0-9]+ so a space can never occur inside a token
    SEP = " "
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        bc: Counter = Counter()
        uni: Counter = Counter()
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            uni.update(toks)
            bc.update(f"{a}{SEP}{z}" for a, z in zip(toks, toks[1:]))
        keys = list(uni.keys()) + list(bc.keys())
        kinds = np.concatenate([np.zeros(len(uni), np.int8),
                                np.ones(len(bc), np.int8)])
        cnts = np.fromiter((*uni.values(), *bc.values()), np.int64,
                           count=len(keys))
        return pa.table({"part": pa.array(part_of(keys, parts)),
                         "kind": pa.array(kinds),
                         "key": pa.array(keys, pa.string()),
                         "c": pa.array(cnts)})

    def sum_part(g: pa.Table):
        import pandas as pd
        df = g.to_pandas()
        if df.empty:
            return pd.DataFrame({"kind": pd.Series([], dtype=np.int8),
                                 "key": pd.Series([], dtype=object),
                                 "c": pd.Series([], dtype=np.int64)})
        s = df.groupby(["kind", "key"], sort=False)["c"].sum().reset_index()
        return s

    lm = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                  blocks, sum_part, "pyarrow").to_pandas()
    v_size = int((lm["kind"] == 0).sum())          # |vocab|
    big = lm[lm["kind"] == 1]
    keys = big["key"].to_numpy()
    c12 = big["c"].to_numpy(np.int64)
    w1 = np.asarray([k.split(SEP, 1)[0] for k in keys], dtype=object)
    import pandas as pd
    c1 = pd.Series(c12).groupby(pd.Series(w1), sort=False).sum()
    c1_of = c1.reindex(w1).to_numpy(np.int64)      # context count per bigram
    q = np.floor(-np.log2((c12 + 1.0) / (c1_of + float(v_size)))
                 * 1e4 + 0.5).astype(np.int64)
    ref = ray.put(dict(zip(keys, q)))

    def score(b: pa.Table) -> pa.Table:
        lut = proc_cached(("bigram_lm", ref.hex()), lambda: ray.get(ref),
                          cap=1)
        ids, nbs, bits = [], [], []
        for did, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            toks = simple_tokenize(t or "")
            if len(toks) < 2:
                continue
            total = sum(lut[f"{a}{SEP}{z}"]
                        for a, z in zip(toks, toks[1:]))
            nb = len(toks) - 1
            ids.append(did)
            nbs.append(nb)
            bits.append(total / (nb * 1e4))
        return pa.table({id_col: pa.array(np.asarray(ids, np.int64)),
                         "n_bigrams": pa.array(np.asarray(nbs, np.int64)),
                         "bits": pa.array(round6(bits))})

    return ds.map_batches(score, batch_format="pyarrow")


def phrase_did_you_mean(ds, query: str, text_col: str = "text",
                        max_distance: int = 2, cand_k: int = 8,
                        num_parts: int | None = None) -> pa.Table:
    """Phrase-level did-you-mean for a 2-term query: per-term spelling
    candidates (vocab terms within ``max_distance`` edits, top
    ``cand_k`` by (distance, −df, term) — the ``spell_suggest`` rule)
    re-ranked by CORPUS BIGRAM plausibility: the winning suggestion
    maximizes (bigram count desc, total edit distance asc, c1 asc,
    c2 asc). → Arrow (query, suggestion, bigram_n, total_distance),
    one row — empty if either term has no candidate in range.

    Shape: candidate generation is the partitioned-vocab local-winner
    pattern (each hash partition emits its own within-distance matches,
    ≤ partition-vocab DP calls, merged driver-side and cut to cand_k);
    the bigram pass pre-aggregates per batch and only the ≤ cand_k²
    candidate pairs survive the map, so the driver fold sees a few
    rows per block. Two corpus passes total, no all-to-all exchange."""
    from collections import Counter

    from ..analysis.tokenizer import simple_tokenize

    qtoks = simple_tokenize(query or "")
    if len(qtoks) != 2:
        raise ValueError("phrase_did_you_mean is defined for 2-term "
                         f"queries, got {len(qtoks)} terms")
    q1, q2 = qtoks
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        df: dict[str, int] = {}
        for t in b[text_col].to_pylist():
            for w in set(simple_tokenize(t or "")):
                df[w] = df.get(w, 0) + 1
        terms = list(df.keys())
        return pa.table({"part": pa.array(np.append(part_of(terms, parts),
                                                    -1)),
                         "term": pa.array(terms + [""], pa.string()),
                         "df": pa.array(np.concatenate([
                             np.fromiter(df.values(), np.int64,
                                         count=len(df)),
                             np.array([0], dtype=np.int64)]))})

    def local_cands(vdf: pd.DataFrame):
        vdf = vdf[vdf["part"] >= 0]
        cols = {"query_term": pd.Series([], dtype=object),
                "cand": pd.Series([], dtype=object),
                "dist": pd.Series([], dtype=np.int64),
                "df": pd.Series([], dtype=np.int64)}
        if vdf.empty:
            return pd.DataFrame(cols)
        s = vdf.groupby("term", sort=True)["df"].sum()
        rows = []
        for q in (q1, q2):
            for v, dfv in zip(s.index, s.to_numpy(np.int64)):
                if abs(len(v) - len(q)) > max_distance:
                    continue
                d = _levenshtein(q, v)
                if d <= max_distance:
                    rows.append((q, v, d, int(dfv)))
        if not rows:
            return pd.DataFrame(cols)
        return pd.DataFrame(rows, columns=["query_term", "cand",
                                           "dist", "df"])

    ct = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                  blocks, local_cands, "pandas").to_pandas()
    cands: dict[str, list[str]] = {}
    for q in (q1, q2):
        sub = ct[ct["query_term"] == q] \
            .sort_values(["dist", "df", "cand"],
                         ascending=[True, False, True], kind="mergesort")
        cands[q] = list(sub["cand"].head(cand_k))
    if not cands[q1] or not cands[q2]:
        return pa.table({"query": pa.array([], pa.string()),
                         "suggestion": pa.array([], pa.string()),
                         "bigram_n": pa.array([], pa.int64()),
                         "total_distance": pa.array([], pa.int64())})
    c1set, c2set = set(cands[q1]), set(cands[q2])

    def big_partial(b: pa.Table) -> pa.Table:
        c = Counter()
        for t in b[text_col].to_pylist():
            toks = simple_tokenize(t or "")
            for a, bb in zip(toks, toks[1:]):
                if a in c1set and bb in c2set:
                    c[(a, bb)] += 1
        ks = list(c.keys())
        return pa.table({
            "c1": pa.array([p[0] for p in ks], pa.string()),
            "c2": pa.array([p[1] for p in ks], pa.string()),
            "n": pa.array(np.fromiter(c.values(), np.int64, count=len(c)))})

    big: dict[tuple, int] = {}
    for b in ds.map_batches(big_partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        for a, bb, n in zip(b["c1"].to_pylist(), b["c2"].to_pylist(),
                            b["n"].to_pylist()):
            big[(a, bb)] = big.get((a, bb), 0) + n

    d1 = {r["cand"]: r["dist"] for _, r in
          ct[ct["query_term"] == q1].iterrows()}
    d2 = {r["cand"]: r["dist"] for _, r in
          ct[ct["query_term"] == q2].iterrows()}
    best = min(((c1, c2) for c1 in cands[q1] for c2 in cands[q2]),
               key=lambda p: (-big.get(p, 0), d1[p[0]] + d2[p[1]],
                              p[0], p[1]))
    return pa.table({
        "query": pa.array([f"{q1} {q2}"], pa.string()),
        "suggestion": pa.array([f"{best[0]} {best[1]}"], pa.string()),
        "bigram_n": pa.array([big.get(best, 0)], pa.int64()),
        "total_distance": pa.array([d1[best[0]] + d2[best[1]]],
                                   pa.int64()),
    })


def group_significant_terms(ds, group_col: str = "lang",
                            text_col: str = "text", k: int = 5,
                            min_fg_df: int = 3,
                            num_parts: int | None = None) -> pa.Table:
    """Per-GROUP significant terms (the facet-level sibling of the
    result-set ``significant_terms`` entry): for each group value,
    the terms overrepresented in that group's docs vs the corpus,
    JLH-scored — ``(fg% − bg%)·(fg%/bg%)`` with fg% = group df /
    group size, bg% = corpus df / corpus size, min ``min_fg_df``,
    positively significant only. → Arrow (group, term, fg_df, bg_df,
    score) top-k per group by raw desc, term asc.

    Shape: per-batch doc-distinct (group, term) Counter partials keyed
    by a term-hash partition, so a term's rows across ALL groups
    co-locate — the corpus df is a local sum inside the partition, and
    each partition emits only its own per-group top-k (≤ parts ×
    groups × k rows reach the driver). Group sizes are a tiny separate
    aggregate, broadcast into the partition closure."""
    from collections import Counter

    import ray.data as rd
    from ray.data.aggregate import Count

    from ..analysis.tokenizer import simple_tokenize

    sz = ds.groupby(group_col).aggregate(Count(alias_name="n")).take_all()
    n_g = {r[group_col]: float(r["n"]) for r in sz}
    n_total = float(sum(r["n"] for r in sz))
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        c = Counter()
        for g, t in zip(b[group_col].to_pylist(), b[text_col].to_pylist()):
            for w in set(simple_tokenize(t or "")):
                c[(g, w)] += 1
        ks = list(c.keys())
        return pa.table({
            "part": pa.array(np.append(part_of([t for _, t in ks], parts),
                                       -1)),
            group_col: pa.array([g for g, _ in ks] + [""], pa.string()),
            "term": pa.array([t for _, t in ks] + [""], pa.string()),
            "n": pa.array(np.concatenate([
                np.fromiter(c.values(), np.int64, count=len(c)),
                np.array([0], dtype=np.int64)]))})

    def local_top(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["part"] >= 0]
        cols = {group_col: pd.Series([], dtype=object),
                "term": pd.Series([], dtype=object),
                "fg_df": pd.Series([], dtype=np.int64),
                "bg_df": pd.Series([], dtype=np.int64),
                "raw": pd.Series([], dtype=np.float64)}
        if g.empty:
            return pd.DataFrame(cols)
        fg = g.groupby([group_col, "term"], sort=False)["n"].sum() \
            .reset_index().rename(columns={"n": "fg_df"})
        bg = fg.groupby("term", sort=False)["fg_df"].sum() \
            .rename("bg_df").reset_index()
        m = fg.merge(bg, on="term")
        m = m[m["fg_df"] >= min_fg_df]
        if m.empty:
            return pd.DataFrame(cols)
        gs = m[group_col].map(n_g).to_numpy(np.float64)
        fgp = m["fg_df"].to_numpy(np.float64) / gs
        bgp = m["bg_df"].to_numpy(np.float64) / n_total
        raw = (fgp - bgp) * (fgp / bgp)
        m = m.assign(raw=raw)[fgp > bgp]
        out = m.sort_values(["raw", "term"], ascending=[False, True],
                            kind="mergesort").groupby(group_col,
                                                      sort=False).head(k)
        return out[[group_col, "term", "fg_df", "bg_df", "raw"]]

    rows = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, local_top, "pandas").to_pandas()
    out = rows.sort_values(["raw", "term"], ascending=[False, True],
                           kind="mergesort").groupby(group_col,
                                                     sort=False).head(k)
    out = out.sort_values([group_col, "raw", "term"],
                          ascending=[True, False, True],
                          kind="mergesort", ignore_index=True)
    return pa.table({
        group_col: pa.array(out[group_col], pa.string()),
        "term": pa.array(out["term"], pa.string()),
        "fg_df": pa.array(out["fg_df"].to_numpy(np.int64)),
        "bg_df": pa.array(out["bg_df"].to_numpy(np.int64)),
        "score": pa.array(round6(out["raw"].to_numpy(np.float64))),
    })


def vocab_stats(ds, text_col: str = "text",
                num_parts: int | None = None) -> "pa.Table":
    """Corpus vocabulary statistics — the Zipf/Heaps profile a corpus
    audit reads before training: → one-row Arrow (n_tokens, n_types,
    n_hapax, max_tf). ``n_hapax`` (terms occurring once) is the classic
    OCR-garbage / tail-noise signal; ``max_tf`` bounds the head.

    100-TB shape: per-block Counter fold (exchange carries one row per
    distinct term per block), one term-keyed hash-partition exchange
    with vectorized per-part merges, per-part scalar partials (types /
    hapax / tokens / max are all distributive over disjoint term
    partitions), and a ≤ parts-row driver sum. Tokenization is the
    shared ``simple_tokenize`` contract."""
    from collections import Counter
    parts, blocks = plan(estimate_rows(ds), _VOCAB_DOCS_PER_PART, num_parts)

    def partial(b: pa.Table) -> pa.Table:
        c = Counter()
        for t in b[text_col].to_pylist():
            c.update(simple_tokenize(t or ""))
        terms = list(c.keys())
        # the per-part scalar fold is exact because every worker routes
        # a term to the same part; the sentinel keeps the schema alive
        return pa.table({
            "part": pa.array(np.append(part_of(terms, parts), -1)),
            "term": pa.array(terms + [""], pa.string()),
            "cnt": pa.array(np.concatenate([
                np.fromiter(c.values(), dtype=np.int64, count=len(c)),
                np.array([0], dtype=np.int64)]))})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["part"] >= 0]
        if not len(g):
            return pd.DataFrame({"n_tokens": pd.Series([], dtype=np.int64),
                                 "n_types": pd.Series([], dtype=np.int64),
                                 "n_hapax": pd.Series([], dtype=np.int64),
                                 "max_tf": pd.Series([], dtype=np.int64)})
        tot = g.groupby("term", sort=False)["cnt"].sum()
        v = tot.to_numpy()
        return pd.DataFrame({
            "n_tokens": np.array([v.sum()], dtype=np.int64),
            "n_types": np.array([v.size], dtype=np.int64),
            "n_hapax": np.array([int((v == 1).sum())], dtype=np.int64),
            "max_tf": np.array([v.max()], dtype=np.int64)})

    rows = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    blocks, per_part, "pandas").take_all()
    n_tokens = sum(int(r["n_tokens"]) for r in rows)
    n_types = sum(int(r["n_types"]) for r in rows)
    n_hapax = sum(int(r["n_hapax"]) for r in rows)
    max_tf = max((int(r["max_tf"]) for r in rows), default=0)
    return pa.table({
        "n_tokens": pa.array([n_tokens], pa.int64()),
        "n_types": pa.array([n_types], pa.int64()),
        "n_hapax": pa.array([n_hapax], pa.int64()),
        "max_tf": pa.array([max_tf], pa.int64())})
