"""Federated multi-segment search — Lucene ``MultiReader`` semantics:
serve one query over N independently-built index segments WITHOUT a
physical merge. Corpus statistics are GLOBAL (N = Σ n_docs; per-term
df/ctf and per-field sum_len/doc_count are sums over segments —
Lucene's ``TermStates``/``CollectionStatistics`` aggregation), while
postings, doclens and external ids stay segment-local, so every
document scores exactly as it would against the merged index
(``merge_indexes``) and the global top-k is the ordered union of the
per-segment top-k lists.

Scale design: segments are the natural cluster unit (one crawl shard /
time slice per segment). The stats pre-pass reads run-level postings
METADATA only (each segment's lexicon — no blob read), each segment then
evaluates independently (the per-segment work ships to where the
segment lives; here it runs driver-side like ``QueryEngine``), and the
merge is k·N rows — no shuffle anywhere.

Structured queries (r5 — the reference's SDM workload,
``Indri-Sdm.teIn``, ``QryIopNear.java``) run the salt-grain two-phase
pattern of ``distributed._derive_lists`` at SEGMENT grain: phase A
evaluates every positional/derived subtree (#NEAR/#WINDOW/#SYN/...)
once per segment — segments partition docids, so the derived list's
GLOBAL df/ctf (what the reference scores with,
``QryIop.java:139-151``) is the sum of the per-segment derived
df/ctf — and phase B scores each segment with those sums patched onto
the locally-derived lists (``QueryEngine.iop_stats_override``; the
derived InvLists phase A evaluates per segment are handed to phase B of
the same search, so each subtree evaluates once, and are dropped when
the search returns). Wildcard / fuzzy / regexp markers rewrite over the
UNION vocabulary (``_UnionVocab`` — Lucene MultiReader rewrite semantics:
same ordering, same ``max_terms`` budget as the merged dictionary),
then every segment evaluates the identical expanded plan
(``QueryEngine.search_plan``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.reader import IndexReader, Posting
from .eval import InvList, QueryEngine, eval_iop_tree, expand_wildcards
from .kernels import bm25_idf, bm25_tfw
from .models import BM25Model, IndriModel, RetrievalModel
from .parser import QueryParser, split_negations
from .plan import IopNode, PlanNode, ScoreNode, SopNode, TermNode
from .trec import empty_results


class _GlobalStatsView:
    """Segment reader proxy: segment-local postings/doclens/ids, GLOBAL
    corpus statistics. ``postings_many`` patches each Posting's df/ctf
    with the cross-segment sums and synthesizes an EMPTY posting (with
    global df/ctf) for terms this segment lacks — Indri's default score
    needs the global ctf even where tf == 0 everywhere locally."""

    def __init__(self, seg: IndexReader, n_docs: int, field_stats: dict,
                 df_ctf: dict):
        self._seg = seg
        self._n_docs = n_docs
        self._field_stats = field_stats      # field -> (doc_count, sum_len)
        self._df_ctf = df_ctf                # (term, field) -> (df, ctf)

    def __getattr__(self, name):
        return getattr(self._seg, name)

    @property
    def n_docs(self) -> int:
        return self._n_docs

    @property
    def fields(self) -> list[str]:
        return list(self._field_stats)

    def doc_count(self, field: str) -> int:
        return self._field_stats[field][0]

    def sum_field_lengths(self, field: str) -> int:
        return self._field_stats[field][1]

    def avg_len(self, field: str) -> float:
        dc, sl = self._field_stats[field]
        return sl / dc if dc else 0.0

    def postings_many(self, terms, field, positions: bool = True):
        got = self._seg.postings_many(terms, field, positions=positions)
        out = {}
        for t in terms:
            g = self._df_ctf.get((t, field))
            p = got.get(t)
            if p is not None:
                # terms outside the pre-pass (e.g. a MUST_NOT clause,
                # where only docids matter) keep their local stats
                out[t] = replace(p, df=g[0], ctf=g[1]) if g else p
            elif g and g[0] > 0:
                out[t] = Posting(
                    term=t, field=field, df=g[0], ctf=g[1],
                    docids=np.empty(0, np.int64),
                    tfs=np.empty(0, np.int32),
                    positions=np.empty(0, np.int32) if positions else None)
        return out


class _UnionVocab:
    """Vocabulary facade over all segments for the wildcard / fuzzy /
    regexp rewrites — Lucene MultiReader rewrite semantics: expansion
    runs over the UNION term dictionary with the same per-method
    ordering and the same ``max_terms`` budget as a single reader, so
    the federated rewrite selects exactly the terms the merged index
    would. (Cutting the union of per-segment top-``max_terms`` lists
    to ``max_terms`` is exact: any term among the union's first
    ``max_terms`` under the method's order has fewer than ``max_terms``
    union terms — hence fewer segment-local terms — ahead of it, so it
    is inside its own segment's capped list.)"""

    def __init__(self, readers: list[IndexReader]):
        self._readers = readers

    def _merged(self, lists, max_terms: int) -> list[str]:
        return sorted(set().union(*map(set, lists)))[:max_terms]

    def terms_with_prefix(self, prefix, field, max_terms: int = 64):
        return self._merged([r.terms_with_prefix(prefix, field, max_terms)
                             for r in self._readers], max_terms)

    def terms_with_substring(self, sub, field, max_terms: int = 64):
        return self._merged([r.terms_with_substring(sub, field, max_terms)
                             for r in self._readers], max_terms)

    def terms_with_suffix(self, suffix, field, max_terms: int = 64):
        return self._merged([r.terms_with_suffix(suffix, field, max_terms)
                             for r in self._readers], max_terms)

    def terms_matching_regex(self, pattern, field, max_terms: int = 64):
        return self._merged([r.terms_matching_regex(pattern, field,
                                                    max_terms)
                             for r in self._readers], max_terms)

    def terms_within_distance(self, term, field, max_distance: int = 2,
                              max_terms: int = 64):
        # per-segment order is (distance asc, term asc): re-rank the
        # union under the same key with the same DP the readers use
        from ..functions.text import _levenshtein
        cand = set().union(*(set(r.terms_within_distance(
            term, field, max_distance=max_distance, max_terms=max_terms))
            for r in self._readers))
        ranked = sorted((_levenshtein(term, t), t) for t in cand)
        return [t for _, t in ranked[:max_terms]]


def _collect_plain_terms(node: PlanNode, acc: dict, iops: dict,
                         under_iop: bool = False):
    """Walk the (already wildcard-expanded) plan: every TermNode's term
    lands in ``acc[field]`` (Iop ARGUMENT terms included — their
    postings drive presence routing, and global df/ctf are harmless to
    them since derived evaluation reads positions only), and every
    maximal Iop subtree lands in ``iops[(field, repr)]`` for the
    two-phase derived-stats pass."""
    if isinstance(node, TermNode):
        acc.setdefault(node.field, set()).add(node.term)
    elif isinstance(node, IopNode):
        if not under_iop:
            iops[(node.field_name, repr(node))] = node
        for a in node.args:
            _collect_plain_terms(a, acc, iops, under_iop=True)
    elif isinstance(node, ScoreNode):
        _collect_plain_terms(node.child, acc, iops, under_iop=under_iop)
    elif isinstance(node, SopNode):
        for a in node.args:
            _collect_plain_terms(a, acc, iops, under_iop=under_iop)


class FederatedEngine:
    """One-query-many-segments evaluator. ``readers`` are the
    independently-built segments (external ids must be globally unique
    — the build plane's url identity)."""

    def __init__(self, readers: list[IndexReader], model: RetrievalModel,
                 parser: QueryParser | None = None):
        if not readers:
            raise ValueError("need at least one segment")
        self.readers = readers
        self.model = model
        if parser is None:
            from ..analysis.tokenizer import analyzer_for_mode
            parser = QueryParser(analyzer_for_mode(
                readers[0].stats.get("analyzer", "lucene")))
        self.parser = parser
        self.n_docs = sum(r.n_docs for r in readers)
        self.field_stats: dict = {}
        for r in readers:
            for f in r.fields:
                dc, sl = self.field_stats.get(f, (0, 0))
                self.field_stats[f] = (dc + r.doc_count(f),
                                       sl + r.sum_field_lengths(f))
        # persistent per-segment engines: global df/ctf are index (not
        # query) properties, so each engine's posting cache stays valid
        # across queries; _df_ctf holds the current search's term stats
        # (segment lexicon lookups), shared with every segment's view
        self._df_ctf: dict = {}
        # derived-Iop GLOBAL stats — (field, repr) -> (Σdf, Σctf) over
        # segments; SHARED as every engine's iop_stats_override so a
        # phase-A sum becomes visible to all segments at once (an index
        # property: grows, never invalidates)
        self._iop_global: dict = {}
        self._vocab = _UnionVocab(readers)
        self.last_skipped = 0            # routing introspection
        self.last_early_stopped = 0      # UB-termination introspection
        self._engines = []
        for r in readers:
            view = _GlobalStatsView(r, self.n_docs, self.field_stats,
                                    self._df_ctf)
            eng = QueryEngine(view, self.model, self.parser)
            eng.iop_stats_override = self._iop_global
            self._engines.append(eng)

    def _global_df_ctf(self, acc: dict) -> tuple[dict, dict]:
        """→ (global (term, field) → (df, ctf) sums, (term, field) →
        set of segment indexes holding the term) — one lexicon lookup
        per (segment, field), no blob read."""
        out: dict = {}
        presence: dict = {}
        for field, terms in acc.items():
            for i, r in enumerate(self.readers):
                runs = r.runs(terms, [field])
                for t, df, ctf in zip(runs.term.tolist(), runs.df.tolist(),
                                      runs.ctf.tolist()):
                    d, c = out.get((t, field), (0, 0))
                    out[(t, field)] = (d + df, c + ctf)
                    presence.setdefault((t, field), set()).add(i)
        return out, presence

    def _term_multiplicity(self, node: PlanNode, acc: dict) -> None:
        if isinstance(node, TermNode):
            acc[(node.term, node.field)] = acc.get(
                (node.term, node.field), 0) + 1
        elif isinstance(node, ScoreNode):
            self._term_multiplicity(node.child, acc)
        elif isinstance(node, (SopNode, IopNode)):
            for a in node.args:
                self._term_multiplicity(a, acc)

    def search(self, query: str, k: int = 100,
               early_stop: bool = False) -> pa.Table:
        """→ Arrow (external_id, score, rank) in reference order (score
        desc, externalId asc): exactly the merged index's ranking —
        each segment scores with global stats, cuts its own exact
        top-k, and the driver merges N·k rows. ``-term`` MUST_NOT
        clauses apply per segment (docid filters need no global
        stats); routing collects only the positive terms. Derived
        lists phase A hands to phase B live only for this call."""
        try:
            return self._search(query, k, early_stop)
        finally:
            for eng in self._engines:
                eng._iop_inv_cache.clear()

    def _search(self, query: str, k: int, early_stop: bool) -> pa.Table:
        positive, negs = split_negations(query)
        plan = self.parser.parse(positive, self.model.default_op) \
            if positive.strip() else None
        if plan is None:
            return empty_results()
        # wildcard/fuzzy/regexp rewrite ONCE over the union vocabulary
        # (MultiReader semantics) — segments then evaluate the identical
        # expanded plan via search_plan, never re-expanding locally
        plan = expand_wildcards(plan, self._vocab)
        acc: dict = {}
        iops: dict = {}
        _collect_plain_terms(plan, acc, iops)
        stats, presence = self._global_df_ctf(acc)
        self._df_ctf.clear()
        self._df_ctf.update(stats)
        # ---- phase A (structured plans): derive every Iop subtree per
        # segment and sum (df, ctf) across segments — segments
        # partition docids, so the sums ARE the merged index's derived
        # stats (QryIop.getDf/getCtf). Each per-segment derived InvList
        # goes into its engine's _iop_inv_cache, so phase B re-uses the
        # evaluation instead of re-running the kernels; search() empties
        # the caches when it returns. Only segments holding at least one
        # argument term can derive a non-empty list; the rest contribute
        # (0, 0) without a fetch.
        for ikey, node in iops.items():
            if ikey in self._iop_global:
                continue
            args: dict = {}
            _collect_plain_terms(node, args, {}, under_iop=True)
            arg_keys = [(t, f) for f, ts in args.items() for t in ts]
            gdf = gctf = 0
            for i, eng in enumerate(self._engines):
                if not any(i in presence.get(kk, ()) for kk in arg_keys):
                    # no argument postings here: derived list is empty
                    # by construction — pin the cache without a fetch
                    eng._iop_inv_cache[ikey] = InvList.empty(ikey[0])
                    continue
                inv = eval_iop_tree(node, eng._fetch(node))
                eng._iop_inv_cache[ikey] = inv
                gdf += int(inv.df)
                gctf += int(inv.ctf)
            self._iop_global[ikey] = (gdf, gctf)
        # ---- segment routing (shard selection): a segment with ZERO
        # local postings for every query term cannot contribute a
        # candidate under BM25/boolean (candidates ⊆ posting unions) —
        # skip it without shipping the query. EXACT, not Taily-style
        # approximate. Indri never skips: its default (tf=0) score makes
        # every segment's docs rankable.
        keys = [(t, f) for f, ts in acc.items() for t in ts]
        live = list(range(len(self._engines)))
        if not isinstance(self.model, IndriModel):
            live = [i for i in live
                    if any(i in presence.get(key, ()) for key in keys)]
        self.last_skipped = len(self._engines) - len(live)
        self.last_early_stopped = 0
        # UB early termination needs block-max (max_tf) metadata, which
        # derived lists don't have — structured plans take the full
        # best-bound-free scan (still exact, still routed)
        if early_stop and live and not iops \
                and isinstance(self.model, BM25Model):
            # ---- UB early termination across segments (tiered shard
            # retrieval): per segment, score ≤ Σ_t mult·idf_t(global) ·
            # max_tf/(max_tf + k1·(1−b)) — tfw is increasing in tf and
            # decreasing in doclen, so max_tf (block-max metadata) with
            # the minimum length prior B = 1−b bounds every doc. Search
            # segments best-bound-first; once k results are in hand,
            # a remaining segment with UB strictly below the current
            # kth score cannot place a doc (equal scores could still
            # win the externalId tie, hence STRICT <). Exact by
            # construction — verified against the unstopped path.
            mult: dict = {}
            self._term_multiplicity(plan, mult)
            k1, b = self.model.k1, self.model.b
            N = float(self.n_docs)
            ub = {}
            for i in live:
                tot = 0.0
                for (t, f), m in mult.items():
                    # the segment's block-max metadata, from its lexicon
                    mt = self.readers[i].runs([t], [f]).max_tf.max(initial=0)
                    if mt <= 0:
                        continue
                    df = self._df_ctf.get((t, f), (0, 0))[0]
                    # dl = 0: the smallest length prior, B = 1 − b
                    tot += m * bm25_idf(N, df) * bm25_tfw(mt, 0.0, k1, b,
                                                          1.0)
                ub[i] = tot
            order_live = sorted(live, key=lambda i: (-ub[i], i))
            parts = []
            kth = None
            for pos, i in enumerate(order_live):
                if kth is not None and ub[i] < kth:
                    self.last_early_stopped = len(order_live) - pos
                    break
                parts.append(self._engines[i].search_plan(
                    plan, k=k, neg_tokens=negs))
                if sum(p.num_rows for p in parts) >= k:
                    kth = _merge_ranked(parts, k)["score"][k - 1].as_py()
        else:
            parts = [self._engines[i].search_plan(plan, k=k,
                                                  neg_tokens=negs)
                     for i in live]
        return _merge_ranked(parts, k)


def _merge_ranked(parts: list[pa.Table], k: int) -> pa.Table:
    """Global top-k of per-segment (external_id, score, rank) tables in
    reference order (score desc, externalId asc), re-ranked."""
    if not parts:
        return empty_results()
    merged = pa.concat_tables(parts)
    top = merged.take(pc.sort_indices(merged, sort_keys=[
        ("score", "descending"), ("external_id", "ascending")])[:k])
    return top.set_column(2, "rank", pa.array(
        np.arange(1, top.num_rows + 1, dtype=np.int32)))
