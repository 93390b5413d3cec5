"""Columnar query evaluator over the Parquet index.

The reference evaluates queries document-at-a-time through iterator
protocols (``/root/reference/QryEval/Qry.java:248-348``,
``QryEval.java:421-445``). Here scoring is term-at-a-time and columnar:
each leaf yields (docids, scores) numpy vectors, combinators align them
with sorted-merge/searchsorted, and Indri's absent-arg default scores
(``QrySopAnd.java:86-107``) become vectorized default-score closures.
Mathematically identical per SURVEY.md §2.4 invariants; the §7.0 design
note explains why this replaces DAAT.

Positional operators (#NEAR/n `QryIopNear.java:80-128`, #WINDOW/n
`QryIopWindow.java:106-143`, #SYN `QryIopSyn.java:17-71`) materialize
derived inverted lists first — their *derived* df/ctf feed the scorers,
exactly as ``QryIop.evaluate`` materializes before scoring
(``QryIop.java:174-190``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.reader import IndexReader, Posting
from .kernels import bm25, bm25_idf, bm25_tfw, dirichlet, tfidf
from .models import (
    BM25Model, IndriModel, RankedBooleanModel, RetrievalModel,
    TFIDFModel, UnrankedBooleanModel,
)
from .parser import QueryParser
from .plan import IopNode, PlanNode, ScoreNode, SopNode, TermNode, is_iop
from .trec import drop_deleted, empty_results, rank_results_candidates


@dataclass
class InvList:
    """Evaluated inverted list (reference ``InvList``): docid-ascending,
    with per-doc position segments (bounds = cumsum(tfs))."""
    docids: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray
    df: int
    ctf: int
    field: str

    @classmethod
    def empty(cls, field: str) -> "InvList":
        return cls(np.empty(0, np.int64), np.empty(0, np.int32),
                   np.empty(0, np.int32), 0, 0, field)

    @classmethod
    def from_posting(cls, p: Posting) -> "InvList":
        pos = p.positions if p.positions is not None else np.empty(0, np.int32)
        return cls(p.docids, p.tfs, pos, p.df, p.ctf, p.field)

    def pos_bounds(self) -> np.ndarray:
        b = np.empty(self.tfs.size + 1, dtype=np.int64)
        b[0] = 0
        np.cumsum(self.tfs, out=b[1:])
        return b


class _Scored:
    """(matching docids asc, scores) + a default-score closure for the
    Indri absent-arg case."""

    def __init__(self, docids: np.ndarray, scores: np.ndarray, default_fn=None):
        self.docids = docids
        self.scores = scores
        self._default_fn = default_fn

    def default(self, docids: np.ndarray) -> np.ndarray:
        if self._default_fn is None:
            return np.zeros(docids.size, dtype=np.float64)
        return self._default_fn(docids)

    def scores_for(self, docids: np.ndarray, model) -> np.ndarray:
        """Scores aligned to ``docids``; non-matching docs get the
        default score (Indri) or 0."""
        idx = np.searchsorted(self.docids, docids)
        idx_c = np.clip(idx, 0, max(self.docids.size - 1, 0))
        hit = (self.docids.size > 0) & (self.docids[idx_c] == docids) if self.docids.size \
            else np.zeros(docids.size, dtype=bool)
        if isinstance(model, IndriModel):
            out = self.default(docids)
        else:
            out = np.zeros(docids.size, dtype=np.float64)
        if self.docids.size:
            out[hit] = self.scores[idx_c[hit]]
        return out


# ---------------------------------------------------------------- Iop plane

def _syn(args: list[InvList], field: str) -> InvList:
    """#SYN: docid union; positions = sorted concat (QryIopSyn.java:17-71)."""
    doc_rep = np.concatenate([np.repeat(a.docids, a.tfs) for a in args])
    pos_all = np.concatenate([a.positions for a in args])
    order = np.lexsort((pos_all, doc_rep))
    doc_s, pos_s = doc_rep[order], pos_all[order]
    if doc_s.size == 0:
        return InvList.empty(field)
    new = np.empty(doc_s.size, dtype=bool)
    new[0] = True
    new[1:] = doc_s[1:] != doc_s[:-1]
    starts = np.flatnonzero(new)
    tfs = np.diff(np.append(starts, doc_s.size)).astype(np.int32)
    return InvList(doc_s[starts], tfs, pos_s.astype(np.int32),
                   int(starts.size), int(doc_s.size), field)


def _first(a: InvList, field: str, n: int) -> InvList:
    """#FIRST/n (Lucene SpanFirstQuery with end = n): keep occurrences
    among the first ``n`` token positions of the field — span end
    p+1 <= n for 0-based position p, i.e. ``pos < n``. A derived Iop
    like #NEAR: df/ctf recomputed from the survivors. Vectorized:
    one boolean mask + one run-length regroup, no per-doc loop."""
    keep = a.positions < n
    if not keep.any():
        return InvList.empty(field)
    doc_rep = np.repeat(a.docids, a.tfs)[keep]
    pos = a.positions[keep]
    new = np.empty(doc_rep.size, dtype=bool)
    new[0] = True
    new[1:] = doc_rep[1:] != doc_rep[:-1]
    starts = np.flatnonzero(new)
    tfs = np.diff(np.append(starts, doc_rep.size)).astype(np.int32)
    return InvList(doc_rep[starts], tfs, pos.astype(np.int32),
                   int(starts.size), int(doc_rep.size), field)


def _near_positions(lists: list, n: int) -> list[int]:
    """Left→right pairwise two-pointer match (QryIopNear.java:80-128):
    keep right position r when an unconsumed left l satisfies
    l <= r <= l + n; matched pairs are consumed. Plain-list kernel."""
    cur = list(lists[0])
    for right in lists[1:]:
        out = []
        i = j = 0
        nl, nr = len(cur), len(right)
        while i < nl and j < nr:
            l, r = cur[i], right[j]
            if r < l:
                j += 1
            elif r - l <= n:
                out.append(r)
                i += 1
                j += 1
            else:
                i += 1
        cur = out
        if not cur:
            break
    return cur


def _window_positions(lists: list, n: int) -> list[int]:
    """#WINDOW/n scan (QryIopWindow.java:106-143): while all heads live,
    if max-min < n emit max and advance all, else advance the min."""
    heads = [0] * len(lists)
    out = []
    while all(h < len(li) for h, li in zip(heads, lists)):
        vals = [li[h] for h, li in zip(heads, lists)]
        mx, mn = max(vals), min(vals)
        if mx - mn < n:
            out.append(mx)
            heads = [h + 1 for h in heads]
        else:
            heads[vals.index(mn)] += 1
    return out


def _positional(args: list[InvList], field: str, n: int, kind: str) -> InvList:
    common = args[0].docids
    for a in args[1:]:
        common = common[np.isin(common, a.docids, assume_unique=True)]
    if common.size == 0:
        return InvList.empty(field)
    idxs = [np.searchsorted(a.docids, common) for a in args]
    bounds = [a.pos_bounds() for a in args]

    # fast path: docs where every arg has tf == 1 (the overwhelming case
    # in web text) reduce to scalar position chains — fully vectorized.
    tf_mat = np.stack([a.tfs[i] for a, i in zip(args, idxs)])
    simple = (tf_mat == 1).all(axis=0)
    docids_s = np.empty(0, np.int64)
    pos_s = np.empty(0, np.int64)
    if simple.any():
        P = np.stack([a.positions[b[i[simple]]].astype(np.int64)
                      for a, i, b in zip(args, idxs, bounds)])
        if kind == "near":
            d = np.diff(P, axis=0)
            ok = ((d >= 0) & (d <= n)).all(axis=0)
            last = P[-1]
        else:
            ok = (P.max(axis=0) - P.min(axis=0)) < n
            last = P.max(axis=0)
        docids_s = common[simple][ok]
        pos_s = last[ok]

    match_fn = _near_positions if kind == "near" else _window_positions
    docids_out, tfs_out, pos_out = [], [], []
    rest = np.flatnonzero(~simple)
    if rest.size:
        # plain-list slicing: per-doc numpy views cost ~30µs each in
        # allocation/boxing; python lists make the per-doc two-pointer
        # loops ~10× cheaper on short position lists
        plists = [a.positions.tolist() for a in args]
        blists = [b.tolist() for b in bounds]
        ilists = [i.tolist() for i in idxs]
        common_l = common.tolist()
        for k in rest.tolist():
            lists = []
            for pl, bl, il in zip(plists, blists, ilists):
                i = il[k]
                lists.append(pl[bl[i]:bl[i + 1]])
            matched = match_fn(lists, n)
            if matched:
                docids_out.append(common_l[k])
                tfs_out.append(len(matched))
                pos_out.extend(matched)

    # merge the two paths back into docid order
    docids_g = np.asarray(docids_out, dtype=np.int64)
    all_doc = np.concatenate([docids_s, docids_g])
    if all_doc.size == 0:
        return InvList.empty(field)
    all_tf = np.concatenate([np.ones(docids_s.size, np.int32),
                             np.asarray(tfs_out, dtype=np.int32)])
    order = np.argsort(all_doc, kind="stable")
    # gather variable-length position segments in docid order
    seg_pos = [pos_s.astype(np.int32)]
    seg_start_g = np.concatenate(([0], np.cumsum(tfs_out))).astype(np.int64)
    pos_g = np.asarray(pos_out, dtype=np.int32)
    starts = np.concatenate([np.arange(docids_s.size, dtype=np.int64),
                             docids_s.size + seg_start_g[:-1]]) \
        if docids_g.size else np.arange(docids_s.size, dtype=np.int64)
    all_pos = np.concatenate([pos_s.astype(np.int32), pos_g])
    lens = all_tf.astype(np.int64)
    new_starts = starts[order]
    new_lens = lens[order]
    total = int(new_lens.sum())
    out_start = np.concatenate(([0], np.cumsum(new_lens)[:-1]))
    idx_g = np.repeat(new_starts - out_start, new_lens) + np.arange(total)
    pos_final = all_pos[idx_g]
    tfs = all_tf[order]
    return InvList(all_doc[order], tfs, pos_final,
                   int(all_doc.size), int(tfs.sum()), field)


def eval_iop_tree(node, cache: dict) -> InvList:
    """Evaluate an Iop subtree bottom-up over a ``(term, field) →
    InvList`` cache (reference ``QryIop.evaluate`` materialization,
    ``QryIop.java:174-190``). Module-level so the distributed structured
    path can run the SAME kernels inside a per-salt ``map_groups`` —
    semantics are partition-agnostic because every positional operator
    is docid-local."""
    if isinstance(node, TermNode):
        inv = cache.get((node.term, node.field))
        return inv if inv is not None else InvList.empty(node.field)
    assert isinstance(node, IopNode)
    args = [eval_iop_tree(a, cache) for a in node.args]
    field = node.field_name
    if node.op == "syn":
        return _syn(args, field)
    if node.op == "first":
        return _first(args[0], field, node.dist)
    if any(a.df == 0 for a in args):
        return InvList.empty(field)
    return _positional(args, field, node.dist, node.op)


# ---------------------------------------------------------------- engine

class QueryEngine:
    """Driver-side evaluator: parse → fetch postings (bucket-pruned, one
    batched read per field) → evaluate → rank. One instance per index;
    reuse across queries (doclens/docmeta cached)."""

    def __init__(self, reader: IndexReader, model: RetrievalModel,
                 parser: QueryParser | None = None):
        self.reader = reader
        self.model = model
        if parser is None:
            from ..analysis.tokenizer import analyzer_for_mode
            parser = QueryParser(
                analyzer_for_mode(reader.stats.get("analyzer", "lucene")))
        self.parser = parser
        # per-engine posting-list cache: repeated query terms hit memory
        # instead of parquet (the reference leans on Lucene's mmap page
        # cache for the same effect). Keyed by (term, field, with_pos).
        self._post_cache: dict = {}
        # federated hooks (query/federated.py): derived-Iop stats
        # override — (field, repr(node)) → (df, ctf) — lets a
        # multi-segment caller patch a derived list's df/ctf with the
        # CROSS-SEGMENT sums (QryIop.getDf/getCtf over the merged
        # index) while evaluation stays segment-local (an index
        # property, valid across queries). The inv cache holds derived
        # lists the federated phase A put there for phase B of the SAME
        # search; FederatedEngine.search empties it before returning,
        # so it never outlives one call.
        self.iop_stats_override: dict = {}
        self._iop_inv_cache: dict = {}

    # ---- plan-wide postings fetch ----
    def _collect_terms(self, node: PlanNode, under_iop: bool, acc: dict):
        if isinstance(node, TermNode):
            acc.setdefault(node.field, {})[node.term] = (
                acc.get(node.field, {}).get(node.term, False) or under_iop)
        elif isinstance(node, IopNode):
            for a in node.args:
                self._collect_terms(a, True, acc)
        elif isinstance(node, ScoreNode):
            self._collect_terms(node.child, under_iop, acc)
        elif isinstance(node, SopNode):
            for a in node.args:
                self._collect_terms(a, under_iop, acc)

    def _fetch(self, root: PlanNode) -> dict:
        acc: dict = {}
        self._collect_terms(root, False, acc)
        cache: dict = {}
        for field, terms in acc.items():
            need_pos = any(terms.values())
            missing = [t for t in terms
                       if (t, field, need_pos) not in self._post_cache]
            if missing:
                got = self.reader.postings_many(missing, field,
                                                positions=need_pos)
                for t in missing:
                    p = got.get(t)
                    self._post_cache[(t, field, need_pos)] = (
                        InvList.from_posting(p) if p else InvList.empty(field))
            for t in terms:
                cache[(t, field)] = self._post_cache[(t, field, need_pos)]
        return cache

    # ---- per-search doclen lookup (candidate union, never dense) ----
    def _build_dlut(self, cache: dict) -> None:
        """Doclen LUT over the UNION of the query's posting docids — the
        superset of every docid any scorer or Indri default closure can
        be asked about (all combinator outputs are subsets of leaf
        unions). One pruned forward scan per search replaces the dense
        O(n_docs) ``reader.doclens(field)`` array (VERDICT r2 item 1)."""
        if not isinstance(self.model, (BM25Model, IndriModel, TFIDFModel)):
            self._dlut = None
            return
        known = set(self.reader.fields)
        fields = sorted({inv.field for inv in cache.values()
                         if inv.field in known})
        ids = _union([inv.docids for inv in cache.values()])
        self._dlut = (ids, self.reader.doclens_for(ids, fields))

    def _dl(self, field: str, docids: np.ndarray) -> np.ndarray:
        ids, lens = self._dlut
        pos = np.searchsorted(ids, docids)
        return lens[field][pos].astype(np.float64)

    # ---- Iop plane ----
    def _eval_iop(self, node, cache) -> InvList:
        if isinstance(node, IopNode):
            key = (node.field_name, repr(node))
            inv = self._iop_inv_cache.get(key)
            if inv is None:
                inv = eval_iop_tree(node, cache)
            g = self.iop_stats_override.get(key)
            if g is not None:
                # same clone-with-global-stats move _GlobalStatsView
                # makes for plain terms; an empty local list still
                # carries global stats (Indri's default score needs the
                # global ctf in a segment with zero local matches)
                inv = InvList(inv.docids, inv.tfs, inv.positions,
                              int(g[0]), int(g[1]), inv.field)
            return inv
        return eval_iop_tree(node, cache)

    # ---- Sop plane ----
    def _score_leaf(self, inv: InvList) -> _Scored:
        m = self.model
        r = self.reader
        if isinstance(m, UnrankedBooleanModel):
            return _Scored(inv.docids, np.ones(inv.docids.size))
        if isinstance(m, RankedBooleanModel):
            return _Scored(inv.docids, inv.tfs.astype(np.float64))
        tf = inv.tfs.astype(np.float64)
        if isinstance(m, BM25Model):
            return _Scored(inv.docids, bm25(
                bm25_idf(r.n_docs, inv.df), tf,
                self._dl(inv.field, inv.docids), m.k1, m.b,
                r.avg_len(inv.field)))
        if isinstance(m, IndriModel):
            mle = inv.ctf / max(r.sum_field_lengths(inv.field), 1)
            field = inv.field

            def score(docids, tf):
                return dirichlet(tf, self._dl(field, docids), mle, m.mu,
                                 m.lambda_)

            def default_fn(docids):
                return score(docids, 0.0)

            return _Scored(inv.docids, score(inv.docids, tf), default_fn)
        if isinstance(m, TFIDFModel):
            return _Scored(inv.docids, tfidf(r.n_docs, inv.df, tf,
                                             self._dl(inv.field, inv.docids)))
        raise TypeError(f"unsupported model {type(m).__name__}")

    def _eval_sop(self, node: PlanNode, cache) -> _Scored:
        m = self.model
        if is_iop(node):                      # bare Iop root after collapse
            node = ScoreNode(child=node)
        if isinstance(node, ScoreNode):
            return self._score_leaf(self._eval_iop(node.child, cache))
        assert isinstance(node, SopNode)
        args = [self._eval_sop(a, cache) for a in node.args]
        op = node.op
        boolean = isinstance(m, (UnrankedBooleanModel, RankedBooleanModel))
        indri = isinstance(m, IndriModel)
        bm25 = isinstance(m, (BM25Model, TFIDFModel))  # both are #SUM-of-
        # leaf-scores additive models; every SUM-shaped branch below holds

        if op == "and" and boolean:
            docids = args[0].docids
            for a in args[1:]:
                docids = docids[np.isin(docids, a.docids, assume_unique=True)]
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            s = args[0].scores_for(docids, m)
            for a in args[1:]:
                s = np.minimum(s, a.scores_for(docids, m))
            return _Scored(docids, s)

        if op == "and" and indri:
            docids = _union([a.docids for a in args])
            k = len(args)
            s = np.ones(docids.size, dtype=np.float64)
            for a in args:
                s *= a.scores_for(docids, m) ** (1.0 / k)

            def default_fn(d, args=args, k=k):
                out = np.ones(d.size, dtype=np.float64)
                for a in args:
                    out *= a.default(d) ** (1.0 / k)
                return out
            return _Scored(docids, s, default_fn)

        if op == "or":
            if not boolean:
                raise ValueError(
                    f"{type(m).__name__} doesn't support the OR operator")
            docids = _union([a.docids for a in args])
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            s = args[0].scores_for(docids, m)
            for a in args[1:]:
                s = np.maximum(s, a.scores_for(docids, m))
            return _Scored(docids, s)

        if op == "sum":
            if not bm25:
                raise ValueError(
                    f"{type(m).__name__} doesn't support the SUM operator")
            docids = _union([a.docids for a in args])
            s = np.zeros(docids.size, dtype=np.float64)
            for a in args:
                s += a.scores_for(docids, m)
            return _Scored(docids, s)

        if op == "dismax":
            # Lucene DisjunctionMaxQuery: score = max over clauses +
            # tie * (sum of the others); tie rides in node.dist as an
            # integer PERCENT (#DISMAX/30 → 0.30) — the /n slot is the
            # parser's only numeric channel, same trick as #MSM/n.
            # Additive models only: max-of-scores needs a common scale.
            if not bm25:
                raise ValueError(
                    f"{type(m).__name__} doesn't support #DISMAX")
            tie = node.dist / 100.0
            docids = _union([a.docids for a in args])
            mat = np.stack([a.scores_for(docids, m) for a in args])
            mx = mat.max(axis=0)
            return _Scored(docids, mx + tie * (mat.sum(axis=0) - mx))

        if op == "msm":
            # Lucene BooleanQuery.setMinimumNumberShouldMatch: keep docs
            # matching >= n distinct args; score = the #SUM (BM25) / max
            # (ranked boolean) over the MATCHING args only (absent args
            # contribute 0 via scores_for). n clamps to the surviving
            # arg count (stopword args drop in the optimizer pass, as
            # analyzer-removed clauses do in Lucene). Indri has no
            # natural msm semantics (every doc scores) — rejected.
            if indri:
                raise ValueError("IndriModel doesn't support #MSM")
            n = max(1, min(node.dist, len(args)))
            docids = _union([a.docids for a in args])
            cnt = np.zeros(docids.size, dtype=np.int64)
            for a in args:
                cnt += np.isin(docids, a.docids, assume_unique=True)
            docids = docids[cnt >= n]
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            if isinstance(m, RankedBooleanModel):
                s = args[0].scores_for(docids, m)
                for a in args[1:]:
                    s = np.maximum(s, a.scores_for(docids, m))
                return _Scored(docids, s)
            s = np.zeros(docids.size, dtype=np.float64)
            for a in args:
                s += a.scores_for(docids, m)
            return _Scored(docids, s)

        if op in ("wsum", "wand"):
            if not indri:
                raise ValueError(
                    f"{type(m).__name__} doesn't support the {op.upper()} operator")
            w = np.asarray(node.weights, dtype=np.float64)
            wn = w / w.sum()
            docids = _union([a.docids for a in args])
            if op == "wsum":
                s = np.zeros(docids.size, dtype=np.float64)
                for a, wi in zip(args, wn):
                    s += a.scores_for(docids, m) * wi

                def default_fn(d, args=args, wn=wn):
                    out = np.zeros(d.size, dtype=np.float64)
                    for a, wi in zip(args, wn):
                        out += a.default(d) * wi
                    return out
            else:
                s = np.ones(docids.size, dtype=np.float64)
                for a, wi in zip(args, wn):
                    s *= a.scores_for(docids, m) ** wi

                def default_fn(d, args=args, wn=wn):
                    out = np.ones(d.size, dtype=np.float64)
                    for a, wi in zip(args, wn):
                        out *= a.default(d) ** wi
                    return out
            return _Scored(docids, s, default_fn)

        raise ValueError(f"unknown Sop #{op}")

    # ---- shared prologue of every search path ----
    def _parse(self, query: str, synonyms: dict | None = None):
        """Parse → synonym expansion → wildcard rewrite
        (``expand_wildcards``); None when nothing survives analysis."""
        plan = self.parser.parse(query, self.model.default_op)
        if plan is not None and synonyms:
            from .parser import expand_synonyms
            plan = expand_synonyms(plan, synonyms, self.parser.analyzer)
        return expand_wildcards(plan, self.reader)

    def _load(self, plan: PlanNode) -> dict:
        """Fetch the plan's postings and build the candidate doclen
        lookup → the (term, field) → InvList cache."""
        cache = self._fetch(plan)
        self._build_dlut(cache)
        return cache

    def _evaluate(self, plan: PlanNode):
        """Score a plan and drop tombstoned docs (corpus statistics
        stay as-built until compaction purges them) → (docids, scores)."""
        scored = self._eval_sop(plan, self._load(plan))
        return drop_deleted(self.reader.deleted_docids(), scored.docids,
                            scored.scores)

    def _docids_with(self, tokens) -> np.ndarray:
        """Docids holding any analyzed token in the default field."""
        terms = [t for tok in tokens
                 for t in self.parser.analyzer.analyze_query_token(tok)]
        got = self.reader.postings_many(terms, self.parser.default_field,
                                        positions=False) if terms else {}
        return _union([InvList.from_posting(p).docids
                       for p in got.values() if p is not None])

    # ---- public API ----
    def search(self, query: str, k: int = 100,
               allowed: np.ndarray | None = None,
               synonyms: dict | None = None) -> pa.Table:
        """→ Arrow table (external_id, score, rank), reference ordering:
        score desc, externalId asc, top-k, scores >= 0 only
        (ScoreList.java:87-126, QryEval.java:437,491).

        ``allowed`` (internal docids) applies a metadata facet filter —
        top-k is cut AFTER the filter, corpus statistics (df/doclens)
        stay corpus-wide, matching the standard filtered-search
        semantics. The mask is candidate-sized, never O(n_docs); at
        cluster scale the allowed set lives as an attribute shard like
        the doclens shards, not a driver list.

        Top-level ``-term`` tokens are Lucene MUST_NOT clauses
        (``split_negations``): documents containing a negated term in
        the default field are removed from the candidates before the
        top-k cut; a query with only negative clauses matches nothing
        (BooleanQuery semantics). Corpus stats stay corpus-wide."""
        from .parser import split_negations
        query, neg_tokens = split_negations(query)
        plan = self._parse(query, synonyms) if query.strip() else None
        return self.search_plan(plan, k=k, neg_tokens=neg_tokens,
                                allowed=allowed)

    def search_plan(self, plan: PlanNode, k: int = 100,
                    neg_tokens: tuple = (),
                    allowed: np.ndarray | None = None) -> pa.Table:
        """Evaluate a PRE-PARSED, PRE-EXPANDED plan — the entry the
        federated engine uses so wildcard/fuzzy rewrites happen ONCE
        over the union vocabulary (not per segment) and derived-Iop
        stats overrides apply to an identical tree in every segment.
        Same result contract as :meth:`search`."""
        if plan is None:
            return empty_results()
        docids, scores = self._evaluate(plan)
        if neg_tokens:
            banned = self._docids_with(neg_tokens)
            if banned.size:
                keep = ~np.isin(docids, banned)
                docids, scores = docids[keep], scores[keep]
        if allowed is not None:
            keep = np.isin(docids, allowed)
            docids, scores = docids[keep], scores[keep]
        # candidate-set id lookup, not the dense external_ids() array —
        # the interactive path must not allocate O(n_docs) driver memory
        return rank_results_candidates(docids, scores,
                                       self.reader.external_ids_for, k)

    def search_boosting(self, positive: str, negative: str,
                        negative_boost: float = 0.5,
                        k: int = 100) -> pa.Table:
        """ES ``boosting`` query: positive-clause candidates keep their
        score, but candidates ALSO matching the negative clause are
        demoted by ×``negative_boost`` instead of excluded — the soft
        form of the MUST_NOT filter in ``search``'s ``-term`` handling.
        The negative clause is a bag of terms (OR semantics, like
        MUST_NOT); its postings only mask the positive candidate set —
        no extra scoring pass, no corpus pass. Demotion happens BEFORE
        the top-k cut (a demoted head doc can drop out of the page)."""
        plan = self._parse(positive)
        if plan is None:
            return empty_results()
        docids, scores = self._evaluate(plan)
        scores = scores.astype(np.float64, copy=True)
        neg = self._docids_with(negative.split())
        if neg.size:
            hit = np.isin(docids, neg)
            scores[hit] *= float(negative_boost)
        return rank_results_candidates(docids, scores,
                                       self.reader.external_ids_for, k)

    def search_after(self, query: str, after: tuple, k: int = 100,
                     allowed: np.ndarray | None = None,
                     synonyms: dict | None = None) -> pa.Table:
        """Deep pagination (Lucene ``searchAfter``): the next k results
        STRICTLY after the cursor ``after = (score, external_id)`` —
        the last hit of the previous page — under the reference order
        (score desc, externalId asc). The cursor filter runs on the
        candidate set before the top-k cut, so page N costs the same
        as page 1 instead of k·N; external ids are fetched only for
        the cursor-score tie group."""
        s_after, e_after = float(after[0]), str(after[1])
        plan = self._parse(query, synonyms)
        if plan is None:
            return empty_results()
        docids, scores = self._evaluate(plan)
        if allowed is not None:
            keep = np.isin(docids, allowed)
            docids, scores = docids[keep], scores[keep]
        below = scores < s_after
        tie = np.flatnonzero(scores == s_after)
        if tie.size:
            exts = self.reader.external_ids_for(docids[tie])
            below[tie[exts > e_after]] = True
        docids, scores = docids[below], scores[below]
        return rank_results_candidates(docids, scores,
                                       self.reader.external_ids_for, k)

    def search_sorted(self, query: str, attr: str, k: int = 100,
                      descending: bool = True) -> pa.Table:
        """Sort-by-field retrieval (Lucene ``Sort(SortField)``): the
        query's MATCH SET ordered by a doc-values attribute instead of
        relevance — (attr desc|asc, externalId asc), top-k. Attribute
        values come from the index's doc-values plane
        (``reader.attributes_for``), fetched for the candidate set
        only. → Arrow (external_id, <attr>, rank)."""
        plan = self._parse(query)
        if plan is None:
            return pa.table({"external_id": pa.array([], pa.string()),
                             attr: pa.array([]),
                             "rank": pa.array([], pa.int32())})
        docids = self._evaluate(plan)[0]
        vals = self.reader.attributes_for(docids, [attr])[attr]
        exts = self.reader.external_ids_for(docids)
        t = pa.table({"external_id": pa.array(exts),
                      attr: pa.array(vals)})
        order = pc.sort_indices(t, sort_keys=[
            (attr, "descending" if descending else "ascending"),
            ("external_id", "ascending")])
        top = t.take(order[:k])
        return top.append_column(
            "rank", pa.array(np.arange(1, top.num_rows + 1, dtype=np.int32)))

    def explain(self, query: str, k: int = 10) -> pa.Table:
        """Lucene ``Explanation``-style per-term BM25 score breakdown for
        the query's top-k documents: one row per (doc, matching term)
        with the factors of ``QrySopScore.java:90-120`` — tf, df,
        idf = max(0, ln((N-df+.5)/(df+.5))), tf_weight = tf/(tf + k1*
        ((1-b) + b*dl/avgdl)), term_score = idf*tf_weight. → Arrow
        (external_id, term, field, tf, df, idf, tf_weight, term_score),
        ordered by (external_id, term, field). BM25 bag-of-words /
        #SUM-of-terms plans only — the factor decomposition is per-leaf."""
        m = self.model
        if isinstance(m, IndriModel):
            return self._explain_indri(query, k)
        if not isinstance(m, BM25Model):
            raise TypeError("explain() requires BM25Model or IndriModel")
        top = self.search(query, k=k)
        ext = top["external_id"].to_pylist()
        cols = {"external_id": [], "term": [], "field": [],
                "tf": [], "df": [], "idf": [], "tf_weight": [],
                "term_score": []}
        if ext:
            ids = self.reader.internal_docids_for(ext)
            cache = self._load(self._parse(query))
            N = self.reader.n_docs
            for (term, field), inv in sorted(cache.items()):
                if inv.docids.size == 0:
                    continue
                idf = bm25_idf(N, inv.df)
                pos = np.searchsorted(inv.docids, ids)
                pc_ = np.minimum(pos, inv.docids.size - 1)
                hit = inv.docids[pc_] == ids
                if not hit.any():
                    continue
                tf = inv.tfs[pc_[hit]].astype(np.float64)
                tfw = bm25_tfw(tf, self._dl(field, ids[hit]), m.k1, m.b,
                               self.reader.avg_len(field))
                for j, e in zip(np.flatnonzero(hit), range(hit.sum())):
                    cols["external_id"].append(ext[j])
                    cols["term"].append(term)
                    cols["field"].append(field)
                    cols["tf"].append(int(tf[e]))
                    cols["df"].append(int(inv.df))
                    cols["idf"].append(idf)
                    cols["tf_weight"].append(float(tfw[e]))
                    cols["term_score"].append(idf * float(tfw[e]))
        return _explain_table(cols)

    def _explain_indri(self, query: str, k: int) -> pa.Table:
        """Indri #AND explain: one row per (top-k doc, query term)
        INCLUDING absent terms (their Dirichlet default score is part of
        the geometric mean — ``QrySopAnd.java:86-107``). Columns
        (external_id, term, field, tf, ctf, p, weight): the doc's search
        score is exactly Π p^weight, weight = multiplicity / #leaf args.
        Bag-of-words plans only — per-leaf decomposition."""
        m = self.model
        top = self.search(query, k=k)
        ext = top["external_id"].to_pylist()
        cols: dict = {c: [] for c in ("external_id", "term", "field",
                                      "tf", "ctf", "p", "weight")}
        if ext:
            ids = self.reader.internal_docids_for(ext)
            toks: list[str] = []
            for tok in query.split():
                toks.extend(self.parser.analyzer.analyze_query_token(tok))
            cache = self._load(self._parse(query))
            n_args = len(toks) if toks else len(cache)
            for (term, field), inv in sorted(cache.items()):
                mle = inv.ctf / max(
                    self.reader.sum_field_lengths(field), 1)
                dl = self._dl(field, ids)
                pos = np.searchsorted(inv.docids, ids) \
                    if inv.docids.size else np.zeros(ids.size, np.int64)
                pc_ = np.minimum(pos, max(inv.docids.size - 1, 0))
                hit = (inv.docids.size > 0) & (
                    inv.docids[pc_] == ids) if inv.docids.size else \
                    np.zeros(ids.size, bool)
                tf = np.where(hit, inv.tfs[pc_] if inv.tfs.size else 0,
                              0).astype(np.float64)
                p = dirichlet(tf, dl, mle, m.mu, m.lambda_)
                mult = toks.count(term) if toks else 1
                for j in range(len(ext)):
                    cols["external_id"].append(ext[j])
                    cols["term"].append(term)
                    cols["field"].append(field)
                    cols["tf"].append(int(tf[j]))
                    cols["ctf"].append(int(inv.ctf))
                    cols["p"].append(float(p[j]))
                    cols["weight"].append(mult / n_args)
        return _explain_table(cols)

    def run_queries(self, queries: list[tuple[str, str]], k: int = 100) -> pa.Table:
        tables = []
        for qid, q in queries:
            t = self.search(q, k)
            t = t.append_column("qid", pa.array([qid] * t.num_rows, pa.string()))
            tables.append(t)
        return pa.concat_tables(tables) if tables else empty_results(with_qid=True)


def _union(arrs: list[np.ndarray]) -> np.ndarray:
    return np.unique(np.concatenate(arrs)) if arrs else np.empty(0, np.int64)


_EXPLAIN_TYPES = {"external_id": pa.string(), "term": pa.string(),
                  "field": pa.string(), "tf": pa.int64(), "df": pa.int64(),
                  "ctf": pa.int64()}


def _explain_table(cols: dict) -> pa.Table:
    """Explain rows ordered by (external_id, term, field); the columns
    not typed in ``_EXPLAIN_TYPES`` are float64."""
    order = sorted(range(len(cols["term"])),
                   key=lambda i: (cols["external_id"][i], cols["term"][i],
                                  cols["field"][i]))
    return pa.table({c: pa.array([v[i] for i in order],
                                 _EXPLAIN_TYPES.get(c, pa.float64()))
                     for c, v in cols.items()})


def expand_wildcards(node, reader):
    """Rewrite wildcard TermNodes (``fa*`` prefix / ``*ab*`` infix /
    ``*ab`` suffix / ``fat~1`` fuzzy / ``/pat/`` regexp, parser-marked)
    into a ``#SYN`` of the matching indexed terms — Lucene's
    PrefixQuery/FuzzyQuery/RegexpQuery → term-disjunction rewrite.
    Zero matches keeps the marked term, which fetches as an empty
    posting list; one match collapses to the plain term. Expansion hits
    the vocabulary metadata only. Shared by the interactive engine
    (``QueryEngine._parse``) and the distributed structured
    batch paths, so a wildcard means the same thing on every path."""
    if node is None:
        return None
    if isinstance(node, TermNode):
        terms = None
        if (node.term.startswith("/") and node.term.endswith("/")
                and len(node.term) > 2):
            terms = reader.terms_matching_regex(node.term[1:-1], node.field)
        elif (node.term.startswith("*") and node.term.endswith("*")
                and len(node.term) > 2):
            terms = reader.terms_with_substring(node.term[1:-1], node.field)
        elif node.term.startswith("*") and len(node.term) > 1:
            terms = reader.terms_with_suffix(node.term[1:], node.field)
        elif node.term.endswith("*") and len(node.term) > 1:
            terms = reader.terms_with_prefix(node.term[:-1], node.field)
        elif (len(node.term) > 2 and node.term[-2] == "~"
                and node.term[-1] in "012"):
            terms = reader.terms_within_distance(
                node.term[:-2], node.field, max_distance=int(node.term[-1]))
        if terms is not None:
            if not terms:
                return node
            if len(terms) == 1:
                return TermNode(term=terms[0], field=node.field)
            return IopNode(op="syn",
                           args=[TermNode(term=t, field=node.field)
                                 for t in terms])
        return node
    if isinstance(node, ScoreNode):
        node.child = expand_wildcards(node.child, reader)
        return node
    if isinstance(node, (IopNode, SopNode)):
        node.args = [expand_wildcards(a, reader) for a in node.args]
        return node
    return node
