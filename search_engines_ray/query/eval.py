"""Columnar query evaluator over the Parquet index.

The reference evaluates queries document-at-a-time through iterator
protocols (``/root/reference/QryEval/Qry.java:248-348``,
``QryEval.java:421-445``). Here scoring is term-at-a-time and columnar:
each leaf yields (docids, scores) numpy vectors and combinators align them
with sorted-merge/searchsorted. Indri scores every candidate (the union
of the leaves' docids) at every leaf, with tf = 0 where the leaf does not
match (the absent-arg default score, ``QrySopAnd.java:86-107``), and
combines the leaf vectors with ``kernels.indri_tree``, as the
distributed salt kernel does. Mathematically identical per SURVEY.md
§2.4 invariants; the §7.0 design note explains why this replaces DAAT.

Positional operators (#NEAR/n `QryIopNear.java:80-128`, #WINDOW/n
`QryIopWindow.java:106-143`, #SYN `QryIopSyn.java:17-71`) materialize
derived inverted lists first — their *derived* df/ctf feed the scorers,
exactly as ``QryIop.evaluate`` materializes before scoring
(``QryIop.java:174-190``). #NEAR/#WINDOW run the reference's per-doc
state machines in lockstep: per-doc heads over every common doc, each
numpy step moving all live docs one step on (#NEAR as pairwise passes
whose matches carry into the next pass as per-doc runs). Once fewer than
``_TAIL_DOCS`` docs are live, they finish in the plain-list kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.reader import IndexReader, Posting
from .kernels import bm25, bm25_idf, bm25_tfw, dirichlet, indri_tree, tfidf
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
    """(matching docids asc, scores)."""

    def __init__(self, docids: np.ndarray, scores: np.ndarray):
        self.docids = docids
        self.scores = scores

    def scores_for(self, docids: np.ndarray) -> np.ndarray:
        """Scores aligned to ``docids``; non-matching docs score 0."""
        out = np.zeros(docids.size, dtype=np.float64)
        idx, hit = _align(self.docids, docids)
        out[hit] = self.scores[idx[hit]]
        return out


# ---------------------------------------------------------------- Iop plane

def _runs(doc: np.ndarray, pos: np.ndarray):
    """Stable-sort (doc, pos) pairs by doc → (docs, starts, ends, pos):
    one run of positions per distinct doc, pair order kept within it."""
    order = np.argsort(doc, kind="stable")
    doc, pos = doc[order], pos[order]
    new = np.ones(doc.size + 1, dtype=bool)
    new[1:-1] = doc[1:] != doc[:-1]
    b = np.flatnonzero(new)
    return doc[b[:-1]], b[:-1], b[1:], pos


def _inv(docids, starts, ends, pos, field: str) -> InvList:
    """Derived InvList from per-doc runs of ``pos``; df/ctf recounted."""
    if docids.size == 0:
        return InvList.empty(field)
    return InvList(docids, (ends - starts).astype(np.int32),
                   pos.astype(np.int32), int(docids.size), int(pos.size),
                   field)


def _syn(args: list[InvList], field: str) -> InvList:
    """#SYN: docid union; positions = sorted concat (QryIopSyn.java:17-71)."""
    doc_rep = np.concatenate([np.repeat(a.docids, a.tfs) for a in args])
    pos_all = np.concatenate([a.positions for a in args])
    order = np.lexsort((pos_all, doc_rep))
    return _inv(*_runs(doc_rep[order], pos_all[order]), field)


def _first(a: InvList, field: str, n: int) -> InvList:
    """#FIRST/n (Lucene SpanFirstQuery with end = n): keep occurrences
    among the first ``n`` token positions of the field — span end
    p+1 <= n for 0-based position p, i.e. ``pos < n``. A derived Iop
    like #NEAR: df/ctf recomputed from the survivors. Vectorized:
    one boolean mask + one run-length regroup, no per-doc loop."""
    keep = a.positions < n
    return _inv(*_runs(np.repeat(a.docids, a.tfs)[keep], a.positions[keep]),
                field)


def _near_positions(lists: list, n: int) -> list[int]:
    """One left→right two-pointer pass of #NEAR/n over (left, right)
    (QryIopNear.java:80-128): keep right position r when an unconsumed
    left l satisfies l <= r <= l + n; matched pairs are consumed."""
    (left, right), out = lists, []
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        l, r = left[i], right[j]
        if r < l:
            j += 1
        elif r - l <= n:
            out.append(r)
            i += 1
            j += 1
        else:
            i += 1
    return out


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


# Live-doc floor of the lockstep loops: below it a loop hands its docs
# to the per-doc kernels above. One lockstep step costs ~20–30 µs of
# numpy calls at any width up to a few hundred docs, one Python step
# ~2 µs per doc for #WINDOW over 2 args and ~0.2 µs for #NEAR (1-vCPU VM,
# numpy 1.26, docs of tf 300): break-even near 17 and 100–120 docs.
_TAIL_DOCS = {"window": 16, "near": 128}


def _lockstep(kind: str, segs: list, n: int):
    """Run ``kind``'s per-doc state machine for every doc at once.
    ``segs`` holds one (positions, heads, ends) per list with one head
    per doc; each numpy step moves every live doc one step on (#NEAR:
    one two-pointer pass over two lists). The last live docs finish in
    the per-doc kernel from their heads. → (doc, position) pairs, in
    emission order within a doc."""
    pos, H, E = (list(x) for x in zip(*segs))
    docs = np.arange(H[0].size)
    out_d, out_p = [], []
    while True:
        live = functools.reduce(np.logical_and,
                                [h < e for h, e in zip(H, E)])
        if not live.all():
            H, E, docs = [h[live] for h in H], [e[live] for e in E], \
                docs[live]
        if docs.size == 0 or docs.size < _TAIL_DOCS[kind]:
            break
        V = [p[h] for p, h in zip(pos, H)]
        if kind == "near":
            (l, r), emit = V, V[1]
            back = r < l
            hit = ~back & (r - l <= n)
            step = [~back, back | hit]
        else:
            emit = functools.reduce(np.maximum, V)
            mn = functools.reduce(np.minimum, V)
            hit = emit - mn < n
            # a hit advances every head. A miss advances every head at
            # the min, where the reference advances the first: the max
            # only grows, so no later window holds any of them, and the
            # order they are passed in never changes what is emitted.
            step = [hit | (v == mn) for v in V]
        out_d.append(docs[hit])
        out_p.append(emit[hit])
        H = [h + s for h, s in zip(H, step)]
    fn = _near_positions if kind == "near" else _window_positions
    tail = [(p, h.tolist(), e.tolist()) for p, h, e in zip(pos, H, E)]
    td, tp = [], []
    for k, d in enumerate(docs.tolist()):
        m = fn([p[h[k]:e[k]].tolist() for p, h, e in tail], n)
        td += [d] * len(m)
        tp += m
    out_d.append(np.asarray(td, np.int64))
    out_p.append(np.asarray(tp, np.int64))
    return np.concatenate(out_d), np.concatenate(out_p)


def _positional(args: list[InvList], field: str, n: int, kind: str) -> InvList:
    """#NEAR/n or #WINDOW/n over the docs every arg holds, matched in
    lockstep across those docs (module docstring)."""
    common = args[0].docids
    for a in args[1:]:
        common = common[np.isin(common, a.docids, assume_unique=True)]
    segs = []
    for a in args:
        b = a.pos_bounds()
        i = np.searchsorted(a.docids, common)
        segs.append((a.positions, b[i], b[i + 1]))
    if kind == "window":
        docs, starts, ends, pos = _runs(*_lockstep(kind, segs, n))
    else:
        # each pass matches the survivors of the last (as per-doc runs
        # of their matched positions) against the next arg
        pos, starts, ends = segs[0]
        docs = np.arange(common.size)
        for p, h, e in segs[1:]:
            sub, starts, ends, pos = _runs(*_lockstep(
                kind, [(pos, starts, ends), (p, h[docs], e[docs])], n))
            docs = docs[sub]
    return _inv(common[docs], starts, ends, pos, field)


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
        unions). The reader's forward-shard cache answers it (a cold pid
        costs one pruned forward scan) instead of the dense O(n_docs)
        ``reader.doclens(field)`` array (VERDICT r2 item 1)."""
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
        if isinstance(m, TFIDFModel):
            return _Scored(inv.docids, tfidf(r.n_docs, inv.df, tf,
                                             self._dl(inv.field, inv.docids)))
        raise TypeError(f"unsupported model {type(m).__name__}")

    def _eval_indri(self, root: PlanNode, cache) -> _Scored:
        """Indri: candidates = the union of the leaves' docids; each leaf
        scores every candidate (tf = 0 where it does not match) and
        ``indri_tree`` combines them."""
        m = self.model
        invs = {id(leaf): self._eval_iop(leaf.child, cache)
                for leaf in _leaves(root)}
        docids = _union([inv.docids for inv in invs.values()])

        def leaf_scores(leaf):
            inv = invs[id(leaf)]
            tf = np.zeros(docids.size, dtype=np.float64)
            tf[np.searchsorted(docids, inv.docids)] = inv.tfs
            mle = inv.ctf / max(self.reader.sum_field_lengths(inv.field), 1)
            return dirichlet(tf, self._dl(inv.field, docids), mle, m.mu,
                             m.lambda_)
        return _Scored(docids, indri_tree(root, leaf_scores))

    def _eval_sop(self, node: PlanNode, cache) -> _Scored:
        m = self.model
        if is_iop(node):                      # bare Iop root after collapse
            node = ScoreNode(child=node)
        if isinstance(m, IndriModel):
            return self._eval_indri(node, cache)
        if isinstance(node, ScoreNode):
            return self._score_leaf(self._eval_iop(node.child, cache))
        assert isinstance(node, SopNode)
        args = [self._eval_sop(a, cache) for a in node.args]
        op = node.op
        boolean = isinstance(m, (UnrankedBooleanModel, RankedBooleanModel))
        bm25 = isinstance(m, (BM25Model, TFIDFModel))  # both are #SUM-of-
        # leaf-scores additive models; every SUM-shaped branch below holds

        if op == "and" and boolean:
            docids = args[0].docids
            for a in args[1:]:
                docids = docids[np.isin(docids, a.docids, assume_unique=True)]
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            return _Scored(docids, np.min(
                [a.scores_for(docids) for a in args], axis=0))

        if op == "or":
            if not boolean:
                raise ValueError(
                    f"{type(m).__name__} doesn't support the OR operator")
            docids = _union([a.docids for a in args])
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            return _Scored(docids, np.max(
                [a.scores_for(docids) for a in args], axis=0))

        if op == "sum":
            if not bm25:
                raise ValueError(
                    f"{type(m).__name__} doesn't support the SUM operator")
            docids = _union([a.docids for a in args])
            s = np.zeros(docids.size, dtype=np.float64)
            for a in args:
                s += a.scores_for(docids)
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
            mat = np.stack([a.scores_for(docids) for a in args])
            mx = mat.max(axis=0)
            return _Scored(docids, mx + tie * (mat.sum(axis=0) - mx))

        if op == "msm":
            # Lucene BooleanQuery.setMinimumNumberShouldMatch: keep docs
            # matching >= n distinct args; score = the #SUM (BM25) / max
            # (ranked boolean) over the MATCHING args only (absent args
            # contribute 0 via scores_for). n clamps to the surviving
            # arg count (stopword args drop in the optimizer pass, as
            # analyzer-removed clauses do in Lucene). Indri has no
            # natural msm semantics (every doc scores): indri_tree
            # rejects it.
            n = max(1, min(node.dist, len(args)))
            docids = _union([a.docids for a in args])
            cnt = np.zeros(docids.size, dtype=np.int64)
            for a in args:
                cnt += np.isin(docids, a.docids, assume_unique=True)
            docids = docids[cnt >= n]
            if isinstance(m, UnrankedBooleanModel):
                return _Scored(docids, np.ones(docids.size))
            if isinstance(m, RankedBooleanModel):
                return _Scored(docids, np.max(
                    [a.scores_for(docids) for a in args], axis=0))
            s = np.zeros(docids.size, dtype=np.float64)
            for a in args:
                s += a.scores_for(docids)
            return _Scored(docids, s)

        if op in ("wsum", "wand"):
            raise ValueError(
                f"{type(m).__name__} doesn't support the {op.upper()} operator")
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
                pc_, hit = _align(inv.docids, ids)
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
                pc_, hit = _align(inv.docids, ids)
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


def _align(docids: np.ndarray, ids: np.ndarray):
    """Where each of ``ids`` sits in the ascending ``docids`` → (clipped
    index, found mask)."""
    idx = np.minimum(np.searchsorted(docids, ids), max(docids.size - 1, 0))
    return idx, (docids[idx] == ids if docids.size
                 else np.zeros(ids.size, dtype=bool))


def _leaves(node: PlanNode) -> list:
    """The leaves of a Sop tree (``ScoreNode``s), in argument order."""
    if isinstance(node, SopNode):
        return [leaf for a in node.args for leaf in _leaves(a)]
    return [node]


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
