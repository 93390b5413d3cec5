"""Structured query parser: prefix-notation ``#OP( args )`` →  plan tree.

Reimplements the semantics of the reference parser
(``/root/reference/QryEval/QryParser.java``):

- operator dispatch incl. ``/n`` suffix for #NEAR/#WINDOW
  (``createOperator``, QryParser.java:81-129);
- ``term.field`` splitting against the known field list and analyzer
  expansion of multi-term tokens (``near-death`` → 2 TERM args) or to
  nothing (stopwords) (``createTerms``, QryParser.java:140-172);
- weight-before-arg parsing for #WSUM/#WAND (QryParser.java:317-366);
  a multi-term token under a weighted op binds the pending weight to
  each expanded arg, and a stopword token drops its weight;
- the optimizer pass: remove arg-less ops, collapse single-arg non-SCORE
  ops (QryParser.java:224-261);
- well-forming: implicit #SCORE inserted between a Sop parent and an Iop
  child; Iop args must share one field (Qry.java:110-181).
"""

from __future__ import annotations

from ..analysis.tokenizer import Analyzer
from .plan import (
    IOP_OPS, SOP_OPS, WEIGHTED_OPS, IopNode, PlanNode, ScoreNode, SopNode,
    TermNode, is_iop,
)

# QryParser.java:156-158 / QryEval.java:23
KNOWN_FIELDS = ("body", "title", "url", "keywords", "inlink")


class QueryParseError(ValueError):
    pass


def _lex(query: str) -> list[str]:
    return (query.replace("(", " ( ").replace(")", " ) ")
            .replace('"', ' " ').split())


def _is_weight(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


class QueryParser:
    def __init__(self, analyzer: Analyzer | None = None,
                 default_field: str = "body"):
        self.analyzer = analyzer or Analyzer()
        self.default_field = default_field

    # ---- public API ----
    def parse(self, query: str, default_op: str | None = None) -> PlanNode | None:
        """Parse (optionally wrapping in the model's default op); returns
        the optimized, well-formed plan or None if the query optimizes
        away entirely (e.g. all stopwords)."""
        q = query.strip()
        if default_op:
            q = f"{default_op}({q})"
        toks = _lex(q)
        node, rest = self._parse_node(toks, 0)
        if rest != len(toks):
            raise QueryParseError(f"trailing tokens after position {rest}: {toks[rest:]}")
        node = self._optimize(node)
        if node is None:
            return None
        return self._well_form(node)

    # ---- recursive descent ----
    def _parse_node(self, toks: list[str], i: int):
        if i >= len(toks):
            raise QueryParseError("unexpected end of query")
        tok = toks[i]
        if tok.startswith("#"):
            return self._parse_op(toks, i)
        if tok == '"':
            return self._parse_phrase(toks, i)
        return self._make_terms(tok), i + 1

    def _parse_phrase(self, toks: list[str], i: int):
        """``"exact phrase"`` → ``#NEAR/1`` over the analyzed terms —
        Lucene PhraseQuery sugar (slop 0 == adjacency == #NEAR/1).
        A trailing ``~n`` (Lucene sloppy-phrase syntax, ``"a b"~2``)
        relaxes adjacency to ``#NEAR/max(1,n)`` — ordered with ≤ n
        positions between consecutive terms, the in-order subset of
        Lucene's slop semantics (slop ≥ 2 reordering is NOT emulated).
        Wildcard/fuzzy markers are literal inside a phrase; stopwords
        drop out exactly as they do in any multi-term token, and a
        phrase that analyzes to one term collapses to it in the
        optimizer pass."""
        j = i + 1
        words: list[str] = []
        while j < len(toks) and toks[j] != '"':
            if toks[j].startswith("#") or toks[j] in ("(", ")"):
                raise QueryParseError(
                    f"operators not allowed inside a phrase: {toks[j]!r}")
            words.append(toks[j])
            j += 1
        if j >= len(toks):
            raise QueryParseError("unclosed phrase quote")
        dist = 1
        if (j + 1 < len(toks) and toks[j + 1].startswith("~")
                and toks[j + 1][1:].isdigit()):
            dist = max(1, int(toks[j + 1][1:]))
            j += 1
        terms = [t for w in words
                 for t in self._make_terms(w, no_marker=True)]
        return IopNode(op="near", dist=dist, args=terms), j + 1

    def _parse_op(self, toks: list[str], i: int):
        name = toks[i][1:].lower()
        dist = 1
        if "/" in name:
            name, d = name.split("/", 1)
            try:
                dist = int(d)
            except ValueError:
                raise QueryParseError(f"bad /n suffix in #{name}/{d}")
        if name not in SOP_OPS and name not in IOP_OPS and name != "score":
            raise QueryParseError(f"unknown operator #{name}")
        if i + 1 >= len(toks) or toks[i + 1] != "(":
            raise QueryParseError(f"expected ( after #{name}")
        i += 2
        weighted = name in WEIGHTED_OPS
        args: list[PlanNode] = []
        weights: list[float] = []
        while True:
            if i >= len(toks):
                raise QueryParseError(f"unclosed #{name}")
            if toks[i] == ")":
                i += 1
                break
            w = None
            if weighted:
                if not _is_weight(toks[i]):
                    raise QueryParseError(
                        f"#{name} expects weight before arg, got {toks[i]!r}")
                w = float(toks[i])
                i += 1
                if i >= len(toks) or toks[i] == ")":
                    raise QueryParseError(f"#{name}: dangling weight")
            node, i = self._parse_node(toks, i)
            produced = node if isinstance(node, list) else [node]
            for p in produced:
                args.append(p)
                if weighted:
                    weights.append(w)
        if name in IOP_OPS:
            if name == "first" and len(args) != 1:
                raise QueryParseError(
                    "#first/n takes exactly one arg (Lucene SpanFirstQuery "
                    "wraps a single span)")
            node = IopNode(op=name, args=args, dist=dist)
        elif name == "score":
            if len(args) != 1:
                raise QueryParseError("#score takes exactly one arg")
            node = ScoreNode(child=args[0])
        else:
            node = SopNode(op=name, args=args,
                           weights=weights if weighted else None,
                           dist=dist)
        return node, i

    def _make_terms(self, tok: str, no_marker: bool = False):
        """token → 0..k TermNodes (QryParser createTerms semantics).

        A trailing ``*`` marks a PREFIX (wildcard) term: the base goes
        through the analyzer's char normalization, and the star is
        re-attached to the last produced term — the engine expands it
        against the indexed vocabulary at plan time
        (``QueryEngine._parse``). Lucene's analogue is the
        ``PrefixQuery`` rewrite to a term disjunction.

        A trailing ``~`` / ``~1`` / ``~2`` marks a FUZZY term (Lucene
        ``FuzzyQuery`` syntax, default max edit distance 2): the marker
        re-attaches the same way and the engine expands it to a #SYN
        of vocabulary terms within edit distance."""
        field = self.default_field
        if "." in tok:
            base, suffix = tok.rsplit(".", 1)
            if suffix.lower() in KNOWN_FIELDS and base:
                tok, field = base, suffix.lower()
        if (not no_marker and len(tok) > 2 and tok.startswith("/")
                and tok.endswith("/")):
            # /pattern/ = REGEXP term (Lucene RegexpQuery syntax): the
            # pattern bypasses the analyzer entirely (Lucene does not
            # analyze regexp terms either) and the engine expands it
            # against the indexed vocabulary at plan time
            # (QueryEngine._parse → terms_matching_regex).
            return [TermNode(term=tok, field=field)]
        marker = ""
        lead = ""
        if no_marker:
            pass
        elif (tok.startswith("*") and tok.endswith("*") and len(tok) > 2):
            # infix wildcard *abc*: both stars re-attach after analysis
            marker, lead, tok = "*", "*", tok[1:-1]
        elif tok.startswith("*") and len(tok) > 1:
            # suffix wildcard *abc (Lucene leading-wildcard, ends-with)
            lead, tok = "*", tok[1:]
        elif tok.endswith("*") and len(tok) > 1:
            marker, tok = "*", tok[:-1]
        elif len(tok) > 1 and tok[-1] == "~":
            marker, tok = "~2", tok[:-1]
        elif (len(tok) > 2 and tok[-2] == "~" and tok[-1] in "012"):
            marker, tok = "~" + tok[-1], tok[:-2]
        terms = self.analyzer.analyze_query_token(tok)
        if (marker or lead) and terms:
            return ([TermNode(term=t, field=field) for t in terms[:-1]]
                    + [TermNode(term=lead + terms[-1] + marker, field=field)])
        return [TermNode(term=t, field=field) for t in terms]

    # ---- optimizer (QryParser.java:224-261) ----
    def _optimize(self, node) -> PlanNode | None:
        if isinstance(node, list):          # bare top-level multi-term token
            if not node:
                return None
            if len(node) == 1:
                return node[0]
            return SopNode(op="or", args=node)
        if isinstance(node, TermNode):
            return node
        if isinstance(node, ScoreNode):
            child = self._optimize(node.child)
            return ScoreNode(child=child) if child is not None else None
        kept, kept_w = [], []
        weights = node.weights if isinstance(node, SopNode) else None
        for idx, a in enumerate(node.args):
            o = self._optimize(a)
            if o is None:
                continue
            kept.append(o)
            if weights is not None:
                kept_w.append(weights[idx])
        if not kept:
            return None
        if len(kept) == 1 and not (isinstance(node, IopNode)
                                   and node.op == "first"):
            # single-arg collapse — except #first/n, whose single-arg
            # wrapper IS the operator (a position filter, not a combiner)
            return kept[0]
        if isinstance(node, IopNode):
            return IopNode(op=node.op, args=kept, dist=node.dist)
        return SopNode(op=node.op, args=kept,
                       weights=kept_w if weights is not None else None,
                       dist=node.dist)

    # ---- well-forming (Qry.java:110-181) ----
    def _well_form(self, node: PlanNode) -> PlanNode:
        if isinstance(node, TermNode):
            return node
        if isinstance(node, IopNode):
            args = [self._well_form(a) for a in node.args]
            for a in args:
                if not is_iop(a):
                    raise QueryParseError(
                        f"#{node.op} requires inverted-list args, got {type(a).__name__}")
            flds = {a.field if isinstance(a, TermNode) else a.field_name
                    for a in args}
            if len(flds) > 1:
                raise QueryParseError(
                    f"#{node.op} args must share one field, got {sorted(flds)}")
            return IopNode(op=node.op, args=args, dist=node.dist)
        if isinstance(node, ScoreNode):
            child = self._well_form(node.child)
            if not is_iop(child):
                raise QueryParseError("#score requires an inverted-list arg")
            return ScoreNode(child=child)
        # SopNode: wrap Iop children in implicit #SCORE
        args = []
        for a in node.args:
            a = self._well_form(a)
            if is_iop(a):
                a = ScoreNode(child=a)
            args.append(a)
        return SopNode(op=node.op, args=args, weights=node.weights,
                       dist=node.dist)


def expand_synonyms(node: PlanNode, thesaurus: dict,
                    analyzer: Analyzer | None = None) -> PlanNode:
    """Query-time thesaurus expansion (Lucene SynonymGraphFilter /
    Indri ``#syn`` rewrite): every TermNode whose term matches a
    thesaurus key becomes ``#SYN(term alt1 alt2 ...)`` over the same
    field. Keys and alternatives are passed through ``analyzer``'s
    query-token analysis first, so a raw thesaurus ("Fast" →
    ["Quick"]) matches the analyzed plan. #SYN is an Iop, so the
    rewrite is legal anywhere a term is — under #SUM scoring leaves
    and inside positional operators alike. Marked terms (``fa*`` /
    ``fat~1``) never match a key; prefix/fuzzy expansion runs after."""
    an = analyzer or Analyzer()
    norm: dict[str, list[str]] = {}
    for key, alts in thesaurus.items():
        ks = an.analyze_query_token(key)
        if len(ks) != 1:
            continue
        out = [t for a in alts for t in an.analyze_query_token(a)]
        if out:
            norm[ks[0]] = out

    def walk(n: PlanNode) -> PlanNode:
        if isinstance(n, TermNode):
            alts = norm.get(n.term)
            if not alts:
                return n
            seen, members = {n.term}, [TermNode(term=n.term, field=n.field)]
            for a in alts:
                if a not in seen:
                    seen.add(a)
                    members.append(TermNode(term=a, field=n.field))
            return IopNode(op="syn", args=members) \
                if len(members) > 1 else n
        if isinstance(n, ScoreNode):
            n.child = walk(n.child)
            return n
        if isinstance(n, (IopNode, SopNode)):
            n.args = [walk(a) for a in n.args]
            return n
        return n

    return walk(node)


def split_negations(query: str) -> tuple[str, list[str]]:
    """Split Lucene-style ``-term`` MUST_NOT tokens off a query's top
    level (outside any ``#op(...)`` parens and outside quoted phrases)
    → (positive query, raw negated tokens). ``BooleanQuery`` MUST_NOT
    semantics: the engine evaluates the positive part and removes any
    document matching a negated term; a pure-negative query matches
    nothing. ``-`` inside parens is untouched (weights can be negative
    -free here but operator args are the op's business), and
    ``near-death`` at top level is a term, not a negation."""
    depth = 0
    in_phrase = False
    pos_parts: list[str] = []
    negs: list[str] = []
    for tok in query.replace("(", " ( ").replace(")", " ) ") \
                    .replace('"', ' " ').split():
        if tok == '"':
            in_phrase = not in_phrase
        elif tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif (depth == 0 and not in_phrase and len(tok) > 1
                and tok.startswith("-")):
            negs.append(tok[1:])
            continue
        pos_parts.append(tok)
    return " ".join(pos_parts), negs


_DEFAULT_PARSER = QueryParser()


def parse_query(query: str, default_op: str | None = None) -> PlanNode | None:
    return _DEFAULT_PARSER.parse(query, default_op)
