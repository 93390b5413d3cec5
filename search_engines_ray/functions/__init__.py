from .dedup import (
    dedup_lines, dup_span_stats, embedding_dedup, embedding_lsh_dedup,
    exact_dedup,
    minhash_candidate_pairs, minhash_lsh_dedup, ngram_jaccard,
    select_canonical,
    ngram_jaccard_pairs,
    simhash_dedup, simhash_pairs,
)
from .events import (
    asof_join, json_field_agg, sessionize, sliding_window_aggregate,
    tumbling_window_aggregate,
)
from .graph import connected_components
from .join import (
    bloom_semijoin, broadcast_hash_join, broadcast_semijoin,
    shuffle_hash_join,
)
from .sample import (
    dataset_split, hash_sample, shuffle_to_shards, stratified_sample,
    topk_per_group, weighted_sample,
)
from .partitioning import estimate_rows
from .sketch import (
    frequent_terms, hyperloglog_distinct, percentile_ranks,
    value_histogram, value_quantiles, value_stats,
)
from .similarity import ann_cosine_topk, ivf_ann_topk, lsh_ann_topk, mmr_rerank
from .text import (
    best_passage, doc_fingerprint, heuristic_filter, language_id,
    phrase_did_you_mean, pii_scrub, quality_scores, repetition_stats,
    spell_suggest, token_stats, top_bigrams, vocab_stats,
)

__all__ = [
    "dedup_lines",
    "dup_span_stats",
    "embedding_dedup", "embedding_lsh_dedup", "exact_dedup",
    "minhash_candidate_pairs", "minhash_lsh_dedup", "ngram_jaccard",
    "ngram_jaccard_pairs",
    "select_canonical",
    "simhash_dedup", "simhash_pairs",
    "asof_join", "json_field_agg", "sessionize",
    "sliding_window_aggregate",
    "tumbling_window_aggregate",
    "connected_components",
    "bloom_semijoin", "broadcast_hash_join", "broadcast_semijoin",
    "shuffle_hash_join",
    "estimate_rows",
    "dataset_split", "hash_sample", "shuffle_to_shards", "stratified_sample",
    "topk_per_group", "weighted_sample",
    "frequent_terms", "hyperloglog_distinct", "percentile_ranks",
    "value_histogram", "value_stats",
    "value_quantiles",
    "ann_cosine_topk", "ivf_ann_topk", "lsh_ann_topk", "mmr_rerank",
    "best_passage",
    "doc_fingerprint", "heuristic_filter", "language_id", "pii_scrub",
    "phrase_did_you_mean", "quality_scores", "repetition_stats",
    "spell_suggest", "token_stats", "top_bigrams", "vocab_stats",
]
