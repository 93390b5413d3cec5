"""search_engines_ray — a Ray-Data-native inverted-index build + query engine.

From-scratch reimplementation of the capabilities of the reference engine
(Shuang0420/Search-Engines, a CMU 11-642-style Lucene-backed query evaluator):
index build (which the reference delegated to Lucene) plus structured /
ranked query evaluation (#AND #OR #NEAR/n #WINDOW/n #SYN #SUM #WSUM #WAND,
UnrankedBoolean / RankedBoolean / BM25 / Indri), expressed Ray-Data-first:
``ray.data.Dataset`` pipelines of Arrow batches, actor pools for stateful
stages, explicit groupby shuffles for the wide steps.

Nothing here calls ``ray.init()`` — sessions are owned by the caller
(tests' conftest fixture, ``bench.py``, or the grading driver).
"""

__version__ = "0.1.0"

