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


def _register_pickle_by_value() -> None:
    """Ship this package's code inside task/actor pickles.

    Ray workers deserialize map_batches callables by module reference;
    registering the package for by-value cloudpickle ships the pickled
    functions' own code with each task. It does not make the package
    optional on workers: task code still imports it at run time (every
    ``util.proc_cached`` lookup, e.g. a worker's ``MinHasher`` or index
    reader, goes through ``import``), so the package must be importable
    on every worker, through an installation or ``PYTHONPATH``. A
    driver that finds it only through a ``sys.path`` edit fails in the
    workers with ``ModuleNotFoundError``."""
    try:
        import importlib
        import pkgutil
        import sys

        from ray import cloudpickle

        pkg = sys.modules[__name__]
        cloudpickle.register_pickle_by_value(pkg)
        for pkginfo in pkgutil.walk_packages(pkg.__path__, prefix=__name__ + "."):
            if pkginfo.name.endswith("__main__"):
                continue
            try:
                mod = importlib.import_module(pkginfo.name)
                cloudpickle.register_pickle_by_value(mod)
            except Exception:
                pass
    except Exception:
        pass


_register_pickle_by_value()
