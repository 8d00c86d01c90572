"""Ray-Data-native lakehouse table-maintenance engine.

A from-scratch generalization of the ingest -> sanitize -> normalize ->
merge -> store-with-metadata -> expire semantics of the reference
(`agslima/csv-schema-evolution`, read-only at /root/reference) into a
lakehouse maintenance engine over Parquet tables of Common-Crawl-style
web pages, executed end-to-end on `ray.data.Dataset` streaming
pipelines.

Subsystems (see SURVEY.md section 7.0):

- :mod:`engine.sanitize`   -- vectorized cell sanitizer (byte-identical to
  reference ``backend/app/utils/sanitize.py:6-30``)
- :mod:`engine.pages`      -- canonical web-page table schema + deterministic
  derivation from the driver testdata (no external data)
- :mod:`engine.manifest`   -- snapshot log, per-file stats, refcount GC,
  per-partition job lineage (generalizes the reference's Mongo ``files``
  manifest, ``backend/app/repositories/file_repository.py:41-54``)
- :mod:`engine.merge`      -- hash-partitioned MERGE INTO, LWW by ``warc_ts``
  with non-empty coalesce (reference ``csv_handler.py:66-97``)
- :mod:`engine.zorder`     -- Z-order / Hilbert clustering keys
- :mod:`engine.compact`    -- bin-packing small-file compaction
- :mod:`engine.jobs`       -- end-to-end maintenance jobs with resume
- :mod:`engine.infer`      -- CSV dialect + layout inference (reference
  ``dialect_detector.py``, ``csv_handler.py:32-63``)
- :mod:`engine.transpose`  -- vertical key-value transposer (reference
  ``transposer.py``)
- :mod:`engine.csv_ingest` -- CSV-parity ingest front-end
- :mod:`engine.dedup`      -- exact / MinHash-LSH / SimHash / embedding dedup
- :mod:`engine.similarity` -- cosine top-k ANN over embedding columns
- :mod:`engine.textstats`  -- token counts, quality scores
- :mod:`engine.langid`     -- n-gram/stopword language id heuristic
- :mod:`engine.fingerprint`-- rolling-hash document fingerprints
- :mod:`engine.multimodal` -- html tag strip over the binary ``html`` column
"""

from engine.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
