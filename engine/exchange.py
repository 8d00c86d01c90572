"""The one bucket exchange: hash-partition a Dataset, fold each bucket.

Every keyed all-to-all in the engine (MERGE, the as-of join, windows,
grouped top-k, the dedup and LSH pipelines, line dedup, component
propagation) is the same three steps, and :func:`bucketed` owns them:

1. one ``map_batches`` appends ``__bucket = hash(by) % num_buckets``
   (an empty batch gets an empty column, whatever its schema);
2. Ray's sort-based ``groupby("__bucket").map_groups`` hands every row
   of a bucket to ONE ``fold`` call -- one vectorized Python call per
   coarse bucket, never one per key;
3. ``fold`` gets the bucket's rows without the bucket column.

``by`` picks the hash, and with it where NULL keys go:

- a column name: :func:`engine.dedup.hash64_keys`, the canonical 64-bit
  value pattern, so a batch with nulls hashes a key exactly like a
  batch without. NULL keys get one deterministic hash and co-locate in
  one bucket: SQL ``GROUP BY`` / ``PARTITION BY`` semantics;
- a list of column names: the columns' hashes combined in order (the
  ``(id_a, id_b)`` pair). NULLs co-locate per column, as above;
- a callable ``pa.Table -> uint64 ndarray``: the caller's own hash,
  taken modulo ``num_buckets``. MERGE uses it to spread NULL/empty keys
  round-robin: they pass through unmerged, so co-locating them would
  only build a hot bucket.

``num_buckets=1`` is one group and hashes nothing.

The caller keeps the bucket count, any ``materialize()`` in front of
the exchange (a sort exchange runs a lazy upstream twice), and the
fold. :func:`bucket_ids` is the same partition hash for code that
routes keys without a Dataset (the streaming-upsert shards).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

#: the bucket column; no other module names it
BUCKET = "__bucket"

#: folded into the running hash before each further ``by`` column, so
#: ``(a, b)`` and ``(b, a)`` hash apart
_LANE = np.uint64(0xA5A5A5A5A5A5A5A5)


def _modulo(h: np.ndarray, num_buckets: int) -> np.ndarray:
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucket_ids(keys, num_buckets: int) -> np.ndarray:
    """int64 bucket per key: ``hash64_keys(keys) % num_buckets``.
    ``keys`` is a ``pa.Array`` / ``pa.ChunkedArray`` / ``pd.Series``."""
    from engine.dedup import hash64_keys

    return _modulo(hash64_keys(keys), num_buckets)


def add_bucket(t: pa.Table, by, num_buckets: int) -> pa.Table:
    """``t`` with the int64 bucket column appended (see the module
    docstring for ``by``)."""
    if t.num_rows == 0 or num_buckets == 1:
        ids = np.zeros(t.num_rows, dtype=np.int64)
    elif isinstance(by, str):
        ids = bucket_ids(t.column(by), num_buckets)
    elif callable(by):
        ids = _modulo(by(t), num_buckets)
    else:
        from engine.dedup import _mix64, hash64_keys

        h = hash64_keys(t.column(by[0]))
        for c in by[1:]:
            h = _mix64(h ^ _LANE) ^ hash64_keys(t.column(c))
        ids = _modulo(h, num_buckets)
    return t.append_column(BUCKET, pa.array(ids))


def bucketed(ds, by, fold, *, num_buckets: int, batch_format: str):
    """Hash-partition ``ds`` by ``by`` into ``num_buckets`` buckets and
    return the Dataset of ``fold`` applied once per bucket.
    ``batch_format`` is the fold's (``"pyarrow"`` or ``"pandas"``)."""

    def fold_bucket(batch):
        if isinstance(batch, pa.Table):
            return fold(batch.drop_columns([BUCKET]))
        return fold(batch.drop(columns=BUCKET))

    keyed = ds.map_batches(
        add_bucket,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"by": by, "num_buckets": num_buckets},
    )
    return keyed.groupby(BUCKET).map_groups(fold_bucket, batch_format=batch_format)
