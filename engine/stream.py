"""Streaming micro-batch upsert with a sharded mutable index -- the one
place the engine drops to raw Ray actors, per the brief: "raw
``@ray.remote`` tasks/actors only where the Dataset API genuinely can't
express the semantics (e.g. a shared mutable index)".

A continuous ingest receives micro-batches whose rows may duplicate (by
``url``) rows seen in EARLIER micro-batches. Re-running MERGE over the
whole table per micro-batch is O(table); instead a pool of index actors
holds ``key -> latest warc_ts`` partitioned by key hash:

- each micro-batch is first collapsed locally (one MERGE fold -- the
  batch is small), then its ``(key, ts)`` pairs are routed to the index
  shard owning each key,
- the shard compares-and-updates atomically (actor = serialized state
  mutation) and returns the surviving keys,
- only surviving rows are appended to the table (snapshot per
  micro-batch), so the table stays upsert-consistent without rewriting
  old data; a periodic MERGE INTO compacts superseded rows away.

Scale notes: N shards x ~100 bytes/key -> 10^9 keys per 100 GB of actor
heap across the pool; shard count is the scale lever. State is
rebuildable from the table (``rebuild_from_table``), so actor loss is
recoverable, not durable-critical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from engine.config import EngineConfig
from engine.manifest import Table
from engine.merge import _is_missing_key, merge_fold_arrow, ts_i64_arrow
from engine.writer import write_files


@ray.remote
class IndexShard:
    """One shard of the key -> latest-ts index (mutable actor state)."""

    def __init__(self):
        self.latest: dict = {}

    def probe(self, keys: list, ts_us: list) -> list:
        """Read-only: True where ts >= stored ts (or unseen). >= (not >)
        matches the batch fold's last-occurrence-wins on ts ties."""
        return [
            (self.latest.get(k) is None or t >= self.latest[k])
            for k, t in zip(keys, ts_us)
        ]

    def load(self, keys: list, ts_us: list):
        """Apply winners (max-merge). Called AFTER the table commit: a
        crash between probe and load leaves the index stale-LOW, so a
        retry re-appends (harmless duplicate, compacted by MERGE) --
        never silently drops a batch, which mutate-before-commit would."""
        for k, t in zip(keys, ts_us):
            prev = self.latest.get(k)
            if prev is None or t > prev:
                self.latest[k] = t

    def size(self) -> int:
        return len(self.latest)


class StreamingUpsert:
    """Micro-batch upsert front-end for a manifest Table."""

    def __init__(
        self,
        table: Table,
        cfg: Optional[EngineConfig] = None,
        num_shards: int = 8,
    ):
        self.table = table
        self.cfg = cfg if cfg is not None else EngineConfig()
        self.key = self.cfg.merge_key
        self.ts = self.cfg.merge_ts
        self.shards = [IndexShard.remote() for _ in range(num_shards)]
        self.n = num_shards
        self.seq = 0

    def _shard_of(self, keys) -> np.ndarray:
        from engine.exchange import bucket_ids  # ONE partition-hash invariant

        return bucket_ids(keys, self.n)

    def rebuild_from_table(self):
        """Recover index state from the table (actor restart path).

        Goes through the SAME ts canonicalization (`ts_i64_arrow`) and
        key hash as the live `upsert` path: a recovered index that
        floored pre-epoch timestamps while the live path truncates
        would mis-rank the first post-restart upsert by 1us.

        Routes the (key, ts) projection to the shards INSIDE
        ``map_batches`` workers, one block at a time: the index shards
        max-merge (`load` keeps the larger ts), so per-block routing is
        commutative and order-independent -- blocks load in parallel
        across the cluster, no block is ever concatenated or even held
        on the driver (a 10^9-key table -- the module's advertised
        scale -- would overflow both driver memory and Arrow's 2 GiB
        string-offset limit if gathered here).
        """
        # plain locals only: capturing `self` would ship the Table and
        # pickle this front-end into every routing task
        shards, n, key, ts = self.shards, self.n, self.key, self.ts

        def route(t: pa.Table) -> pa.Table:
            from engine.exchange import bucket_ids

            done = pa.table({"loaded": pa.array([len(t)], pa.int64())})
            if len(t) == 0:
                return done
            keys = t.column(key).combine_chunks()
            t = t.filter(pc.invert(_is_missing_key(keys)))
            if len(t) == 0:
                return done
            keys = t.column(key).combine_chunks()
            ts_us = ts_i64_arrow(t.column(ts).combine_chunks()).to_numpy(
                zero_copy_only=False
            )
            keys_py = keys.to_pylist()
            sh = bucket_ids(keys, n)
            ray.get(
                [
                    shards[s].load.remote(
                        [keys_py[i] for i in np.flatnonzero(sh == s)],
                        ts_us[sh == s].tolist(),
                    )
                    for s in range(n)
                ]
            )
            return done

        # count() drives the streaming execution to completion
        self.table.scan(columns=[key, ts]).map_batches(
            route, batch_format="pyarrow", zero_copy_batch=True
        ).count()

    def upsert(self, batch: pa.Table) -> dict:
        """Apply one micro-batch: local merge fold -> index LWW filter ->
        append surviving rows as a new snapshot.

        The fold is the SAME Arrow fold as batch MERGE INTO
        (:func:`engine.merge.merge_fold_arrow`), so streaming and batch
        agree on every semantic corner by construction -- including
        "float NaN is a valid value" (the old pandas fold here
        coalesced past NaN, silently diverging from MERGE) and exact
        input Arrow types (no null-upcast through float64).
        """
        # combine only the KEY column for the mask -- combining the whole
        # batch would copy every payload column per micro-batch
        null_mask = _is_missing_key(batch.column(self.key).combine_chunks())
        merged = merge_fold_arrow(
            batch.filter(pc.invert(null_mask)), self.key, self.ts
        )
        passthrough = batch.filter(null_mask)
        # canonical ts ints: ONE cast path shared with merge (null ts ->
        # INT64_MIN = oldest writer, same as the index's unseen rule)
        ts_us = ts_i64_arrow(merged.column(self.ts).combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        keys_py = merged.column(self.key).to_pylist()  # actor protocol is lists
        sh = self._shard_of(merged.column(self.key).combine_chunks())
        shard_idx = [np.flatnonzero(sh == s) for s in range(self.n)]
        # 1. read-only probe (no state change before the durable commit)
        verdicts = ray.get(
            [
                self.shards[s].probe.remote(
                    [keys_py[i] for i in shard_idx[s]],
                    ts_us[shard_idx[s]].tolist(),
                )
                for s in range(self.n)
            ]
        )
        keep = np.zeros(len(merged), dtype=bool)
        for s, v in enumerate(verdicts):
            keep[shard_idx[s]] = v
        survivors = pa.concat_tables([merged.filter(pa.array(keep)), passthrough])
        self.seq += 1
        if len(survivors) == 0:
            return {"appended": 0, "snapshot_id": self.table.current_snapshot_id()}
        # 2. durable append
        entries = write_files(
            ray.data.from_arrow(survivors),
            self.table.data_dir,
            prefix=f"stream-{self.seq:06d}",
            stats_cols=self.cfg.stats_cols,
        )
        snap = self.table.commit(f"stream-append:{self.seq}", add_files=entries)
        # 3. only now advance the index (crash before this point leaves
        # the index stale-low -> retry re-appends, never loses the batch)
        win_ts = ts_us[keep]
        win_sh = sh[keep]
        win_idx = np.flatnonzero(keep)
        ray.get(
            [
                self.shards[s].load.remote(
                    [keys_py[i] for i in win_idx[win_sh == s]],
                    win_ts[win_sh == s].tolist(),
                )
                for s in range(self.n)
            ]
        )
        return {"appended": len(survivors), "snapshot_id": snap.snapshot_id}
