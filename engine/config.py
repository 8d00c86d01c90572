"""Engine configuration.

Generalizes the reference's env-based settings
(``backend/app/core/config.py:9-46``: size caps, retention hours) into a
small dataclass carried by jobs. All values have scale-aware defaults:
the same config shape drives a 4-CPU test session and a 256-node
cluster; only the numbers change.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    # --- file layout -----------------------------------------------------
    #: target output data-file size for compaction / ingest (bytes).
    #: Files below ``compact_small_threshold`` are compaction candidates.
    target_file_bytes: int = 128 * 1024 * 1024
    #: a live file smaller than this fraction of target is "small" and
    #: eligible for bin-packing compaction.
    compact_small_fraction: float = 0.75

    # --- merge -----------------------------------------------------------
    #: merge key column (reference: user-pluggable ``id_field``,
    #: ``backend/app/api/v1/endpoints/files.py:17-20``).
    merge_key: str = "url"
    #: last-writer-wins ordering column (replaces the reference's
    #: positional row order, ``csv_handler.py:86-95``).
    merge_ts: str = "warc_ts"
    #: number of hash buckets for the MERGE shuffle. Scale with cluster
    #: size: ~2-4x total cores so stragglers rebalance.
    merge_buckets: int = 64

    # --- clustering ------------------------------------------------------
    cluster_cols: tuple = ("lang", "url")
    #: 'zorder' or 'hilbert'
    cluster_curve: str = "zorder"

    # --- skew handling ---------------------------------------------------
    #: a single partition-key value holding more than this many rows is
    #: salted into sub-partitions (north_rule: dominant ``lang`` values).
    salt_threshold_rows: int = 1_000_000
    salt_buckets: int = 8

    # --- retention (reference: 24h TTL, ``cleanup.py:13``) ---------------
    snapshot_ttl_seconds: float = 24 * 3600.0

    # --- stats recorded per data file in the manifest --------------------
    stats_cols: tuple = ("url", "lang", "warc_ts")

    # --- execution -------------------------------------------------------
    #: rows per map_batches batch for text-sized rows; binary-heavy
    #: stages (html) should pass an explicit smaller batch_size.
    batch_size: int = 16384
    #: fixed shuffle block/partition count for merge/cluster exchanges.
    #: None -> derived from manifest bytes and cluster CPUs. Set it when
    #: comparing cluster sizes: partitioning should be a property of the
    #: DATA, not the cluster, so the same job runs the identical
    #: dataflow at N and 4N nodes (the north_rule scaling measurement).
    shuffle_blocks: int | None = None
