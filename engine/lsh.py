"""Banded-LSH collision pairs: the one fold behind the near-dup pipelines.

MinHash (:func:`engine.dedup.minhash_dedup_pairs`), SimHash
(:func:`engine.dedup.simhash_dup_pairs`) and embedding LSH
(:func:`engine.similarity.lsh_bucketed_pairs`) differ only in how they
band a document and how they score a candidate. Each builds a *banded*
Dataset -- one row per (document, band) with the band's cell key and the
document's int64 id -- and hands it to :func:`collision_pairs`, which:

1. hash-partitions the rows by their cell (:func:`engine.exchange.bucketed`,
   one vectorized Arrow fold per coarse bucket, never one per cell);
2. sorts each bucket by the cell columns and the id (``pa.Table.sort_by``),
   cuts the cells (:func:`_cell_bounds`) and enumerates every
   within-cell pair (:func:`_segment_pairs`);
3. calls the pipeline's ``score`` on the pair batch;
4. drops repeats of a pair that collided in several bands
   (:func:`_distinct_pairs`).

Ids stay int64 from end to end and never go through pandas: a pandas
fold turns a NULL-bearing int64 column into float64, which collapses ids
above 2^53. Rows with a NULL id are dropped before banding
(:func:`keyed`); no pair can name them, as in SQL's ``a.id < b.id``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.exchange import bucketed


def keyed(t: pa.Table, id_col: str) -> pa.Table:
    """``t`` without its NULL-id rows, the id column cast to int64."""
    ids = t.column(id_col)
    if ids.null_count:
        t = t.filter(pc.is_valid(ids))
    return t.set_column(
        t.schema.get_field_index(id_col), id_col, t.column(id_col).cast(pa.int64())
    )


def _input_bytes(ds):
    """On-disk bytes of the dataset's source files (metadata only --
    never executes the dataset), or None when unknowable."""
    try:
        files = ds.input_files()
        return sum(os.path.getsize(f) for f in files) if files else None
    except Exception:
        return None


def _pairs_buckets(ds, explicit=None) -> int:
    """Shuffle bucket count for the LSH pipelines: ~8 MB of input bytes
    per bucket (floor 8, cap 4096). A pure function of the DATA with no
    cluster-size term, so the dataflow is the same at every session
    size (a CPU floor once gave a 5 MB corpus 32 near-empty buckets at
    32 CPUs: 2.85 s vs 1.46 s at 8 buckets, same pairs). Callers with
    derived inputs can pass ``explicit``.
    """
    if explicit:
        return int(explicit)
    nbytes = _input_bytes(ds)
    by_bytes = (nbytes // (8 << 20) + 1) if nbytes else 1
    return int(min(4096, max(by_bytes, 8)))


def _segment_pairs(starts, lens, max_cell=None):
    """All within-segment (i < j) index pairs, fully vectorized.

    ``starts``/``lens`` describe contiguous segments (LSH collision
    cells after a sort); the return is two int64 index arrays (a, b)
    with a < b, covering every pair inside every segment -- no Python
    loop over cells OR pairs.

    ``max_cell`` bounds the O(m^2) hot-cell blowup: segments longer
    than the cap are split into chunks of ``max_cell`` with a
    ONE-MEMBER OVERLAP between consecutive chunks (FP-Hadoop's split of
    an oversized key group), so output stays O(m * max_cell) while
    every emitted pair is a genuine within-chunk pair (verifiable
    downstream) and a mutually-similar cluster stays connected through
    the overlap chain -- unlike a star pattern (hub -> member), whose
    unverified hub could sever true near-dups from their component.
    """
    if max_cell is not None and max_cell < 2:
        raise ValueError(f"max_cell must be >= 2 (got {max_cell})")
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    keep = lens >= 2
    starts, lens = starts[keep], lens[keep]
    if max_cell is not None and len(lens):
        big = lens > max_cell
        if big.any():
            step = max_cell - 1
            cs, cl = [starts[~big]], [lens[~big]]
            for s, ln in zip(starts[big].tolist(), lens[big].tolist()):
                n_chunks = -(-(ln - 1) // step)  # ceil; last chunk len >= 2
                c0 = s + step * np.arange(n_chunks, dtype=np.int64)
                c1 = np.minimum(c0 + max_cell, s + ln)
                cs.append(c0)
                cl.append(c1 - c0)
            starts = np.concatenate(cs)
            lens = np.concatenate(cl)
    if not len(starts):
        z = np.empty(0, dtype=np.int64)
        return z, z
    # two-level expansion: element at local index i of a length-L
    # segment is 'a' for the (L-1-i) elements after it
    m1 = lens - 1
    total1 = int(m1.sum())
    grp1 = np.repeat(np.cumsum(m1) - m1, m1)
    ramp1 = np.arange(total1, dtype=np.int64) - grp1
    elem = np.repeat(starts, m1) + ramp1
    counts = np.repeat(m1, m1) - ramp1
    total2 = int(counts.sum())
    grp2 = np.repeat(np.cumsum(counts) - counts, counts)
    ramp2 = np.arange(total2, dtype=np.int64) - grp2 + 1
    a = np.repeat(elem, counts)
    return a, a + ramp2


def _cell_bounds(*key_arrays):
    """Run-length segment (starts, lens) over sorted key column(s)."""
    n = len(key_arrays[0])
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    change = np.zeros(n - 1, dtype=bool)
    for k in key_arrays:
        change |= k[1:] != k[:-1]
    bounds = np.flatnonzero(np.r_[True, change, True])
    return bounds[:-1], np.diff(bounds)


def _distinct_pairs(candidates, num_buckets: int):
    """Distributed DISTINCT over (id_a, id_b): a pair that fired in many
    bands lands in ONE bucket (pair-hash partitioning), so a per-bucket
    sort + first-of-run filter is globally exact. No driver collection."""

    def fold(t: pa.Table) -> pa.Table:
        t = t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])
        a = t.column("id_a").to_numpy()
        b = t.column("id_b").to_numpy()
        first = np.ones(len(a), bool)
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=first[1:])
        return t.filter(first)

    return bucketed(candidates, ["id_a", "id_b"], fold, num_buckets=num_buckets, batch_format="pyarrow")


def collision_pairs(banded, cells, id_col, score=None, *, max_cell, num_buckets):
    """Distinct ``(id_a, id_b, *extras)`` pairs, ``id_a < id_b`` int64,
    of rows of ``banded`` that share every column of ``cells``.

    ``banded`` rows carry the cell columns and a non-NULL int64
    ``id_col`` (see :func:`keyed`). ``cells`` is ``(band, key)`` for a
    multi-band signature or ``(key,)`` for a single band. With one cell
    column each row sits in one cell, so the pairs are distinct as
    enumerated; with a band column a pair can collide in several bands,
    and one pair-hash exchange keeps it once.

    ``score(sorted_bucket, a, b) -> (keep_mask, extra_columns)`` sees
    the bucket sorted by cells and id, and the row indices of each
    candidate; it returns a boolean mask and a dict of per-pair extra
    columns (numpy arrays). ``score=None`` keeps every candidate.

    ``max_cell`` caps a hot cell's enumeration (see
    :func:`_segment_pairs`); ``None`` enumerates all pairs.
    """
    if max_cell is not None and max_cell < 2:
        raise ValueError(f"max_cell must be >= 2 (got {max_cell})")
    cells = list(cells)

    def fold(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending") for c in (*cells, id_col)])
        starts, lens = _cell_bounds(*(t.column(c).to_numpy() for c in cells))
        a, b = _segment_pairs(starts, lens, max_cell)
        extras = {}
        if score is not None:
            keep, extras = score(t, a, b)
            a, b = a[keep], b[keep]
            extras = {k: v[keep] for k, v in extras.items()}
        # sorted by id within a cell, so ids[a] <= ids[b]; a repeated id
        # is no pair (filtered after the score, which keeps far fewer)
        ids = t.column(id_col).to_numpy()
        id_a, id_b = ids[a], ids[b]
        strict = id_a < id_b
        return pa.table({"id_a": pa.array(id_a[strict], pa.int64()),
                         "id_b": pa.array(id_b[strict], pa.int64()),
                         **{k: v[strict] for k, v in extras.items()}})

    pairs = bucketed(banded, cells, fold, num_buckets=num_buckets, batch_format="pyarrow")
    return pairs if len(cells) == 1 else _distinct_pairs(pairs, num_buckets)
