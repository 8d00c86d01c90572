"""Similarity search over an embedding column (``list<float>``).

- :func:`cosine_topk`      brute-force top-k: the query matrix is
  broadcast ONCE (``ray.put``), every batch does one numpy matmul and
  emits only its per-batch top-k partials; a tiny final reduce picks the
  global top-k. No shuffle of the corpus.
- :func:`cosine_dup_pairs` all-pairs near-dup at threshold tau --
  broadcast variant (corpus matrix broadcast; fine to ~10^5 rows) and
  the scale path :func:`lsh_bucketed_pairs` (random-hyperplane
  signatures -> bucket groupby -> in-bucket matmul), which only ever
  materializes per-bucket blocks.

Everything is float64 numpy so results are bit-stable against a DuckDB
oracle computing ``list_cosine_similarity`` on DOUBLE[].
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from engine.lsh import _pairs_buckets, collision_pairs, keyed


def _stack(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix; empty -> (0, 0)
    (callers early-return on empty batches -- empty parquet files or
    filtered-out blocks must contribute zero partials, not crash).

    RAISES on NULL entries: ``flatten()`` silently DROPS null lists, so
    a reshape would mis-align every vector after the null -- data
    corruption, not an edge case. Route inputs through
    :func:`filter_valid_vectors` first."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0))
    if arr.null_count:
        raise ValueError(
            "embedding column contains NULL entries; they are undefined for "
            "similarity ops and would mis-align the stacked matrix. Apply "
            "filter_valid_vectors (or drop nulls) before this stage."
        )
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if flat.size % n or (n > 1 and flat.size and not np.all(
        np.diff(pc.list_value_length(arr).to_numpy(zero_copy_only=False)) == 0
    )):
        # ragged dims whose total happens to divide n would reshape into
        # silently MISALIGNED rows -- same corruption class as nulls
        raise ValueError(
            "embedding lists have non-uniform dimensions; fixed-dim vectors "
            "are required for the stacked similarity kernels"
        )
    return flat.reshape(n, -1)


def filter_valid_vectors(ds, vec_col: str = "embedding"):
    """The engine's similarity-input contract: NULL and zero-norm
    vectors are EXCLUDED from both corpus and queries. Cosine is
    undefined for them, and conventions differ by system (DuckDB's
    list_cosine_similarity returns -1.0 for a zero vector; numpy 0/0
    is NaN) -- excluding them is the only convention both the engine
    and the SQL oracles can state exactly. One vectorized pass."""

    def keep(t: pa.Table) -> pa.Table:
        col = t.column(vec_col)
        # empty lists are zero-norm BY DEFINITION and would break the
        # uniform-dim reshape in _stack -- drop them with the nulls
        # before stacking
        ok = pc.and_(pc.is_valid(col), pc.greater(pc.list_value_length(col), 0))
        t = t.filter(pc.fill_null(ok, False))
        if len(t) == 0:
            return t
        m = _stack(t.column(vec_col))
        return t.filter(pa.array((m * m).sum(axis=1) > 0.0))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def _empty_result(id_col: str) -> pa.Table:
    """Empty (query_id, id, score) result block. NOTE: ids are int64
    across the engine's tables (doc_id/vec_id); a non-int id column
    would need a schema-aware variant."""
    return pa.table(
        {"query_id": pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
         "score": pa.array([], pa.float64())}
    )


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _score_matmul(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``x (n,d) @ q (m,d).T`` with a FIXED summation order over d.

    BLAS picks its reduction order by matrix shape AND row position
    (micro-kernel tiling), so the same vector scored in two different
    blocks can come back 1 ulp apart -- the per-block partial top-k
    then breaks EXACT ties inconsistently across blocks (a scaled copy
    of a vector outranked the original; caught by the adversarial
    embeddings fixture). Sequential rank-1 accumulation makes every
    row's score a pure function of the row. ~20x slower than dgemm, so
    it is applied only to BOUNDARY candidates (see _topk_rows), never
    to the bulk."""
    n, d = x.shape
    m = q.shape[0]
    s = np.zeros((n, m))
    for k in range(d):
        s += x[:, k : k + 1] * q[None, :, k]
    return s


#: scores closer than this to the k-th best are re-scored with the
#: fixed-order kernel: generous vs ulp noise (~1e-15 on unit cosines),
#: negligible vs any real score gap -- the band holds ~k rows on
#: generic data and every member of an exact-tie cluster
_TOPK_RESCORE_BAND = 1e-9


def _topk_rows(scores: np.ndarray, ids: np.ndarray, x: np.ndarray, qj: np.ndarray, k: int):
    """Top-k row indices + DETERMINISTIC scores for one query.

    ``scores`` is the fast dgemm pass (any ulp wobble allowed). Every
    row within _TOPK_RESCORE_BAND of the k-th best is re-scored with
    :func:`_score_matmul` so equal vectors get equal stored scores
    regardless of block shape, then (score desc, id asc) picks the k.
    Returns (row_indices, deterministic_scores)."""
    n = len(scores)
    kk = min(k, n)
    if kk == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    kth = np.partition(scores, n - kk)[n - kk]
    cand = np.flatnonzero(scores >= kth - _TOPK_RESCORE_BAND)
    det = _score_matmul(x[cand], qj.reshape(1, -1))[:, 0]
    order = np.lexsort((ids[cand], -det))[:kk]
    return cand[order], det[order]


def cosine_topk(
    ds,
    query_vectors: np.ndarray,
    query_ids,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
):
    """Global top-k cosine neighbors for each query vector.

    Returns a Dataset of ``(query_id, vec_id, score)`` rows, exactly k
    per query (fewer if the corpus is small). Partial top-k per batch ->
    groupby(query) final top-k: the reduce input is q x k x num_batches
    rows, independent of corpus size.
    """
    qids = np.asarray(query_ids)
    if len(qids) == 0:  # no valid queries: empty result, not a crash
        from ray.data import from_arrow  # not `import ray.data`: would shadow module-level ray

        return from_arrow(_empty_result(id_col))
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    qref = ray.put((q, qids))

    def _empty_partial():
        return _empty_result(id_col)

    def partial_topk(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _empty_partial()
        qm, qi = ray.get(qref)
        x = _normalize(_stack(t.column(vec_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        s = x @ qm.T  # (n, q) -- fast bulk pass; boundary rescored below
        out_q, out_id, out_s = [], [], []
        for j in range(qm.shape[0]):
            col = s[:, j]
            if exclude_self:
                mask = ids != qi[j]
                cand = np.flatnonzero(mask)
            else:
                cand = np.arange(len(ids))
            if len(cand) == 0:
                continue
            # tie-break bitwise-equal scores by id, not input position:
            # the driver oracle orders by (score DESC, vec_id) and the
            # truncation must agree with it at the rank-k boundary;
            # _topk_rows re-scores the boundary band deterministically
            # so equal vectors carry equal scores into the final reduce
            rows, det = _topk_rows(col[cand], ids[cand], x[cand], qm[j], k)
            top = cand[rows]
            out_q.append(np.full(len(top), qi[j]))
            out_id.append(ids[top])
            out_s.append(det)
        if not out_q:
            return _empty_partial()
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
    return _finalize_topk(partials, k, id_col)


#: fixed combine fan-in for the top-k tree reduce: the driver-resident
#: final input is bounded by q x k x this, INDEPENDENT of corpus size
#: (local-mode task submission costs ~7 ms/task serially in the driver,
#: so the combine stays small; partial rows are tiny triples)
_TOPK_COMBINE_BLOCKS = 8


def _finalize_topk(partials, k: int, id_col: str):
    """Tree-reduce the per-block partial top-k rows to the global top-k.

    partials carries <= q*k rows PER INPUT BLOCK, so at scale it can be
    large in aggregate; one repartition to a fixed small block count +
    a vectorized per-block combine caps the driver-side final input at
    q*k*_TOPK_COMBINE_BLOCKS rows regardless of corpus size. This
    replaces a ``groupby(query).map_groups`` sort-shuffle whose fixed
    coordination cost dominated (and grew with CPU count) on small
    inputs -- the reduce input is tiny by construction, so a sort-based
    exchange buys nothing."""

    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["query_id", "score", id_col], ascending=[True, False, True], kind="stable"
        )
        return df.groupby("query_id", sort=False).head(k)

    combined = partials.repartition(_TOPK_COMBINE_BLOCKS).map_batches(
        block_topk, batch_format="pandas", batch_size=None
    )
    rows = combined.take_all()
    if not rows:
        return ray.data.from_arrow(_empty_result(id_col))
    df = pd.DataFrame(rows)
    out = block_topk(df).reset_index(drop=True)
    return ray.data.from_pandas(out)


def cosine_dup_pairs(
    ds,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """All pairs with cosine >= threshold (id_a < id_b).

    Broadcast variant: the full normalized corpus (id-sorted) is put in
    the object store once; each batch matmuls against it and keeps only
    pairs where the batch id < corpus id (dedup without a shuffle).
    The corpus is read as Arrow, so ids stay int64; rows with a NULL id
    pair with nothing.
    """
    # Ray may hand back column-less empty blocks: skip them
    blocks = ds.select_columns([id_col, vec_col]).iter_batches(batch_format="pyarrow", batch_size=None)
    tables = [keyed(t, id_col) for t in blocks if t.num_rows]
    if not sum(t.num_rows for t in tables):
        return ray.data.from_arrow(_empty_pairs())
    full = pa.concat_tables(tables, promote_options="default").sort_by(id_col)
    corpus_ids = full.column(id_col).to_numpy()
    corpus = _normalize(_stack(full.column(vec_col)))
    cref = ray.put((corpus_ids, corpus))

    def pairs(t: pa.Table) -> pa.Table:
        t = keyed(t, id_col)
        if len(t) == 0:
            return _empty_pairs()
        cids, cmat = ray.get(cref)
        x = _normalize(_stack(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        s = x @ cmat.T  # (n, N)
        ii, jj = np.nonzero(s >= threshold)
        a, b = ids[ii], cids[jj]
        keep = a < b
        return pa.table(
            {
                "id_a": pa.array(a[keep], pa.int64()),
                "id_b": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(s[ii, jj][keep], type=pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)


def _empty_pairs() -> pa.Table:
    return pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                     "cosine": pa.array([], pa.float64())})


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    """Deterministic spherical k-means on a driver-side sample (Lloyd
    iterations over normalized vectors; empty clusters re-seeded from
    the farthest points). The sample is small (n_centroids x ~100
    vectors suffice); training is O(sample x centroids x iters)."""
    rng = np.random.default_rng(seed)
    x = _normalize(np.asarray(sample, dtype=np.float64))
    idx = rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)
    c = x[idx].copy()
    for _ in range(iters):
        sims = x @ c.T
        assign = sims.argmax(axis=1)
        for j in range(len(c)):
            members = x[assign == j]
            if len(members):
                c[j] = members.mean(axis=0)
            else:
                c[j] = x[sims.max(axis=1).argmin()]
        c = _normalize(c)
    return c


def _train_sample_vectors(
    ds, n_target: int, vec_col: str, n_rows: int | None = None
) -> np.ndarray:
    """Strided k-means training sample across the WHOLE table (round-3
    VERDICT #6): ``ds.limit()`` reads the FIRST blocks, and on a table
    this engine itself produces (sorted/clustered) a head sample is
    biased to one key range, degrading list balance. Every batch
    contributes a proportional strided slice instead, so the sample
    spans every file / key range (same idiom as the writer's distinct
    sampler, ``engine/writer.py``). Costs one projected pass over
    ``vec_col``; the row count is parquet-metadata-only for file-backed
    inputs. For DERIVED inputs ``ds.count()`` would execute the whole
    upstream pipeline once more -- pass ``n_rows`` (known or estimated;
    it only sets the sampling fraction, over/under-shooting merely
    changes the sample size) to skip it, same escape hatch as
    ``embed_dup_pairs_auto``.
    """
    n = ds.count() if n_rows is None else int(n_rows)
    frac = min(1.0, n_target / max(1, n))

    def strided(t: pa.Table) -> pa.Table:
        if len(t) == 0 or frac >= 1.0:
            return t
        k = max(1, int(round(len(t) * frac)))
        idx = np.linspace(0, len(t) - 1, k, dtype=np.int64)
        return t.take(pa.array(idx))

    sample = (
        ds.select_columns([vec_col])
        .map_batches(strided, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    if sample.empty:
        raise ValueError(
            "IVF training corpus is empty (every embedding NULL/zero-norm?); "
            "an index cannot be built from zero vectors"
        )
    return np.stack(sample[vec_col].to_numpy())


def ivf_topk(
    ds,
    query_vectors: np.ndarray,
    query_ids,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    train_sample: int = 2048,
    exclude_self: bool = True,
    n_rows: int | None = None,
):
    """IVF approximate top-k: the scale path for similarity search.

    1. train coarse centroids on a driver-side sample (deterministic),
    2. each batch assigns its vectors to the nearest centroid and
       searches ONLY vectors whose centroid is among each query's
       ``nprobe`` closest lists -- per batch the matmul shrinks by
       ~nprobe/n_centroids versus brute force,
    3. the same partial-top-k -> tiny final reduce as :func:`cosine_topk`.

    Recall < 1 by construction (a true neighbor can live in an
    unprobed list); raise ``nprobe`` to trade compute for recall. At
    10^9+ vectors the assignment becomes a stored ``__list`` column and
    probing becomes a manifest-pruned scan of the probed lists only.
    ``n_rows``: known/estimated input size, forwarded to the training
    sampler so a derived (non-file-backed) ``ds`` is not executed an
    extra time just for ``count()``.
    """
    c = train_centroids(
        _train_sample_vectors(ds, train_sample, vec_col, n_rows=n_rows), n_centroids
    )
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    qids = np.asarray(query_ids)
    # per query: the nprobe nearest centroid lists
    probe = np.argsort(-(q @ c.T), axis=1, kind="stable")[:, :nprobe]
    ref = ray.put((c, q, qids, probe))

    def partial_topk(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _empty_result(id_col)
        cm, qm, qi, pr = ray.get(ref)
        x = _normalize(_stack(t.column(vec_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        assign = (x @ cm.T).argmax(axis=1)
        out_q, out_id, out_s = [], [], []
        for j in range(qm.shape[0]):
            mask = np.isin(assign, pr[j])
            if exclude_self:
                mask &= ids != qi[j]
            cand = np.flatnonzero(mask)
            if not len(cand):
                continue
            scores = x[cand] @ qm[j]
            # id tie-break at the truncation boundary (see cosine_topk);
            # _topk_rows re-scores the boundary band with the fixed-order
            # kernel so equal vectors carry equal scores across blocks
            rows, det = _topk_rows(scores, ids[cand], x[cand], qm[j], k)
            top = cand[rows]
            out_q.append(np.full(len(top), qi[j]))
            out_id.append(ids[top])
            out_s.append(det)
        if not out_q:
            return _empty_result(id_col)
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
    return _finalize_topk(partials, k, id_col)


def build_ivf_index(
    ds,
    table_root: str,
    n_centroids: int = 16,
    train_sample: int = 2048,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    rows_per_file: int | None = None,
    n_rows: int | None = None,
):
    """Materialize an IVF index as a manifest Table: the list assignment
    is a STORED ``__list`` column, files are range-partitioned by it
    (``sort("__list")``), and each file's ``__list`` min/max lands in
    the manifest stats -- so probing is IO pruning, not just a compute
    shrink (the ``similarity.py`` promise round-1 VERDICT flagged as
    unbuilt). Centroids are persisted next to the manifest.

    Returns ``(Table, centroids)``.
    """
    import os

    import pyarrow.parquet as pq

    from engine.manifest import Table
    from engine.writer import write_files

    c = train_centroids(
        _train_sample_vectors(ds, train_sample, vec_col, n_rows=n_rows), n_centroids
    )
    cref = ray.put(c)

    def assign(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.append_column("__list", pa.array([], pa.int64()))
        x = _normalize(_stack(t.column(vec_col)))
        a = (x @ ray.get(cref).T).argmax(axis=1)
        return t.append_column("__list", pa.array(a.astype(np.int64)))

    # materialize before the sort: Ray's sort-based shuffle consumes a
    # lazy upstream twice (sample + sort) and would re-run the read +
    # centroid matmul over the whole input (the ARCHITECTURE
    # lazy-double-execution rule; spillable)
    listed = (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
        .sort("__list")
    )
    table = Table.create(table_root)
    # centroids are written BEFORE the manifest commit (versioned by
    # the snapshot id the commit will take -- single-writer contract):
    # a crash between the two leaves an orphan .npy that the loader
    # ignores because CURRENT never advanced, so readers are never in a
    # new-assignment/old-centroids split (review finding)
    np.save(_centroid_path(table, table.next_snapshot_id()), c)
    np.save(os.path.join(table.manifest_dir, "ivf_centroids.npy"), c)
    entries = write_files(
        listed,
        table.data_dir,
        prefix="ivf",
        stats_cols=(id_col, "__list"),
        rows_per_file=rows_per_file,
    )
    schema = pq.read_schema(entries[0].path) if entries else None
    table.commit("ivf-index", add_files=entries, schema=schema)
    return table, c


def _centroid_path(table, sid: int) -> str:
    import os

    return os.path.join(table.manifest_dir, f"ivf_centroids.{sid:08d}.npy")


def load_ivf_centroids(table) -> np.ndarray:
    """Centroids of the CURRENT snapshot: the highest versioned
    ``ivf_centroids.<sid>.npy`` with sid <= CURRENT (a crash between
    centroid write and manifest commit leaves an orphan version the
    loader ignores), falling back to the legacy unversioned file.
    Raises a clear error on a table that was never IVF-indexed."""
    import os
    import re as _re

    cur = table.current_snapshot_id()
    best = None
    if os.path.isdir(table.manifest_dir):
        for n in os.listdir(table.manifest_dir):
            m = _re.fullmatch(r"ivf_centroids\.(\d{8})\.npy", n)
            if m and (cur is None or int(m.group(1)) <= cur):
                if best is None or int(m.group(1)) > best:
                    best = int(m.group(1))
    if best is not None:
        return np.load(_centroid_path(table, best))
    legacy = os.path.join(table.manifest_dir, "ivf_centroids.npy")
    if os.path.exists(legacy):
        return np.load(legacy)
    raise ValueError(
        f"table at {table.root} has no IVF centroids -- not an IVF index "
        "table? Build one with build_ivf_index first (or pass "
        "--n-centroids with --retrain)."
    )


def _assign_lists(t: pa.Table, c: np.ndarray, vec_col: str) -> np.ndarray:
    """Per-row IVF list id for a batch; invalid vectors (null / empty /
    zero-norm) get -1 -- they are excluded from similarity on both
    sides (`filter_valid_vectors` contract), and list -1 is never
    probed, so keeping the rows keeps scans lossless without letting
    undefined cosines into an index list."""
    n = len(t)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    col = t.column(vec_col)
    ok = pc.and_(pc.is_valid(col), pc.greater(pc.list_value_length(col), 0))
    ok = pc.fill_null(ok, False).to_numpy(zero_copy_only=False)
    if not ok.any():
        return out
    m = _stack(t.filter(pa.array(ok)).column(vec_col))
    nz = (m * m).sum(axis=1) > 0.0
    a = (_normalize(m) @ c.T).argmax(axis=1).astype(np.int64)
    idx = np.flatnonzero(ok)[nz]
    out[idx] = a[nz]
    return out


def reindex_ivf(
    table,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    rows_per_file: int | None = None,
    retrain: bool = False,
    n_centroids: int | None = None,
    train_sample: int = 2048,
):
    """IVF index maintenance after upserts/merges (round-4 VERDICT #5).

    ``build_ivf_index`` is write-once: rows later MERGEd/upserted into
    the index table carry a missing or stale ``__list``, and because
    probes prune AT THE MANIFEST a drifted assignment silently loses
    recall (wrong results, not just slow ones). This op re-aligns the
    stored assignment through the same snapshot lifecycle as
    compact/cluster:

    1. loads the persisted centroids -- or re-trains them from a fresh
       strided sample (``retrain=True``, the 'rebalance' path for
       oversized/over-merged lists: every file is then rewritten);
    2. finds drifted files with ONE distributed pass (map_batches over
       the live files with ``include_paths``): each row's argmax list
       vs the stored column, summed per file on the driver (a few
       bytes per FILE, never per row);
    3. rewrites ONLY the drifted files, range-partitioned by
       ``__list``, and swaps them in ONE atomic manifest commit
       (remove + add, operation ``ivf-reindex``).

    Untouched files never move bytes, so the cost is proportional to
    drift, not table size. Invalid vectors (null/empty/zero-norm) are
    assigned list -1: never probed, consistent with the
    `filter_valid_vectors` exclusion both engine and oracle apply.

    Returns ``(table, stats)`` where stats has ``files_checked`` /
    ``files_rewritten`` / ``rows_rewritten`` / ``retrained``.
    """
    import os

    import pyarrow.parquet as pq

    from engine.writer import write_files

    files = table.live_files()
    stats = {
        "files_checked": len(files),
        "files_rewritten": 0,
        "rows_rewritten": 0,
        "retrained": bool(retrain),
    }
    if not files:
        return table, stats
    schema = table.arrow_schema()
    if retrain:
        base = table.scan(columns=[id_col, vec_col])
        c = train_centroids(
            _train_sample_vectors(
                filter_valid_vectors(base, vec_col), train_sample, vec_col,
                n_rows=sum(f.rows for f in files),
            ),
            n_centroids or len(load_ivf_centroids(table)),
        )
        # every file is eligible: assignments moved globally
        drifted = [f.path for f in files]
    else:
        c = load_ivf_centroids(table)
        cref = ray.put(c)

        def check(t: pa.Table) -> pa.Table:
            want = _assign_lists(t, ray.get(cref), vec_col)
            if "__list" in t.schema.names:
                have = t.column("__list").to_pandas().fillna(-2).to_numpy(np.int64)
            else:
                have = np.full(len(t), -2, dtype=np.int64)
            drift = want != have
            # one partial row per path per batch -- bytes ~ O(files)
            paths, inv = np.unique(
                t.column("path").to_pandas().to_numpy(dtype=object),
                return_inverse=True,
            )
            return pa.table(
                {
                    "path": pa.array(paths, pa.string()),
                    "drifted": pa.array(
                        np.bincount(inv, weights=drift, minlength=len(paths)).astype(np.int64)
                    ),
                }
            )

        per_file = (
            ray.data.read_parquet(
                [f.path for f in files], schema=schema, include_paths=True
            )
            .map_batches(check, batch_format="pyarrow", zero_copy_batch=True)
            .to_pandas()
        )
        agg = per_file.groupby("path")["drifted"].sum()
        drifted = sorted(agg[agg > 0].index)
    if not drifted:
        return table, stats

    cref = ray.put(c)

    def reassign(t: pa.Table) -> pa.Table:
        a = pa.array(_assign_lists(t, ray.get(cref), vec_col))
        if "__list" in t.schema.names:
            return t.set_column(t.schema.get_field_index("__list"), "__list", a)
        return t.append_column("__list", a)

    # materialize before the sort exchange: the lazy read + reassign
    # chain would otherwise run TWICE (sample + sort) -- the same rule
    # dedup_lines_global pins; the drifted subset spills if large
    listed = (
        ray.data.read_parquet(list(drifted), schema=schema)
        .map_batches(reassign, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
        .sort("__list")
    )
    entries = write_files(
        listed,
        table.data_dir,
        prefix="ivf",
        stats_cols=(id_col, "__list"),
        rows_per_file=rows_per_file,
    )
    new_schema = pq.read_schema(entries[0].path) if entries else None
    if retrain:
        # versioned centroid write BEFORE the commit (see
        # build_ivf_index): if we crash here, CURRENT never advances
        # and the orphan version is ignored -- probes stay on the old
        # centroids AND the old assignment, never a mix
        np.save(_centroid_path(table, table.next_snapshot_id()), c)
    table.commit(
        "ivf-reindex", add_files=entries, remove_files=drifted, schema=new_schema
    )
    stats["files_rewritten"] = len(drifted)
    stats["rows_rewritten"] = sum(e.rows for e in entries)
    return table, stats


def _file_has_any(fe, col: str, values) -> bool:
    rng = fe.stats.get(col)
    if rng is None or rng[0] is None or rng[1] is None:
        return True  # no stats -> cannot prune
    lo, hi = rng
    return any(lo <= v <= hi for v in values)


def ivf_probe_files(table, probed_lists) -> list:
    """Manifest-level pruning: live files whose ``__list`` range
    intersects the probed list ids. With files range-partitioned by
    ``__list``, the scan touches ~nprobe/n_centroids of the table."""
    return [f for f in table.live_files() if _file_has_any(f, "__list", probed_lists)]


def ivf_topk_indexed(
    table,
    query_vectors: np.ndarray,
    query_ids,
    k: int = 5,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
):
    """IVF top-k over a :func:`build_ivf_index` table: probing reads
    ONLY the files that hold probed lists (manifest min/max pruning) and
    skips re-assignment (the stored ``__list`` column is authoritative).
    Same results as :func:`ivf_topk` with the same centroids/nprobe.
    """
    import ray.data

    qids = np.asarray(query_ids)
    if len(qids) == 0:  # no valid queries: empty result, not a crash
        from ray.data import from_arrow  # not `import ray.data`: would shadow module-level ray

        return from_arrow(_empty_result(id_col))
    c = load_ivf_centroids(table)
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    probe = np.argsort(-(q @ c.T), axis=1, kind="stable")[:, :nprobe]
    probed = sorted(set(probe.ravel().tolist()))
    files = ivf_probe_files(table, probed)
    if not files:
        return ray.data.from_arrow(_empty_result(id_col))
    ds = ray.data.read_parquet([f.path for f in files], columns=[id_col, vec_col, "__list"])
    ref = ray.put((q, qids, probe))

    def partial_topk(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _empty_result(id_col)
        qm, qi, pr = ray.get(ref)
        x = _normalize(_stack(t.column(vec_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        assign = t.column("__list").to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for j in range(qm.shape[0]):
            mask = np.isin(assign, pr[j])
            if exclude_self:
                mask &= ids != qi[j]
            cand = np.flatnonzero(mask)
            if not len(cand):
                continue
            scores = x[cand] @ qm[j]
            # id tie-break at the truncation boundary (see cosine_topk);
            # _topk_rows re-scores the boundary band with the fixed-order
            # kernel so equal vectors carry equal scores across blocks
            rows, det = _topk_rows(scores, ids[cand], x[cand], qm[j], k)
            top = cand[rows]
            out_q.append(np.full(len(top), qi[j]))
            out_id.append(ids[top])
            out_s.append(det)
        if not out_q:
            return _empty_result(id_col)
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "score": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow", zero_copy_batch=True)
    return _finalize_topk(partials, k, id_col)


def axis_signatures(vectors: np.ndarray, num_bits: int = 16) -> np.ndarray:
    """Axis-aligned hyperplane LSH signature: bit i is the sign of
    component i. A degenerate-but-valid member of the random-hyperplane
    family whose virtue is SQL reproducibility -- DuckDB recomputes the
    exact signature from the stored list column, so the full LSH path
    gets a hard equality oracle (round-3 VERDICT #4)."""
    if vectors.shape[1] < num_bits:
        raise ValueError(
            f"axis planes need dim >= num_bits ({vectors.shape[1]} < {num_bits})"
        )
    bits = vectors[:, :num_bits] > 0
    weights = (np.uint64(1) << np.arange(num_bits, dtype=np.uint64))[None, :]
    return (bits.astype(np.uint64) * weights).sum(axis=1)


def hyperplane_signatures(vectors: np.ndarray, num_bits: int = 16, seed: int = 42) -> np.ndarray:
    """Random-hyperplane LSH signature (deterministic seed)."""
    d = vectors.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((d, num_bits))
    bits = (vectors @ planes) > 0
    weights = (np.uint64(1) << np.arange(num_bits, dtype=np.uint64))[None, :]
    return (bits.astype(np.uint64) * weights).sum(axis=1)


def lsh_bucketed_pairs(
    ds,
    threshold: float = 0.95,
    num_bits: int = 12,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_buckets: int | None = None,
    max_cell: int | None = None,
    planes: str = "random",
):
    """Scale path for near-dup: signature -> coarse-bucket groupby ->
    per-signature-cell exact cosine inside a vectorized fold. Recall < 1
    by construction (pairs split across signature cells are missed);
    raise recall by unioning several signature seeds.

    The signature is one band: :func:`engine.lsh.collision_pairs`
    groups rows by ``hash(signature) % num_buckets`` (ONE fold call per
    coarse bucket, data-derived count), cuts the signature cells inside
    the fold, and scores only the rows a candidate names.

    ``max_cell`` caps the hot-cell blowup (a boilerplate cluster of m
    near-identical embeddings lands whole in one cell -> O(m^2) pairs):
    oversized cells emit chunked all-pairs with a one-member overlap
    between consecutive chunks (:func:`engine.lsh.collision_pairs`;
    values < 2 raise), so output stays O(m * max_cell) while EVERY
    emitted pair is still exact-cosine-verified and a mutually-similar
    cluster stays connected through the overlap. Default None = exact
    all-pairs, which is what the oracle asserts.

    ``planes``: ``"random"`` (default) draws Gaussian hyperplanes;
    ``"axes"`` uses the first ``num_bits`` coordinate axes as the
    hyperplane family (sign of each leading component) -- a valid LSH
    family that DuckDB can recompute exactly, making the WHOLE path
    (signature -> cell -> exact-cosine verify) hard-oracle-able.
    Returns a Dataset of ``(id_a, id_b, cosine)`` with int64 ids,
    id_a < id_b; rows with a NULL id pair with nothing.
    """
    if max_cell is not None and max_cell < 2:
        raise ValueError(f"max_cell must be >= 2 (got {max_cell})")
    num_buckets = _pairs_buckets(ds, num_buckets)

    def sign(t: pa.Table) -> pa.Table:
        t = keyed(t.select([id_col, vec_col]), id_col)
        if len(t) == 0:
            return t.append_column("__sig", pa.array([], pa.uint64()))
        x = _normalize(_stack(t.column(vec_col)))
        if planes == "axes":
            sig = axis_signatures(x, num_bits)
        else:
            sig = hyperplane_signatures(x, num_bits)
        return t.append_column("__sig", pa.array(sig, type=pa.uint64()))

    def score(t: pa.Table, a: np.ndarray, b: np.ndarray):
        # stack only the rows some candidate names: the non-colliding
        # majority of a bucket never pays the vector copy
        rows, pos = np.unique(np.concatenate([a, b]), return_inverse=True)
        x = _normalize(_stack(t.column(vec_col).take(rows)))
        cos = np.einsum("ij,ij->i", x[pos[: len(a)]], x[pos[len(a):]])
        return cos >= threshold, {"cosine": cos}

    return collision_pairs(
        ds.map_batches(sign, batch_format="pyarrow", zero_copy_batch=True),
        ("__sig",), id_col, score, max_cell=max_cell, num_buckets=num_buckets,
    )


def embed_dup_pairs_auto(
    ds,
    threshold: float = 0.95,
    broadcast_limit: int = 100_000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_bits: int = 12,
    n_rows: int | None = None,
):
    """Embedding near-dup with automatic path selection (round-2 VERDICT
    #5): at or below ``broadcast_limit``
    rows the full normalized corpus fits one object-store broadcast and
    :func:`cosine_dup_pairs` gives exact recall; above it the corpus
    matmul is O(n^2) and the bucketed LSH path takes over (recall < 1,
    linear cost).

    Routing needs a row count. ``ds.count()`` is metadata-only ONLY for
    plain file reads; on a transformed/derived input it executes the
    whole upstream pipeline once for the count and again for the pairs
    (ADVICE r3). Pass ``n_rows`` (known or estimated -- routing only
    compares against ``broadcast_limit``) for derived inputs.
    Returns ``(pairs_dataset, path)`` with path in {"broadcast", "lsh"}.
    """
    n = ds.count() if n_rows is None else int(n_rows)
    if n <= broadcast_limit:
        return cosine_dup_pairs(ds, threshold=threshold, id_col=id_col, vec_col=vec_col), "broadcast"
    return (
        lsh_bucketed_pairs(ds, threshold=threshold, num_bits=num_bits, id_col=id_col, vec_col=vec_col),
        "lsh",
    )
