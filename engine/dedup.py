"""Deduplication operators over the ``documents`` table.

- :func:`exact_dedup`          hash-partition + per-group first
- :func:`minhash_dedup_pairs`  shingle -> minhash -> banded LSH -> verify
- :func:`simhash_signatures` / :func:`simhash_dup_pairs`  64-bit simhash,
  band-bucketed Hamming candidates
- :func:`dedup_lines_global`   C4-style cross-document line dedup
- :func:`_pairwise_jaccard`    word-n-gram Jaccard verification kernel
  (vectorized over a whole pair batch)
- embedding-cosine near-dup lives in :mod:`engine.similarity`

The two near-dup pipelines build their band rows here and enumerate
candidates with :func:`engine.lsh.collision_pairs`, the one collision
fold they share with :func:`engine.similarity.lsh_bucketed_pairs`.

All hashing is deterministic (crc32 + fixed multiply-shift mixers, no
process-seeded randomness), so results are reproducible across runs and
workers -- a requirement for resumable jobs.

Scale notes: the LSH pipelines shuffle only ``(band, hash, doc_id)``
triples (16-24 bytes/row x bands), never the documents themselves; the
verify stage is a hash-partitioned join of candidate pairs against the
corpus on doc_id (:func:`_attach_pair_texts`) -- document text moves
only through the object store, never the driver. When the candidate
set is small, a driver-held candidate-id array pre-filters the corpus
so only candidate texts ride the join shuffle (ids are 8 bytes/doc and
bounded by LSH collisions; the texts themselves are never collected).
"""

from __future__ import annotations

import re
import zlib
from typing import Iterable, List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from engine.exchange import bucketed
from engine.lsh import _input_bytes, _pairs_buckets, collision_pairs, keyed
from engine.textstats import TOKEN_PATTERN as _TOKEN_PATTERN  # noqa: E402
from engine.textstats import _WINDOW_MASK, TextBatch, windows  # noqa: E402

_TOKEN_RE = re.compile(_TOKEN_PATTERN)  # ONE definition of the token class

_MERSENNE = np.uint64((1 << 61) - 1)

#: the hash of a NULL key, whatever the key column's type
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def _crc32_array(strings: Iterable[str]) -> np.ndarray:
    """Deterministic 32-bit content hash per string (C-speed crc32)."""
    return np.fromiter(
        (zlib.crc32(s.encode("utf-8")) for s in strings), dtype=np.uint64
    )


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer -- spreads crc32 values over 64 bits."""
    h = h.astype(np.uint64)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


#: _HB_MASK8[k] keeps the first k of 8 bytes (same trick as
#: _TOK_MASK16): zeroes a short window's tail in one vectorized AND.
_HB_MASK8 = ((np.arange(8)[None, :] < np.arange(9)[:, None]) * 255).astype(np.uint8)

#: content bytes folded per string before hash64_strings switches to
#: "prefix + final-8-bytes + length" -- a BUCKET-SPREAD bound, not a
#: fingerprint truncation (see docstring)
_HASH64_MAX_ROUNDS = 32


def hash64_strings(arr) -> np.ndarray:
    """Vectorized 64-bit content hash of an Arrow string array -- zero
    per-row Python (the ``pd.util.hash_array``-over-objects path builds
    one PyObject per row first).

    Equal strings always hash equal; nulls hash to a fixed constant
    (callers that care redirect them anyway, e.g. merge's round-robin
    passthrough spread). The value is deterministic WITHIN one
    deployment (every Ray worker in a run shares this container's
    pinned libraries) but is never persisted -- consumers are
    in-flight bucket spread and membership prefilters only.

    DEPLOYMENT INVARIANT: the polars and numpy kernels produce
    DIFFERENT values for the same string, so a heterogeneous cluster
    (polars importable on some workers only) would silently split keys
    across buckets and produce Bloom false negatives. Ray's standard
    homogeneous-image / runtime_env-pinned deployment satisfies this;
    if you run mixed worker environments, pin one kernel for the whole
    run instead of relying on the import probe.

    Fast path: polars' Rust xxhash over the Arrow buffer (~150 ms/M
    40-char urls, 2.8x the numpy fold, 4x ``hash_array``-on-objects).
    Fallback (no polars) is a pure-numpy splitmix64 fold of 8-byte
    little-endian windows of the flat UTF-8 buffer: round r processes
    every string longer than 8r bytes at once (strided-view gather +
    tail-mask LUT, the ``_token_hashes_fast`` idiom); strings longer
    than 8*``_HASH64_MAX_ROUNDS`` bytes fold their prefix plus their
    FINAL 8-byte window (long URLs share prefixes; the tail
    disambiguates) -- on that path over-long strings get a SPREAD
    hash seeded with the exact length, not a content fingerprint,
    which any modulo-bucket / prefilter consumer tolerates.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    null_mask = None
    if arr.null_count:
        null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
    try:
        import polars as pl

        h = pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64, copy=False)
        if null_mask is not None:
            h = h.copy()
            h[null_mask] = _NULL_HASH
        return h
    except ImportError:  # pragma: no cover - polars is in the image
        pass
    return _hash64_strings_numpy(arr, null_mask)


def hash64_keys(keys) -> np.ndarray:
    """64-bit hash of a key column of ANY type -- the ONE dispatch for
    every consumer whose batches must agree on a key's hash within a
    run: every :func:`engine.exchange.bucketed` exchange (MERGE, as-of
    join, windows, top-k, the dedup/LSH and line-dedup pipelines) and
    :func:`engine.exchange.bucket_ids` (the streaming-upsert shard
    routing). Arrow string / large_string
    columns ride :func:`hash64_strings` (zero per-row Python); other
    types fall back to the pandas object hash. Accepts ``pa.Array`` /
    ``pa.ChunkedArray`` / ``pd.Series``. Every NULL hashes to
    ``_NULL_HASH`` whatever the column type -- a batch whose key column
    arrives typed ``null`` co-locates its nulls with a typed batch's --
    so an exchange keyed by a column puts them in one bucket; MERGE
    redirects them itself (``merge._merge_hashes``)."""
    import pandas as pd

    if isinstance(keys, pd.Series):
        keys = pa.Array.from_pandas(keys)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    t = keys.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return hash64_strings(keys)
    # integer / temporal / float keys hash their canonical 64-bit value
    # pattern (vectorized mix64) -- NOT the pandas object hash, which is
    # NULL-SENSITIVE: an int64 batch containing any null converts to
    # float64 objects (1 hashes as 1.0) while a null-free batch of the
    # same key hashes the int, silently splitting one key across buckets
    # between the two sides of a join (caught by the adversarial asof
    # fixture in tests/test_entry_contract.py).
    if pa.types.is_unsigned_integer(t) and t.bit_width == 64:
        # uint64 beyond int64 max cannot cast; hash the raw bit pattern
        # (value-consistent with the int64 branch for shared values)
        v = pc.fill_null(keys, 0).to_numpy(zero_copy_only=False)
        h = _mix64(v.astype(np.uint64))
    elif (
        pa.types.is_integer(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_boolean(t)
    ):
        v = pc.fill_null(keys.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
        h = _mix64(v.astype(np.int64).view(np.uint64))
    elif pa.types.is_floating(t):
        v = pc.fill_null(keys.cast(pa.float64()), 0.0).to_numpy(zero_copy_only=False)
        v = np.where(v == 0.0, 0.0, v)  # -0.0 == 0.0 must hash equal
        h = _mix64(v.view(np.uint64))
    else:
        h = pd.util.hash_array(keys.to_pandas().to_numpy(dtype=object), categorize=False)
    if keys.null_count:
        h[pc.is_null(keys).to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def _hash64_strings_numpy(arr: pa.Array, null_mask=None) -> np.ndarray:
    """The pure-numpy splitmix64 window fold (see ``hash64_strings``) --
    the no-polars fallback, kept directly unit-tested."""
    if null_mask is not None:
        arr = pc.fill_null(arr, "")
    arr = arr.cast(pa.large_string())
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64, count=n + 1, offset=arr.offset * 8)
    lo, hi = int(offs[0]), int(offs[-1])
    nb = hi - lo
    B = np.empty(nb + 7, np.uint8)
    if nb:
        B[:nb] = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[lo:hi]
    B[nb:] = 0
    starts = (offs[:-1] - lo).astype(np.int64)
    lens = (offs[1:] - offs[:-1]).astype(np.int64)
    h = _mix64(lens.astype(np.uint64) ^ np.uint64(0xA076_1D64_78BD_642F))
    win = np.lib.stride_tricks.as_strided(B, shape=(max(nb, 1), 8), strides=(1, 1))
    live = np.flatnonzero(lens > 0)
    r = 0
    while len(live) and r < _HASH64_MAX_ROUNDS:
        rem = lens[live] - 8 * r
        w8 = win[starts[live] + 8 * r] & _HB_MASK8[np.minimum(rem, 8)]
        h[live] = _mix64(h[live] ^ w8.view(np.uint64).ravel())
        r += 1
        live = live[rem > 8]
    if len(live):  # fold the final window of over-long strings
        w8 = win[starts[live] + lens[live] - 8]
        h[live] = _mix64(h[live] ^ w8.view(np.uint64).ravel().copy())
    if null_mask is not None:
        h[null_mask] = _NULL_HASH
    return h


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append a TRUE 64-bit content hash column.

    crc32+mix64 would carry only 32 bits of entropy (mix64 is a
    bijection), giving birthday collisions -- i.e. silently dropped
    non-duplicate documents -- from ~10^5 rows. blake2b(digest_size=8)
    is C-speed and collision-safe to ~2^32 documents; the 32-bit crc
    path remains fine for MinHash/SimHash where a rare token-hash
    collision only perturbs a similarity estimate.
    """
    import hashlib

    # NULL is its own group, distinct from '' (SQL GROUP BY semantics,
    # matching the exact_dedup oracle): a fixed sentinel hash for nulls
    # carries the same 2^-64 accidental-collision risk already accepted
    # for the content hash itself.
    null_h = np.uint64(0xD6E8FEB86659FD93)
    texts = batch.column(text_col).to_pylist()
    h = np.fromiter(
        (
            null_h
            if t is None
            else int.from_bytes(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(), "little")
            for t in texts
        ),
        dtype=np.uint64,
        count=len(texts),
    )
    return batch.append_column("__chash", pa.array(h, type=pa.uint64()))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per distinct content hash: hash-partition
    (groupby shuffle of the small projected columns) + per-group first.

    Shuffles only ``(hash, id)`` -- survivors are selected by a
    broadcast-able id set; callers filter the full dataset with it.
    Returns ``(survivor_id_dataset, filtered_dataset)``.
    """
    hashed = ds.map_batches(
        content_hash_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"text_col": text_col},
    )
    winners = (
        hashed.select_columns(["__chash", id_col])
        .groupby("__chash")
        .min(id_col)
    )  # columns: __chash, min(id_col)
    # ONE sorted numpy array in the object store; per-batch work is a
    # single np.isin probe against the shared (zero-copy) array -- the
    # set->array conversion must not happen once per batch. The fetch is
    # COLUMNAR (round-3 VERDICT #8): per-row iter_rows built one Python
    # dict per winner, seconds of pure interpreter at the 2M routing cap
    win_col = f"min({id_col})"
    wdf = winners.select_columns([win_col]).to_pandas()
    # to_pandas() of an EMPTY Dataset drops the columns -- an empty
    # corpus has no winners
    keep_ids = np.sort(wdf[win_col].to_numpy()) if win_col in wdf.columns else np.array([], np.int64)
    keep_ref = ray.put(keep_ids)

    def keep_only(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        keep = ray.get(keep_ref)
        return t.filter(pa.array(np.isin(ids, keep)))

    return winners, ds.map_batches(keep_only, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# shingling + MinHash + LSH
# ---------------------------------------------------------------------------

# lower() with DuckDB/utf8proc semantics -- see engine.textstats
from engine.textstats import sql_lower as _sql_lower  # noqa: E402
from engine.textstats import sql_lower_list as _sql_lower_list  # noqa: E402


def word_shingles(text: str, k: int = 3) -> List[str]:
    toks = _TOKEN_RE.findall(_sql_lower(text))
    if len(toks) < k:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]


def _perm_params(num_perm: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(42)  # fixed: determinism across workers
    a = rng.integers(1, int(_MERSENNE), num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(num_perm,) signature = min over shingles of (a*h + b) mod p."""
    if len(shingle_hashes) == 0:
        return np.full(len(a), int(_MERSENNE), dtype=np.uint64)
    prod = (a[:, None] * shingle_hashes[None, :] + b[:, None]) % _MERSENNE
    return prod.min(axis=1)


_SHINGLE_MIX = [np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F), np.uint64(0x165667B19E3779F9), np.uint64(0x27D4EB2F165667C5), np.uint64(0x85EBCA77C2B2AE63)]


def shingle_hashes_from_tokens(token_hashes: np.ndarray, k: int) -> np.ndarray:
    """k-gram shingle hashes computed numerically from per-token hashes
    (vectorized): avoids building shingle STRINGS and re-hashing them --
    each token is crc'd once, each shingle is a numpy mix of k lanes."""
    n = len(token_hashes)
    if n == 0:
        return token_hashes
    if n < k:
        k = n
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc ^= token_hashes[j : n - k + 1 + j] * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]
    return _mix64(acc)


def _flat_shingles(th: np.ndarray, lens: np.ndarray, k: int) -> tuple:
    """Flat k-gram shingle hashes over per-doc token-hash segments.

    ``th`` is the concatenated token-hash array of every document and
    ``lens`` the per-doc token counts; returns ``(sh, s_off)``: shingle
    hashes concatenated in document order plus the ``(n_docs + 1,)``
    segment offsets. Bit-identical to calling
    :func:`shingle_hashes_from_tokens` per document: ONE XOR-mix
    recurrence over the flat array with doc-crossing windows masked
    out; docs shorter than ``k`` shrink ``k`` and contribute their
    single joined shingle via a vectorized scatter (one short doc in a
    500k-doc batch must not demote the whole batch to a per-document
    Python loop -- the inverse-scaling pathology this kernel removed).
    Shared by the signature stage (:func:`minhash_signatures_flat`) and
    the exact-Jaccard verify stage (:func:`_doc_shingle_hash_sets`).
    """
    n = len(lens)
    ends = np.cumsum(lens)
    starts = ends - lens
    N = len(th)
    scount = np.where(lens == 0, 0, np.maximum(lens - k + 1, 1))
    if N >= k:
        acc = np.zeros(N - k + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                acc ^= th[j : N - k + 1 + j] * _SHINGLE_MIX[j % len(_SHINGLE_MIX)]
        acc = _mix64(acc)
        # window at flat position p is valid iff p and p+k-1 are in the
        # same doc: doc-of(p) via searchsorted on doc ends
        pos = np.arange(N - k + 1)
        same = np.searchsorted(ends, pos, side="right") == np.searchsorted(
            ends, pos + k - 1, side="right"
        )
    else:
        acc = np.zeros(0, np.uint64)
        same = np.zeros(0, bool)
    s_off = np.zeros(n + 1, np.int64)
    np.cumsum(scount, out=s_off[1:])
    short_docs = np.flatnonzero((lens > 0) & (lens < k))
    if len(short_docs):
        full = acc[same]
        sh = np.empty(int(s_off[-1]), np.uint64)
        long_cnts = np.where(lens >= k, scount, 0)
        if full.size:
            d_idx = np.repeat(np.arange(n), long_cnts)
            within = np.arange(len(full)) - np.repeat(
                np.cumsum(long_cnts) - long_cnts, long_cnts
            )
            sh[s_off[d_idx] + within] = full
        # O(#short docs) only: each contributes exactly one joined shingle
        sh[s_off[short_docs]] = np.array(
            [shingle_hashes_from_tokens(th[starts[d] : ends[d]], k)[0] for d in short_docs],
            dtype=np.uint64,
        )
    else:
        sh = acc[same]
    return sh, s_off


def minhash_signatures_flat(texts, a: np.ndarray, b: np.ndarray, k: int = 3) -> np.ndarray:
    """(n_docs, num_perm) signatures for a whole batch in flat numpy.

    Bit-identical to the per-doc path (``shingle_hashes_from_tokens`` +
    ``minhash_signature``): tokens of every document are hashed in ONE
    crc32 pass, k-gram shingle hashes are one XOR-mix recurrence over
    the flat token-hash array (doc-crossing positions masked out), and
    the (num_perm x n_shingles) min-reduce is ``np.minimum.reduceat``
    over doc segments in perm chunks. Replaces a per-document numpy
    loop that made the signature stage the one stage that scaled
    INVERSELY with cores (round-2 VERDICT #2; same refactor shape that
    won 1.7x for simhash).
    """
    num_perm = len(a)
    n = len(texts)
    sigs = np.full((n, num_perm), int(_MERSENNE), dtype=np.uint64)
    if n == 0:
        return sigs
    toks_per = [_TOKEN_RE.findall(x) for x in _sql_lower_list(texts)]
    lens = np.array([len(tk) for tk in toks_per], dtype=np.int64)
    flat = [s for tk in toks_per for s in tk]
    if not flat:
        return sigs
    th = _mix64(_crc32_array(flat))
    sh, s_off = _flat_shingles(th, lens, k)
    nz = np.diff(s_off) > 0
    # min-reduce over doc-aligned shingle SEGMENTS with the full perm
    # matrix per segment: (num_perm x ~8K) temporaries stay cache-sized
    # (measured 1.7x vs perm-chunks over the full flat array; the %
    # stays -- this numpy's uint64 shift/where loops are ~100x slower
    # than its divide, so a Mersenne fold LOSES here)
    from engine.textstats import iter_spans

    with np.errstate(over="ignore"):
        for r0, r1 in iter_spans(s_off, limit=8192):
            lo, hi = int(s_off[r0]), int(s_off[r1])
            if lo == hi:
                continue
            seg = sh[lo:hi]
            prod = (a[:, None] * seg[None, :] + b[:, None]) % _MERSENNE
            docs_nz = np.flatnonzero(nz[r0:r1]) + r0
            mins = np.minimum.reduceat(prod, s_off[docs_nz] - lo, axis=1)
            sigs[docs_nz, :] = mins.T
    return sigs


def _doc_shingle_hash_sets(texts, k: int) -> tuple:
    """Per-doc SORTED UNIQUE 64-bit shingle-hash arrays, flat + offsets.

    The exact-Jaccard mirror of ``set(word_shingles(text, k))``: same
    tokenizer (``_TOKEN_RE`` over ``sql_lower``), but each DISTINCT
    shingle STRING is represented by a 64-bit content hash -- tokens
    through pandas' siphash (``pd.util.hash_array``, full 64-bit
    entropy; the signature path's crc32 would collide at corpus vocab
    sizes), k-grams through the same XOR-mix recurrence as the
    signature path (:func:`_flat_shingles`). Equal strings always hash
    equal; distinct strings collide with p ~ 2^-64 per comparison, far
    below the float64 noise floor of the Jaccard ratio itself.

    Returns ``(u, u_off)``: the per-doc sorted-unique hash arrays
    concatenated, and ``(n_docs + 1,)`` offsets. Dedup-per-segment is
    ONE lexsort + first-of-run mask -- zero per-doc Python beyond the
    regex tokenize (which the set-based path also paid).
    """
    n = len(texts)
    low = _sql_lower_list([t if isinstance(t, str) else "" for t in texts])
    toks_per = [_TOKEN_RE.findall(x) for x in low]
    lens = np.array([len(tk) for tk in toks_per], dtype=np.int64)
    flat = [s for tk in toks_per for s in tk]
    if not flat:
        return np.empty(0, np.uint64), np.zeros(n + 1, np.int64)
    th = pd.util.hash_array(np.asarray(flat, dtype=object)).astype(np.uint64)
    sh, s_off = _flat_shingles(th, lens, k)
    did = np.repeat(np.arange(n), np.diff(s_off))
    order = np.lexsort((sh, did))
    sv, dv = sh[order], did[order]
    keep = np.empty(len(sv), bool)
    if len(sv):
        keep[0] = True
        np.logical_or(dv[1:] != dv[:-1], sv[1:] != sv[:-1], out=keep[1:])
    u = sv[keep]
    u_off = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(dv[keep], minlength=n), out=u_off[1:])
    return u, u_off


def _ragged_gather(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``flat[starts[i] : starts[i] + lens[i]]`` for all i
    with one fancy-index gather (no per-segment Python)."""
    tot = int(lens.sum())
    if tot == 0:
        return flat[:0]
    cum = np.cumsum(lens) - lens
    return flat[np.arange(tot) + np.repeat(starts - cum, lens)]


def _pairwise_jaccard(u: np.ndarray, u_off: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Exact Jaccard for every (ia[p], ib[p]) doc pair over the per-doc
    SORTED UNIQUE hash sets ``(u, u_off)`` -- zero per-pair Python and
    ZERO SORTS.

    The trick: map hash values to dense global ranks (one np.unique
    over the doc sets, O(docs x set) not O(pairs x set)), then build
    composite keys ``pair * R + rank`` by ragged-gathering each pair's
    two doc segments. Within a segment ranks ascend (the doc arrays are
    sorted and rank mapping is monotone) and across segments the pair
    id ascends, so BOTH key arrays are globally sorted by construction
    -- the intersection size per pair is one branchless binary search
    of side A into side B plus a bincount, and
    ``jac = |A n B| / (|A| + |B| - |A n B|)``. A first version
    lexsorted the gathered concatenations (O(pairs x set x log) with a
    big constant) and measured 4x SLOWER than the per-pair Python set
    fold it replaced; this form is the one that actually wins
    (BENCH/verify_micro_r5.json). Both-empty pairs -> 1.0.
    """
    usz = np.diff(u_off)
    la, lb = usz[ia], usz[ib]
    npairs = len(ia)
    uniq = np.unique(u)
    R = np.int64(len(uniq) + 1)
    if npairs * int(R) >= 2**62:  # composite-key headroom guard
        raise ValueError(
            f"pair batch too large for composite rank keys ({npairs} pairs x "
            f"{int(R)} distinct shingles); lower the verify batch size"
        )
    r = np.searchsorted(uniq, u).astype(np.int64)
    seg_a = np.repeat(np.arange(npairs, dtype=np.int64), la)
    ka = seg_a * R + _ragged_gather(r, u_off[ia], la)
    kb = np.repeat(np.arange(npairs, dtype=np.int64), lb) * R + _ragged_gather(
        r, u_off[ib], lb
    )
    inter = np.zeros(npairs, np.int64)
    if len(ka) and len(kb):
        pos = np.searchsorted(kb, ka)
        found = pos < len(kb)
        found[found] = kb[pos[found]] == ka[found]
        inter = np.bincount(seg_a[found], minlength=npairs)
    union = la + lb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


class MinHasher:
    """Batch callable: permutation params built once per worker
    process (reference pattern T3: load-once worker state). The whole batch is
    signed by :func:`minhash_signatures_flat` -- no per-document numpy
    calls in the hot path."""

    def __init__(self, num_perm: int = 128, shingle_k: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        self.a, self.b = _perm_params(num_perm)
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def _doc_signature(self, text: str) -> np.ndarray:
        """Reference per-doc path (kept as the parity seam for tests)."""
        toks = _TOKEN_RE.findall(_sql_lower(text or ""))
        sh = shingle_hashes_from_tokens(_mix64(_crc32_array(toks)), self.k)
        return minhash_signature(sh, self.a, self.b)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col)
        sigs = minhash_signatures_flat(texts, self.a, self.b, self.k)
        return pa.table(
            {
                self.id_col: ids,
                "signature": pa.array(list(sigs), type=pa.list_(pa.uint64())),
            }
        )


_MINHASH_CACHE: dict = {}


def _minhash_fn(batch: pa.Table, num_perm: int, shingle_k: int, text_col: str, id_col: str) -> pa.Table:
    key = (num_perm, shingle_k, text_col, id_col)
    st = _MINHASH_CACHE.get(key)
    if st is None:
        st = _MINHASH_CACHE[key] = MinHasher(num_perm, shingle_k, text_col, id_col)
    return st(keyed(batch, id_col))


def _band_rows(sig_table: pa.Table, bands: int, id_col: str) -> pa.Table:
    """Explode signatures into (band_id, band_hash, doc_id) rows."""
    col = sig_table.column("signature")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return pa.table(
            {
                "band_id": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.uint64()),
                id_col: pa.array([], sig_table.schema.field(id_col).type),
            }
        )
    # fixed-length list<uint64> -> (n, num_perm) via ONE buffer reshape
    sigs = (
        arr.flatten().to_numpy(zero_copy_only=False).astype(np.uint64).reshape(len(arr), -1)
    )
    ids = sig_table.column(id_col).to_numpy(zero_copy_only=False)
    n, num_perm = sigs.shape
    if bands > num_perm:
        # r=0 would hash EVERY signature to the same empty-chunk value
        # and all docs would collide in all bands
        raise ValueError(f"bands ({bands}) must be <= num_perm ({num_perm})")
    r = num_perm // bands
    out_band, out_hash, out_id = [], [], []
    for bidx in range(bands):
        lo = bidx * r
        # last band absorbs the remainder (same idiom as the simhash
        # band split): every permutation paid for in the signature
        # stage participates in the LSH curve, instead of silently
        # dropping num_perm % bands trailing lanes
        hi = num_perm if bidx == bands - 1 else lo + r
        chunk = sigs[:, lo:hi]
        h = np.zeros(n, dtype=np.uint64)
        for j in range(hi - lo):
            h = _mix64(h ^ chunk[:, j])
        out_band.append(np.full(n, bidx, dtype=np.int32))
        out_hash.append(h)
        out_id.append(ids)
    return pa.table(
        {
            "band_id": pa.array(np.concatenate(out_band)),
            "band_hash": pa.array(np.concatenate(out_hash), type=pa.uint64()),
            id_col: pa.array(np.concatenate(out_id)),
        }
    )


#: below this input size the LSH pipelines coalesce the read into
#: byte-derived blocks: Ray splits even a 5 MB file into ~2x-cpus read
#: blocks, and a six-exchange pipeline over dozens of near-empty blocks
#: measures scheduler overhead that GROWS with cluster size (the round-2
#: inverse-scaling record). Partitioning becomes a property of the
#: DATA; large inputs are never repartitioned (that would be a shuffle).
_COALESCE_LIMIT = 64 << 20
_COALESCE_BLOCK = 4 << 20


def _coalesce_small(ds):
    nbytes = _input_bytes(ds)
    if nbytes is not None and nbytes < _COALESCE_LIMIT:
        return ds.repartition(max(1, int(nbytes // _COALESCE_BLOCK)))
    return ds


def _attach_pair_texts(ds, pairs, text_col: str, id_col: str,
                       num_buckets: int, prefilter_ids=None):
    """Hash-partitioned join of candidate pairs against the corpus.

    Pairs are exploded to one row per side ``(id_a, id_b, doc_id)`` and
    co-partitioned with the corpus ``(doc_id, text)`` rows by
    ``hash(doc_id)``; a per-bucket Arrow fold attaches each side's
    text. A second pair-hash exchange pivots the two sides together.
    Both folds are Arrow, so the NULL-padded int64 id columns never
    float through pandas. Document text flows batch->object
    store->fold -- never the driver.

    ``prefilter_ids``: optional ObjectRef to a sorted numpy array of
    candidate doc ids; when present the corpus scan drops non-candidate
    rows BEFORE the exchange, so shuffle bytes ~ candidate texts only.

    Returns a Dataset of ``(id_a, id_b, text_a, text_b)``.
    """

    def explode(t: pa.Table) -> pa.Table:
        a = t.column("id_a")
        b = t.column("id_b")
        n = len(t)
        return pa.table(
            {
                "id_a": pa.chunked_array([a, a]),
                "id_b": pa.chunked_array([b, b]),
                "doc_id": pa.chunked_array([a, b]),
                "text": pa.nulls(2 * n, pa.string()),
                # 1: the row asks for id_a's text, 2: for id_b's
                "__side": pa.array(np.repeat(np.array([1, 2], np.int8), n)),
            }
        )

    def corpus_rows(t: pa.Table) -> pa.Table:
        t = keyed(t, id_col)
        if prefilter_ids is not None:
            cand = ray.get(prefilter_ids)
            t = t.filter(pa.array(np.isin(t.column(id_col).to_numpy(), cand)))
        n = len(t)
        return pa.table(
            {
                "id_a": pa.nulls(n, pa.int64()),
                "id_b": pa.nulls(n, pa.int64()),
                "doc_id": t.column(id_col),
                "text": t.column(text_col).cast(pa.string()),
                "__side": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    corpus = ds.select_columns([id_col, text_col]).map_batches(
        corpus_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    sides = pairs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def attach(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        corp = t.filter(pc.equal(side, 0))
        asks = t.filter(pc.not_equal(side, 0))
        # first corpus row per id, as a repeated id's first text
        at = pc.index_in(asks.column("doc_id"), value_set=corp.column("doc_id").combine_chunks())
        return asks.set_column(
            asks.schema.get_field_index("text"), "text", corp.column("text").take(at)
        ).drop_columns(["doc_id"])

    one_sided = bucketed(
        corpus.union(sides), "doc_id", attach, num_buckets=num_buckets, batch_format="pyarrow"
    )

    def pivot(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        ta = t.filter(pc.equal(side, 1)).select(["id_a", "id_b", "text"]).rename_columns(
            ["id_a", "id_b", "text_a"])
        tb = t.filter(pc.equal(side, 2)).select(["id_a", "id_b", "text"]).rename_columns(
            ["id_a", "id_b", "text_b"])
        return ta.join(tb, keys=["id_a", "id_b"], join_type="inner")

    return bucketed(one_sided, ["id_a", "id_b"], pivot, num_buckets=num_buckets, batch_format="pyarrow")


def minhash_dedup_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    threshold: float = 0.8,
    prefilter_limit: int = 2_000_000,
    max_cell: int | None = None,
    num_buckets: int | None = None,
):
    """MinHash+LSH near-duplicate pairs, Jaccard-verified.

    Stages: minhash -> band explode -> groupby(band) ->
    candidate pairs -> distributed distinct -> hash-partitioned text
    join (:func:`_attach_pair_texts`) -> true Jaccard >= threshold.
    Document text never touches the driver; when the distinct-pair
    count is <= ``prefilter_limit`` the candidate doc-id ARRAY (8
    bytes/id) is broadcast so only candidate texts ride the join
    shuffle (set ``prefilter_limit=0`` to force the pure-join path).

    ``max_cell`` (default None = uncapped: full pair recall is the
    default contract, and it is what the hard oracle asserts) bounds
    per-LSH-cell pair enumeration -- all-pairs below the cap, chunked
    all-pairs with a one-member overlap above
    (:func:`engine.lsh.collision_pairs`). Output stays O(m * max_cell)
    per hot cell; every emitted pair is a genuine candidate that
    true-Jaccard verification judges on its own merits, and the overlap
    chain keeps mutually-similar clusters connected. Pair recall inside
    giant cells is partial (cross-chunk pairs are skipped), so set it
    only where the consumer needs connectivity (duplicate components),
    not an exhaustive pair inventory.
    Returns a Dataset of ``(id_a, id_b, jaccard)`` with int64 ids,
    id_a < id_b; rows with a NULL id pair with nothing.
    """
    num_buckets = _pairs_buckets(ds, num_buckets)
    ds = _coalesce_small(ds)
    # elastic tasks with per-process cached state: the MinHasher's
    # state (permutation params) is microseconds to build, so a fixed
    # actor pool would only cap parallelism of the heaviest stage
    sigs = ds.map_batches(
        _minhash_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={
            "num_perm": num_perm,
            "shingle_k": shingle_k,
            "text_col": text_col,
            "id_col": id_col,
        },
    )
    banded = sigs.map_batches(
        _band_rows,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"bands": bands, "id_col": id_col},
    )
    # pin the distinct candidates: the pair set is the SMALL side
    # (bounded by LSH collisions) and is consumed twice below
    cand = collision_pairs(
        banded, ("band_id", "band_hash"), id_col, max_cell=max_cell, num_buckets=num_buckets
    ).materialize()
    n_pairs = cand.count()
    if n_pairs == 0:
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))

    prefilter_ids = None
    if 0 < n_pairs <= prefilter_limit:
        # ids only (8 B each, bounded by 2 x pairs) -- texts stay remote
        # (Ray may hand back column-less empty blocks: skip them)
        blocks = cand.iter_batches(batch_format="pyarrow", batch_size=None)
        prefilter_ids = ray.put(np.unique(np.concatenate(
            [t.column(c).to_numpy() for t in blocks if t.num_rows for c in ("id_a", "id_b")]
        )))

    with_texts = _attach_pair_texts(
        ds, cand, text_col, id_col, num_buckets=num_buckets, prefilter_ids=prefilter_ids
    )

    def verify(t: pa.Table) -> pa.Table:
        # exact Jaccard for the WHOLE pair batch in numpy. Shingle once
        # per distinct DOC (a doc in a size-m dup cluster appears in up
        # to m-1 pairs) into sorted-unique 64-bit hash arrays, then one
        # sort-free rank-key intersection for all pairs
        # (:func:`_pairwise_jaccard`). No set(), no pair loop.
        id_a = t.column("id_a").to_numpy()
        id_b = t.column("id_b").to_numpy()
        texts = pa.chunked_array(
            t.column("text_a").chunks + t.column("text_b").chunks, pa.string()
        )
        uids, first = np.unique(np.concatenate([id_a, id_b]), return_index=True)
        u, u_off = _doc_shingle_hash_sets(texts.take(first).to_pylist(), shingle_k)
        jac = _pairwise_jaccard(
            u, u_off, np.searchsorted(uids, id_a), np.searchsorted(uids, id_b)
        )
        keep = jac >= threshold
        return pa.table({"id_a": pa.array(id_a[keep], pa.int64()),
                         "id_b": pa.array(id_b[keep], pa.int64()),
                         "jaccard": pa.array(jac[keep], pa.float64())})

    return with_texts.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def _token_hashes_fast(texts) -> tuple[np.ndarray, np.ndarray]:
    """(token_hash uint64, tokens_per_doc int64) of a
    :class:`~engine.textstats.TextBatch` (or anything one is built from)
    -- zero per-row Python.

    Tokens are the batch's shared whitespace tokenization over the
    ASCII-lowercased UTF-8 buffer (never spanning documents); each is
    hashed from its first 16 bytes + its length through two splitmix64
    rounds. Semantics vs the scalar reference tokenizer (``_TOKEN_RE``
    + ``str.lower``), by design: non-ASCII whitespace (U+00A0, U+2028,
    ...) counts as token bytes and non-ASCII letters keep their case --
    deterministic and locality-preserving, which is all a SimHash token
    hash needs; the oracle-mirrored "md5" hasher keeps exact reference
    semantics. Tokens sharing their first 16 bytes AND length collide
    -- also fine for a similarity signature (such tokens are
    near-identical).
    """
    tb = texts if isinstance(texts, TextBatch) else TextBatch(texts)
    tl = tb.ends - tb.starts
    # the second 8-byte window of each token start, read off the
    # 15-byte-padded buffer (one word load, not eight byte loads) and
    # masked to the token's bytes past the first window
    w1 = windows(tb.low)[tb.starts + 8] & _WINDOW_MASK[np.clip(tl - 8, 0, 8)]
    return _mix64(tb.w0 ^ _mix64(w1 ^ tl.astype(np.uint64))), np.diff(tb.tok_off)


def simhash_texts(texts, hasher: str = "fast") -> np.ndarray:
    """Batch-flat 64-bit SimHash over whitespace tokens.

    The default "fast" hasher tokenizes AND hashes fully vectorized on
    the Arrow UTF-8 buffer (:func:`_token_hashes_fast` -- no per-row
    Python at all; pass the Arrow column, or the batch's shared
    ``TextBatch``, straight in), then ``unpackbits`` + ``add.reduceat``
    segment sums. Bit rule: bit i set iff strictly more tokens have
    bit i set than clear (ties -> 0).

    ``hasher="md5"`` keeps exact reference semantics (Python ``\\S+``
    tokens of ``str.lower`` text; token hash = top 8 bytes of md5),
    which DuckDB can replicate (``md5()``) -- the SQL-mirrorable
    oracle path.
    """
    if hasher == "fast":
        h, lens = _token_hashes_fast(texts)
        n = len(lens)
        sigs = np.zeros(n, dtype=np.uint64)
        if len(h) == 0:
            return sigs
    else:
        toks_per = [_TOKEN_RE.findall(x) for x in _sql_lower_list(texts)]
        lens = np.array([len(tk) for tk in toks_per], dtype=np.int64)
        flat = [s for tk in toks_per for s in tk]
        n = len(texts)
        sigs = np.zeros(n, dtype=np.uint64)
        if not flat:
            return sigs
        import hashlib

        h = np.fromiter(
            (int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16) for s in flat),
            dtype=np.uint64,
            count=len(flat),
        )
    # Bit counting sums the per-token bit matrix per doc. Measured
    # findings driving this shape (r3-r4): (a) `add.reduceat` with
    # dtype-less integer promotion is 12-24x slower than its SIMD
    # paths, and even with an explicit int32 accumulator it pays ~4 us
    # of per-SEGMENT dispatch -- ruinous for ~36-token docs; (b) one
    # batch-sized bits matrix (64 B/token) is a first-touch page-fault
    # storm that made the stage scale INVERSELY 8->32 workers, so work
    # stays in <=32k-token chunks (~2 MB warm arena); (c) the stage is
    # memory-bandwidth-bound under full-node concurrency (BASELINE.md
    # round 4). Shape: sort NONEMPTY docs by token count, permute the
    # token hashes into that order (8 B/token gather), then docs of
    # EQUAL length L sum as one `reshape(k, L, 64).sum(axis=1)` --
    # zero per-segment dispatch, one SIMD pass, exact in int32 to
    # 2^31 tokens/doc (2.6x over the chunked reduceat, bit-identical).
    nz = lens > 0
    if not nz.any():
        return sigs
    docs = np.flatnonzero(nz)
    order = np.argsort(lens[docs], kind="stable")
    docs_s = docs[order]
    dl_s = lens[docs_s]
    s_off = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=s_off[1:])
    # token permutation: tokens of docs in length-sorted doc order
    tstart = np.cumsum(dl_s) - dl_s
    tot = int(dl_s.sum())
    hp = h[np.repeat(s_off[docs_s] - tstart, dl_s) + np.arange(tot, dtype=np.int64)]
    # equal-length runs in the sorted doc sequence
    bnd = np.flatnonzero(np.diff(dl_s)) + 1
    g0s = np.concatenate(([0], bnd))
    g1s = np.concatenate((bnd, [len(dl_s)]))
    ones = np.empty((len(dl_s), 64), np.int64)
    from engine.textstats import iter_spans

    soff_s = np.concatenate((tstart, [tot]))
    for r0, r1 in iter_spans(soff_s, limit=32768):
        lo, hi = int(soff_s[r0]), int(soff_s[r1])
        bits = np.unpackbits(
            hp[lo:hi].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        # equal-length runs clipped to this chunk (chunk bounds are
        # doc-aligned, so every clipped run still reshapes cleanly)
        i0, i1 = np.searchsorted(g0s, r0, side="right") - 1, np.searchsorted(g0s, r1)
        for g0, g1 in zip(g0s[i0:i1], g1s[i0:i1]):
            c0, c1 = max(int(g0), r0), min(int(g1), r1)
            if c0 >= c1:
                continue
            L = int(dl_s[c0])
            blk = bits[tstart[c0] - lo : tstart[c0] - lo + (c1 - c0) * L]
            ones[c0:c1] = blk.reshape(c1 - c0, L, 64).sum(axis=1, dtype=np.int32)
    sig_bits = (2 * ones) > dl_s[:, None]
    sigs[docs_s] = (
        np.packbits(sig_bits.astype(np.uint8), axis=1, bitorder="little")
        .view(np.uint64)
        .ravel()
    )
    return sigs


def simhash_batch(batch: pa.Table, text_col="text", id_col="doc_id", hasher="fast") -> pa.Table:
    col = batch.column(text_col)
    sigs = simhash_texts(col if hasher == "fast" else col.to_pylist(), hasher=hasher)
    return pa.table({id_col: batch.column(id_col), "simhash": pa.array(sigs, type=pa.uint64())})


def simhash_signatures(ds, text_col="text", id_col="doc_id", hasher="fast"):
    return ds.map_batches(
        simhash_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"text_col": text_col, "id_col": id_col, "hasher": hasher},
    )


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 popcount of ``a ^ b`` by SWAR bit counting: ~8x faster than
    unpacking the bits, on the millions of pairs a simhash fold scores."""
    x = np.bitwise_xor(a.astype(np.uint64, copy=False), b.astype(np.uint64, copy=False))
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash_dup_pairs(ds, max_hamming: int = 3, text_col="text", id_col="doc_id", sigs=None, hasher="fast", max_cell=None, num_buckets=None):
    """Near-dup pairs with Hamming distance <= max_hamming.

    Banding is sized to the radius: ``n_bands = max_hamming + 1``, so by
    pigeonhole any pair within the radius agrees EXACTLY on at least one
    band -- full recall for every max_hamming in [1, 31] (a fixed 4x16
    split would silently miss pairs for radii > 3). Narrower bands mean
    more candidate collisions; verification computes the true distance.

    ``sigs``: optional precomputed ``(id, simhash)`` Dataset (skips the
    signature stage; also the test seam for the banding guarantee).
    ``max_cell`` (default None = uncapped, because full recall is this
    operator's contract and large radii make band keys narrow -- at
    max_hamming=8 the key is 7 bits, so ordinary corpora produce
    rightly-large collision cells) optionally caps per-cell all-pairs
    enumeration with overlapping chunks (:func:`engine.lsh.collision_pairs`)
    -- the boilerplate-cluster O(m^2) guard of :func:`minhash_dedup_pairs`;
    every emitted pair still carries its TRUE Hamming distance. Set it
    for dedup pipelines that only consume connectivity, never for pair
    inventories (cross-chunk pairs are skipped).
    Returns a Dataset of ``(id_a, id_b, hamming)`` with int64 ids,
    id_a < id_b; rows with a NULL id pair with nothing.
    """
    if not 0 <= max_hamming <= 31:
        # the pigeonhole full-recall guarantee needs max_hamming+1 bands
        # of a 64-bit signature; a silent cap at 32 bands would start
        # MISSING pairs at radius >= 32 while the docstring promises
        # full recall -- fail loud at the boundary instead
        raise ValueError(
            f"simhash_dup_pairs supports max_hamming in [0, 31], got {max_hamming}"
        )
    n_bands = max_hamming + 1
    width = 64 // n_bands
    num_buckets = _pairs_buckets(ds if ds is not None else sigs, num_buckets)
    if sigs is None:
        sigs = simhash_signatures(_coalesce_small(ds), text_col, id_col, hasher=hasher)

    def band_rows(t: pa.Table) -> pa.Table:
        t = keyed(t, id_col)
        s = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        doc_ids = t.column(id_col).to_numpy()
        bands_out, keys = [], []
        for bidx in range(n_bands):
            lo = bidx * width
            w = 64 - lo if bidx == n_bands - 1 else width  # last band absorbs remainder
            chunk = (s >> np.uint64(lo)) & ((np.uint64(1) << np.uint64(w)) - np.uint64(1))
            bands_out.append(np.full(len(s), bidx, dtype=np.int32))
            keys.append(chunk)
        return pa.table(
            {
                "band_id": pa.array(np.concatenate(bands_out)),
                "band_key": pa.array(np.concatenate(keys), type=pa.uint64()),
                id_col: pa.array(np.tile(doc_ids, n_bands), pa.int64()),
                "simhash": pa.array(np.tile(s, n_bands), type=pa.uint64()),
            }
        )

    def score(t: pa.Table, a: np.ndarray, b: np.ndarray):
        sh = t.column("simhash").to_numpy()
        ham = hamming64(sh[a], sh[b])
        return ham <= max_hamming, {"hamming": ham}

    banded = sigs.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True)
    return collision_pairs(
        banded, ("band_id", "band_key"), id_col, score, max_cell=max_cell, num_buckets=num_buckets
    )


# ---------------------------------------------------------------------------
# C4-style global line deduplication
# ---------------------------------------------------------------------------

#: second independent 64-bit line-hash key: the (h1, h2) pair bounds
#: distinct-line collisions at p ~ n^2 / 2^128 (one 64-bit key has a
#: real collision rate at 10^12 lines). Only :func:`dedup_lines_global`
#: uses it; the table job (engine.jobs.dedup_lines) runs that pipeline.
_LINE_HASH_KEY2 = "f0e1d2c3b4a59687"


def _keyed(keys) -> np.ndarray:
    """True where a line-dedup key competes for lines: not NULL, and
    not ``''`` for a string key. The rest pass through untouched."""
    if pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type):
        mask = pc.fill_null(pc.not_equal(keys, ""), False)
    else:
        mask = pc.is_valid(keys)
    return mask.to_numpy(zero_copy_only=False)


def dedup_lines_global(ds, text_col: str = "text", id_col: str = "doc_id",
                       num_buckets: int | None = None):
    """Global line-level dedup (the C4 pipeline's cross-document line
    filter, Raffel et al. 2020, public): a line (``'\\n'`` split of the
    raw text) survives ONLY at its first corpus occurrence -- the
    minimal ``(id, line_idx)`` over every occurrence, including repeats
    inside one row, in the key's own order (numeric for int ids,
    lexicographic for urls) -- and each row is reassembled from its
    surviving lines in original order. A keyed row whose every line was
    dropped (or whose text is NULL) comes out as ``''``.

    Key contract: ids are UNIQUE among keyed rows (run after MERGE for
    urls); a repeated id raises ``ValueError`` -- one id's drop indexes
    cannot be applied to two rows. Rows with a NULL (or, for string
    keys, ``''``) id pass through untouched and compete for no line,
    the null-key passthrough MERGE follows.

    Scale shape: row text never rides an exchange. Pass 1 explodes
    ``(h1, h2, key, idx)`` triples (two independent 64-bit line-content
    hashes -- a single 64-bit key has a real collision probability at
    10^12 lines, the pair is p ~ n^2/2^128) and hash-partitions them by
    line hash, so each fold bucket holds every occurrence of its lines
    and emits only the LOSER coordinates (bounded by the duplicate
    count). Pass 2 co-partitions those drop rows with the input by id
    and rebuilds each row locally. Folds are one vectorized call per
    bucket (~``_pairs_buckets`` groups), not per-line Python.

    Returns a Dataset with every input column and one row per input
    row. The rebuild is an Arrow fold, so user columns never go through
    pandas (a pandas group would float64-upcast null-bearing int64
    columns). Its types come from ``ds.schema()``, which is metadata
    for a ``read_parquet`` or manifest-scan input: nothing executes.
    """
    num_buckets = _pairs_buckets(ds, num_buckets)
    schema = ds.schema().base_schema

    def explode(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array(_keyed(t.column(id_col))))
        lines = pc.split_pattern(pc.fill_null(t.column(text_col), ""), "\n")
        lens = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lines).to_numpy(zero_copy_only=False)
        # 1-based within-row positions: the SQL generate_series(1, len)
        # convention the line-dedup oracles mirror
        idx = np.arange(len(flat), dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens) + 1
        return pa.table({
            "h1": pa.array(pd.util.hash_array(flat).astype(np.uint64)),
            "h2": pa.array(pd.util.hash_array(flat, hash_key=_LINE_HASH_KEY2).astype(np.uint64)),
            "key": t.column(id_col).take(np.repeat(np.arange(len(t)), lens)),
            "idx": pa.array(idx),
        })

    def losers(t: pa.Table) -> pa.Table:
        # winner per distinct line = min (key, idx): ONE Arrow sort per
        # bucket in the key's own order, no per-line Python
        t = t.sort_by([("h1", "ascending"), ("h2", "ascending"),
                       ("key", "ascending"), ("idx", "ascending")])
        h1 = t.column("h1").to_numpy()
        h2 = t.column("h2").to_numpy()
        first = np.ones(len(t), bool)
        np.logical_or(h1[1:] != h1[:-1], h2[1:] != h2[:-1], out=first[1:])
        return t.filter(pa.array(~first)).select(["key", "idx"])

    # materialize the triples feeding the sort exchange: Ray's
    # sort-based groupby consumes a lazy upstream twice (sample + sort)
    # and would re-run the split+hash explode over every line
    # (ARCHITECTURE lazy-double-execution rule)
    drops = bucketed(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True).materialize(),
        "h1",
        losers,
        num_buckets=num_buckets,
        batch_format="pyarrow",
    )

    def corpus_side(t: pa.Table) -> pa.Table:
        t = t.append_column("__dl_idx", pa.nulls(len(t), pa.int64()))
        return t.append_column("__side", pa.array(np.zeros(len(t), np.int8)))

    def drop_side(t: pa.Table) -> pa.Table:
        out = {f.name: pa.nulls(len(t), f.type) for f in schema}
        out[id_col] = t.column("key").cast(schema.field(id_col).type)
        return pa.table({**out, "__dl_idx": t.column("idx"),
                         "__side": pa.array(np.ones(len(t), np.int8))})

    def rebuild(t: pa.Table) -> pa.Table:
        side = t.column("__side").to_numpy(zero_copy_only=False)
        corp = t.filter(pa.array(side == 0)).drop_columns(["__side", "__dl_idx"])
        drt = t.filter(pa.array(side == 1))
        keys = corp.column(id_col)
        keyed = _keyed(keys)
        # keys co-locate by hash, so a duplicate is visible in its bucket
        counts = pc.value_counts(keys.filter(pa.array(keyed)))
        dup = counts.field("values").filter(pc.greater(counts.field("counts"), 1))
        if len(dup):
            raise ValueError(
                f"line dedup requires unique {id_col!r} keys but {dup[0].as_py()!r} "
                "appears more than once -- run MERGE first (NULL/'' keys pass "
                "through and may repeat)"
            )
        # typed from the schema: a group whose text slice is all-null
        # can arrive null-typed
        text = corp.column(text_col).cast(schema.field(text_col).type).combine_chunks()
        if len(drt):
            drt = drt.sort_by([(id_col, "ascending"), ("__dl_idx", "ascending")])
            runs = pc.value_counts(drt.column(id_col))
            idxs = np.split(drt.column("__dl_idx").to_numpy(), np.cumsum(runs.field("counts"))[:-1])
            dropped = dict(zip(runs.field("values").to_pylist(), idxs))
            # per-row Python only for rows that actually LOST a line;
            # the rest keep their text buffers untouched
            touched = pc.is_in(keys, value_set=runs.field("values")).to_numpy(zero_copy_only=False)
            rows = np.flatnonzero(touched)
            rebuilt = []
            for k, x in zip(keys.take(rows).to_pylist(), text.take(rows).to_pylist()):
                lines = (x or "").split("\n")
                keep = np.ones(len(lines), bool)
                keep[dropped[k] - 1] = False
                rebuilt.append("\n".join([l for l, kp in zip(lines, keep) if kp]))
            text = pc.replace_with_mask(text, pa.array(touched), pa.array(rebuilt, text.type))
        # keyed rows come out with a STRING (NULL text was one '' line,
        # the oracle's coalesce); passthrough rows keep their NULL
        text = pc.if_else(pc.and_(pa.array(keyed), pc.is_null(text)), pa.scalar("", text.type), text)
        return corp.set_column(corp.schema.get_field_index(text_col), text_col, text)

    # pin the (small, dup-bounded) drop rows too: the union feeds a
    # second sort exchange that would otherwise re-run the whole
    # pass-1 groupby chain on its sampling pass
    dside = drops.map_batches(drop_side, batch_format="pyarrow", zero_copy_batch=True).materialize()
    both = ds.map_batches(corpus_side, batch_format="pyarrow", zero_copy_batch=True).union(dside)
    return bucketed(both, id_col, rebuild, num_buckets=num_buckets, batch_format="pyarrow")
