"""Exact distributed quantiles by multi-pass selection (no global sort).

``quantile_disc(ds, col, qs)`` returns the exact discrete quantiles of a
numeric column with DuckDB/Postgres ``quantile_disc``/``percentile_disc``
semantics: the value at 1-indexed rank ``ceil(q * n)`` of the non-NULL
values in ascending order (verified empirically against DuckDB in
tests).

Why not ``ds.sort(col)``: a full range-partition sort moves every byte
of the dataset through an all-to-all exchange to answer a question
whose result is O(len(qs)) scalars. The classic distributed-selection
alternative used here streams the data a small constant number of
times and moves only per-batch summaries:

  pass 1  count non-NULL values; per-batch strided *sorted* sample of
          candidate splitters (evenly spaced batch quantiles). The
          driver merges the per-batch samples as a STREAM
          (``iter_batches``), folding into a running <=cap unique
          array -- peak driver memory is O(cap + stream batch), not
          O(batches x per_batch);
  pass 2  one histogram pass: every value maps to a candidate interval
          via ``np.searchsorted`` (vectorized); per-batch nonzero
          (interval, count, eq-count) partials fold through a Ray
          groupby -- the exchange moves O(intervals x batches) tiny
          rows. The eq-count records how many values EQUAL the
          interval's lower candidate: since candidates are actual data
          values, heavy ties concentrate ON candidates, and a rank that
          lands inside an eq run is answered directly from the
          candidate -- no data fetched at all;
  pass 3  fetch ONLY the strict interiors (values equal to no
          candidate) of the intervals still holding unresolved ranks
          (expected size ~ n / n_candidates per bracket) and select the
          exact rank offsets driver-side.

If skew makes an interior exceed ``bracket_limit``, extra splitters are
sampled from inside the oversized intervals (per-batch strided samples,
streamed -- never the bracket itself) and pass 2 repeats; each
refinement shrinks interiors geometrically, so the number of passes is
O(log_S n) with S candidates (2-3 passes at 100 TB). Pure ties can
never force a refinement or a fetch: they resolve through the eq-count
path.

NaN handling matches DuckDB ordering: NaN sorts after every number
(``np.searchsorted`` places NaN past every finite candidate and
``np.sort`` places it last), so quantiles of NaN-bearing columns agree
with the SQL oracle. NULLs are excluded on both sides (SQL aggregate
semantics). int64 columns never pass through float64 -- values beyond
2^53 stay exact (CLAUDE.md key-hash/precision invariant family).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _valid_numpy(arr) -> np.ndarray:
    """Non-NULL values of an Arrow numeric array as a native-dtype
    numpy array (int stays int: no silent float64 widening)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr.drop_null().to_numpy(zero_copy_only=False)


def _stream_merge_samples(parts, cap: int) -> tuple[int, np.ndarray]:
    """Fold (n, cands-list) partial rows into (total_n, <=cap unique
    sorted candidates) by STREAMING them through the driver -- a
    map_batches 'thin' stage would fuse into the producing task and see
    one row at a time (review finding), so the fold lives here, where
    the running array keeps the bound honest."""
    n = 0
    u: np.ndarray | None = None
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=256):
        n += int(pc.sum(b.column("n")).as_py() or 0)
        flat = b.column("cands").combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        if len(flat) == 0:
            continue
        u = np.unique(flat) if u is None or len(u) == 0 else np.unique(
            np.concatenate([u, flat])
        )
        if len(u) > cap:
            u = u[:: len(u) // cap + 1]
    return n, (u if u is not None else np.array([]))


def _candidates(ds, col: str, per_batch: int, cap: int) -> tuple[int, np.ndarray]:
    """Pass 1: total non-NULL count + the streamed-merged candidate
    splitter array."""

    def partial(t: pa.Table) -> pa.Table:
        vt = t.schema.field(col).type
        v = _valid_numpy(t.column(col))
        n = len(v)
        if n:
            s = np.sort(v)
            step = max(1, n // per_batch)
            sample = s[::step]
        else:
            sample = v
        return pa.table(
            {
                "n": pa.array([n], type=pa.int64()),
                # explicit list type: an empty batch must not degrade the
                # union schema to list<null>
                "cands": pa.array([sample.tolist()], type=pa.list_(vt)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return _stream_merge_samples(parts, cap)


def _ids(c: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval id (= #candidates <= v, so values equal to candidate
    ``c[i-1]`` sit at the BOTTOM of interval i) and the left-side id
    (differs exactly for values equal to a candidate)."""
    return np.searchsorted(c, v, side="right"), np.searchsorted(c, v, side="left")


def _interval_counts(ds, col: str, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pass 2: per-interval total counts AND eq-counts (values equal to
    the interval's lower candidate). Returns (counts[B+1], eqb[B+1])
    with eqb[0] = 0."""
    import ray

    ref = ray.put(cands)

    def hist(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        v = _valid_numpy(t.column(col))
        ids_r, ids_l = _ids(c, v)
        cnt = np.bincount(ids_r, minlength=len(c) + 1)
        eqm = ids_l < ids_r  # v == c[ids_l]; its interval id is ids_l + 1
        eqb = np.bincount(ids_l[eqm] + 1, minlength=len(c) + 1)
        nz = np.flatnonzero(cnt | eqb)
        return pa.table(
            {
                "id": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(cnt[nz].astype(np.int64)),
                "eqb": pa.array(eqb[nz].astype(np.int64)),
            }
        )

    # pin the (intervals x batches) partials: the sort groupby's sample
    # pass would re-run the full input histogram otherwise (the
    # lazy-double-execution rule, ARCHITECTURE §2)
    agg = (
        ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
        .groupby("id")
        .sum(["cnt", "eqb"])
        .to_pandas()
    )
    counts = np.zeros(len(cands) + 1, dtype=np.int64)
    eqb = np.zeros(len(cands) + 1, dtype=np.int64)
    if "id" in agg.columns and len(agg):
        idx = agg["id"].to_numpy()
        counts[idx] = agg["sum(cnt)"].to_numpy()
        eqb[idx] = agg["sum(eqb)"].to_numpy()
    return counts, eqb


def _interior_values(ds, col: str, cands: np.ndarray, needed: np.ndarray) -> dict:
    """Pass 3: STRICT-INTERIOR values (equal to no candidate) of the
    needed intervals, one dict id -> sorted numpy array. Candidate-tie
    mass never ships: it is already resolved from the eq-counts."""
    import ray

    cref, nref = ray.put(cands), ray.put(np.sort(needed))

    def pick(t: pa.Table) -> pa.Table:
        c, nd = ray.get(cref), ray.get(nref)
        v = _valid_numpy(t.column(col))
        ids_r, ids_l = _ids(c, v)
        m = np.isin(ids_r, nd) & (ids_l == ids_r)
        return pa.table({"id": pa.array(ids_r[m].astype(np.int64)), "v": pa.array(v[m])})

    got = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    out: dict[int, np.ndarray] = {}
    if got.empty:
        return out
    for i, g in got.groupby("id"):
        out[int(i)] = np.sort(g["v"].to_numpy())
    return out


def _interior_samples(
    ds, col: str, cands: np.ndarray, big: np.ndarray, per_batch: int = 64
) -> np.ndarray:
    """Refinement sampler: per-batch strided sorted samples of the
    strict interiors of the oversized intervals, streamed to the driver
    (O(batches x per_batch) flowing, O(cap) resident) -- the bracket
    itself is never materialized anywhere."""
    import ray

    cref, bref = ray.put(cands), ray.put(np.sort(big))

    def sample(t: pa.Table) -> pa.Table:
        vt = t.schema.field(col).type
        c, bd = ray.get(cref), ray.get(bref)
        v = _valid_numpy(t.column(col))
        ids_r, ids_l = _ids(c, v)
        w = v[np.isin(ids_r, bd) & (ids_l == ids_r)]
        if len(w):
            w = np.sort(w)[:: max(1, len(w) // per_batch)]
        return pa.table(
            {
                "n": pa.array([0], type=pa.int64()),
                "cands": pa.array([w.tolist()], type=pa.list_(vt)),
            }
        )

    parts = ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)
    _, extra = _stream_merge_samples(parts, 65536)
    return extra


def _select_ranks(
    ds,
    col: str,
    ranks: list[int],
    n: int,
    cands: np.ndarray,
    *,
    bracket_limit: int = 4_000_000,
    max_refine: int = 4,
) -> dict[int, object]:
    """Exact values at the given 1-indexed ranks of the non-NULL values
    of ``col``, given the pass-1 result (n, candidate splitters).
    Returns {clamped_rank: value}."""
    ranks = [min(max(r, 1), n) for r in ranks]
    refines = 0
    while True:
        counts, eqb = _interval_counts(ds, col, cands)
        cum = np.cumsum(counts)
        resolved: dict[int, object] = {}
        residual: dict[int, tuple[int, int]] = {}
        for r in ranks:
            i = int(np.searchsorted(cum, r, side="left"))
            offset = r - (int(cum[i - 1]) if i > 0 else 0)
            if i >= 1 and offset <= eqb[i]:
                # the rank lands in the run of values equal to the
                # interval's lower candidate: answer with no fetch
                resolved[r] = cands[i - 1].item()
            else:
                residual[r] = (i, offset - int(eqb[i]))
        if not residual:
            return resolved
        needed = np.unique([i for i, _ in residual.values()])
        interior = counts[needed] - eqb[needed]
        big = needed[interior > bracket_limit]
        if len(big) and refines < max_refine:
            extra = _interior_samples(ds, col, cands, big)
            new = np.unique(np.concatenate([cands, extra])) if len(extra) else cands
            if len(new) > len(cands):
                cands = new
                refines += 1
                continue
        break
    vals = _interior_values(ds, col, cands, needed)
    out = dict(resolved)
    for r, (i, off) in residual.items():
        out[r] = vals[i][off - 1].item()
    return out


def quantile_disc(
    ds,
    col: str,
    qs,
    *,
    candidates_per_batch: int = 1024,
    max_candidates: int = 65536,
    **kw,
) -> list:
    """Exact discrete quantiles (value at rank ``ceil(q*n)``), NULLs
    excluded -- DuckDB ``quantile_disc`` semantics. Returns one scalar
    per q (None on empty input)."""
    qs = list(qs)
    n, cands = _candidates(ds, col, candidates_per_batch, max_candidates)
    if n == 0:
        return [None] * len(qs)
    ranks = [min(max(int(np.ceil(q * n)), 1), n) for q in qs]
    got = _select_ranks(ds, col, ranks, n, cands, **kw)
    return [got[r] for r in ranks]


# ---------------------------------------------------------------------------
# grouped quantiles (low-cardinality keys: per-lang percentiles etc.)
# ---------------------------------------------------------------------------

class _NanKey:
    """Canonical dict token for a float NaN group key: every
    ``as_py()`` creates a DISTINCT nan object and ``nan != nan``, so
    raw nan tuples silently split one SQL group across dict entries
    (and miss broadcast lookups after pickling). Equality by TYPE
    survives ray.put/pickle and cannot collide with any data value."""

    __slots__ = ()

    def __eq__(self, other):  # noqa: D105
        return isinstance(other, _NanKey)

    def __hash__(self):
        return 0x5AFE

    def __repr__(self):
        # fixed token: result-row ordering sorts by str(key), and the
        # default repr's memory address made the NaN group's position
        # nondeterministic run-to-run (round-4 ADVICE #2)
        return "NaN"


_NAN_KEY = _NanKey()


def _key_token(kv):
    return _NAN_KEY if isinstance(kv, float) and np.isnan(kv) else kv


def _batch_key_groups(t: pa.Table, key: str, col: str):
    """Yield ((key_token, isnull), raw_key_value, native-dtype numpy
    values) per unique key in the batch -- keys whose rows hold no
    valid value still yield (with an empty array), so all-NULL groups
    surface. The token (NaN canonicalized) is the dict identity; the
    raw value is for Arrow transport/display. Arrow filter per unique
    key: O(uniques) kernel calls, vectorized inside; values never
    float through pandas (null-bearing int64 stays int64)."""
    from engine.aggregates import null_safe_key

    filled, isnull = null_safe_key(t.column(key))
    codes = pc.dictionary_encode(filled)
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    dictionary = codes.dictionary
    idx = codes.indices.to_numpy(zero_copy_only=False)
    nl = isnull.to_numpy(zero_copy_only=False)
    comp = idx * 2 + nl
    vals = t.column(col)
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    for c in np.unique(comp):
        m = pa.array(comp == c)
        kv = dictionary[int(c) // 2].as_py()
        yield (_key_token(kv), int(c) % 2), kv, _valid_numpy(vals.filter(m))


def _grouped_state(ds, key: str, col: str, per_batch: int, cap: int):
    """Keyed pass 1: {(key_value, isnull): (n, sorted unique candidate
    array)} merged by streaming per-batch per-key samples through the
    driver (same bound as _stream_merge_samples, per key)."""

    def partial(t: pa.Table) -> pa.Table:
        kt = t.schema.field(key).type
        if pa.types.is_null(kt):
            # typeless all-NULL key column: null_safe_key filled it
            # with int64 zeros, transport the key the same way
            kt = pa.int64()
        vt = t.schema.field(col).type
        ks, nulls, ns, cands = [], [], [], []
        for (_tok, knull), kv, v in _batch_key_groups(t, key, col):
            if len(v):
                s = np.sort(v)
                sample = s[:: max(1, len(v) // per_batch)]
            else:
                sample = v
            ks.append(kv)
            nulls.append(knull)
            ns.append(len(v))
            cands.append(sample.tolist())
        return pa.table(
            {
                "k": pa.array(ks, type=kt),
                "knull": pa.array(nulls, type=pa.int64()),
                "n": pa.array(ns, type=pa.int64()),
                "cands": pa.array(cands, type=pa.list_(vt)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    state: dict[tuple, list] = {}
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=256):
        kcol = b.column("k")
        ncol = b.column("knull").to_numpy(zero_copy_only=False)
        cnts = b.column("n").to_numpy(zero_copy_only=False)
        lists = b.column("cands").combine_chunks()
        for j in range(len(b)):
            kv = kcol[j].as_py()
            kk = (_key_token(kv), int(ncol[j]))
            flat = lists[j].values.to_numpy(zero_copy_only=False)
            ent = state.setdefault(kk, [0, None, kv])
            ent[0] += int(cnts[j])
            if len(flat):
                u = flat if ent[1] is None else np.concatenate([ent[1], flat])
                u = np.unique(u)
                if len(u) > cap:
                    u = u[:: len(u) // cap + 1]
                ent[1] = u
    # (n, candidates, display value) per (token, isnull)
    return {
        k: (n, c if c is not None else np.array([]), kv)
        for k, (n, c, kv) in state.items()
    }


def grouped_quantile_disc(
    ds,
    key: str,
    col: str,
    qs,
    *,
    candidates_per_batch: int = 1024,
    max_candidates: int = 8192,
    bracket_limit: int = 4_000_000,
    max_refine: int = 4,
):
    """Exact per-key discrete quantiles (``quantile_disc ... GROUP BY
    key`` semantics: NULL key is one group, NULL values excluded, a key
    whose values are all NULL reports NULL quantiles). Same multi-pass
    selection as :func:`quantile_disc` with a key dimension: per-key
    candidates (pass 1), one (key, interval) histogram pass with
    eq-counts, interior-only fetches, keyed skew refinement. Designed
    for low-cardinality keys (langs, event types): driver state is
    O(keys x candidates).

    Returns a pandas DataFrame ``(key, q_<q>...)`` with the NULL key
    restored through object dtype."""
    import pandas as pd
    import ray

    qs = list(qs)
    state = _grouped_state(ds, key, col, candidates_per_batch, max_candidates)
    if not state:
        return pd.DataFrame(
            {key: pd.Series(dtype=object),
             **{f"q_{q}": pd.Series(dtype="float64") for q in qs}}
        )
    keys = sorted(state, key=lambda kk: (kk[1], str(kk[0])))
    kidx = {kk: i for i, kk in enumerate(keys)}
    # per-key target ranks and resolution state
    ranks = {
        kk: [min(max(int(np.ceil(q * state[kk][0])), 1), state[kk][0])
             for q in qs] if state[kk][0] else []
        for kk in keys
    }
    out_vals: dict[tuple, dict[int, object]] = {kk: {} for kk in keys}

    def _broadcast():
        offs = np.zeros(len(keys) + 1, dtype=np.int64)
        for i, kk in enumerate(keys):
            offs[i + 1] = offs[i] + len(state[kk][1])
        # skip empty per-key arrays: an all-NULL-value group's
        # np.array([]) is float64 and would promote every int64
        # candidate past 2^53 (review finding)
        nonempty = [state[kk][1] for kk in keys if len(state[kk][1])]
        concat = np.concatenate(nonempty) if nonempty else np.array([])
        return ray.put((dict(kidx), concat, offs))

    refines = 0
    while True:
        ref = _broadcast()

        def hist(t: pa.Table) -> pa.Table:
            km, concat, offs = ray.get(ref)
            rows_k, rows_id, rows_cnt, rows_eqb = [], [], [], []
            for kk, _kv, v in _batch_key_groups(t, key, col):
                i = km.get(kk)
                if i is None or not len(v):
                    continue
                c = concat[offs[i]: offs[i + 1]]
                ids_r, ids_l = _ids(c, v)
                cnt = np.bincount(ids_r, minlength=len(c) + 1)
                eqm = ids_l < ids_r
                eqb = np.bincount(ids_l[eqm] + 1, minlength=len(c) + 1)
                nz = np.flatnonzero(cnt | eqb)
                rows_k.append(np.full(len(nz), i, dtype=np.int64))
                rows_id.append(nz.astype(np.int64))
                rows_cnt.append(cnt[nz].astype(np.int64))
                rows_eqb.append(eqb[nz].astype(np.int64))
            if not rows_k:
                return pa.table(
                    {"ki": pa.array([], type=pa.int64()),
                     "id": pa.array([], type=pa.int64()),
                     "cnt": pa.array([], type=pa.int64()),
                     "eqb": pa.array([], type=pa.int64())}
                )
            return pa.table(
                {"ki": pa.array(np.concatenate(rows_k)),
                 "id": pa.array(np.concatenate(rows_id)),
                 "cnt": pa.array(np.concatenate(rows_cnt)),
                 "eqb": pa.array(np.concatenate(rows_eqb))}
            )

        # materialized for the same sample-pass reason as
        # _interval_counts (partials are O(keys x intervals x batches))
        agg = (
            ds.map_batches(hist, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()
            .groupby(["ki", "id"])
            .sum(["cnt", "eqb"])
            .to_pandas()
        )
        # per-key selection from the histogram
        residual: dict[tuple, dict[int, tuple[int, int]]] = {}
        big_pairs: list[tuple[int, int]] = []
        for kk in keys:
            n_k, cands_k = state[kk][0], state[kk][1]
            if not n_k:
                continue
            counts = np.zeros(len(cands_k) + 1, dtype=np.int64)
            eqb = np.zeros(len(cands_k) + 1, dtype=np.int64)
            sub = agg[agg["ki"] == kidx[kk]] if len(agg) else agg
            if len(sub):
                counts[sub["id"].to_numpy()] = sub["sum(cnt)"].to_numpy()
                eqb[sub["id"].to_numpy()] = sub["sum(eqb)"].to_numpy()
            cum = np.cumsum(counts)
            for r in ranks[kk]:
                if r in out_vals[kk]:
                    continue
                i = int(np.searchsorted(cum, r, side="left"))
                offset = r - (int(cum[i - 1]) if i > 0 else 0)
                if i >= 1 and offset <= eqb[i]:
                    out_vals[kk][r] = cands_k[i - 1].item()
                else:
                    residual.setdefault(kk, {})[r] = (i, offset - int(eqb[i]))
                    if counts[i] - eqb[i] > bracket_limit:
                        big_pairs.append((kidx[kk], i))
        if not residual:
            break
        if big_pairs and refines < max_refine:
            bref = ray.put(set(big_pairs))
            # state is unchanged since this round's _broadcast(): reuse
            # ref instead of re-serializing O(keys x candidates)

            def sample(t: pa.Table) -> pa.Table:
                pairs = ray.get(bref)
                km, concat, offs = ray.get(ref)
                ks, lists = [], []
                vt = t.schema.field(col).type
                for kk, _kv, v in _batch_key_groups(t, key, col):
                    i = km.get(kk)
                    if i is None or not len(v):
                        continue
                    c = concat[offs[i]: offs[i + 1]]
                    ids_r, ids_l = _ids(c, v)
                    strict = ids_l == ids_r
                    for _, iid in [p for p in pairs if p[0] == i]:
                        w = v[strict & (ids_r == iid)]
                        if len(w):
                            w = np.sort(w)[:: max(1, len(w) // 64)]
                            ks.append(i)
                            lists.append(w.tolist())
                return pa.table(
                    {"ki": pa.array(ks, type=pa.int64()),
                     "cands": pa.array(lists, type=pa.list_(vt))}
                )

            parts = ds.map_batches(
                sample, batch_format="pyarrow", zero_copy_batch=True
            )
            grew = False
            for b in parts.iter_batches(batch_format="pyarrow", batch_size=256):
                kis = b.column("ki").to_numpy(zero_copy_only=False)
                lists = b.column("cands").combine_chunks()
                for j in range(len(b)):
                    kk = keys[int(kis[j])]
                    flat = lists[j].values.to_numpy(zero_copy_only=False)
                    n_k, cands_k, disp = state[kk]
                    u = np.unique(np.concatenate([cands_k, flat]))
                    if len(u) > len(cands_k):
                        state[kk] = (n_k, u, disp)
                        grew = True
            if grew:
                refines += 1
                continue
        break
    # interior fetch for the residual ranks
    if residual:
        need = {
            (kidx[kk], i) for kk, rr in residual.items() for (i, _off) in rr.values()
        }
        nref = ray.put(need)
        # every state-growing path re-broadcasts at the loop top before
        # the histogram runs, and every break path leaves state
        # untouched -- the in-scope ref is current, no re-serialize

        def pick(t: pa.Table) -> pa.Table:
            pairs = ray.get(nref)
            km, concat, offs = ray.get(ref)
            ks, ids, vs = [], [], []
            vt = t.schema.field(col).type
            for kk, _kv, v in _batch_key_groups(t, key, col):
                i = km.get(kk)
                if i is None or not len(v):
                    continue
                c = concat[offs[i]: offs[i + 1]]
                ids_r, ids_l = _ids(c, v)
                strict = ids_l == ids_r
                wanted = {iid for (ki2, iid) in pairs if ki2 == i}
                if not wanted:
                    continue
                m = strict & np.isin(ids_r, np.array(sorted(wanted)))
                ks.append(np.full(int(m.sum()), i, dtype=np.int64))
                ids.append(ids_r[m].astype(np.int64))
                vs.append(v[m])
            if not ks:
                return pa.table(
                    {"ki": pa.array([], type=pa.int64()),
                     "id": pa.array([], type=pa.int64()),
                     "v": pa.array([], type=vt)}
                )
            return pa.table(
                {"ki": pa.array(np.concatenate(ks)),
                 "id": pa.array(np.concatenate(ids)),
                 "v": pa.array(np.concatenate(vs))}
            )

        got = ds.map_batches(
            pick, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        grouped = {
            (int(ki2), int(iid)): np.sort(g["v"].to_numpy())
            for (ki2, iid), g in got.groupby(["ki", "id"])
        } if len(got) else {}
        for kk, rr in residual.items():
            for r, (i, off) in rr.items():
                out_vals[kk][r] = grouped[(kidx[kk], i)][off - 1].item()
    # assemble the frame (NULL key restored via object dtype)
    import pandas as pd

    rows = []
    for kk in keys:
        kv = None if kk[1] else state[kk][2]
        n_k = state[kk][0]
        vals = [
            out_vals[kk][min(max(int(np.ceil(q * n_k)), 1), n_k)] if n_k else None
            for q in qs
        ]
        rows.append([kv, *vals])
    return pd.DataFrame(rows, columns=[key, *[f"q_{q}" for q in qs]])
