"""Pandas oracles for the MERGE fold (tests only).

No pipeline calls these: every production path folds with
``engine.merge.merge_fold_arrow`` / ``merge_fold_passthrough_arrow``,
and ``tests/test_merge.py`` fuzzes that Arrow fold against these
pandas twins."""

import pandas as pd


def merge_fold(df: pd.DataFrame, key: str, ts: str) -> pd.DataFrame:
    """Vectorized LWW + non-empty-coalesce fold over one bucket.

    Runs pandas C kernels over *all* keys in the bucket at once.

    TEST ORACLE ONLY -- every production path (distributed buckets,
    small-table task, streaming upsert) folds with
    :func:`merge_fold_arrow`. Known representational gap: pandas
    cannot hold a float NaN distinct from null, so this fold coalesces
    past NaN where the engine contract (Arrow/SQL semantics, defined
    by ``merge_fold_arrow``) treats NaN as a VALID value -- only null
    and ""/b"" coalesce. Parity fuzzing therefore avoids value-NaN
    floats; the NaN contract is pinned by its own unit test.
    """
    if df.empty:
        return df
    # null ts sorts FIRST: a null-timestamp row is the oldest writer and
    # never beats a timestamped one (same rule as the streaming index,
    # where NaT maps to INT64_MIN)
    df = df.sort_values(ts, kind="stable", na_position="first")
    value_cols = [c for c in df.columns if c != key]
    anchor = df.drop_duplicates(subset=[key], keep="first").set_index(key)

    masked = df.copy()
    for c in value_cols:
        col = masked[c]
        if col.dtype == object or pd.api.types.is_string_dtype(col):
            # empty string / empty bytes count as "missing"
            # (csv_handler.py:91-95); vectorized -- isin is False for
            # NaN so notna() carries the null semantics
            masked[c] = col.where(col.notna() & ~col.isin(("", b"")))
    # groupby.last skips missing values -> "latest non-empty"; fillna
    # from the anchor covers the all-missing case (anchor's literal,
    # possibly empty, value -- csv_handler.py:86-89)
    last_nonempty = masked.groupby(key, sort=False).last()
    out = last_nonempty.fillna(anchor[value_cols])
    return out.reset_index()[df.columns.tolist()]


def merge_fold_passthrough(df: pd.DataFrame, key: str, ts: str) -> pd.DataFrame:
    """The per-bucket merge fold including NULL/empty-key passthrough.

    TEST ORACLE ONLY (see :func:`merge_fold`): production paths -- the
    distributed per-bucket fold of ``merge_datasets``, ``jobs._small_task``, and
    the streaming upsert -- all run
    :func:`merge_fold_passthrough_arrow` / :func:`merge_fold_arrow`;
    this pandas twin exists for the parity fuzz in tests/test_merge.py.
    """
    null_mask = df[key].isna() | (df[key] == "")
    merged = merge_fold(df[~null_mask], key, ts)
    if null_mask.any():
        merged = pd.concat([merged, df[null_mask]], ignore_index=True)
    return merged
