"""engine.quantiles: exact distributed selection vs DuckDB
quantile_disc."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data

from engine.quantiles import grouped_quantile_disc, quantile_disc

QS = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]


def _duck(df, fn, qs):
    con = duckdb.connect()
    con.register("t", df)
    return con.execute(f"SELECT {fn}(v, {qs}) FROM t").fetchone()[0]


def test_quantile_disc_nulls_nan_ties(ray_session):
    """Floats with NULLs, NaN (sorts last, like DuckDB), and a heavy
    tie; tiny per-batch sample so brackets actually matter."""
    rng = np.random.default_rng(11)
    vals = rng.normal(100, 20, 20000)
    vals[::97] = np.nan
    vals[::53] = 42.0
    s = pd.Series(vals, dtype="float64")
    s[::31] = None
    df = pd.DataFrame({"v": s})
    ds = ray.data.from_pandas(df).repartition(9)
    got = quantile_disc(ds, "v", QS, candidates_per_batch=32)
    want = _duck(df, "quantile_disc", QS)
    for g, w in zip(got, want):
        assert (np.isnan(g) and np.isnan(w)) or g == w, (g, w)


def test_quantile_int64_past_2_53_stays_exact(ray_session):
    """int64 values beyond 2^53 never pass through float64: the median
    of a 2^60-offset ramp is exact to the unit."""
    df = pd.DataFrame({"v": np.arange(10001, dtype=np.int64) + (1 << 60)})
    ds = ray.data.from_pandas(df).repartition(5)
    got = quantile_disc(ds, "v", [0.5], candidates_per_batch=16)
    assert got == [_duck(df, "quantile_disc", [0.5])[0]]


def test_quantile_empty_and_all_null(ray_session):
    e = pd.DataFrame({"v": pd.Series([None, None], dtype="float64")})
    assert quantile_disc(ray.data.from_pandas(e), "v", [0.5, 0.9]) == [None, None]


def test_quantile_refine_loop_on_skew(ray_session):
    """bracket_limit far below the data size forces the refinement
    pass; the result must stay exact."""
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"v": np.concatenate([rng.normal(0, 1, 9000), np.full(9000, 7.0)])})
    ds = ray.data.from_pandas(df).repartition(4)
    got = quantile_disc(
        ds, "v", [0.5, 0.75], candidates_per_batch=2, bracket_limit=64
    )
    want = _duck(df, "quantile_disc", [0.5, 0.75])
    assert got == list(want)


@pytest.mark.parametrize("n,q", [(1, 0.5), (2, 0.5), (3, 1.0 / 3), (5, 0.2)])
def test_quantile_disc_rank_convention(ray_session, n, q):
    """rank = ceil(q*n) on tiny inputs, pinned against DuckDB."""
    df = pd.DataFrame({"v": np.arange(1, n + 1, dtype=np.int64)})
    got = quantile_disc(ray.data.from_pandas(df), "v", [q])
    assert got == [_duck(df, "quantile_disc", [q])[0]]


def test_quantile_pure_tie_resolves_via_eq_counts(ray_session):
    """A tie run far bigger than bracket_limit must resolve from the
    candidate-equality counts (no interior fetch can cover it): the
    median of 60k identical values among noise is exact even with
    bracket_limit=10."""
    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {"v": np.concatenate([np.full(60000, 7.0), rng.normal(0, 1, 5000)])}
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = quantile_disc(
        ds, "v", [0.25, 0.5, 0.9], candidates_per_batch=8, bracket_limit=10
    )
    want = _duck(df, "quantile_disc", [0.25, 0.5, 0.9])
    assert got == list(want)


def test_grouped_quantile_disc_duckdb_parity(ray_session):
    """grouped_quantile_disc == quantile_disc ... GROUP BY key on a
    fixture with a NULL key group, NULL values, one all-NULL-value key,
    int64 values, and tiny per-batch samples."""
    rng = np.random.default_rng(13)
    n = 30000
    lang = pd.array(
        [None if i % 37 == 0 else f"l{i % 5}" for i in range(n)], dtype=object
    )
    v = pd.Series(rng.integers(0, 10000, n).astype("int64")).astype("Int64")
    v[np.arange(n) % 41 == 0] = None
    v[np.asarray(lang == "l3")] = None  # all-NULL-value key -> NULL quantiles
    df = pd.DataFrame({"lang": lang, "v": v})
    ds = ray.data.from_pandas(df).repartition(9)
    got = grouped_quantile_disc(ds, "lang", "v", [0.5, 0.9], candidates_per_batch=16)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        'SELECT lang, quantile_disc(v, 0.5) AS "q_0.5", '
        'quantile_disc(v, 0.9) AS "q_0.9" FROM t GROUP BY lang'
    ).fetchdf()

    def norm(d):
        d = d[sorted(d.columns)].copy()
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


def test_grouped_quantile_refine_and_ties(ray_session):
    """Keyed skew refinement: one key holds a giant tie, another a
    dense interior forced through bracket_limit=32; both exact."""
    rng = np.random.default_rng(21)
    df = pd.DataFrame(
        {
            "k": ["tie"] * 50000 + ["dense"] * 20000,
            "v": np.concatenate([np.full(50000, 3.5), rng.normal(0, 1, 20000)]),
        }
    )
    ds = ray.data.from_pandas(df).repartition(6)
    got = grouped_quantile_disc(
        ds, "k", "v", [0.5], candidates_per_batch=4, bracket_limit=32
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        'SELECT k, quantile_disc(v, 0.5) AS "q_0.5" FROM t GROUP BY k'
    ).fetchdf()
    g = got.sort_values("k").reset_index(drop=True)
    w = want.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_grouped_quantile_empty(ray_session):
    df = pd.DataFrame({"k": pd.Series(dtype=object), "v": pd.Series(dtype="float64")})
    out = grouped_quantile_disc(ray.data.from_pandas(df), "k", "v", [0.5])
    assert len(out) == 0 and list(out.columns) == ["k", "q_0.5"]


def test_grouped_quantile_nan_key_is_one_group(ray_session):
    """A float NaN key is ONE group (SQL GROUP BY semantics): raw nan
    tuples split it across dict entries (nan != nan) and then KeyError
    on the residual fetch -- review finding, fixed via _NanKey token."""
    df = pd.DataFrame(
        {
            "k": [np.nan, np.nan, 1.5, 1.5, np.nan] * 200,
            "v": np.arange(1000, dtype=np.int64) % 17,
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    got = grouped_quantile_disc(ds, "k", "v", [0.5], candidates_per_batch=4)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        'SELECT k, quantile_disc(v, 0.5) AS "q_0.5" FROM t GROUP BY k'
    ).fetchdf()
    assert len(got) == len(want) == 2
    g = got.sort_values("k", na_position="first").reset_index(drop=True)
    w = want.sort_values("k", na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_grouped_quantile_int64_past_2_53_with_all_null_group(ray_session):
    """An all-NULL-value group's empty float64 candidate array must not
    promote the other groups' int64 candidates past 2^53 in the
    broadcast concat (review finding): the 2^60-offset medians stay
    exact to the unit."""
    n = 4000
    df = pd.DataFrame(
        {
            "k": ["a", "b"] * (n // 2),
            "v": pd.array(np.arange(n, dtype=np.int64) + (1 << 60), dtype="Int64"),
        }
    )
    df.loc[df.k == "b", "v"] = None
    ds = ray.data.from_pandas(df).repartition(4)
    got = grouped_quantile_disc(ds, "k", "v", [0.5], candidates_per_batch=8)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        'SELECT k, quantile_disc(v, 0.5) AS "q_0.5" FROM t GROUP BY k'
    ).fetchdf()
    g = got.sort_values("k").reset_index(drop=True)
    w = want.sort_values("k").reset_index(drop=True)
    assert g.loc[0, "q_0.5"] == w.loc[0, "q_0.5"]  # exact int, no rounding
    assert pd.isna(g.loc[1, "q_0.5"]) and pd.isna(w.loc[1, "q_0.5"])


def test_grouped_quantile_null_typed_key_column(ray_session):
    """An all-None object key column arrives as Arrow null type; the
    null_safe_key guard fills int64 zeros and the partial must
    transport the key as int64, not type null (review finding)."""
    df = pd.DataFrame(
        {"k": pd.array([None, None, None], dtype=object), "v": [1.0, 2.0, 3.0]}
    )
    got = grouped_quantile_disc(ray.data.from_pandas(df), "k", "v", [0.5])
    assert len(got) == 1 and got.loc[0, "k"] is None and got.loc[0, "q_0.5"] == 2.0
