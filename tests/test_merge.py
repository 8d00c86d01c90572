"""MERGE INTO semantics (reference ``csv_handler.py:66-97`` /
``tests/unit/test_csv_handler_grouping.py``) under LWW-by-warc_ts,
including the FIXTURES.md F3 table and a DuckDB oracle over the derived
pages table."""

import datetime as dt

import duckdb
import pandas as pd
import pyarrow as pa
import ray.data

from engine.merge import merge_datasets
from engine.pages import PAGES_CTE, read_pages
from merge_oracle import merge_fold


def _ts(i):
    return dt.datetime(2026, 1, 1) + dt.timedelta(seconds=i)


def f3_table() -> pa.Table:
    return pa.table(
        {
            "url": ["u1", "u1", "u1", "u2", None, None],
            "warc_ts": pa.array([_ts(1), _ts(2), _ts(3), _ts(1), _ts(1), _ts(2)], pa.timestamp("us")),
            "text": ["Alice", "", "Alicia", "Bob", "NoId", "MissingId"],
            "lang": ["en", "", "es", "en", "en", "en"],
        }
    )


def test_f3_fixture_semantics():
    out = merge_datasets(ray.data.from_arrow(f3_table()), num_buckets=4).to_pandas()
    assert len(out) == 4
    u1 = out[out.url == "u1"].iloc[0]
    # latest non-empty wins; empty t2 row must NOT have overwritten
    assert u1.text == "Alicia" and u1.lang == "es"
    assert u1.warc_ts == _ts(3)
    assert out[out.url == "u2"].iloc[0].text == "Bob"
    # null-key rows pass through un-merged (csv_handler.py:81-84)
    assert sorted(out[out.url.isna()].text) == ["MissingId", "NoId"]


def test_empty_never_overwrites_all_empty_keeps_anchor():
    t = pa.table(
        {
            "url": ["u", "u"],
            "warc_ts": pa.array([_ts(1), _ts(2)], pa.timestamp("us")),
            "text": ["", ""],
            "lang": ["en", ""],
        }
    )
    out = merge_datasets(ray.data.from_arrow(t), num_buckets=2).to_pandas()
    assert len(out) == 1
    # all-empty column falls back to the anchor's literal empty value
    assert out.iloc[0].text == ""
    assert out.iloc[0].lang == "en"


def test_empty_string_key_passes_through():
    t = pa.table(
        {
            "url": ["", "", "k"],
            "warc_ts": pa.array([_ts(1), _ts(2), _ts(1)], pa.timestamp("us")),
            "text": ["a", "b", "c"],
            "lang": ["en", "en", "en"],
        }
    )
    out = merge_datasets(ray.data.from_arrow(t), num_buckets=2).to_pandas()
    assert len(out) == 3  # the two ''-key rows are NOT merged


def test_fold_is_order_insensitive():
    df = f3_table().to_pandas()
    shuffled = df.sample(frac=1.0, random_state=7)
    a = merge_fold(df, "url", "warc_ts").sort_values("url", na_position="first").reset_index(drop=True)
    b = (
        merge_fold(shuffled, "url", "warc_ts")
        .sort_values("url", na_position="first")
        .reset_index(drop=True)
    )
    # null-key rows keep arbitrary relative order; compare as sets
    pd.testing.assert_frame_equal(
        a.sort_values(list(a.columns), na_position="first").reset_index(drop=True),
        b.sort_values(list(b.columns), na_position="first").reset_index(drop=True),
    )


def test_merge_matches_duckdb_oracle(sf_dir):
    merged = merge_datasets(read_pages(sf_dir, with_html=False), num_buckets=8)
    got = (
        merged.select_columns(["url", "text", "lang"])
        .to_pandas()
        .sort_values(["url", "text", "lang"], na_position="first")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    exp = (
        con.sql(
            PAGES_CTE
            + """
            , merged AS (
              SELECT url,
                coalesce(arg_max(text, warc_ts) FILTER (text IS NOT NULL AND text <> ''),
                         arg_min(text, warc_ts)) AS text,
                coalesce(arg_max(lang, warc_ts) FILTER (lang IS NOT NULL AND lang <> ''),
                         arg_min(lang, warc_ts)) AS lang
              FROM pages WHERE url IS NOT NULL AND url <> '' GROUP BY url)
            SELECT url, text, lang FROM merged
            UNION ALL
            SELECT url, text, lang FROM pages WHERE url IS NULL OR url = ''
            """
        )
        .df()
        .sort_values(["url", "text", "lang"], na_position="first")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


# --- property test: vectorized fold vs a literal reference-semantics oracle

from hypothesis import given, settings, strategies as st


def _reference_merge(rows, key="url", ts="warc_ts"):
    """Literal re-statement of _group_records_by_id (csv_handler.py:66-97)
    applied to ts-sorted rows (LWW order), row-at-a-time."""
    rows = sorted(rows, key=lambda r: r[ts])
    anchors, ordered = {}, []
    for r in rows:
        rid = r[key]
        if rid is None or rid == "":
            ordered.append(dict(r))
            continue
        if rid not in anchors:
            anchors[rid] = dict(r)
            ordered.append(anchors[rid])
            continue
        for f, v in r.items():
            if f == key:
                continue
            if v not in ("", None):
                anchors[rid][f] = v
    return ordered


_keys = st.one_of(st.none(), st.sampled_from(["", "u1", "u2", "u3", "k"]))
_vals = st.sampled_from(["", "a", "b", "x y", None])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_keys, _vals, _vals),
        min_size=1,
        max_size=30,
    )
)
def test_merge_fold_matches_reference_semantics(rows_spec):
    rows = [
        {"url": k, "warc_ts": _ts(i), "text": t, "lang": l}
        for i, (k, t, l) in enumerate(rows_spec)
    ]
    df = pd.DataFrame(rows)
    df["warc_ts"] = pd.to_datetime(df["warc_ts"])
    # mirror merge_datasets' bucket fold: null/empty keys pass through
    null_mask = df["url"].isna() | (df["url"] == "")
    got_df = merge_fold(df[~null_mask], "url", "warc_ts")
    if null_mask.any():
        got_df = pd.concat([got_df, df[null_mask]], ignore_index=True)
    got = {
        (r.url if pd.notna(r.url) else None, r.warc_ts): (
            r.text if pd.notna(r.text) else None,
            r.lang if pd.notna(r.lang) else None,
        )
        for r in got_df.itertuples()
    }
    exp_rows = _reference_merge(rows)
    exp = {
        (r["url"], pd.Timestamp(r["warc_ts"])): (r["text"], r["lang"])
        for r in exp_rows
    }
    assert len(got_df) == len(exp_rows)
    assert got == exp


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_keys, _vals, _vals),
        min_size=1,
        max_size=30,
    )
)
def test_arrow_fold_matches_reference_semantics(rows_spec):
    from engine.merge import merge_fold_passthrough_arrow

    rows = [
        {"url": k, "warc_ts": _ts(i), "text": t, "lang": l}
        for i, (k, t, l) in enumerate(rows_spec)
    ]
    df = pd.DataFrame(rows)
    df["warc_ts"] = pd.to_datetime(df["warc_ts"]).astype("datetime64[us]")
    got_df = merge_fold_passthrough_arrow(
        pa.Table.from_pandas(df, preserve_index=False), "url", "warc_ts"
    ).to_pandas()
    got = {
        (r.url if pd.notna(r.url) else None, r.warc_ts): (
            r.text if pd.notna(r.text) else None,
            r.lang if pd.notna(r.lang) else None,
        )
        for r in got_df.itertuples()
    }
    exp_rows = _reference_merge(rows)
    exp = {
        (r["url"], pd.Timestamp(r["warc_ts"])): (r["text"], r["lang"])
        for r in exp_rows
    }
    assert len(got_df) == len(exp_rows)
    assert got == exp


def test_arrow_fold_parity_with_pandas_fold_typed_fuzz():
    """Arrow fold == pandas fold on randomized TYPED tables: binary
    payloads, nullable ints, uint64 at full width, NaT and tied
    timestamps, empty strings/bytes, all-empty keys."""
    import numpy as np

    from engine.merge import merge_fold_passthrough_arrow
    from merge_oracle import merge_fold_passthrough

    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 400))
        keys = rng.choice(["u1", "u2", "u3", "u4", "hot", ""], size=n).astype(object)
        keys[rng.random(n) < 0.1] = None
        # ties on purpose: ts drawn from a tiny set, some NaT, some pre-epoch
        ts_pool = np.array([-2, -1, 0, 1, 2, 10**6, 10**6], dtype="datetime64[us]")
        ts = ts_pool[rng.integers(0, len(ts_pool), n)].astype("datetime64[us]")
        ts_obj = pd.Series(ts)
        ts_obj[rng.random(n) < 0.15] = pd.NaT
        text = rng.choice(["", "alpha", "beta", None], size=n).astype(object)
        blob = rng.choice([b"", b"\x00\x01", b"payload", None], size=n).astype(object)
        ints = pd.array(rng.integers(0, 100, n), dtype="Int64")
        ints[rng.random(n) < 0.2] = pd.NA
        big = rng.integers(0, 2**63, n, dtype=np.uint64) | np.uint64(1 << 63)
        df = pd.DataFrame(
            {
                "url": keys,
                "warc_ts": ts_obj.astype("datetime64[us]"),
                "text": text,
                "html": blob,
                "rank": ints,
                "simhash": big,
            }
        )
        t = pa.Table.from_pandas(df, preserve_index=False)
        got = merge_fold_passthrough_arrow(t, "url", "warc_ts").to_pandas()
        exp = merge_fold_passthrough(t.to_pandas(), "url", "warc_ts")
        order = list(exp.columns)

        def canon(d):
            d = d[order].copy()
            d["simhash"] = d["simhash"].astype("uint64")
            return d.sort_values(order, na_position="first", key=lambda s: s.astype(str)).reset_index(
                drop=True
            )

        g, e = canon(got), canon(exp)
        assert len(g) == len(e), f"trial {trial}: {len(g)} vs {len(e)} rows"
        for c in order:
            ga, ea = g[c].tolist(), e[c].tolist()
            ga = [None if (not isinstance(v, (bytes, str)) and pd.isna(v)) else v for v in ga]
            ea = [None if (not isinstance(v, (bytes, str)) and pd.isna(v)) else v for v in ea]
            assert ga == ea, f"trial {trial}: column {c} diverged"


def test_numeric_columns_zero_overwrites_nan_skipped():
    # reference rule `value not in ("", None)`: numeric 0 DOES overwrite,
    # missing (None/NaN) does not
    df = pd.DataFrame(
        {
            "url": ["u", "u", "u"],
            "warc_ts": [_ts(1), _ts(2), _ts(3)],
            "score": [5.0, 0.0, None],
        }
    )
    out = merge_fold(df, "url", "warc_ts")
    assert len(out) == 1
    assert out.iloc[0].score == 0.0  # t2's zero won; t3's NaN skipped


def test_arrow_fold_nan_is_a_valid_value():
    """The engine contract (merge_fold_arrow): float NaN is a VALID
    value -- only null and ""/b"" coalesce. A later-ts explicit NaN
    OVERWRITES a real number (Arrow/SQL semantics: pc.is_null(NaN) is
    false), while a later-ts NULL is coalesced past. The pandas fold
    cannot represent this distinction (NaN IS its null), which is why
    it is a test oracle only -- this test pins the divergence."""
    from engine.merge import merge_fold_arrow

    ts = pa.array(
        [pd.Timestamp(f"2024-01-0{i}") for i in (1, 2, 3)],
        type=pa.timestamp("us"),
    )
    t = pa.table(
        {
            "url": pa.array(["u", "u", "u"]),
            "warc_ts": ts,
            "nan_col": pa.array([5.0, float("nan"), None], type=pa.float64()),
            "null_col": pa.array([7.0, None, None], type=pa.float64()),
        }
    )
    out = merge_fold_arrow(t, "url", "warc_ts")
    assert len(out) == 1
    v = out.column("nan_col")[0].as_py()
    assert v != v  # t2's explicit NaN overwrote 5.0; t3's null skipped
    assert out.column("null_col")[0].as_py() == 7.0  # nulls still coalesce


def _merged_by_url(out) -> pd.DataFrame:
    return out.to_pandas().sort_values("url", na_position="first").reset_index(drop=True)


def test_wide_merge_preserves_numeric_dtypes(ray_session):
    """The bucketed merge of a table with a binary payload keeps its
    input types: an int64 stays int64 and a uint64 simhash stays uint64
    at full width (a pandas fold would upcast both to float64, rounding
    the uint64 through a 53-bit mantissa)."""
    import numpy as np

    n = 200
    rng = np.random.default_rng(3)
    sig = rng.integers(0, 2**63, n).astype(np.uint64) | (np.uint64(1) << np.uint64(63))
    t = pa.table(
        {
            "url": pa.array([f"u{i % 50}" for i in range(n)]),
            "warc_ts": pa.array(
                np.arange(n).astype("datetime64[us]"), pa.timestamp("us")
            ),
            "html": pa.array([b"<html>%d</html>" % i for i in range(n)], pa.binary()),
            "n_chars": pa.array(np.arange(n), pa.int64()),
            "simhash": pa.array(sig, pa.uint64()),
        }
    )
    out = merge_datasets(ray.data.from_arrow(t).repartition(3), num_buckets=4)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    schema = {f.name: str(f.type) for f in got.schema}
    assert schema["n_chars"] == "int64", schema
    assert schema["simhash"] == "uint64", schema
    # u{k} is written at rows k, k+50, k+100, k+150: the last one wins
    got = got.sort_by("n_chars").to_pydict()
    win = list(range(150, 200))
    assert got["url"] == [f"u{i % 50}" for i in win]
    assert got["n_chars"] == win
    assert got["simhash"] == [int(sig[i]) for i in win]
    assert got["html"] == [b"<html>%d</html>" % i for i in win]


def test_wide_merge_null_ts_matches_single_pass(ray_session):
    """NULL warc_ts is the oldest writer, non-empty values coalesce per
    column (also across rows tied at the winning ts), and a NULL-url
    row passes through with its payload."""
    import numpy as np

    ts = [None, 5, None, None, 3, 7, 7, None]
    urls = ["u1", "u1", "u2", "u2", "u3", "u3", "u3", None]
    html = [b"NULL-TS", b"TS5", b"A", b"", b"T3", b"", b"T7", b"PASS"]
    text = ["a", "", "x", "y", "p", "q", "", "z"]
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(
                [None if v is None else np.datetime64(v, "us") for v in ts],
                pa.timestamp("us"),
            ),
            "html": pa.array(html, pa.binary()),
            "text": pa.array(text, pa.string()),
        }
    )
    got = _merged_by_url(merge_datasets(ray.data.from_arrow(t).repartition(3), num_buckets=4))
    assert got.url.tolist() == [None, "u1", "u2", "u3"]
    # u1: the ts=5 writer wins the payload over the null-ts writer, whose
    # text survives because the winner's is empty; u2: both ts null, the
    # empty html never shadows "A"; u3: at the ts=7 tie html comes from
    # the row holding the NON-EMPTY payload and text from the other row
    assert got.html.tolist() == [b"PASS", b"TS5", b"A", b"T7"]
    assert got.text.tolist() == ["z", "a", "y", "q"]
    assert got.warc_ts.isna().tolist() == [True, False, True, False]
    assert got.warc_ts[1] == pd.Timestamp(5, unit="us")
    assert got.warc_ts[3] == pd.Timestamp(7, unit="us")


def test_wide_merge_ns_unit_source_column(ray_session):
    """A timestamp[ns] or a plain int64 ts column orders the merge in
    its own unit and comes back in its own type."""
    import numpy as np

    n = 120
    urls = [f"u{i % 30}" for i in range(n)]
    for ts_arr in (
        pa.array((np.arange(n) * 1_000_000).astype("datetime64[ns]"), pa.timestamp("ns")),
        pa.array(np.arange(n), pa.int64()),
    ):
        t = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": ts_arr,
                "html": pa.array([b"payload-%d" % i for i in range(n)], pa.binary()),
                "text": pa.array([f"t{i}" for i in range(n)], pa.string()),
            }
        )
        out = merge_datasets(ray.data.from_arrow(t).repartition(3), num_buckets=4)
        got = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
        assert got.schema.field("warc_ts").type == ts_arr.type
        # u{k} is written at rows k, k+30, k+60, k+90: the last one wins
        got = got.sort_by("warc_ts")
        win = list(range(90, 120))
        assert got.column("warc_ts").cast(pa.int64()).to_pylist() == (
            ts_arr.slice(90).cast(pa.int64()).to_pylist()
        )
        assert got.column("html").to_pylist() == [b"payload-%d" % i for i in win]
        assert got.column("text").to_pylist() == [f"t{i}" for i in win]


def test_wide_merge_pre_epoch_sub_us_timestamps(ray_session):
    """Pre-epoch ns timestamps with sub-microsecond remainders order
    the merge and come back bit-exact."""
    import numpy as np

    n = 60
    urls = [f"u{i % 15}" for i in range(n)]
    # every value pre-epoch with a NON-ZERO sub-microsecond remainder;
    # ts falls as i grows, so u{k}'s winner is its first row, k
    ns = -(np.arange(n, dtype=np.int64) * 1_000_000 + 1_500)
    t = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ns.astype("datetime64[ns]"), pa.timestamp("ns")),
            "html": pa.array([b"payload-%d" % i for i in range(n)], pa.binary()),
            "text": pa.array([f"t{i}" for i in range(n)], pa.string()),
        }
    )
    out = merge_datasets(ray.data.from_arrow(t).repartition(3), num_buckets=4)
    got = pa.concat_tables(out.iter_batches(batch_format="pyarrow")).sort_by(
        [("warc_ts", "descending")]
    )
    win = list(range(15))
    assert got.column("warc_ts").cast(pa.int64()).to_pylist() == ns[:15].tolist()
    assert got.column("url").to_pylist() == [f"u{i}" for i in win]
    assert got.column("html").to_pylist() == [b"payload-%d" % i for i in win]


def test_wide_merge_all_passthrough_input(ray_session):
    """Every row has a NULL/empty key: all of them pass through intact,
    payload included, and nothing is merged."""
    t = pa.table(
        {
            "url": pa.array([None, "", None], pa.string()),
            "warc_ts": pa.array([1, 2, 3], pa.int64()),
            "html": pa.array([b"a", b"b", None], pa.binary()),
        }
    )
    got = pa.concat_tables(
        merge_datasets(ray.data.from_arrow(t), num_buckets=4).iter_batches(
            batch_format="pyarrow"
        )
    ).sort_by("warc_ts")
    assert got.to_pydict() == t.to_pydict()


def test_ts_i64_arrow_type_contract():
    """The one shared ts->int64 cast: timestamps canonicalize to us,
    integers pass through, ISO-8601 strings parse (the old stream
    path's pd.to_datetime lenience), null -> INT64_MIN (oldest
    writer), and anything else raises a NAMED TypeError instead of a
    cryptic mid-pipeline ArrowInvalid."""
    import pytest

    from engine.merge import TS_I64_MIN, ts_i64_arrow

    out = ts_i64_arrow(pa.array(["2024-01-01T00:00:01", None]))
    assert out.to_pylist() == [1704067201000000, TS_I64_MIN]
    assert ts_i64_arrow(pa.array([7, None], pa.int64())).to_pylist() == [
        7,
        TS_I64_MIN,
    ]
    # pre-epoch sub-us truncates toward zero (-1500ns -> -1us), the
    # documented canonical behavior both join sides share
    ns = pa.array([-1500], pa.timestamp("ns"))
    assert ts_i64_arrow(ns).to_pylist() == [-1]
    with pytest.raises(TypeError, match="timestamp, integer, or ISO"):
        ts_i64_arrow(pa.array([1.5], pa.float64()))


def test_ts_i64_arrow_string_lenience_sub_us_and_zoned():
    """Regression (review): string ts columns with sub-us fractions or
    zone offsets parsed under the old pd.to_datetime stream path and
    must keep parsing through the unified cast (us -> ns -> zoned
    fallbacks); sub-us truncates toward zero like every other path."""
    from engine.merge import ts_i64_arrow

    assert ts_i64_arrow(pa.array(["2020-01-01T00:00:00.123456789"])).to_pylist() == [
        1577836800123456
    ]
    # zone offset converts to UTC epoch micros
    assert ts_i64_arrow(pa.array(["2020-01-01 00:00:00+05:00"])).to_pylist() == [
        1577818800000000
    ]
