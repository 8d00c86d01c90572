"""Broadcast joins, skew salting, partial+final aggregates, CSV
validation and CSV dump (J1/M5/A2/S5, skew per north_rule)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine.aggregates import grouped_sum_count, pattern_score_distributed
from engine.csv_ingest import validate_csv_paths
from engine.lookup import broadcast_join, broadcast_semi_join
from engine.skew import add_salt, detect_heavy_keys, salted_group_count


def test_broadcast_join_matches_pandas(ray_session):
    facts = pa.table({"k": [1, 2, 3, 2, 9], "v": [10.0, 20.0, 30.0, 40.0, 50.0]})
    dim = pd.DataFrame({"id": [1, 2, 3], "name": ["a", "b", "c"]})
    out = (
        broadcast_join(ray.data.from_arrow(facts), dim, left_on="k", right_on="id")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        facts.to_pandas()
        .merge(dim, left_on="k", right_on="id")
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)


def test_broadcast_semi_and_anti_join(ray_session):
    t = pa.table({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
    keep = broadcast_semi_join(ray.data.from_arrow(t), {2, 4}, "k").to_pandas()
    assert sorted(keep.k) == [2, 4]
    drop = broadcast_semi_join(ray.data.from_arrow(t), {2, 4}, "k", anti=True).to_pandas()
    assert sorted(drop.k) == [1, 3]


def test_detect_heavy_and_salt(ray_session):
    langs = ["en"] * 600 + ["zh"] * 150 + ["fr"] * 20
    ds = ray.data.from_arrow(pa.table({"lang": langs}))
    heavy = detect_heavy_keys(ds, "lang", threshold_rows=100)
    assert set(heavy) == {"en", "zh"}
    salted = add_salt(ds, "lang", heavy, salt_buckets=4).to_pandas()
    en = salted[salted.lang == "en"]["__salt"]
    assert set(en.unique()) == {0, 1, 2, 3}  # dominant key split 4 ways
    fr = salted[salted.lang == "fr"]["__salt"]
    assert (fr == 0).all()  # light keys unsalted


def test_salted_group_count_equals_plain(ray_session):
    langs = ["en"] * 300 + ["zh"] * 80 + ["fr"] * 7
    ds = ray.data.from_arrow(pa.table({"lang": langs}))
    out, heavy = salted_group_count(ds, "lang", threshold_rows=50, salt_buckets=4)
    assert dict(zip(out.lang, out.n)) == {"en": 300, "zh": 80, "fr": 7}
    assert "en" in heavy


def test_grouped_sum_count_combiner(ray_session):
    df = pd.DataFrame({"k": ["a", "b", "a", "a", "b"], "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    ds = ray.data.from_pandas(df).repartition(3)
    out = grouped_sum_count(ds, "k", "v").sort_values("k").reset_index(drop=True)
    assert out.sum_value.tolist() == [8.0, 7.0]
    assert out.n.tolist() == [3, 2]


def test_pattern_score_distributed_matches_local(ray_session):
    from engine.infer import pattern_score

    widths = [3] * 50 + [2] * 10 + [1] * 5
    ds = ray.data.from_arrow(pa.table({"w": widths})).repartition(4)
    got = pattern_score_distributed(ds, "w")
    exp = pattern_score([[None] * w for w in widths])
    assert abs(got - exp) < 1e-12


def test_validate_csv_paths(tmp_path):
    ok = tmp_path / "good.csv"
    ok.write_text("a,b\n1,2\n")
    big = tmp_path / "big.csv"
    big.write_text("x" * 1000)
    wrong = tmp_path / "notes.txt"
    wrong.write_text("hi")
    accepted, rejected = validate_csv_paths(
        [str(ok), str(big), str(wrong), str(tmp_path / "missing.csv")], max_bytes=100
    )
    assert accepted == [str(ok)]
    reasons = dict(rejected)
    assert "size" in reasons[str(big)]
    assert "extension" in reasons[str(wrong)]
    assert "stat" in reasons[str(tmp_path / "missing.csv")]


def test_dump_csv_roundtrip(tmp_table_root, ray_session):
    from engine.jobs import dump_csv, ingest
    from engine.manifest import Table
    from pages_fixture import synth_pages_table

    t = Table.create(tmp_table_root)
    ingest(t, ray.data.from_arrow(synth_pages_table(50)), sanitize_cols=())
    out_dir = os.path.join(tmp_table_root, "csv_dump")
    dump_csv(t, out_dir)
    files = [f for f in os.listdir(out_dir) if f.endswith(".csv")]
    assert files
    df = pd.concat([pd.read_csv(os.path.join(out_dir, f)) for f in files])
    assert len(df) == 50
    assert "html" not in df.columns  # binary column excluded


def test_range_join_matches_pandas(ray_session):
    from engine.lookup import range_join

    iv = pd.DataFrame({"lo": [0.0, 10.0, 50.0], "hi": [10.0, 20.0, 100.0], "band": ["low", "mid", "high"]})
    facts = pa.table({"id": list(range(7)), "v": [0.0, 5.0, 9.999, 10.0, 25.0, 50.0, 150.0]})
    out = (
        range_join(ray.data.from_arrow(facts), iv, "v", "lo", "hi", attach=["band"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert out.band.tolist()[:4] == ["low", "low", "low", "mid"]
    assert pd.isna(out.band.tolist()[4])   # gap between intervals
    assert out.band.tolist()[5] == "high"
    assert pd.isna(out.band.tolist()[6])   # beyond all intervals


def test_bloom_semi_join_no_false_negatives(ray_session):
    from engine.lookup import bloom_semi_join, make_bloom

    keys = {f"k{i}" for i in range(500)}
    t = pa.table({"col": [f"k{i}" for i in range(1000)]})
    out = bloom_semi_join(ray.data.from_arrow(t), keys, "col").to_pandas()
    kept = set(out.col)
    assert keys <= kept                       # zero false negatives
    fp = len(kept - keys) / 500
    assert fp < 0.05                          # ~0.1% expected at these params


def test_bloom_canonicalization_no_false_negatives(ray_session):
    # regression: float-upcast keys (1.0) vs int probe values (1) and
    # NULLs must not create false negatives / spurious matches
    from engine.lookup import bloom_semi_join

    keys = pd.Series([1.0, 2.0, 3.0])  # float-upcast build side
    t = pa.table({"col": pa.array([1, 2, 3, 4, None], pa.int64())})
    out = bloom_semi_join(ray.data.from_arrow(t), keys, "col").to_pandas()
    assert {1, 2, 3} <= set(out.col.dropna().astype(int))
    assert out.col.isna().sum() == 0  # NULL never matches


def test_float32_keys_canonicalize_widened(ray_session):
    """A float32 key canonicalizes as its float64 value (1.1 ->
    '1.100000023841858') on the vectorized and the scalar path alike, so
    a Bloom semi-join matches whatever SQL's widening comparison
    matches: a float32 column probed with keys from its own
    ``to_pylist()`` or with float32 keys, and a float64 column holding
    the widened value probed with float32 keys."""
    from engine.lookup import _canon_keys, bloom_semi_join

    f32 = [np.float32(1.1), np.float32(2.0), np.float32(-0.5), None]
    want = [str(float(np.float32(1.1))), "2", "-0.5", None]
    assert want[0] == "1.100000023841858"
    for vals in (
        np.array([1.1, 2.0, -0.5, np.nan], dtype=np.float32),  # vectorized
        f32,  # vectorized (object column of numpy scalars)
        f32 + ["x"],  # scalar path
        [float(np.float32(1.1)), 2.0, -0.5, None],  # the widened Python floats
    ):
        got = [None if pd.isna(g) else g for g in _canon_keys(vals)]
        assert got[:4] == want, vals

    col32 = pa.array([1.1, 2.0, 7.5, None], pa.float32())
    col64 = pa.array([float(np.float32(1.1)), 2.0, 7.5, None], pa.float64())
    keys32 = np.array([1.1, 2.0], dtype=np.float32)
    for col, keys in (
        (col32, col32.to_pylist()[:2]),
        (col32, keys32),
        (col32, list(keys32) + ["x"]),
        (col64, keys32),
    ):
        t = pa.table({"col": col})
        out = bloom_semi_join(ray.data.from_arrow(t), keys, "col").to_pandas()
        assert {float(v) for v in out.col} >= {float(k) for k in keys32}, (col.type, keys)
        assert out.col.isna().sum() == 0


def test_range_join_guards(ray_session):
    from engine.lookup import range_join

    facts = pa.table({"id": [1], "v": [5.0], "band": ["existing"]})
    iv = pd.DataFrame({"lo": [0.0], "hi": [10.0], "band": ["low"]})
    import pytest as _pytest

    with _pytest.raises(ValueError, match="collide"):
        range_join(ray.data.from_arrow(facts), iv, "v", "lo", "hi", attach=["band"])
    # empty interval table -> all-null left join, no crash
    empty = pd.DataFrame({"lo": pd.Series([], dtype=float), "hi": pd.Series([], dtype=float), "b": pd.Series([], dtype=object)})
    out = range_join(
        ray.data.from_arrow(pa.table({"id": [1, 2], "v": [5.0, 6.0]})), empty, "v", "lo", "hi", attach=["b"]
    ).to_pandas()
    assert len(out) == 2 and out.b.isna().all()


def test_bloom_string_fast_path_nulls_and_empty(ray_session):
    # the Arrow-buffer probe fast path: nulls never match, empty string
    # is a real key, true members always kept (build/probe consistency)
    from engine.lookup import bloom_semi_join

    keys = ["", "a", "b"]
    t = pa.table({"col": pa.array(["", "a", None, "zz", "b", None], pa.string())})
    out = bloom_semi_join(ray.data.from_arrow(t), keys, "col").to_pandas()
    got = out.col.tolist()
    assert "" in got and "a" in got and "b" in got
    assert not any(v is None for v in got)


def test_read_tables_parallel_all_sizes(tmp_path):
    """The ONE shared small-file read idiom: empty list is safe (no
    ThreadPoolExecutor(max_workers=0) crash), <=2 reads inline, >2
    through the pool -- all return the same tables."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.writer import read_tables_parallel

    assert read_tables_parallel([]) == []
    paths = []
    for i in range(5):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(pa.table({"x": [i]}), p)
        paths.append(p)
    for k in (1, 2, 5):
        got = read_tables_parallel(paths[:k])
        assert [t.column("x").to_pylist() for t in got] == [[i] for i in range(k)]


def test_grouped_topk_duckdb_parity(ray_session):
    """grouped_topk == SQL row_number() OVER (PARTITION BY key ORDER BY
    v DESC NULLS LAST, id) <= k on a fixture with NULL keys, NULL order
    values, heavy ties, and rows spread over many blocks."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from engine.aggregates import grouped_topk

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "lang": pd.array(
                [None if i % 37 == 0 else f"l{i % 7}" for i in range(n)],
                dtype=object,
            ),
            "score": [
                None if i % 41 == 0 else int(rng.integers(0, 50)) for i in range(n)
            ],
            "doc_id": np.arange(n, dtype=np.int64),
        }
    )
    ds = ray.data.from_pandas(df).repartition(13)
    got = grouped_topk(ds, "lang", "score", 3, tie_cols=("doc_id",)).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        "SELECT lang, score, doc_id FROM (SELECT *, row_number() OVER ("
        "PARTITION BY lang ORDER BY score DESC, doc_id) rn FROM t) WHERE rn <= 3"
    ).fetchdf()

    def norm(d):
        d = d[sorted(d.columns)].copy()
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


def test_grouped_topk_int64_keys_past_2_53(ray_session):
    """int64 keys beyond 2^53 must not split/merge groups (the pandas
    float path would): top-1 per unique big key returns every row."""
    import numpy as np
    import pandas as pd
    import ray.data

    from engine.aggregates import grouped_topk

    n = 500
    df = pd.DataFrame(
        {
            "big": np.arange(n, dtype=np.int64) + (1 << 60),
            "v": np.ones(n, dtype=np.int64),
            "id": np.arange(n, dtype=np.int64),
        }
    )
    got = grouped_topk(
        ray.data.from_pandas(df).repartition(7), "big", "v", 1, tie_cols=("id",)
    ).to_pandas()
    assert len(got) == n and set(got.big) == set(df.big)


def test_grouped_topk_ascending_and_empty(ray_session):
    """descending=False picks the minima; an all-filtered input yields
    an empty result without crashing."""
    import pandas as pd
    import ray.data

    from engine.aggregates import grouped_topk

    df = pd.DataFrame({"k": ["a", "a", "b"], "v": [3, 1, 2], "id": [0, 1, 2]})
    ds = ray.data.from_pandas(df)
    got = grouped_topk(ds, "k", "v", 1, tie_cols=("id",), descending=False).to_pandas()
    assert sorted(got.v.tolist()) == [1, 2]
    empty = grouped_topk(
        ds.filter(lambda r: False), "k", "v", 1, tie_cols=("id",)
    ).to_pandas()
    assert len(empty) == 0


def test_global_topk_null_key_and_ties(ray_session):
    """global_topk == ORDER BY n DESC, k ASC LIMIT k over a grouped count
    spread across blocks: the NULL key is an ordinary row that sorts
    after every non-NULL tie, ties at the cut break by key, and int64
    counts stay exact."""
    import duckdb
    import pandas as pd
    import ray.data

    from engine.aggregates import global_topk

    counts = pd.DataFrame(
        {
            "k": pd.array(["e", None, "c", "a", "d", "b", "f"], dtype=object),
            "n": pd.array([5, 5, 5, 7, 5, 5, 1], dtype="int64"),
        }
    )
    ds = ray.data.from_pandas(counts).repartition(4)
    con = duckdb.connect()
    con.register("t", counts)

    def norm(d):
        d = d[sorted(d.columns)].copy()
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    # k=5 cuts between the non-NULL ties and the NULL key; k=3 inside the ties
    for k in (3, 5, 6, 7):
        got = global_topk(ds, "n", k, tie_cols=("k",)).to_pandas()
        want = con.execute(
            f"SELECT k, n FROM t ORDER BY n DESC, k LIMIT {k}"
        ).fetchdf()
        pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)
        assert str(got["n"].dtype) == "int64"


def test_topk_kernel_hypothesis_vs_pandas():
    """Property: the Arrow top-k prune kernel == the pandas
    sort/groupby-head reference (row_number PARTITION BY ... ORDER BY v
    DESC NULLS LAST, id) on arbitrary NULL-bearing frames."""
    import pandas as pd
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from engine.aggregates import _topk_table

    rows = st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(["a", "b", "", "ç"])),
            st.one_of(st.none(), st.integers(-3, 3)),
        ),
        min_size=0,
        max_size=40,
    )

    @settings(max_examples=120, deadline=None)
    @given(rows=rows, k=st.integers(1, 3))
    def check(rows, k):
        df = pd.DataFrame(
            {
                "kk": pd.array([r[0] for r in rows], dtype=object),
                "v": pd.array([r[1] for r in rows], dtype="Int64"),
                "id": range(len(rows)),
            }
        )
        t = pa.Table.from_pandas(
            df,
            preserve_index=False,
            schema=pa.schema(
                [("kk", pa.string()), ("v", pa.int64()), ("id", pa.int64())]
            ),
        )
        got = _topk_table(t, "kk", "v", k, ("id",), True).to_pandas()
        ref = (
            df.sort_values(
                ["v", "id"], ascending=[False, True], na_position="last",
                kind="stable",
            )
            .groupby("kk", dropna=False, sort=False)
            .head(k)
        )
        assert set(got["id"]) == set(ref["id"]), (df, got, ref)

    check()


def test_grouped_count_topk_duckdb_parity(ray_session):
    """grouped_count_topk == GROUP BY + ORDER BY n DESC, k LIMIT on a
    many-distinct-keys fixture with a NULL group and boundary ties."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from engine.aggregates import grouped_count_topk

    rng = np.random.default_rng(3)
    keys = [f"u{int(i)}" for i in rng.zipf(1.3, 4000) % 700]
    keys += [None] * 37
    df = pd.DataFrame({"u": pd.array(keys, dtype=object)})
    ds = ray.data.from_pandas(df).repartition(7)
    got = grouped_count_topk(ds, "u", 10).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        "SELECT u, count(*) AS n FROM t GROUP BY u ORDER BY n DESC, u LIMIT 10"
    ).fetchdf()

    def norm(d):
        d = d[sorted(d.columns)].copy()
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


def test_canon_keys_vectorized_matches_scalar():
    # round-4 VERDICT #3: the numeric fast path must render EXACTLY the
    # strings the scalar closure rendered (divergence between build and
    # probe sides = Bloom false negatives)
    from engine.lookup import _canon_keys

    def scalar(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)

    cases = [
        [1, 2, 3, -7, 0],                      # pure int
        [1, None, 3],                          # int with null
        [1.0, 2.5, float("nan"), -0.0, 3.0],   # float with nan
        [1, 2.0, None, 7.25],                  # mixed int/float
        [2**62, -(2**62), 5],                  # large int64
        [1e300, float("inf"), -float("inf"), 0.1],  # huge/inf floats
        [2**70, 1],                            # bignum -> scalar fallback
        [1, 2.5, 2**53 + 1],                   # mixed w/ big int: float64
                                               # would round it (review
                                               # finding) -> scalar path
        [2**53 + 1, None, 0.5],                # same, with null
        ["a", "1", "1.5", ""],                 # strings stay verbatim
        [True, False, 1],                      # bools -> scalar fallback
        [],                                    # empty
        [None, None],                          # all null
    ]
    for vals in cases:
        got = _canon_keys(vals)
        want = [scalar(v) for v in vals]
        assert [None if pd.isna(g) else str(g) for g in got] == want, vals
