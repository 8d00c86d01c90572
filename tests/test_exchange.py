"""The one bucket exchange (``engine/exchange.py``): every row of a key
reaches one fold call, whatever the key type and however its batches
hold nulls; the fold never sees the bucket column; empty input and NULL
keys behave; and no other engine module hand-rolls an exchange."""

import re
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from engine.exchange import BUCKET, add_bucket, bucket_ids, bucketed

ENGINE = Path(__file__).resolve().parent.parent / "engine"


def _calls_per_key(ds, by, num_buckets=4, batch_format="pyarrow"):
    """Run ``bucketed`` with a fold that reports, per key it saw, its
    row count, a per-call id and the columns the fold got."""
    cols = [by] if isinstance(by, str) else list(by)

    def fold(batch):
        assert BUCKET not in list(batch.columns if isinstance(batch, pd.DataFrame) else batch.column_names)
        t = batch if isinstance(batch, pa.Table) else pa.Table.from_pandas(batch, preserve_index=False)
        g = t.select(cols).group_by(cols, use_threads=False).aggregate([([], "count_all")])
        # keys as exact strings: a NULL-bearing int column floats in pandas
        for c in cols:
            g = g.set_column(g.schema.get_field_index(c), c, pc.cast(g.column(c), pa.string()))
        call = uuid.uuid4().hex
        g = g.append_column("call", pa.array([call] * g.num_rows, pa.string()))
        g = g.append_column("cols", pa.array([",".join(t.column_names)] * g.num_rows, pa.string()))
        return g if batch_format == "pyarrow" else g.to_pandas()

    return bucketed(ds, by, fold, num_buckets=num_buckets, batch_format=batch_format).to_pandas()


def _assert_one_call_per_key(df, cols, n_rows):
    calls = df.groupby(cols, dropna=False)["call"].nunique()
    assert (calls == 1).all(), calls[calls > 1]
    assert df["count_all"].sum() == n_rows


def test_string_keys_colocate(ray_session):
    keys = [f"k{i % 37}" for i in range(400)]
    blocks = [pa.table({"k": keys[i : i + 100], "v": list(range(i, i + 100))}) for i in range(0, 400, 100)]
    df = _calls_per_key(ray.data.from_arrow(blocks), "k", num_buckets=5)
    _assert_one_call_per_key(df, ["k"], 400)
    assert set(df["cols"]) == {"k,v"}


def test_int64_keys_colocate_across_null_and_null_free_batches(ray_session):
    # one batch holds nulls, the other does not: a pandas object hash
    # floats the first batch's ints and splits each key across buckets
    big = (1 << 60) + 12345
    with_nulls = pa.table({"k": pa.array([big, None, 7, big + 1, None, 3], pa.int64())})
    null_free = pa.table({"k": pa.array([big, 7, big + 1, 3, 3], pa.int64())})
    df = _calls_per_key(ray.data.from_arrow([with_nulls, null_free]), "k", num_buckets=8)
    _assert_one_call_per_key(df, ["k"], 11)
    assert df["k"].isna().sum() == 1  # the NULL group arrived in one call


def test_uint64_keys_above_2pow63_colocate(ray_session):
    ks = [(1 << 63) + i for i in (1, 2, 3, 5, 8)] + [5, 9]
    a = pa.table({"k": pa.array(ks, pa.uint64())})
    b = pa.table({"k": pa.array(ks[::-1], pa.uint64())})
    df = _calls_per_key(ray.data.from_arrow([a, b]), "k", num_buckets=3)
    _assert_one_call_per_key(df, ["k"], 2 * len(ks))


def test_two_column_by_colocates_pairs(ray_session):
    rng = np.random.default_rng(0)
    a = rng.integers(0, 20, 300)
    b = rng.integers(0, 20, 300)
    blocks = [
        pa.table({"id_a": a[i : i + 100], "id_b": b[i : i + 100]}) for i in range(0, 300, 100)
    ]
    df = _calls_per_key(ray.data.from_arrow(blocks), ["id_a", "id_b"], num_buckets=6, batch_format="pandas")
    _assert_one_call_per_key(df, ["id_a", "id_b"], 300)


def test_null_keys_colocate_by_column(ray_session):
    # the last block's key column arrives typed null (an all-None batch):
    # its NULLs must still meet the string-typed blocks' NULLs
    blocks = [
        pa.table({"k": pa.array([None, f"x{i}", None, f"y{i}"], pa.string())}) for i in range(6)
    ] + [pa.table({"k": pa.nulls(3)})]
    df = _calls_per_key(ray.data.from_arrow(blocks), "k", num_buckets=8, batch_format="pandas")
    _assert_one_call_per_key(df, ["k"], 27)
    nulls = df[df["k"].isna()]
    assert len(nulls) == 1 and nulls["count_all"].iloc[0] == 15
    assert (bucket_ids(pa.nulls(2), 8) == bucket_ids(pa.array([None, None], pa.int64()), 8)).all()


def test_all_empty_input_gives_empty_result(ray_session):
    empty = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})

    def fold(t):
        return t

    out = bucketed(ray.data.from_arrow(empty), "k", fold, num_buckets=4, batch_format="pyarrow")
    assert out.count() == 0
    filtered = ray.data.from_arrow([empty, pa.table({"k": ["a"], "v": [1]})]).map_batches(
        lambda t: t.filter(pc.greater(t.column("v"), 5)), batch_format="pyarrow"
    )
    assert bucketed(filtered, "k", fold, num_buckets=4, batch_format="pyarrow").count() == 0


def test_add_bucket_rules():
    t = pa.table({"k": ["a", "b", None, "a"], "v": [1, 2, 3, 4]})
    b = add_bucket(t, "k", 7).column(BUCKET).to_numpy()
    assert (b == bucket_ids(t.column("k"), 7)).all()
    assert b[0] == b[3] and b.dtype == np.int64
    # one bucket hashes nothing; an empty batch gets an empty column
    assert (add_bucket(t, "k", 1).column(BUCKET).to_numpy() == 0).all()
    empty = add_bucket(t.slice(0, 0), "missing_column", 7)
    assert empty.num_rows == 0 and empty.schema.field(BUCKET).type == pa.int64()
    # a callable is the caller's own hash, taken modulo num_buckets
    own = add_bucket(t, lambda x: np.arange(x.num_rows, dtype=np.uint64) + np.uint64(5), 3)
    assert own.column(BUCKET).to_pylist() == [2, 0, 1, 2]
    # pair order matters: (a, b) and (b, a) are different keys
    p = pa.table({"x": pa.array([1, 2], pa.int64()), "y": pa.array([2, 1], pa.int64())})
    hp = add_bucket(p, ["x", "y"], 1 << 20).column(BUCKET).to_numpy()
    assert hp[0] != hp[1]


def test_no_exchange_is_hand_rolled_outside_exchange_module():
    offenders = []
    for path in sorted(ENGINE.glob("*.py")):
        if path.name == "exchange.py":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if ".map_groups(" in line or re.search(r"""["']__bucket["']""", line):
                offenders.append(f"{path.name}:{n}: {line.strip()}")
    assert not offenders, offenders
