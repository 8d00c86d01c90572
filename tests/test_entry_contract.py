"""Driver-contract hardening: the oracle SQL and the engine queries
must agree on data the sf fixtures do NOT contain -- NULL text, odd
whitespace (the Python ``\\s`` set minus RE2's ASCII ``\\s``), unicode
digits, tied group counts, duplicate/NULL keys.

Two layers:
1. ``test_oracle_ws_class_is_python_s`` proves the explicit RE2
   whitespace class embedded in the oracle SQL matches Python ``re``'s
   ``\\s`` char-for-char over the whole BMP (the engine tokenizes with
   Python ``\\S+``; RE2's own ``\\s`` is ASCII-only).
2. ``test_adversarial_parity`` writes a documents.parquet fixture full
   of those edge cases and runs each documents-only query against its
   DuckDB oracle with the driver's own normalization (sorted columns,
   floats rounded to 2dp, rows sorted na-first).
"""

import re

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry_mod


def _oracle_ws_class() -> str:
    """Extract the `[^...]+` tokenizer class from the token_stats oracle."""
    sql = entry_mod.oracle_sql()["token_stats"]
    m = re.search(r"\[\^(.+?)\]\+", sql)
    assert m, "token_stats oracle no longer embeds an explicit [^ws]+ class"
    return m.group(1)


def test_oracle_ws_class_is_python_s():
    cls = _oracle_ws_class()
    # all BMP codepoints except NUL and surrogates, plus a few astral
    chars = [chr(i) for i in range(1, 0x10000) if not 0xD800 <= i <= 0xDFFF]
    chars += ["\U0001F600", "\U00010000"]
    df = pd.DataFrame({"ch": chars})
    con = duckdb.connect()
    con.register("t", df)
    got = con.execute(
        f"SELECT ch, regexp_matches(ch, '^[{cls}]$') AS is_ws FROM t"
    ).fetchdf()
    sql_ws = set(got.loc[got.is_ws, "ch"])
    py_ws = {c for c in chars if re.match(r"\s", c)}
    assert sql_ws == py_ws, (
        f"only_sql={sorted(map(ord, sql_ws - py_ws))} "
        f"only_py={sorted(map(ord, py_ws - sql_ws))}"
    )


QUALITY_PASS = (
    "the of and a to in is you that it he was for on are as with his "
    "they at be this have from or more filler words here to pass the gate"
)

ADVERSARIAL_DOCS = [
    # (doc_id, text, lang). doc_id drives the derived pages table too:
    # %97==0 -> NULL url, %13==0 -> text forced '', %128 collisions ->
    # duplicate urls for MERGE (engine/pages.py).
    (1, None, "en"),
    (2, None, "en"),                   # two NULLs: one SQL group
    (3, "", "en"),                     # '' is a DIFFERENT group from NULL
    (4, "=SUM(A1:A3)", "en"),
    (5, "+plus prefix", "fr"),
    (6, "\x0bw1\x1cw2\x1dw3\x1ew4\x1fw5", "fr"),  # Python-\s ctrls RE2 misses
    (7, "\u00a0\u2028\u2029\u205f\u3000", "de"),   # all-unicode-whitespace text
    (8, "\u0660\u0661\u0662", "de"),          # Arabic-Indic digits: \d vs \p{Nd}
    (9, "  -42\u3000", "de"),                   # strip -> integer pattern
    (10, "3,14e+5", None),                      # NULL lang
    (11, QUALITY_PASS, "en"),
    (12, QUALITY_PASS.replace("filler", "stuffing"), "en"),  # near-dup pair
    (13, "N/a", "es"),                          # pages: text forced ''
    (14, "https://example.com/path?q=1", "es"),
    (15, "user.name+tag@example-host.co", "es"),
    (16, "2024-01-02T03:04", "zh"),
    (17, "12/31/1999", "zh"),
    (18, "https://example.com/path?q=1", "zh"),  # exact dup of doc 14
    (19, "\u00a1Hola! \u00bfQu\u00e9 tal? \u5317\u4eac \u00e9cran \u2014 dash\u2026", "es"),
    (20, "tab\tsep\nnl\rcr\fff\x0bvt", "en"),
    (21, "mixed\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200aspaces", "fr"),
    # pages-path branches:
    (0, "id zero hits every modulus", "en"),    # NULL url AND forced-'' text
    (97, None, "en"),                           # NULL url, NULL text
    (133, "later writer for url 5", "fr"),      # 133%128=5: LWW pair with doc 5
    (66, "older writer for url 66", "zh"),
    (194, None, "zh"),              # 194%128=66: later writer with NULL text ->
                                    # non-empty coalesce must fall back to doc 66
    (26, "twenty-six forced empty", "de"),      # %13==0: '' in pages, text in docs
]

# queries with a hard SQL oracle runnable off documents.parquet alone
# (the pages-path ones derive pages from it on both sides)
PARITY_QUERIES = [
    "token_stats",
    "quality_ratios",
    "quality_filter",
    "type_score",
    "lang_counts",
    "top_langs",
    "distinct_ratio",
    "top_docs_per_lang",
    "top_terms",
    "tfidf_terms",
    "length_quantiles_per_lang",
    "sanitize_text",
    "redact_pii",
    "salted_lang_counts",
    "exact_dedup",
    "dedup_best_doc",
    "minhash_pairs",
    "simhash_pairs",
    "lang_id",
    "fingerprint",
    # pages-derived: MERGE LWW + coalesce on NULL/'' text and NULL urls,
    # usable-row filter, per-lang minmax stats, maintained-table scans
    "merge_lww",
    "stream_upsert",
    "filter_nonempty",
    "stats_minmax",
    "compact_scan",
    "top_dup_urls",
    "pruned_scan",
    "html_extract",
    # C4 line dedup: the operator keyed by doc_id, and the table job
    # keyed by url (NULL/'' urls pass through)
    "line_dedup",
    "line_dedup_pages",
]


def _write_documents(root, ids, texts, langs):
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array(["fixture"] * len(texts), type=pa.string()),
            "n_chars": pa.array(
                [len(t) if t is not None else 0 for t in texts], type=pa.int64()
            ),
        }
    )
    pq.write_table(tbl, str(root / "documents.parquet"))
    return str(root)


@pytest.fixture(scope="module")
def adversarial_sf(tmp_path_factory):
    root = tmp_path_factory.mktemp("advsf")
    ids = [i for i, _, _ in ADVERSARIAL_DOCS]
    texts = [t for _, t, _ in ADVERSARIAL_DOCS]
    langs = [lang for _, _, lang in ADVERSARIAL_DOCS]
    return _write_documents(root, ids, texts, langs)


# codepoint pools for the seeded fuzz corpus (surrogates and NUL excluded)
_POOLS = [
    [chr(c) for c in range(0x20, 0x7F)],                       # ascii
    [chr(c) for c in range(0x01, 0x20)],                       # C0 controls
    [chr(c) for c in list(range(0xA0, 0x100)) + [0x85]],       # latin-1 + NEL
    [chr(c) for c in range(0x4E00, 0x4E80)],                   # CJK
    [chr(c) for c in range(0x0600, 0x0670)],                   # Arabic (+digits)
    [chr(c) for c in range(0x2000, 0x2030)],                   # unicode spaces/punct
    [chr(c) for c in range(0x0300, 0x0330)],                   # combining marks
    [chr(c) for c in range(0x1F300, 0x1F360)],                 # astral emoji
    list(" \t\n\r\f\x0b\u00a0\u3000\u2028\u2029"),         # whitespace soup
    # case-mapping traps: \u0130 (full-casefold adds a combining dot; the
    # utf8proc/DuckDB simple mapping gives plain 'i'), Kelvin sign K,
    # Greek sigma incl. final form, dotless \u0131 -- plus ascii letters
    # that combine with them into stopword-shaped tokens
    list("\u0130\u0131K\u03a3\u03c3\u03c2") + list("itnshea "),
]


def _fuzz_text(rng) -> str:
    pool = _POOLS[rng.integers(0, len(_POOLS))]
    n = int(rng.integers(0, 120))
    chars = [pool[i] for i in rng.integers(0, len(pool), n)]
    # sprinkle ascii spaces so tokenizers see word boundaries
    for j in range(0, n, 7):
        chars[j : j + 1] = [" "]
    return "".join(chars)


@pytest.fixture(scope="module")
def fuzz_sf(tmp_path_factory):
    """120 seeded random-unicode docs: mixed scripts, controls, astral,
    combining marks, whitespace soup, NULLs, empties, planted near-dups.
    doc_ids 0..119 naturally hit the pages %97 / %13 / %128 branches."""
    rng = np.random.default_rng(20260819)
    n = 120
    texts = []
    for i in range(n):
        r = rng.random()
        if r < 0.05:
            texts.append(None)
        elif r < 0.10:
            texts.append("")
        else:
            texts.append(_fuzz_text(rng))
    # planted exact + near duplicates
    texts[100] = texts[40]
    if texts[41]:
        texts[101] = texts[41] + " x"
    lang_pool = ["en", "zh", "es", "de", "fr", None]
    langs = [lang_pool[i] for i in rng.integers(0, len(lang_pool), n)]
    root = tmp_path_factory.mktemp("fuzzsf")
    return _write_documents(root, list(range(n)), texts, langs)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    """The driver's compare: sorted column names, floats to 2dp, rows
    sorted by all columns with NaN/None first."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(2)
    return df.sort_values(list(df.columns), na_position="first").reset_index(drop=True)


@pytest.mark.parametrize("name", PARITY_QUERIES)
def test_adversarial_parity(adversarial_sf, name):
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = q(adversarial_sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{adversarial_sf}/documents.parquet')"
    )
    want = con.execute(sql).fetchdf()
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (list(g.columns), list(w.columns))
    assert len(g) == len(w), f"{name}: rows {len(g)} vs oracle {len(w)}"
    pd.testing.assert_frame_equal(
        g, w, check_dtype=False, check_exact=False, rtol=0, atol=5e-3
    )


@pytest.mark.parametrize("name", PARITY_QUERIES)
def test_fuzz_parity(fuzz_sf, name):
    """Same parity sweep over the seeded random-unicode corpus."""
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = q(fuzz_sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{fuzz_sf}/documents.parquet')"
    )
    want = con.execute(sql).fetchdf()
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (list(g.columns), list(w.columns))
    assert len(g) == len(w), f"{name}: rows {len(g)} vs oracle {len(w)}"
    pd.testing.assert_frame_equal(
        g, w, check_dtype=False, check_exact=False, rtol=0, atol=5e-3
    )


def test_exact_dedup_null_vs_empty_are_distinct_groups(adversarial_sf):
    """Two NULL texts collapse to ONE survivor; '' survives separately
    (SQL GROUP BY semantics -- NULL is not '')."""
    got = entry_mod.queries()["exact_dedup"](adversarial_sf).to_pandas()
    nulls = got[got.text.isna()]
    empties = got[got.text == ""]
    assert len(nulls) == 1 and int(nulls.doc_id.iloc[0]) == 1
    assert len(empties) == 1 and int(empties.doc_id.iloc[0]) == 3


# ---------------------------------------------------------------------------
# events-path adversarial parity
# ---------------------------------------------------------------------------

EVENTS_QUERIES = [
    "events_by_type",
    "broadcast_join",
    "range_join",
    "asof_join",
    "sessions_per_user",
    "tumbling_hourly",
]


@pytest.fixture(scope="module")
def adversarial_events_sf(tmp_path_factory):
    """events/orders/customer with NULL ts/user_id/value/event_type,
    range-boundary values, tied and boundary timestamps, users without
    orders, and duplicate (custkey, orderdate) pairs."""
    root = tmp_path_factory.mktemp("advevents")
    T = pd.Timestamp
    H = pd.Timedelta(hours=1)
    base = T("2026-03-01 00:00:00")
    ev = [
        # event_id, ts, user_id, event_type, value
        (1, base, 1, "click", 5.0),
        (2, base + H, 1, "click", 10.0),            # range boundary lo
        (3, base + 2 * H, 1, "view", 100.0),        # range boundary mid/hi
        (4, base + 2 * H, 1, "view", 99.999),       # tied ts within user
        (5, None, 1, "view", 7.0),                  # NULL ts
        (6, base, 2, "buy", -3.0),                  # below all ranges
        (7, base + pd.Timedelta(minutes=29), 2, "buy", 1e9),   # above all ranges
        (8, base + pd.Timedelta(minutes=60), 2, "buy", None),  # NULL value
        (9, base + 3 * H, None, "click", 2.0),      # NULL user_id
        (10, base + 4 * H, None, "click", 4.0),     # NULL user_id again
        (11, None, None, None, None),               # everything NULL
        (12, base + 5 * H, 3, None, 8.0),           # NULL event_type
        (13, base + 5 * H + pd.Timedelta(seconds=1), 3, "view", 0.0),
        (14, base + 6 * H, 4, "click", 50.0),       # user 4: no orders
        (15, base + 7 * H, 5, "view", 12.5),        # user 5: order at same ts
        (16, base + 8 * H, 9, "click", 1.0),        # user 9: not in customer
    ]
    events = pd.DataFrame(ev, columns=["event_id", "ts", "user_id", "event_type", "value"])
    events["props"] = "{}"
    events = events.astype({"event_id": "int64", "user_id": "Int64", "value": "float64"})
    ev_tbl = pa.table(
        {
            "event_id": pa.array(events.event_id, type=pa.int64()),
            "ts": pa.Array.from_pandas(events.ts, type=pa.timestamp("us")),
            "user_id": pa.Array.from_pandas(events.user_id, type=pa.int64()),
            "event_type": pa.array(events.event_type, type=pa.string()),
            "value": pa.Array.from_pandas(events.value, type=pa.float64()),
            "props": pa.array(events.props, type=pa.string()),
        }
    )
    pq.write_table(ev_tbl, str(root / "events.parquet"))

    od = [
        # o_orderkey, o_custkey, o_orderdate
        (100, 1, base - H),
        (101, 1, base + H),                # exactly at event 2's ts (>= matches)
        (102, 1, base + H),                # duplicate (custkey, date): max key wins
        (103, 2, base + 10 * H),           # after all of user 2's events
        (104, 3, base),
        (105, 5, base + 7 * H),            # exactly at event 15's ts
        (106, 7, base),                    # customer with no events
    ]
    orders = pd.DataFrame(od, columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders["o_orderstatus"] = "O"
    orders["o_totalprice"] = 1.0
    orders["o_orderpriority"] = "1-URGENT"
    o_tbl = pa.table(
        {
            "o_orderkey": pa.array(orders.o_orderkey, type=pa.int64()),
            "o_custkey": pa.array(orders.o_custkey, type=pa.int64()),
            "o_orderstatus": pa.array(orders.o_orderstatus, type=pa.string()),
            "o_totalprice": pa.array(orders.o_totalprice, type=pa.float64()),
            "o_orderdate": pa.Array.from_pandas(orders.o_orderdate, type=pa.timestamp("us")),
            "o_orderpriority": pa.array(orders.o_orderpriority, type=pa.string()),
        }
    )
    pq.write_table(o_tbl, str(root / "orders.parquet"))

    cust = pd.DataFrame(
        {
            "c_custkey": pd.array([1, 2, 3, 4, 5, 7], dtype="int64"),
            "c_name": [f"c{i}" for i in [1, 2, 3, 4, 5, 7]],
            "c_nationkey": pd.array([0, 1, 2, 0, 1, 2], dtype="int32"),
            "c_acctbal": [0.0] * 6,
            "c_mktsegment": ["BUILDING", "MACHINERY", "BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD"],
        }
    )
    pq.write_table(pa.Table.from_pandas(cust, preserve_index=False), str(root / "customer.parquet"))
    return str(root)


@pytest.mark.parametrize("name", EVENTS_QUERIES)
def test_adversarial_events_parity(adversarial_events_sf, name):
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = q(adversarial_events_sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    for t in ["events", "orders", "customer"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{adversarial_events_sf}/{t}.parquet')"
        )
    want = con.execute(sql).fetchdf()
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (list(g.columns), list(w.columns))
    assert len(g) == len(w), f"{name}: rows {len(g)} vs oracle {len(w)}"
    pd.testing.assert_frame_equal(
        g, w, check_dtype=False, check_exact=False, rtol=0, atol=5e-3
    )


# ---------------------------------------------------------------------------
# embeddings-path adversarial parity
# ---------------------------------------------------------------------------

EMB_QUERIES = ["ann_topk", "ivf_topk", "embed_dup_pairs", "lsh_embed_pairs"]


@pytest.fixture(scope="module")
def adversarial_emb_sf(tmp_path_factory):
    """Embeddings with a zero vector, a NULL embedding, an exact
    duplicate, a scaled copy (exact cosine TIES to every query -- the
    tie-break path), and a negated vector. Stored as list<float32> like
    the driver tables (both sides widen float32->float64 identically)."""
    rng = np.random.default_rng(7)
    dim, n = 8, 20
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    vecs[10] = vecs[9]           # exact duplicate (cos = 1)
    vecs[11] = 2.0 * vecs[9]     # scaled copy: ties 9/10/11 for every query
    vecs[12] = -vecs[9]          # cos = -1
    rows = [v for v in vecs] + [np.zeros(dim, np.float32), None]
    ids = list(range(n)) + [50, 51]
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [None if v is None else v.tolist() for v in rows],
                type=pa.list_(pa.float32()),
            ),
            "label": pa.array([0] * len(ids), type=pa.int32()),
        }
    )
    root = tmp_path_factory.mktemp("advemb")
    pq.write_table(tbl, str(root / "embeddings.parquet"))
    return str(root)


@pytest.mark.parametrize("name", EMB_QUERIES)
def test_adversarial_emb_parity(adversarial_emb_sf, name):
    q = entry_mod.queries()[name]
    sql = entry_mod.oracle_sql()[name]
    got = q(adversarial_emb_sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{adversarial_emb_sf}/embeddings.parquet')"
    )
    want = con.execute(sql).fetchdf()
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (list(g.columns), list(w.columns))
    assert len(g) == len(w), f"{name}: rows {len(g)} vs oracle {len(w)}"
    pd.testing.assert_frame_equal(
        g, w, check_dtype=False, check_exact=False, rtol=0, atol=5e-3
    )


# ---------------------------------------------------------------------------
# id-edge parity: NULL ids and int64 ids beyond 2^53 in the pair queries
# ---------------------------------------------------------------------------

#: ids a float64 cannot hold apart (2^53+1, 2^53+3 and 2^60+1 round to
#: neighbours), one small id, and NULL -- all on near-duplicate rows
EDGE_IDS = [2**53 + 1, 2**53 + 3, 2**60 + 1, 5, None]

PAIR_QUERIES = ["minhash_pairs", "simhash_pairs", "lsh_embed_pairs", "embed_dup_pairs"]


@pytest.fixture(scope="module")
def id_edge_sf(tmp_path_factory):
    """documents.parquet and embeddings.parquet whose near-duplicate
    rows carry the ``EDGE_IDS``; two unrelated rows with small ids."""
    root = tmp_path_factory.mktemp("idedge")
    other = [(7, "completely different words about volcanoes and geology fieldwork today"),
             (9, "another unrelated note on query planners and cost based optimizers")]
    ids = EDGE_IDS + [i for i, _ in other]
    texts = [QUALITY_PASS] * len(EDGE_IDS) + [t for _, t in other]
    _write_documents(root, ids, texts, ["en"] * len(ids))
    rng = np.random.default_rng(3)
    base = np.array([1.0, -2.0, 1.5, -0.5, 2.0, 1.0, -1.0, 0.5], np.float32)
    vecs = [base + 1e-3 * rng.standard_normal(8).astype(np.float32) for _ in EDGE_IDS]
    vecs += [-base, np.roll(base, 3)]
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        "label": pa.array([0] * len(ids), pa.int32()),
    }), str(root / "embeddings.parquet"))
    return str(root)


@pytest.mark.parametrize("name", PAIR_QUERIES)
def test_id_edge_pair_parity(id_edge_sf, name):
    """Each pair query equals its oracle EXACTLY on ids a float64
    cannot tell apart and on a NULL id: no float detour may merge or
    mint ids, and a NULL id pairs with nothing (SQL ``a.id < b.id``)."""
    got = entry_mod.queries()[name](id_edge_sf)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{id_edge_sf}/{t}.parquet')")
    want = con.execute(entry_mod.oracle_sql()[name]).fetch_arrow_table()
    cols = sorted(want.column_names)
    assert sorted(got.columns) == cols
    assert all(got[c].dtype == np.int64 for c in cols), got.dtypes
    g = sorted(tuple(int(x) for x in r) for r in got[cols].itertuples(index=False))
    w = sorted(tuple(r[c] for c in cols) for r in want.to_pylist())
    assert g == w
    # the four near-dups pair among themselves: C(4, 2) pairs
    assert len(w) == 6, w


# ---------------------------------------------------------------------------
# review-finding regressions (engine-level)
# ---------------------------------------------------------------------------

def test_hash64_keys_uint64_high_bit_and_cross_type():
    from engine.dedup import hash64_keys

    big = pa.array([2**63 + 5, 5, None], type=pa.uint64())
    h = hash64_keys(big)          # must not raise (pre-fix: ArrowInvalid)
    assert h.dtype == np.uint64 and len(h) == 3
    # same VALUE hashes identically across int64/uint64 (cross-side joins)
    h64 = hash64_keys(pa.array([5], type=pa.int64()))
    assert h[1] == h64[0]


def test_grouped_sum_count_exact_beyond_2_53_with_nulls(ray_session):
    """A null-bearing batch must NOT float int64 keys: microsecond
    window labels (~1.8e18 > 2^53) stay exact and group as ONE key."""
    import ray.data
    from engine.aggregates import grouped_sum_count

    key = 1_766_000_000_000_000_001  # not float64-representable
    t = pa.table(
        {
            "k": pa.array([key, key, None], type=pa.int64()),
            "v": pa.array([1.0, 2.0, 4.0]),
        }
    )
    out = grouped_sum_count(ray.data.from_arrow(t), "k", "v")
    nonnull = out[out.k.notna()]
    assert len(nonnull) == 1, out
    assert int(nonnull.k.iloc[0]) == key
    assert float(nonnull.sum_value.iloc[0]) == 3.0 and int(nonnull.n.iloc[0]) == 2
    nullrow = out[out.k.isna()]
    assert int(nullrow.n.iloc[0]) == 1 and float(nullrow.sum_value.iloc[0]) == 4.0


def test_group_count_null_safe_empty_input(ray_session):
    import ray.data
    from engine.aggregates import group_count_null_safe

    empty = ray.data.from_arrow(pa.table({"lang": pa.array([], type=pa.string())}))
    out = group_count_null_safe(empty, "lang")
    assert list(out.columns) == ["lang", "n"] and len(out) == 0


def test_filter_valid_vectors_empty_list_entry(ray_session):
    import ray.data
    from engine.similarity import filter_valid_vectors

    t = pa.table(
        {
            "vec_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "embedding": pa.array(
                [[1.0, 2.0], [], None, [0.0, 0.0]], type=pa.list_(pa.float32())
            ),
        }
    )
    out = filter_valid_vectors(ray.data.from_arrow(t)).to_pandas()
    assert list(out.vec_id) == [1]


def test_tumbling_fractional_width_null_ts_exact(ray_session):
    """Fractional widths label in epoch MICROseconds (> 2^53): the
    grouped count must keep them exact and give NULL ts its own group."""
    import ray.data
    from engine.window import tumbling_window_agg

    base = pd.Timestamp("2026-01-01 00:00:00")
    t = pa.table(
        {
            "ts": pa.Array.from_pandas(
                pd.Series([base, base + pd.Timedelta(microseconds=1), pd.NaT]),
                type=pa.timestamp("us"),
            ),
            "value": pa.array([1.0, 2.0, 8.0]),
        }
    )
    out = tumbling_window_agg(ray.data.from_arrow(t), width_seconds=0.5)
    label = int(base.value // 1000)  # epoch us
    nonnull = out[out.window_start.notna()]
    assert len(nonnull) == 1 and int(nonnull.window_start.iloc[0]) == label
    assert int(nonnull.n.iloc[0]) == 2
    nullrow = out[out.window_start.isna()]
    assert int(nullrow.n.iloc[0]) == 1
