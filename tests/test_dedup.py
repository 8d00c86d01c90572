"""Dedup operators: exact, MinHash-LSH (planted near-dups), SimHash,
n-gram Jaccard."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
import ray.data

from dedup_oracle import connected_components, jaccard_ngrams, simhash64
from engine.dedup import (
    exact_dedup,
    hamming64,
    minhash_dedup_pairs,
    minhash_signature,
    simhash_dup_pairs,
    word_shingles,
    _crc32_array,
    _mix64,
    _perm_params,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden outside"
)


def _docs():
    rows = [
        (0, BASE),
        (1, BASE),  # exact dup of 0
        (2, BASE.replace("warm", "cold")),  # near dup of 0
        (3, "completely different text about spark shuffle partitions and arrow batches"),
        (4, "yet another unrelated document mentioning lakehouse manifests and snapshots"),
        (5, BASE + " with a small suffix appended"),  # near dup
    ]
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def test_exact_dedup_keeps_min_id(ray_session):
    winners, filtered = exact_dedup(ray.data.from_arrow(_docs()))
    kept = sorted(filtered.to_pandas()["doc_id"])
    assert kept == [0, 2, 3, 4, 5]  # doc 1 (exact dup of 0) dropped


def test_minhash_signature_similarity_tracks_jaccard():
    a, b = _perm_params(128)
    s1 = minhash_signature(_mix64(_crc32_array(word_shingles(BASE))), a, b)
    s2 = minhash_signature(_mix64(_crc32_array(word_shingles(BASE.replace("warm", "cold")))), a, b)
    s3 = minhash_signature(_mix64(_crc32_array(word_shingles("nothing in common at all here"))), a, b)
    sim12 = (s1 == s2).mean()
    sim13 = (s1 == s3).mean()
    true_j = jaccard_ngrams(BASE, BASE.replace("warm", "cold"), 3)
    assert abs(sim12 - true_j) < 0.15
    assert sim13 < 0.1 < sim12


def test_minhash_lsh_finds_planted_pairs(ray_session):
    pairs = minhash_dedup_pairs(
        ray.data.from_arrow(_docs()), threshold=0.5, num_perm=128, bands=32
    ).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert (0, 1) in found  # exact dup
    assert (0, 2) in found and (1, 2) in found  # near dup
    assert (0, 5) in found
    assert not any(3 in p or 4 in p for p in found)  # unrelated docs clean
    assert (pairs.jaccard >= 0.5).all()


def test_simhash_hamming_properties():
    h1 = simhash64(BASE)
    h2 = simhash64(BASE.replace("warm", "cold"))
    h3 = simhash64("totally different words everywhere nothing shared whatsoever")
    d12 = hamming64(np.array([h1], np.uint64), np.array([h2], np.uint64))[0]
    d13 = hamming64(np.array([h1], np.uint64), np.array([h3], np.uint64))[0]
    assert simhash64(BASE) == h1  # deterministic
    assert d12 < d13
    assert hamming64(np.array([h1], np.uint64), np.array([h1], np.uint64))[0] == 0


def test_simhash_dup_pairs_finds_exact(ray_session):
    out = simhash_dup_pairs(ray.data.from_arrow(_docs()), max_hamming=3).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(out.id_a, out.id_b)}
    assert (0, 1) in found
    assert all(h <= 3 for h in out.hamming)


def test_jaccard_ngrams_bounds():
    assert jaccard_ngrams("a b c d", "a b c d", 2) == 1.0
    assert jaccard_ngrams("a b c", "x y z", 2) == 0.0
    assert jaccard_ngrams("", "", 3) == 1.0
    assert 0.0 < jaccard_ngrams("a b c d e", "a b c d x", 2) < 1.0
    # char mode
    assert jaccard_ngrams("abcd", "abcd", 2, char=True) == 1.0


def test_minhash_end_to_end_dedup(ray_session):
    # full pipeline: pairs -> components (the union-find oracle)
    ds = ray.data.from_arrow(_docs())
    pairs = minhash_dedup_pairs(ds, threshold=0.5).to_pandas()
    comp = connected_components(pairs)
    # 0,1,2,5 are one near-dup cluster rooted at 0; 3 and 4 pair with nothing
    assert {i: comp[i] for i in (1, 2, 5)} == {1: 0, 2: 0, 5: 0}
    assert 3 not in comp and 4 not in comp


def test_content_hash_full_64_bits():
    # regression: crc32+bijective-mix had only 32 bits of entropy; two
    # crc32-colliding strings must now hash differently
    from engine.dedup import content_hash_batch

    a, b = "doc-29685295", "doc-32060020"
    import zlib
    assert zlib.crc32(a.encode()) == zlib.crc32(b.encode())  # crc collision
    t = pa.table({"doc_id": [0, 1], "text": [a, b]})
    h = content_hash_batch(t).column("__chash").to_pylist()
    assert h[0] != h[1]


def test_simhash_banding_recall_for_large_radius(ray_session):
    # regression: fixed 4x16 banding misses pairs with hamming in (3, 8]
    from engine.dedup import simhash_dup_pairs

    sig_a, sig_b = 0x0, 0x0001000100010001  # hamming 4, differs in ALL 16-bit bands
    sigs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "simhash": pa.array([sig_a, sig_b], pa.uint64()),
            }
        )
    )
    out = simhash_dup_pairs(None, max_hamming=8, sigs=sigs).to_pandas()
    assert {(1, 2)} == {tuple(p) for p in out[["id_a", "id_b"]].itertuples(index=False)}
    assert out.hamming.tolist() == [4]


def test_minhash_verify_never_materializes_corpus(ray_session, monkeypatch):
    # round-1 VERDICT #1: the verify stage must not collect corpus text
    # driver-side. Poison the driver-collection APIs for the whole
    # pipeline build+run (prefilter off -> pure partitioned-join path).
    import ray.data as rd

    ds = ray.data.from_arrow(_docs())

    def boom(self, *a, **k):  # pragma: no cover - triggers only on regression
        raise AssertionError("driver materialization in minhash pipeline")

    monkeypatch.setattr(rd.Dataset, "to_pandas", boom)
    monkeypatch.setattr(rd.Dataset, "take_all", boom)
    pairs = minhash_dedup_pairs(ds, threshold=0.5, prefilter_limit=0).materialize()
    monkeypatch.undo()
    found = {tuple(sorted((a, b))) for a, b in zip(*(pairs.to_pandas()[c] for c in ("id_a", "id_b")))}
    assert (0, 1) in found and (0, 2) in found and (0, 5) in found
    assert not any(3 in p or 4 in p for p in found)


def test_hot_cell_cap_preserves_components(ray_session):
    # a 400-doc boilerplate cluster (all mutually near-identical) with
    # max_cell below the cluster size: chunked-overlap enumeration must
    # emit O(m * max_cell) pairs (measured: 8070 at m=400 vs C(400,2) =
    # 79800 all-pairs; 2851 at m=150 -- LINEAR growth), every pair is a
    # genuine Jaccard-verified near-dup, no star hub dominates, and the
    # cluster stays ONE connected component so dedup keeps one survivor
    import pyarrow as pa

    from engine.dedup import minhash_dedup_pairs

    m = 400
    base = "the quick brown fox jumps over the lazy dog again and again in the park"
    texts = [f"{base} unique{i}" for i in range(m)]
    others = ["completely different text about databases and query planners engines",
              "yet another unrelated document mentioning volcanoes and geology fieldwork"]
    t = pa.table({
        "doc_id": pa.array(list(range(m + len(others))), pa.int64()),
        "text": pa.array(texts + others, pa.string()),
    })
    pairs = minhash_dedup_pairs(
        ray.data.from_arrow(t), threshold=0.5, prefilter_limit=0, max_cell=16
    ).materialize()
    df = pairs.to_pandas()
    # linear, not quadratic: well under a third of all-pairs
    assert m - 1 <= len(df) <= 30 * m, len(df)
    # all pairs verified near-dups (the cap never relaxes verification)
    assert (df.jaccard >= 0.5).all()
    # no star hub: the old capped path pinned cell-min as 'a' of every
    # pair; chunked enumeration spreads degree across the cluster
    deg = pd.concat([df.id_a, df.id_b]).value_counts()
    assert deg.max() < m / 2, deg.max()
    comp = connected_components(df)
    roots = {comp.get(i, i) for i in range(m)}
    assert roots == {0}, roots  # the whole cluster collapses to one root
    assert m not in comp and m + 1 not in comp  # unrelated docs untouched


def test_minhash_flat_kernel_bit_parity():
    # VERDICT r2 #2: the batch-flat signature kernel must be
    # bit-identical to the per-doc reference path, including empty
    # docs, docs shorter than k, and whitespace-only docs
    import numpy as np

    from engine.dedup import MinHasher, minhash_signatures_flat

    mh = MinHasher(num_perm=64, shingle_k=3)
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(500)]
    docs = [" ".join(rng.choice(vocab, int(x))) for x in rng.integers(0, 60, 300)]
    docs += ["", "one", "two words", "exactly three words", "   ", "\t\n", "a b c d"]
    flat = minhash_signatures_flat(docs, mh.a, mh.b, 3)
    ref = np.stack([mh._doc_signature(d) for d in docs])
    assert (flat == ref).all()


def test_simhash_chunked_kernel_parity():
    # r3 perf fix: bit counting runs as float32 reduceat over <=32k-token
    # chunks; must be bit-identical to the one-shot uint8 formula,
    # including empty docs, ties, and docs longer than one chunk
    import numpy as np

    from engine.dedup import _token_hashes_fast, simhash_texts

    def one_shot(texts):
        # same token hashes as the production path (the vectorized
        # Arrow-buffer tokenizer); only the bit-count CHUNKING differs
        h, lens = _token_hashes_fast(pa.array(texts, type=pa.string()))
        sigs = np.zeros(len(texts), dtype=np.uint64)
        if len(h) == 0:
            return sigs
        bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        nz = lens > 0
        starts = np.cumsum(lens) - lens
        ones = np.add.reduceat(bits, starts[nz], axis=0)
        sig_bits = (2 * ones.astype(np.int64)) > lens[nz, None]
        sigs[nz] = np.packbits(sig_bits.astype(np.uint8), axis=1, bitorder="little").view(np.uint64).ravel()
        return sigs

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(300)]
    docs = [" ".join(rng.choice(vocab, int(x))) for x in rng.integers(0, 200, 400)]
    docs += ["", "   ", None, "solo", "t t", " ".join(rng.choice(vocab, 40000))]  # > one chunk
    assert (simhash_texts(docs) == one_shot(docs)).all()


def test_segment_pairs_matches_brute_force():
    # the vectorized within-segment enumeration must equal nested-loop
    # all-pairs for arbitrary segment layouts (incl. size-1 segments)
    from engine.lsh import _segment_pairs

    rng = np.random.default_rng(11)
    for _ in range(20):
        lens = rng.integers(1, 9, rng.integers(1, 8))
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        a, b = _segment_pairs(starts, lens)
        expected = set()
        for s, ln in zip(starts, lens):
            for i in range(s, s + ln):
                for j in range(i + 1, s + ln):
                    expected.add((i, j))
        assert set(zip(a.tolist(), b.tolist())) == expected
        assert len(a) == len(expected)  # no duplicate emissions


def test_segment_pairs_cap_is_linear_and_connected():
    from engine.lsh import _segment_pairs

    for ln, mc in [(100, 16), (100, 2), (5, 3), (6, 3), (7, 3), (4, 3), (17, 16)]:
        a, b = _segment_pairs(np.array([10]), np.array([ln]), max_cell=mc)
        assert (a < b).all()
        assert a.min() == 10 and b.max() == 10 + ln - 1
        # linear output bound: ceil((ln-1)/(mc-1)) chunks x C(mc,2)
        n_chunks = -(-(ln - 1) // (mc - 1))
        assert len(a) <= n_chunks * mc * (mc - 1) // 2
        # connectivity: union-find over the emitted pairs -> one root
        parent = list(range(10 + ln))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in zip(a.tolist(), b.tolist()):
            parent[find(j)] = find(i)
        assert len({find(10 + i) for i in range(ln)}) == 1


def test_segment_pairs_max_cell_validation():
    # ADVICE r3: max_cell=1 used to infinite-loop the similarity chunker
    import pytest

    from engine.lsh import _segment_pairs
    from engine.similarity import lsh_bucketed_pairs

    with pytest.raises(ValueError, match="max_cell"):
        _segment_pairs(np.array([0]), np.array([5]), max_cell=1)
    with pytest.raises(ValueError, match="max_cell"):
        lsh_bucketed_pairs(None, max_cell=1)


def test_pairs_buckets_is_a_pure_function_of_the_data(ray_session, tmp_path):
    """The LSH fold bucket count must not depend on the session's CPU
    count: identical data must produce the identical dataflow at 8 and
    at 32 CPUs (the north-rule scaling measurement compares the SAME
    pipeline at two parallelism levels, and a CPU term here was the
    round-4 minhash inverse-scaling cause)."""
    import pyarrow.parquet as pq

    from engine.lsh import _pairs_buckets

    t = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                  "text": pa.array([BASE] * 100)})
    path = tmp_path / "docs.parquet"
    pq.write_table(t, str(path))

    ds = ray.data.read_parquet(str(path))
    # tiny file -> the floor binds; no cluster-resource term may leak in
    assert _pairs_buckets(ds) == 8
    # explicit override always wins
    assert _pairs_buckets(ds, 17) == 17
    # the byte term: ~8 MB per bucket, capped
    class _FakeBytes:
        def __init__(self, files):
            self._files = files
        def input_files(self):
            return self._files
    big = tmp_path / "big.bin"
    big.write_bytes(b"\0" * (64 << 20))
    assert _pairs_buckets(_FakeBytes([str(big)])) == 9  # 64MB/8MB + 1


def test_fast_tokenizer_boundary_parity_with_reference_regex():
    """The vectorized byte-level tokenizer must agree with the scalar
    reference tokenizer (lower + \\S+ findall) on token COUNTS for
    ASCII text (hash values differ by design; the md5 oracle path
    keeps exact reference semantics). Exercises the edge that bit the
    prototype: empty docs at the very start/end of the buffer, and a
    sliced (offset) Arrow array."""
    from engine.dedup import _TOKEN_RE, _token_hashes_fast

    docs = [
        "",                      # empty doc FIRST (offset-0 forcing)
        "Hello  World",          # run of spaces
        "a\tb\nc\x1c d\x1d\x1e\x1f e",  # control whitespace
        "   leading and trailing   ",
        None,                    # null
        "single",
        "",                      # empty doc LAST (past-the-end forcing)
    ]
    arr = pa.array(docs, type=pa.string())
    h, lens = _token_hashes_fast(arr)
    ref = np.array([len(_TOKEN_RE.findall((x or "").lower())) for x in docs])
    assert (lens == ref).all(), (lens, ref)
    assert len(h) == ref.sum()
    # sliced array with a nonzero offset must give the same per-doc counts
    h2, lens2 = _token_hashes_fast(arr.slice(1, 5))
    assert (lens2 == ref[1:6]).all()
    # identical tokens hash identically wherever they appear
    ha, la = _token_hashes_fast(pa.array(["tok other tok"]))
    assert ha[0] == ha[2] and ha[0] != ha[1]
    # case-insensitive like the reference (ASCII)
    hb, _ = _token_hashes_fast(pa.array(["TOK"]))
    assert hb[0] == ha[0]


@pytest.mark.parametrize("kernel", ["dispatch", "numpy"])
def test_hash64_strings_vectorized_content_hash(kernel):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from engine.dedup import _hash64_strings_numpy, hash64_strings

    if kernel == "dispatch":
        fn = hash64_strings
    else:
        # the no-polars fallback kernel must satisfy the same contract
        def fn(a):
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            nm = pc.is_null(a).to_numpy(zero_copy_only=False) if a.null_count else None
            return _hash64_strings_numpy(a, nm)

    vals = [
        "", "a", "ab", "https://h-1.example/p/1", "https://h-1.example/p/2",
        "x" * 8, "x" * 9, "x" * 255, "x" * 256, "x" * 257,
        "x" * 300 + "tail-A", "x" * 300 + "tail-B", None, "éü世界",
    ]
    arr = pa.array(vals, pa.string())
    h = fn(arr)
    assert h.dtype == np.uint64 and len(h) == len(vals)
    # deterministic and content-functional
    assert (fn(pa.array(vals, pa.string())) == h).all()
    # equal content hashes equal regardless of position/slicing/chunking
    assert fn(arr.slice(3, 2))[0] == h[3]
    chunked = pa.chunked_array([pa.array(vals[:5], pa.string()), pa.array(vals[5:], pa.string())])
    assert (fn(chunked) == h).all()
    # distinct inputs land apart (incl. long strings differing only in tail)
    non_null = [x for i, x in enumerate(h) if vals[i] is not None]
    assert len(set(non_null)) == len(non_null)
    # ~uniform bucket spread on realistic shared-prefix urls
    urls = pa.array([f"https://h-{i % 977}.example/p/{i}" for i in range(40000)])
    counts = np.bincount((fn(urls) % np.uint64(64)).astype(np.int64), minlength=64)
    assert counts.min() > 0.7 * counts.mean()


def test_add_bucket_string_and_fallback_paths_agree_on_shape():
    from functools import partial

    import pyarrow as pa

    from engine.exchange import BUCKET, add_bucket
    from engine.merge import _merge_hashes

    t = pa.table(
        {
            "url": ["u1", "", None, "u2", "u1"],
            "v": [1, 2, 3, 4, 5],
        }
    )
    out = add_bucket(t, partial(_merge_hashes, key="url"), 4)
    b = out.column(BUCKET).to_numpy()
    # same key -> same bucket; null/empty spread round-robin (0, 1)
    assert b[0] == b[4]
    assert sorted([b[1], b[2]]) == [0, 1]
    # a non-string key by column name rides the canonical-value hash
    t2 = pa.table({"k": pa.array([10, None, 10, 7], pa.int64()), "v": [1, 2, 3, 4]})
    out2 = add_bucket(t2, "k", 4)
    b2 = out2.column(BUCKET).to_numpy()
    assert b2[0] == b2[2]
    assert out2.column_names == ["k", "v", BUCKET]


def test_hash64_keys_dispatch_type_matrix():
    # one dispatch for every key type: equal values hash equal across
    # container forms (Array / ChunkedArray / pandas Series), and the
    # string fast path agrees with itself regardless of chunking
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from engine.dedup import hash64_keys

    s = ["u1", "u2", None, "", "u1"]
    a = pa.array(s, pa.string())
    h_arr = hash64_keys(a)
    assert h_arr.dtype == np.uint64
    assert h_arr[0] == h_arr[4]
    assert (hash64_keys(pa.chunked_array([a.slice(0, 2), a.slice(2)])) == h_arr).all()
    assert (hash64_keys(pd.Series(s, dtype=object)) == h_arr).all()
    assert (hash64_keys(a.cast(pa.large_string())) == h_arr).all()
    # non-string fallback: ints hash consistently across forms
    ints = pa.array([10, 7, None, 10], pa.int64())
    hi = hash64_keys(ints)
    assert hi[0] == hi[3]
    assert (hash64_keys(pd.Series([10, 7, None, 10], dtype="Int64")) == hi).all()


def test_exact_dedup_empty_input(ray_session):
    # regression (review): the columnar winner fetch indexed a column
    # that to_pandas() drops when the winners Dataset is empty
    import ray.data

    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    winners, out = exact_dedup(ray.data.from_arrow(empty))
    assert out.count() == 0


def test_band_rows_uses_every_permutation_lane():
    """num_perm % bands lanes must participate (last band absorbs the
    remainder) and bands > num_perm must fail loud -- with r=0 every
    doc would collide in every band."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from engine.dedup import _band_rows

    sigs = np.arange(14, dtype=np.uint64).reshape(2, 7)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "signature": pa.array(
                [s.tolist() for s in sigs], pa.list_(pa.uint64(), 7)
            ),
        }
    )
    out = _band_rows(t, bands=3, id_col="doc_id")
    assert out.num_rows == 6  # 2 docs x 3 bands
    # rows 0..6 differ between the docs in every lane, so no band may
    # collide; in particular the LAST band must see lanes 6 (doc1) vs
    # 13 (doc2) -- a dropped remainder would still differ here, so
    # instead check sensitivity: flipping ONLY the remainder lane
    # changes the last band's hash
    sigs2 = sigs.copy()
    sigs2[0, 6] ^= np.uint64(0xDEAD)
    t2 = t.set_column(
        1, "signature", pa.array([s.tolist() for s in sigs2], pa.list_(pa.uint64(), 7))
    )
    h1 = _band_rows(t, bands=3, id_col="doc_id").column("band_hash").to_pylist()
    h2 = _band_rows(t2, bands=3, id_col="doc_id").column("band_hash").to_pylist()
    assert h1[:4] == h2[:4] and h1[4] != h2[4]  # only doc1's last band moves
    with pytest.raises(ValueError, match="bands"):
        _band_rows(t, bands=8, id_col="doc_id")


def test_minhash_simhash_unicode_lower_parity(ray_session, tmp_path):
    """Turkish/Greek case pinning: Python str.lower full-casefolds
    (İ -> i+combining-dot, final Σ -> ς) while DuckDB/Arrow lower is
    the utf8proc simple mapping (İ -> i, Σ -> σ). Every lower() in a
    SQL-oracled kernel must use the utf8proc semantics
    (textstats.sql_lower) -- this fixture made minhash_pairs and
    simhash_pairs emit ZERO of the two expected dup pairs before the
    fix, and exercises quality_ratios/lang_id/top_terms on the same
    codepoints."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    texts = [
        "İstanbul İzmir İstanbul İzmir gezi",
        "istanbul izmir istanbul izmir gezi",  # dup after utf8proc lower
        "ΣΙΓΜΑΣ ΤΕΛΟΣ ΣΙΓΜΑΣ ΤΕΛΟΣ κείμενο",
        "σιγμασ τελοσ σιγμασ τελοσ κείμενο",   # dup after utf8proc lower
        "İT İN İS KİT words that lower into stopwords",
        "plain ascii text here",
    ]
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(1, n + 1), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(["tr", "tr", "el", "el", "en", "en"]),
            "source": pa.array(["x"] * n),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )

    def norm(d):
        d = d[sorted(d.columns)].copy()
        for c in d.columns:
            if d[c].dtype.kind == "f":
                d[c] = d[c].round(2)
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    for name in ["minhash_pairs", "simhash_pairs", "quality_ratios", "lang_id",
                 "top_terms"]:
        got = entry.queries()[name](str(tmp_path))
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        want = con.execute(entry.oracle_sql()[name]).fetchdf()
        g, w = norm(got), norm(want)
        assert len(g) == len(w), (name, len(g), len(w))
        pd.testing.assert_frame_equal(
            g, w, check_dtype=False, check_exact=False, rtol=0, atol=5e-3
        )
    # the dup pairs exist (regression: engine found 0 before the fix)
    pairs = entry.queries()["minhash_pairs"](str(tmp_path))
    if not isinstance(pairs, pd.DataFrame):
        pairs = pairs.to_pandas()
    assert {(1, 2), (3, 4)} <= set(zip(pairs.id_a, pairs.id_b))


# ---------------------------------------------------------------------------
# vectorized verify fold (round-4 VERDICT #1): exact parity vs Python sets
# ---------------------------------------------------------------------------

def _set_jaccard(ta, tb, k=3):
    sa = set(word_shingles(ta if isinstance(ta, str) else "", k))
    sb = set(word_shingles(tb if isinstance(tb, str) else "", k))
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


_VERIFY_TEXTS = [
    BASE,
    BASE,
    BASE.replace("warm", "cold"),
    "",  # no tokens -> empty set
    None,  # null text -> empty set
    "one",  # < k tokens -> single joined shingle
    "one two",
    "one two",  # identical short docs -> jaccard 1.0
    "one two three",  # exactly k tokens
    "İstanbul İstanbul kelvin K sigma Σ TEST",  # case-map traps
    "a b c a b c a b c",  # repeated shingles collapse to a distinct set
    BASE + " with a small suffix appended",
    "   \t \n  ",  # whitespace only
]


def test_doc_shingle_hash_sets_match_word_shingle_sets():
    from engine.dedup import _doc_shingle_hash_sets

    k = 3
    u, u_off = _doc_shingle_hash_sets(_VERIFY_TEXTS, k)
    sets = [
        set(word_shingles(t if isinstance(t, str) else "", k))
        for t in _VERIFY_TEXTS
    ]
    assert list(np.diff(u_off)) == [len(s) for s in sets]
    n = len(_VERIFY_TEXTS)
    for i in range(n):
        seg = u[u_off[i] : u_off[i + 1]]
        if len(seg) > 1:  # sorted strictly increasing = unique
            assert (np.diff(seg.view(np.uint64)) > 0).all()
    # every pairwise Jaccard from hash-set intersections equals the
    # string-set value EXACTLY (the hard oracle asserts floor(100*j))
    for i in range(n):
        for j in range(i + 1, n):
            a_ = u[u_off[i] : u_off[i + 1]]
            b_ = u[u_off[j] : u_off[j + 1]]
            inter = len(np.intersect1d(a_, b_, assume_unique=True))
            union = len(a_) + len(b_) - inter
            got = 1.0 if union == 0 else inter / union
            assert got == _set_jaccard(_VERIFY_TEXTS[i], _VERIFY_TEXTS[j], k), (i, j)


def test_ragged_gather_basic():
    from engine.dedup import _ragged_gather

    flat = np.arange(10, dtype=np.uint64)
    starts = np.array([0, 7, 3])
    lens = np.array([2, 3, 0])
    out = _ragged_gather(flat, starts, lens)
    assert out.tolist() == [0, 1, 7, 8, 9]
    assert len(_ragged_gather(flat, starts[:0], lens[:0])) == 0


def test_minhash_pairs_jaccard_values_match_sets(ray_session):
    # end-to-end: the pipeline's verify stage (vectorized) must emit
    # jaccard values identical to the set-based definition per pair
    ds = ray.data.from_arrow(_docs())
    pairs = minhash_dedup_pairs(ds, threshold=0.3, num_perm=128, bands=64).to_pandas()
    texts = {r[0]: r[1] for r in zip(_docs()["doc_id"].to_pylist(), _docs()["text"].to_pylist())}
    assert len(pairs) > 0
    for a, b, j in zip(pairs.id_a, pairs.id_b, pairs.jaccard):
        assert j == _set_jaccard(texts[a], texts[b], 3), (a, b)


def test_verify_fold_fuzz_parity(ray_session):
    # random corpora with planted dup clusters: the vectorized verify
    # equals set-based Jaccard on every emitted pair
    rng = np.random.default_rng(7)
    vocab = np.array(
        ["alpha", "beta", "Gamma", "delta", "İ", "ké", "x", "yy", "zzz", "σ"]
    )
    texts = []
    for i in range(60):
        n = int(rng.integers(0, 12))
        texts.append(" ".join(rng.choice(vocab, n)))
    # plant near-dups
    for i in range(0, 50, 10):
        texts[i + 1] = texts[i]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pairs = minhash_dedup_pairs(
        ray.data.from_arrow(tbl), threshold=0.4, num_perm=64, bands=32
    ).to_pandas()
    for a, b, j in zip(pairs.id_a, pairs.id_b, pairs.jaccard):
        assert j == _set_jaccard(texts[a], texts[b], 3), (a, b)


# ---------------------------------------------------------------------------
# C4-style global line dedup
# ---------------------------------------------------------------------------

def test_dedup_lines_global_semantics(ray_session):
    from engine.dedup import dedup_lines_global

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(
            ["a\nb\nc", "b\nd", "a\na\nx", None, "c\nb\na"], pa.string()
        ),
    })
    out = (
        dedup_lines_global(ray.data.from_arrow(t))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # doc 1 is first everywhere; doc 2 loses 'b'; doc 3 loses BOTH 'a'
    # occurrences (incl. its own repeat); doc 4's null text is the
    # first '' line so it keeps ''; doc 5 loses everything
    assert out.text.tolist() == ["a\nb\nc", "d", "x", "", ""]


def test_dedup_lines_global_null_id_passes_through(ray_session):
    # a NULL doc_id row keeps its text and wins no line: 'b' stays with
    # doc 1 and 'c' with doc 3
    from engine.dedup import dedup_lines_global

    t = pa.table({
        "doc_id": pa.array([1, None, 3], pa.int64()),
        "text": pa.array(["a\nb", "b\nc", "c\nd"], pa.string()),
    })
    out = pa.concat_tables(
        ray.get(dedup_lines_global(ray.data.from_arrow(t)).to_arrow_refs())
    )
    got = dict(zip(out.column("doc_id").to_pylist(), out.column("text").to_pylist()))
    assert got == {1: "a\nb", None: "b\nc", 3: "c\nd"}
    assert out.schema.field("doc_id").type == pa.int64()


def test_dedup_lines_global_string_ids_lexicographic(ray_session):
    # string ids compete in lexicographic order: "a10" < "a9"
    from engine.dedup import dedup_lines_global

    t = pa.table({
        "doc_id": pa.array(["a9", "a10", "b"], pa.string()),
        "text": pa.array(["x\ny", "y\nz", "z\nx"], pa.string()),
    })
    out = dedup_lines_global(ray.data.from_arrow(t)).to_pandas()
    got = dict(zip(out.doc_id, out.text))
    assert got == {"a10": "y\nz", "a9": "x", "b": ""}


def test_dedup_lines_global_refuses_duplicate_ids(ray_session):
    # one id's drop indexes cannot be applied to two rows
    from engine.dedup import dedup_lines_global

    t = pa.table({
        "doc_id": pa.array([7, 7], pa.int64()),
        "text": pa.array(["a\nb", "b"], pa.string()),
    })
    with pytest.raises(ValueError, match="unique 'doc_id' keys"):
        dedup_lines_global(ray.data.from_arrow(t)).materialize()


def test_dedup_lines_global_duckdb_parity_multiline(ray_session, tmp_path):
    # the driver corpus has no newlines, so pin the multi-line
    # reassembly against the SQL oracle on a random multi-line fixture
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    rng = np.random.default_rng(13)
    lines_pool = [f"line-{i}" for i in range(40)] + ["", "  ", "tab\tline"]
    texts = []
    for i in range(120):
        k = int(rng.integers(0, 7))
        texts.append("\n".join(rng.choice(lines_pool, k)) if k else "")
    # a NULL-id row that repeats other docs' lines: it passes through
    texts.append("\n".join(lines_pool[:5]))
    tbl = pa.table({
        "doc_id": pa.array(list(range(120)) + [None], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = entry.queries()["line_dedup"](str(tmp_path))
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(entry.oracle_sql()["line_dedup"]).fetchdf()
    g = got.sort_values("doc_id").reset_index(drop=True)
    w = want.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    assert w.text.iloc[-1] == texts[-1]  # the NULL-id row, untouched


def test_pairwise_jaccard_hypothesis_parity():
    # property: _pairwise_jaccard over _doc_shingle_hash_sets equals
    # the set-of-word-shingles definition for random corpora
    from hypothesis import given, settings, strategies as st

    from engine.dedup import _doc_shingle_hash_sets, _pairwise_jaccard

    tok = st.sampled_from(["a", "bb", "ccc", "Ç", "1", "İ"])
    doc = st.lists(tok, min_size=0, max_size=9).map(" ".join)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(doc, min_size=2, max_size=8))
    def run(texts):
        u, u_off = _doc_shingle_hash_sets(texts, 3)
        n = len(texts)
        ia, ib = np.triu_indices(n, k=1)
        got = _pairwise_jaccard(u, u_off, ia.astype(np.int64), ib.astype(np.int64))
        for p, (i, j) in enumerate(zip(ia, ib)):
            assert got[p] == _set_jaccard(texts[i], texts[j], 3), (i, j)

    run()


def test_hamming64_is_exact_popcount():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2**63, 2000, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.integers(0, 2**63, 2000, dtype=np.uint64)
    edge_a = np.array([0, 2**64 - 1, 2**63, 2**64 - 1], np.uint64)
    edge_b = np.array([0, 0, 0, 2**64 - 1], np.uint64)
    a, b = np.concatenate([a, edge_a]), np.concatenate([b, edge_b])
    got = hamming64(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [bin(int(x) ^ int(y)).count("1") for x, y in zip(a, b)]
    assert got[-4:].tolist() == [0, 64, 1, 0]
