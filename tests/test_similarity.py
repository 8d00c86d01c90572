"""Similarity search: brute-force cosine top-k vs numpy oracle, near-dup
pairs, LSH-bucketed variant recall."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from engine.similarity import (
    cosine_dup_pairs,
    cosine_topk,
    hyperplane_signatures,
    lsh_bucketed_pairs,
    _normalize,
)


def _emb_table(n=200, d=16, seed=5):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, d))
    # plant near-dups: vec 1 ~ vec 0, vec 11 ~ vec 10
    m[1] = m[0] + 0.01 * rng.standard_normal(d)
    m[11] = m[10] + 0.01 * rng.standard_normal(d)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([list(map(float, row)) for row in m], pa.list_(pa.float32())),
        }
    )
    return t, m.astype(np.float32).astype(np.float64)


def test_cosine_topk_matches_numpy_oracle(ray_session):
    t, m = _emb_table()
    q_ids = [0, 10, 42]
    q = m[q_ids]
    ds = ray.data.from_arrow(t).repartition(4)
    out = cosine_topk(ds, q, q_ids, k=5).to_pandas()
    mn = _normalize(m)
    qn = _normalize(q)
    sims = mn @ qn.T
    for j, qid in enumerate(q_ids):
        col = sims[:, j].copy()
        col[qid] = -np.inf  # exclude self
        exp = set(np.argsort(-col, kind="stable")[:5])
        got = set(out[out.query_id == qid]["vec_id"])
        assert got == exp, (qid, got, exp)
        assert len(out[out.query_id == qid]) == 5


def test_cosine_topk_scores_are_float64_exact(ray_session):
    t, m = _emb_table(50)
    out = cosine_topk(ray.data.from_arrow(t), m[[3]], [3], k=3).to_pandas()
    mn = _normalize(m)
    exp = np.sort((mn @ _normalize(m[[3]]).T)[:, 0])[-2]  # best non-self
    assert abs(out.score.max() - exp) < 1e-12


def test_cosine_dup_pairs_finds_planted(ray_session):
    t, _ = _emb_table()
    pairs = cosine_dup_pairs(ray.data.from_arrow(t).repartition(3), threshold=0.99).to_pandas()
    found = {tuple(p) for p in pairs[["id_a", "id_b"]].itertuples(index=False)}
    assert (0, 1) in found and (10, 11) in found
    assert (pairs.cosine >= 0.99).all()
    # no self pairs, canonical ordering
    assert (pairs.id_a < pairs.id_b).all()


def test_lsh_bucketed_finds_planted_pairs(ray_session):
    t, _ = _emb_table()
    pairs = lsh_bucketed_pairs(ray.data.from_arrow(t), threshold=0.99, num_bits=8).to_pandas()
    found = {tuple(p) for p in pairs[["id_a", "id_b"]].itertuples(index=False)}
    # near-identical vectors share all hyperplane signs with high prob.
    assert (0, 1) in found and (10, 11) in found


def test_hyperplane_signatures_deterministic():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((10, 8))
    assert (hyperplane_signatures(v, 12) == hyperplane_signatures(v, 12)).all()


def test_ivf_topk_recall_vs_brute_force(ray_session):
    from engine.similarity import ivf_topk

    t, m = _emb_table(400)
    q_ids = [0, 10, 50]
    q = m[q_ids]
    ds = ray.data.from_arrow(t).repartition(3)
    brute = cosine_topk(ds, q, q_ids, k=5).to_pandas()
    approx = ivf_topk(
        ray.data.from_arrow(t).repartition(3), q, q_ids, k=5, n_centroids=8, nprobe=4
    ).to_pandas()
    # planted near-identical vector must be found (lands in same list)
    assert 1 in set(approx[approx.query_id == 0].vec_id)
    assert 11 in set(approx[approx.query_id == 10].vec_id)
    # decent recall overall with nprobe=half the lists
    recall = sum(
        len(set(brute[brute.query_id == qid].vec_id) & set(approx[approx.query_id == qid].vec_id))
        for qid in q_ids
    ) / (5 * len(q_ids))
    assert recall >= 0.6
    # deterministic across runs
    again = ivf_topk(
        ray.data.from_arrow(t).repartition(3), q, q_ids, k=5, n_centroids=8, nprobe=4
    ).to_pandas()
    pd.testing.assert_frame_equal(
        approx.sort_values(["query_id", "vec_id"]).reset_index(drop=True),
        again.sort_values(["query_id", "vec_id"]).reset_index(drop=True),
    )


def test_ivf_indexed_matches_compute_path_and_prunes(ray_session, tmp_path):
    # VERDICT r1 #5: __list stored column + manifest-pruned probing
    from engine.similarity import (
        build_ivf_index,
        ivf_probe_files,
        ivf_topk,
        ivf_topk_indexed,
        load_ivf_centroids,
    )

    t, m = _emb_table(400)
    q_ids = [0, 10, 50]
    q = m[q_ids]
    # small files so each covers few lists (rows sorted by __list first)
    table, cents = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=8,
        rows_per_file=50,
    )
    assert (load_ivf_centroids(table) == cents).all()

    indexed = ivf_topk_indexed(table, q, q_ids, k=5, nprobe=4).to_pandas()
    # compute path trains on the same deterministic sample -> same lists
    compute = ivf_topk(
        ray.data.from_arrow(t), q, q_ids, k=5, n_centroids=8, nprobe=4
    ).to_pandas()
    key = ["query_id", "vec_id"]
    pd.testing.assert_frame_equal(
        indexed.sort_values(key).reset_index(drop=True)[key],
        compute.sort_values(key).reset_index(drop=True)[key],
    )

    # IO pruning is real: probing ONE list must touch a strict subset
    # of files (files are range-partitioned by __list)
    all_files = table.live_files()
    one_list = ivf_probe_files(table, [0])
    assert len(one_list) < len(all_files)
    # every file skipped for a probe genuinely holds no probed list
    probed = {0}
    for f in all_files:
        lo, hi = f.stats["__list"]
        if not any(lo <= v <= hi for v in probed):
            assert f not in one_list


def test_lsh_bucketed_matches_broadcast_on_shared_signature(ray_session):
    # repaired coarse-bucket fold (VERDICT r2 #4) must emit the SAME
    # pair set as exact all-pairs for pairs that share a signature cell;
    # with a tiny corpus and few bits most planted dups collide.
    t, m = _emb_table(120)
    ds = ray.data.from_arrow(t).repartition(3)
    lsh = lsh_bucketed_pairs(ds, threshold=0.9, num_bits=4).to_pandas()
    exact = cosine_dup_pairs(ds, threshold=0.9).to_pandas()
    sigs = hyperplane_signatures(_normalize(m), 4)
    exp = {
        (a, b)
        for a, b in exact[["id_a", "id_b"]].itertuples(index=False)
        if sigs[a] == sigs[b]
    }
    got = {tuple(p) for p in lsh[["id_a", "id_b"]].itertuples(index=False)}
    assert got == exp
    # scores are exact cosine (not approximated)
    merged = lsh.merge(exact, on=["id_a", "id_b"], suffixes=("_l", "_e"))
    assert np.allclose(merged.cosine_l, merged.cosine_e, atol=1e-12)


def test_lsh_hot_cell_cap_linear_output_and_connected(ray_session):
    # planted boilerplate cluster: 300 near-identical embeddings land
    # whole in one signature cell -> uncapped output is O(m^2) pairs;
    # max_cell must bound it to O(m * max_cell) while keeping the
    # cluster one connected component with every pair cosine-verified.
    from dedup_oracle import connected_components

    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    m = base[None, :] + 1e-4 * rng.standard_normal((300, 16))
    extra = rng.standard_normal((50, 16))  # unrelated singletons
    allm = np.vstack([m, extra])
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(allm)), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in allm], pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    capped = lsh_bucketed_pairs(ds, threshold=0.99, num_bits=4, max_cell=32).to_pandas()
    # linear bound: m chunks of <=32 members -> < m * 32 pairs, far
    # below the 300*299/2 = 44850 uncapped pairs
    assert 299 <= len(capped) < 300 * 32
    assert (capped.cosine >= 0.99).all()
    comp = connected_components(capped)
    roots = {comp.get(i, i) for i in range(300)}
    assert roots == {0}, roots  # one component through chunk overlap
    assert not any(i in comp for i in range(300, 350))


def test_embed_dup_pairs_auto_routes(ray_session):
    from engine.similarity import embed_dup_pairs_auto

    t, _ = _emb_table(100)
    ds = ray.data.from_arrow(t)
    pairs_b, path_b = embed_dup_pairs_auto(ds, threshold=0.99, broadcast_limit=1000)
    assert path_b == "broadcast"
    pairs_l, path_l = embed_dup_pairs_auto(ds, threshold=0.99, broadcast_limit=10, num_bits=4)
    assert path_l == "lsh"
    got_b = {tuple(p) for p in pairs_b.to_pandas()[["id_a", "id_b"]].itertuples(index=False)}
    got_l = {tuple(p) for p in pairs_l.to_pandas()[["id_a", "id_b"]].itertuples(index=False)}
    assert {(0, 1), (10, 11)} <= got_l <= got_b  # lsh recall <= exact


def test_ivf_train_sample_is_strided_not_head_biased(ray_session):
    # round-3 VERDICT #6: ds.limit() trains on the FIRST blocks; on a
    # sorted/clustered table (what this engine produces) that sample
    # sees one key range only and k-means list balance degrades. The
    # strided sampler must span the whole table.
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.similarity import (
        _normalize,
        _train_sample_vectors,
        train_centroids,
    )

    rng = np.random.default_rng(3)
    n, d = 4000, 16
    a_base = rng.standard_normal(d)
    b_base = -a_base  # opposite pole: maximally separated clusters
    half = n // 2
    vecs = np.concatenate(
        [
            a_base + 0.05 * rng.standard_normal((half, d)),
            b_base + 0.05 * rng.standard_normal((half, d)),
        ]
    )  # SORTED: cluster A occupies the leading blocks
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)

    sample = _train_sample_vectors(ds, 512, "embedding")
    # the sample must cover BOTH halves (a head sample has zero B rows)
    sims_a = _normalize(sample) @ _normalize(a_base[None, :])[0]
    n_a, n_b = int((sims_a > 0).sum()), int((sims_a < 0).sum())
    assert len(sample) <= 600
    assert min(n_a, n_b) >= 0.25 * len(sample), (n_a, n_b)

    # list balance end-to-end: no single list swallows a cluster
    c = train_centroids(sample, n_centroids=8)
    assign = (_normalize(vecs) @ c.T).argmax(axis=1)
    counts = np.bincount(assign, minlength=8)
    assert counts.max() < 0.4 * n, counts.tolist()
    # both clusters occupy centroids (a head-trained codebook funnels
    # the unseen cluster into one residual list)
    lists_a = set(assign[:half].tolist())
    lists_b = set(assign[half:].tolist())
    assert len(lists_a) >= 2 and len(lists_b) >= 2, (lists_a, lists_b)

    # n_rows bypass (ADVICE-r3 derived-input trap): passing the known
    # row count must skip ds.count() and produce the identical sample
    sample2 = _train_sample_vectors(ds, 512, "embedding", n_rows=n)
    assert np.array_equal(sample, sample2)
    # an estimate only changes the sample SIZE, never crashes
    sample3 = _train_sample_vectors(ds, 512, "embedding", n_rows=n // 2)
    assert 512 <= len(sample3) <= 1200


def test_ivf_indexed_full_probe_equals_brute(ray_session, tmp_path):
    # the ivf_topk driver oracle's load-bearing property: at nprobe =
    # n_centroids every list is probed and the indexed IVF dataflow
    # must equal brute-force top-k EXACTLY (rows, order semantics, tie
    # break by vec_id)
    from engine.similarity import build_ivf_index, ivf_topk_indexed

    t, m = _emb_table(400)
    q_ids = [0, 10, 50]
    q = m[q_ids]
    table, _ = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=8, rows_per_file=50
    )
    full = ivf_topk_indexed(table, q, q_ids, k=5, nprobe=8).to_pandas()
    brute = cosine_topk(ray.data.from_arrow(t), q, q_ids, k=5).to_pandas()
    key = ["query_id", "vec_id"]
    pd.testing.assert_frame_equal(
        full.sort_values(key).reset_index(drop=True)[key],
        brute.sort_values(key).reset_index(drop=True)[key],
    )


def test_axis_signature_matches_sql_semantics(ray_session):
    # the lsh_embed_pairs oracle recomputes the signature in SQL as
    # sign bits of the leading components; the kernel must agree, and
    # the axes-plane pair set must be exactly (same cell) AND (cosine
    # >= threshold)
    import numpy as np

    from engine.similarity import _normalize, axis_signatures, lsh_bucketed_pairs

    t, m = _emb_table(300)
    bits = 6
    sig = axis_signatures(_normalize(m), bits)
    expect_sig = sum(
        (m[:, i] > 0).astype(np.uint64) << np.uint64(i) for i in range(bits)
    )
    assert (sig == expect_sig).all()  # normalization never flips a sign

    got = (
        lsh_bucketed_pairs(
            ray.data.from_arrow(t), threshold=0.35, num_bits=bits, planes="axes"
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    x = _normalize(m)
    sims = x @ x.T
    ii, jj = np.nonzero(np.triu((sims >= 0.35), k=1))
    same_cell = expect_sig[ii] == expect_sig[jj]
    expected = set(zip(ii[same_cell].tolist(), jj[same_cell].tolist()))
    assert set(zip(got.id_a.tolist(), got.id_b.tolist())) == expected
    # pairs emitted are a SUBSET of brute-force near-dups (precision 1)
    brute = set(zip(ii.tolist(), jj.tolist()))
    assert set(zip(got.id_a.tolist(), got.id_b.tolist())) <= brute

    import pytest

    with pytest.raises(ValueError, match="dim"):
        axis_signatures(np.zeros((3, 4)), num_bits=6)


def test_topk_tie_break_by_vec_id_not_position(ray_session, tmp_path):
    # code-review r4: bitwise-equal scores at the rank-k truncation
    # boundary must resolve by vec_id (the driver oracle orders by
    # score DESC, vec_id), not by storage position. The corpus here is
    # stored in DESCENDING id order with two duplicate vectors, so a
    # position-stable [:k] cut keeps the LARGER id -- wrong.
    from engine.similarity import build_ivf_index, ivf_topk, ivf_topk_indexed

    rng = np.random.default_rng(7)
    d = 8
    dup = rng.standard_normal(d)
    others = 0.01 * rng.standard_normal((20, d))
    vecs = np.vstack([dup, dup, others])  # rows 0,1 = ids 21,20 duplicates
    ids = np.arange(len(vecs))[::-1].copy()
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in vecs], pa.list_(pa.float64())),
        }
    )
    q, qids = dup[None, :], [999]

    got = cosine_topk(ray.data.from_arrow(t), q, qids, k=1).to_pandas()
    assert got.vec_id.tolist() == [20], got

    got_ivf = ivf_topk(
        ray.data.from_arrow(t), q, qids, k=1, n_centroids=2, nprobe=2
    ).to_pandas()
    assert got_ivf.vec_id.tolist() == [20], got_ivf

    table, _ = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf_tie"), n_centroids=2, rows_per_file=8
    )
    got_idx = ivf_topk_indexed(table, q, qids, k=1, nprobe=2).to_pandas()
    assert got_idx.vec_id.tolist() == [20], got_idx


def test_ivf_reindex_after_upsert(ray_session, tmp_path):
    # round-4 VERDICT #5: build_ivf_index is write-once; rows upserted
    # later carry a wrong/missing __list and the manifest-pruned probe
    # silently loses them. reindex_ivf must restore the invariant.
    from engine.similarity import (
        build_ivf_index,
        cosine_topk,
        ivf_topk_indexed,
        load_ivf_centroids,
        reindex_ivf,
        _assign_lists,
    )
    from engine.writer import write_files

    t, m = _emb_table(300)
    table, cents = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=8,
        rows_per_file=64,
    )
    # fresh index: zero drift, nothing rewritten (idempotence)
    table, st = reindex_ivf(table)
    assert st["files_rewritten"] == 0 and st["rows_rewritten"] == 0

    # upsert 40 new vectors the way a centroid-unaware merge would:
    # stored __list = 0 for every row (wrong for most)
    rng = np.random.default_rng(11)
    m2 = rng.standard_normal((40, 16))
    up = pa.table(
        {
            "vec_id": pa.array(np.arange(1000, 1040), pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in m2.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
            "__list": pa.array(np.zeros(40, np.int64)),
        }
    )
    entries = write_files(
        ray.data.from_arrow(up), table.data_dir, prefix="upsert",
        stats_cols=("vec_id", "__list"),
    )
    table.commit("merge", add_files=entries)
    n_files = len(table.live_files())

    table, st = reindex_ivf(table)
    # only the drifted upsert file moved (its rows may split into
    # several range-partitioned outputs; total rows are preserved)
    assert st["files_rewritten"] == 1
    assert st["rows_rewritten"] == 40
    import os

    assert not any(
        os.path.basename(f.path).startswith("upsert") for f in table.live_files()
    )
    assert sum(f.rows for f in table.live_files()) == 340
    # invariant: every stored __list equals the argmax assignment
    import pyarrow.parquet as pq

    for f in table.live_files():
        ft = pq.read_table(f.path)
        want = _assign_lists(ft, cents, "embedding")
        assert (ft.column("__list").to_numpy() == want).all(), f.path
    # second reindex is a no-op
    table, st2 = reindex_ivf(table)
    assert st2["files_rewritten"] == 0

    # full-probe equality vs brute force over the UNION corpus: the
    # index dataflow is exact when every list is probed
    q_ids = [0, 10, 1005]
    full = np.vstack([m, m2.astype(np.float32).astype(np.float64)])
    all_ids = np.concatenate([np.arange(300), np.arange(1000, 1040)])
    q = full[[0, 10, 305]]
    got = ivf_topk_indexed(table, q, q_ids, k=5, nprobe=8).to_pandas()
    union = pa.table(
        {
            "vec_id": pa.array(all_ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in full.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        }
    )
    want = cosine_topk(ray.data.from_arrow(union), q, q_ids, k=5).to_pandas()
    key = ["query_id", "vec_id"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[key],
        want.sort_values(key).reset_index(drop=True)[key],
    )


def test_ivf_reindex_retrain_rebalances(ray_session, tmp_path):
    # retrain=True re-centers every list (the 'rebalance' path): all
    # files rewritten, centroids persisted, full-probe still exact
    from engine.similarity import (
        build_ivf_index,
        cosine_topk,
        ivf_topk_indexed,
        load_ivf_centroids,
        reindex_ivf,
        _assign_lists,
    )

    t, m = _emb_table(250)
    table, cents0 = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=6,
        rows_per_file=64,
    )
    n_files = len(table.live_files())
    table, st = reindex_ivf(table, retrain=True)
    assert st["retrained"] and st["files_rewritten"] == n_files
    cents1 = load_ivf_centroids(table)
    import pyarrow.parquet as pq

    for f in table.live_files():
        ft = pq.read_table(f.path)
        want = _assign_lists(ft, cents1, "embedding")
        assert (ft.column("__list").to_numpy() == want).all()
    q_ids = [0, 42]
    q = m[q_ids]
    got = ivf_topk_indexed(table, q, q_ids, k=4, nprobe=6).to_pandas()
    want = cosine_topk(ray.data.from_arrow(t), q, q_ids, k=4).to_pandas()
    key = ["query_id", "vec_id"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[key],
        want.sort_values(key).reset_index(drop=True)[key],
    )


def test_ivf_reindex_handles_invalid_vectors(ray_session, tmp_path):
    # upserted NULL / zero-norm vectors land in list -1 (never probed),
    # matching the filter_valid_vectors exclusion on both sides
    from engine.similarity import build_ivf_index, reindex_ivf
    from engine.writer import write_files
    import pyarrow.parquet as pq

    t, _ = _emb_table(100)
    table, _ = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=4,
        rows_per_file=64,
    )
    up = pa.table(
        {
            "vec_id": pa.array([500, 501, 502], pa.int64()),
            "embedding": pa.array(
                [None, [0.0] * 16, [1.0] * 16], pa.list_(pa.float32())
            ),
            "__list": pa.array([7, 7, 7], type=pa.int64()),
        }
    )
    entries = write_files(
        ray.data.from_arrow(up), table.data_dir, prefix="upsert",
        stats_cols=("vec_id",),
    )
    table.commit("merge", add_files=entries)
    table, st = reindex_ivf(table)
    assert st["files_rewritten"] == 1
    rows = pa.concat_tables(
        [pq.read_table(f.path, columns=["vec_id", "__list"]) for f in table.live_files()]
    ).to_pandas().set_index("vec_id")["__list"]
    assert rows.loc[500] == -1 and rows.loc[501] == -1
    assert rows.loc[502] >= 0


def test_ivf_centroid_versioning_crash_window(ray_session, tmp_path):
    # review finding: retrain previously saved centroids AFTER the
    # manifest commit, leaving a window where probes mixed new file
    # assignments with old centroids. Versioned sidecars close it: an
    # orphan centroid file written before a commit that never landed is
    # ignored; after the commit the matching version is served.
    import os

    from engine.similarity import (
        _centroid_path,
        build_ivf_index,
        load_ivf_centroids,
        reindex_ivf,
    )

    t, m = _emb_table(120, d=8)
    table, c0 = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=4,
        rows_per_file=64,
    )
    assert (load_ivf_centroids(table) == c0).all()

    # simulate the crash window: a versioned centroid file for a
    # snapshot that never committed must NOT be served
    fake = np.full_like(c0, 7.0)
    np.save(_centroid_path(table, table.current_snapshot_id() + 5), fake)
    assert (load_ivf_centroids(table) == c0).all()

    # a real retrain advances both atomically (file first, commit after)
    table, st = reindex_ivf(table, retrain=True)
    assert st["retrained"]
    c1 = load_ivf_centroids(table)
    sid = table.current_snapshot_id()
    assert os.path.exists(_centroid_path(table, sid))
    assert not (c1 == 7.0).all()


def test_fresh_ivf_build_versions_centroids_by_its_own_commit(ray_session, tmp_path):
    """A fresh build_ivf_index writes ONE versioned centroid file, named
    by the snapshot its ivf-index commit takes (Table.create commits
    snapshot 0 first, so that is snapshot 1), and the loader serves it
    with the legacy unversioned file gone."""
    import os
    import re

    from engine.similarity import build_ivf_index, load_ivf_centroids

    t, _ = _emb_table(120, d=8)
    table, cents = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=4,
        rows_per_file=64,
    )
    sid = table.current_snapshot_id()
    assert table.snapshot_header(sid)["operation"] == "ivf-index"
    versioned = [
        n for n in os.listdir(table.manifest_dir)
        if re.fullmatch(r"ivf_centroids\.\d{8}\.npy", n)
    ]
    assert versioned == [f"ivf_centroids.{sid:08d}.npy"]
    os.remove(os.path.join(table.manifest_dir, "ivf_centroids.npy"))
    assert (load_ivf_centroids(table) == cents).all()


def test_load_centroids_clear_error_on_plain_table(ray_session, tmp_path):
    from engine.manifest import Table
    from engine.similarity import load_ivf_centroids

    t = Table.create(str(tmp_path / "plain"))
    with pytest.raises(ValueError, match="no IVF centroids"):
        load_ivf_centroids(t)


def test_ivf_reindex_file_missing_list_column(ray_session, tmp_path):
    # a schema-evolved upsert that never had __list at all: the drift
    # check must read it as null (-2 sentinel) and rewrite the file
    import pyarrow.parquet as pq

    from engine.similarity import _assign_lists, build_ivf_index, reindex_ivf
    from engine.writer import write_files

    t, m = _emb_table(100, d=8)
    table, cents = build_ivf_index(
        ray.data.from_arrow(t), str(tmp_path / "ivf"), n_centroids=4,
        rows_per_file=64,
    )
    up = pa.table({
        "vec_id": pa.array([700, 701], pa.int64()),
        "embedding": pa.array(
            [[1.0] * 8, [0.5] * 8], pa.list_(pa.float32())
        ),
        # NO __list column
    })
    entries = write_files(
        ray.data.from_arrow(up), table.data_dir, prefix="evolved",
        stats_cols=("vec_id",),
    )
    table.commit("merge", add_files=entries)
    table, st = reindex_ivf(table)
    assert st["files_rewritten"] == 1 and st["rows_rewritten"] == 2
    rows = pa.concat_tables([
        pq.read_table(f.path, columns=["vec_id", "__list"])
        for f in table.live_files()
    ]).to_pandas().set_index("vec_id")["__list"]
    assert rows.loc[700] >= 0 and rows.loc[701] >= 0
    for f in table.live_files():
        ft = pq.read_table(f.path)
        assert (ft.column("__list").to_numpy() == _assign_lists(ft, cents, "embedding")).all()
