"""The collision-pair primitive (``engine/lsh.py``) and the three LSH
pipelines on it: the pair set does not depend on the bucket count, each
pair comes out once with ``id_a < id_b``, and ids stay exact int64."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from engine.dedup import minhash_dedup_pairs, simhash_dup_pairs
from engine.lsh import collision_pairs
from engine.similarity import lsh_bucketed_pairs

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden outside"
)


def _docs():
    texts = [BASE, BASE, BASE.replace("warm", "cold"), BASE + " with a small suffix appended",
             "completely different text about spark shuffle partitions and arrow batches",
             "yet another unrelated document mentioning lakehouse manifests and snapshots"]
    # ids out of order, so the id sort inside a cell matters
    return pa.table({"doc_id": pa.array([40, 3, 17, 8, 25, 11], pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _embeddings():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(16)
    near = base[None, :] + 1e-3 * rng.standard_normal((6, 16))
    vecs = np.vstack([near, rng.standard_normal((30, 16))])
    ids = rng.permutation(1000)[: len(vecs)]
    return pa.table({"vec_id": pa.array(ids, pa.int64()),
                     "embedding": pa.array([list(map(float, v)) for v in vecs],
                                           pa.list_(pa.float64()))})


PIPELINES = {
    # 3 and 40 are exact duplicates: they collide in every band
    "minhash": (_docs, lambda ds, nb: minhash_dedup_pairs(
        ds, threshold=0.5, num_perm=64, bands=16, num_buckets=nb)),
    "simhash": (_docs, lambda ds, nb: simhash_dup_pairs(ds, max_hamming=8, num_buckets=nb)),
    "lsh": (_embeddings, lambda ds, nb: lsh_bucketed_pairs(
        ds, threshold=0.99, num_bits=4, num_buckets=nb)),
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pair_set_is_bucket_count_invariant_and_distinct(ray_session, name):
    make, run = PIPELINES[name]
    ds = ray.data.from_arrow(make()).repartition(3)
    out = {}
    for nb in (1, 8):
        df = run(ds, nb).to_pandas()
        assert (df.id_a.dtype, df.id_b.dtype) == (np.int64, np.int64)
        assert (df.id_a < df.id_b).all()
        keys = list(zip(df.id_a.tolist(), df.id_b.tolist()))
        assert len(keys) == len(set(keys)), f"repeated pair at num_buckets={nb}"
        out[nb] = sorted(map(tuple, df.itertuples(index=False)))
    assert out[1] == out[8]
    assert out[1], "the planted near-duplicates must pair"
    if name != "lsh":
        assert (3, 40) in {p[:2] for p in out[1]}


def test_collision_pairs_distinct_across_bands_and_exact_ids(ray_session):
    big = 2**60 + 1
    # ids big and big+2 share a cell in all three bands; 7 shares band 0
    # only; a repeated id never pairs with itself
    rows = [(band, key, i) for band in range(3) for key, i in ((1, big), (1, big + 2))]
    rows += [(0, 1, 7), (2, 9, 7), (2, 9, 7)]
    t = pa.table({"band": pa.array([r[0] for r in rows], pa.int32()),
                  "key": pa.array([r[1] for r in rows], pa.uint64()),
                  "id": pa.array([r[2] for r in rows], pa.int64())})
    for nb in (1, 4):
        got = collision_pairs(ray.data.from_arrow(t), ("band", "key"), "id",
                              max_cell=None, num_buckets=nb).to_pandas()
        assert sorted(zip(got.id_a.tolist(), got.id_b.tolist())) == [
            (7, big), (7, big + 2), (big, big + 2)]
