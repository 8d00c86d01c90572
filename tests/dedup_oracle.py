"""Scalar oracles for the dedup kernels (tests only).

No pipeline calls these: the near-dup verify stage computes Jaccard for
a whole pair batch with ``engine.dedup._pairwise_jaccard``, and
signatures come from the batch kernel ``engine.dedup.simhash_texts``.
``tests/test_dedup.py`` checks the kernels against these one-pair,
one-document twins, and the hot-cell tests check that a capped
collision fold keeps a cluster in one :func:`connected_components`
component."""

from engine.dedup import simhash_texts, word_shingles


def jaccard_ngrams(a: str, b: str, n: int = 3, char: bool = False) -> float:
    """n-gram Jaccard similarity (verification kernel; also standalone)."""
    if char:
        ga = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
        gb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    else:
        ga, gb = set(word_shingles(a, n)), set(word_shingles(b, n))
    if not ga and not gb:
        return 1.0
    inter = len(ga & gb)
    return inter / (len(ga) + len(gb) - inter)


def simhash64(text: str) -> int:
    """Deterministic 64-bit SimHash of one document (flat-kernel path)."""
    return int(simhash_texts([text])[0])


def connected_components(pairs, ids_a="id_a", ids_b="id_b") -> dict:
    """Duplicate-pair graph -> {doc_id: component_min_id} via union-find
    over a pair DataFrame (ids that appear in no pair are absent)."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs[ids_a], pairs[ids_b]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in set(parent)}
