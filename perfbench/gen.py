"""Deterministic benchmark inputs, a pure function of ``--seed``.

Documents are synthesized to the measured shape of the sf0.1
``documents.parquet`` test table (5 000 docs), and turned into pages by
the engine's own ``engine.pages.derive_pages_batch``, so every input row
has the canonical page schema ``(url, warc_ts, html, text, lang)``.

Measured in that table, and reproduced here:

- ``lang``: en 41.2%, zh 15.1%, es 14.9%, fr 14.8%, de 14.0%;
- text: 10 to 100 space-separated tokens, uniform (p25 32, p50 54,
  p75 76; 44 to 577 chars, mean 297);
- vocabulary: the 30 ASCII words of :data:`VOCAB`, each about equally
  frequent, whatever the ``lang`` label;
- 5% of docs are near-duplicates: another doc's text plus ``" dup"``;
- texts are otherwise distinct (4 992 of 5 000).

Not in that table, and added so the sanitizer's contract is checked: one
doc in :data:`SANITIZE_EVERY` gets whitespace padding (ASCII and
Unicode) or a formula-injection prefix ``= + - @``.

From ``derive_pages_batch``:

- ``url = 'https://example.com/p/' || doc_id % url_space``, NULL every
  97th doc (null-key passthrough);
- ``warc_ts = 2026-01-01 + doc_id seconds``, so a larger doc id is a
  newer crawl and last-writer-wins is unambiguous;
- ``text`` is emptied every 13th doc (non-empty coalesce).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key line merge "
    "order part query row scan slow small sort spark stream table the value vector window"
).split()
LANGS = np.array(["en", "zh", "es", "fr", "de"], dtype=object)
LANG_P = np.array([0.412, 0.151, 0.149, 0.148, 0.140])
MIN_TOKENS, MAX_TOKENS = 10, 100
DUP_EVERY = 20
DUP_REACH = 4096
SANITIZE_EVERY = 64
_PADS = [" ", "\t", "\n ", "　", " ", "  "]
_PREFIXES = ["=", "+", "-", "@"]


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a uint64 hash of each element."""
    x = x.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _doc_hash(seed: int, doc_ids: np.ndarray, stream: int) -> np.ndarray:
    key = np.uint64((seed & 0xFFFFFFFF) << 8 | stream)
    return _mix(doc_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ key)


def _texts(seed: int, doc_ids: np.ndarray) -> pa.Array:
    """The base text of each doc id: uniform length, uniform words."""
    n_tok = MIN_TOKENS + (_doc_hash(seed, doc_ids, 1) % np.uint64(MAX_TOKENS - MIN_TOKENS + 1)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(n_tok)])
    pos = np.arange(offsets[-1], dtype=np.uint64) - np.repeat(offsets[:-1], n_tok).astype(np.uint64)
    word = _mix(np.repeat(_doc_hash(seed, doc_ids, 2), n_tok) ^ pos) % np.uint64(len(VOCAB))
    words = pa.array(VOCAB, pa.string()).take(pa.array(word.astype(np.int64)))
    return pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)), words), " ")


def documents(seed: int, doc_ids: np.ndarray) -> pa.Table:
    """(doc_id, text, lang) for the given doc ids; a doc's content
    depends only on (seed, doc_id)."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    u = (_doc_hash(seed, doc_ids, 3) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    lang_idx = np.searchsorted(np.cumsum(LANG_P), u, side="right").clip(0, len(LANGS) - 1)
    h = _doc_hash(seed, doc_ids, 4)
    dup = h % np.uint64(DUP_EVERY) == 0
    reach = ((h >> np.uint64(8)) % np.uint64(DUP_REACH) + np.uint64(1)).astype(np.int64)
    source = np.where(dup, doc_ids + np.where((h >> np.uint64(40)) & np.uint64(1), reach, -reach), doc_ids)
    text = _texts(seed, source).to_pylist()
    for i in np.flatnonzero(dup):
        text[i] += " dup"
    hs = _doc_hash(seed, doc_ids, 5)
    for i in np.flatnonzero(hs % np.uint64(SANITIZE_EVERY) == 0):
        pick = int(hs[i] >> np.uint64(16))
        pad, prefix = _PADS[pick // 3 % len(_PADS)], _PREFIXES[pick // 32 % len(_PREFIXES)]
        text[i] = (pad + text[i] + pad, prefix + text[i], pad + prefix + text[i] + pad)[pick % 3]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids),
            "text": pa.array(text, pa.string()),
            "lang": pa.array(LANGS[lang_idx], pa.string()),
        }
    )


def pages(seed: int, doc_ids: np.ndarray, url_space: int) -> pa.Table:
    """Engine page rows for the given doc ids (via derive_pages_batch)."""
    from engine.pages import derive_pages_batch

    return derive_pages_batch(documents(seed, doc_ids), url_mod=url_space)


def url(i: int) -> str:
    """The url ``derive_pages_batch`` gives a doc id congruent to ``i``."""
    return f"https://example.com/p/{int(i)}"
