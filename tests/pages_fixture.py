"""Deterministic pages table for unit tests that must not depend on the
driver testdata (FIXTURES.md F1)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from engine.pages import derive_pages_batch


def synth_pages_table(n_rows: int, seed: int = 42) -> pa.Table:
    """``n_rows`` pages derived from a seeded ``documents`` slice (tiny
    merge fixtures, CLI and compaction tests)."""
    rng = np.random.default_rng(seed)
    doc_id = np.arange(n_rows, dtype=np.int64)
    langs = np.array(["en"] * 60 + ["zh"] * 15 + ["es"] * 8 + ["de"] * 7 + ["fr"] * 10)
    lang = langs[rng.integers(0, len(langs), n_rows)]
    words = np.array(["alpha", "beta", "=SUM(1+1)", "gamma ", " delta", "+cmd", ""])
    text = words[rng.integers(0, len(words), n_rows)]
    tbl = pa.table(
        {
            "doc_id": pa.array(doc_id),
            "text": pa.array(text.astype(object), type=pa.string()),
            "lang": pa.array(lang.astype(object), type=pa.string()),
        }
    )
    return derive_pages_batch(tbl)
