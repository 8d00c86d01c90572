"""Text analysis stages over the ``documents``/pages text column:
token counting, quality scoring (SQL-mirrorable so DuckDB can oracle
them) -- vectorized numpy over the Arrow text buffer inside
``map_batches``.

The six counts come from a numpy byte kernel over the batch's
:class:`TextBatch` (its UTF-8 buffer, decoded once and shared with
langid and simhash) for every ASCII row; only rows holding a non-ASCII byte go
through the regex path, so the fallback is per row, not per batch
(:meth:`TextStats.counts`).

Definitions are chosen to be *exactly* expressible in DuckDB (see
``__ray_entry__.oracle_sql``):

- ``n_tokens``     number of ``\\S+`` runs
- ``n_words``      number of ``[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]`` matches
  (a BPE-ish pre-tokenization without unicode classes, so Python `re`
  and DuckDB RE2 agree)
- ``n_chars``      length in characters
- ``alpha_ratio``  alphabetic chars / n_chars (0 for empty)
- ``punct_ratio``  non-alnum-non-space chars / n_chars (0 for empty)
- ``stop_ratio``   tokens in a fixed 25-word English stopword list /
  n_tokens (0 for empty) -- the quality heuristic of C4-style filters
- ``quality``      composite in [0,1]
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_PATTERN = r"\S+"

#: Python-``\s`` as an explicit RE2 character class -- THE canonical
#: definition (single source of truth). RE2's own ``\s`` is ASCII-only;
#: every RE2 consumer on either side of an oracle (Arrow kernels,
#: DuckDB SQL built by ``__ray_entry__.oracle_sql``, ``engine.redact``,
#: ``engine.terms``) must import THIS constant, never restate it --
#: CLAUDE.md oracle-alignment invariant. Spelled with ``\x{...}``
#: escapes (RE2 syntax, not Python ``re``); verified char-for-char
#: equal to Python ``\s`` over the BMP by
#: tests/test_entry_contract.py::test_oracle_ws_class_is_python_s,
#: which extracts it back out of the generated oracle SQL.
PY_WS_RE2 = (
    r"\t\n\x0B\f\r\x1C-\x1F \x{0085}\x{00A0}\x{1680}"
    r"\x{2000}-\x{200A}\x{2028}\x{2029}\x{202F}\x{205F}\x{3000}"
)
WORD_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
ALPHA_PATTERN = r"[A-Za-z]"
PUNCT_PATTERN = r"[^A-Za-z0-9\s]"

def sql_lower(text: str) -> str:
    """lower() with utf8proc simple-mapping semantics -- identical to
    Arrow ``utf8_lower`` AND DuckDB ``lower()`` (probed: İ -> i, final
    sigma stays σ). Python ``str.lower`` full-casefolds (``İ`` ->
    ``i̇`` two codepoints, ``Σ`` at word end -> ``ς``) and silently
    diverges from every SQL oracle on Turkish/Greek text: every text
    kernel whose oracle says ``lower(...)`` must lowercase through
    HERE or ``pc.utf8_lower`` (pinned by
    tests/test_dedup.py::test_minhash_simhash_unicode_lower_parity).

    Lone-surrogate text is not UTF-8-encodable (Arrow refuses it) and
    can never round-trip through parquet or reach a SQL oracle at all,
    so it keeps the old ``str.lower`` tolerance instead of crashing --
    the langid/minhash per-row fallbacks handle exactly such rows."""
    t = text if text is not None else ""
    try:
        return pc.utf8_lower(pa.scalar(t)).as_py()
    except (UnicodeEncodeError, pa.lib.ArrowInvalid, pa.lib.ArrowCapacityError):
        # lone surrogate, or a single >2GiB row (case mapping can also
        # GROW bytes past the cap): keep counting with str.lower
        return t.lower()


def sql_lower_list(texts) -> list:
    """Vectorized :func:`sql_lower` for a list/array of texts (one
    Arrow kernel call, NULL -> ''). Falls back to per-item
    :func:`sql_lower` when the batch cannot form one Arrow array
    (lone surrogates, >2GiB of text) -- isolating the bad rows instead
    of crashing the stage."""
    try:
        arr = pa.array(list(texts), type=pa.string())
    except (UnicodeEncodeError, pa.lib.ArrowInvalid, pa.lib.ArrowCapacityError):
        return [sql_lower(t) for t in texts]
    return pc.utf8_lower(pc.fill_null(arr, "")).to_pylist()


#: fixed, tiny, fully deterministic stopword list (public knowledge)
STOPWORDS = (
    "the of and a to in is you that it he was for on are as with his they at"
).split() + ["be", "this", "have", "from", "or"]

assert len(STOPWORDS) == 25
assert all(len(w) <= 4 for w in STOPWORDS)


class KeySet:
    """A small fixed set of uint64 keys, probed by ONE multiplicative
    hash per query (the multiplier is searched until no two keys share
    a slot, with >= 32 slots per key): about 4x cheaper per query than
    ``searchsorted`` on the sorted keys, measured on ~800k token packs."""

    def __init__(self, keys):
        self.keys = np.unique(np.asarray(keys, dtype=np.uint64))
        bits = len(self.keys).bit_length() + 5
        self.shift = np.uint64(64 - bits)
        for i in itertools.count():
            self.mult = np.uint64((0x9E3779B97F4A7C15 * (2 * i + 1)) % (1 << 64))
            slot = (self.keys * self.mult) >> self.shift
            if len(np.unique(slot)) == len(self.keys):
                break
        self.table = np.zeros(1 << bits, np.uint64)
        self.table[slot] = self.keys
        self.index = np.full(1 << bits, -1, np.int64)
        self.index[slot] = np.arange(len(self.keys))

    def find(self, x: np.ndarray) -> np.ndarray:
        """Each query's index in the sorted keys, -1 where absent."""
        slot = (x * self.mult) >> self.shift
        return np.where(self.table[slot] == x, self.index[slot], -1)


#: stopwords as uint64 keys ``pack | len << 32`` (pack: little-endian
#: uint32 of the word's <=4 bytes). A token is a stopword iff the low 4
#: bytes of its first 8-byte window, keyed with its length the same way,
#: is one of them; the length keeps the compare byte-exact ('a\x00'
#: packs like 'a', but is 2 bytes long).
_STOP_KEYS = KeySet(
    [int.from_bytes(w.encode().ljust(4, b"\0"), "little") | len(w) << 32 for w in STOPWORDS]
)

#: _WINDOW_MASK[k] keeps the first k bytes of a little-endian 8-byte window
_WINDOW_MASK = (
    ((np.arange(8)[None, :] < np.arange(9)[:, None]) * 255).astype(np.uint8).view(np.uint64).ravel()
)

#: chunk size for cache blocking: per-span temporaries (~6 live arrays
#: of span bytes) stay L2-resident, so 32 concurrent workers contend on
#: cores, not memory bandwidth -- without this the byte path saturates
#: DRAM at high parallelism and stops scaling (measured: equal to the
#: regex path at 32 CPUs, 2x faster at 8)
_SPAN = 128 * 1024


def is_ws(x: np.ndarray) -> np.ndarray:
    """Per byte: Python's unicode ``\\s`` restricted to ASCII --
    \\t\\n\\v\\f\\r, the four separator controls \\x1c-\\x1f (FS GS RS
    US) and space. The ONE whitespace set of the byte kernels: the
    textstats byte path counts every ASCII row and the regex path every
    other row, so the two must agree byte for byte on ASCII text, or a
    row's counts would depend on which path its batch sent it down
    (omitting \\x1c-\\x1f once did exactly that). Non-ASCII bytes are
    never whitespace: 0x85/0xA0 occur as UTF-8 continuation bytes.
    Comparisons, not a 256-entry table: the gather costs ~4x more."""
    return ((x - np.uint8(9)) <= 4) | ((x - np.uint8(28)) <= 4)


def windows(lanes: np.ndarray) -> np.ndarray:
    """Every little-endian 8-byte window of a contiguous uint8 array, as
    a zero-copy byte-strided uint64 view (one word load per token
    instead of eight byte loads; pad ``lanes`` to read near its end)."""
    return np.ndarray(buffer=lanes, dtype=np.uint64, shape=(len(lanes) - 7,), strides=(1,))


def string_buffer(arr):
    """(bytes, normalized int64 offsets) of an Arrow string or
    large_string array (NULL -> ''). Non-ASCII bytes are returned as
    they are."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    if not len(arr):
        return np.zeros(0, np.uint8), np.zeros(1, np.int64)
    off_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(off_buf, dtype=off_dtype)[arr.offset : arr.offset + len(arr) + 1]
    lo, hi = int(off[0]), int(off[-1])
    b = np.frombuffer(data_buf, dtype=np.uint8)[lo:hi] if data_buf is not None else np.zeros(0, np.uint8)
    return b, off.astype(np.int64) - lo


def iter_spans(off: np.ndarray, limit: int = _SPAN):
    """Row-aligned chunks of <= ``limit`` bytes (one oversized row still
    forms its own chunk). Yields (row_start, row_end) index pairs."""
    n = len(off) - 1
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(off, off[r0] + limit, side="left"))
        r1 = max(r1, r0 + 1)
        yield r0, min(r1, n)
        r0 = min(r1, n)


def _runs(mask: np.ndarray, off: np.ndarray):
    """(starts, ends) of the maximal True runs of ``mask``, cut at every
    row boundary of ``off`` (a run never spans rows), from ONE nonzero
    scan over the run edges: +1 opens a run, -1 closes one, and 2 marks
    a boundary inside a run, which both closes and opens one."""
    if not len(mask):
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    m = mask.view(np.int8)
    d = np.empty(len(m) + 1, np.int8)
    d[0], d[-1] = m[0], -m[-1]
    np.subtract(m[1:], m[:-1], out=d[1:-1])
    cut = off[1:-1]
    cut = cut[(cut > 0) & (cut < len(m))]
    d[cut[mask[cut - 1] & mask[cut]]] = 2
    edges = np.flatnonzero(d != 0)
    ev = d[edges]
    return edges[ev > 0], edges[ev != 1]


def span_runs(member, low: np.ndarray, off: np.ndarray, cap=None):
    """:func:`_runs` of ``member(bytes)`` over a whole batch, cache-blocked
    into ``_SPAN``-byte row chunks; with ``cap``, only each row's first
    ``cap`` bytes count (a run crossing the cap ends there)."""
    starts, ends = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for r0, r1 in iter_spans(off):
        a = off[r0]
        o = off[r0 : r1 + 1] - a
        m = member(low[a : off[r1]])
        if cap is not None:
            for r in np.flatnonzero(np.diff(o) > cap):
                m[o[r] + cap : o[r + 1]] = False
        s, e = _runs(m, o)
        starts.append(s + a)
        ends.append(e + a)
    return np.concatenate(starts), np.concatenate(ends)


def _per_row(mask: np.ndarray, off: np.ndarray, n: int) -> np.ndarray:
    """Per-row sums of a boolean mask via np.add.reduceat (this numpy's
    cumsum is ~100x slower on bool/int inputs -- measured). Quirks
    handled: empty segments return mask[idx] -> zeroed; a sentinel
    element keeps trailing-empty-row offsets (== len) valid WITHOUT
    clipping (clipping truncates the previous segment)."""
    if n == 0 or len(mask) == 0:
        return np.zeros(n, np.int64)
    # uint8 input + explicit ``dtype=np.int32``: this numpy's reduceat
    # is 3-24x slower when dtype-less promotion accumulates integers
    # into int64/uint64, but an explicit small accumulator dtype takes
    # the fast path on integer input too (measured r4 -- same finding
    # as the simhash bit counts, where it replaced a float32 copy at
    # 2.7x). Exact for any segment below 2^31 elements (a segment is
    # one row's bytes; Arrow strings cap rows < 2 GiB).
    m = np.empty(len(mask) + 1, np.uint8)
    m[:-1] = mask
    m[-1] = 0
    r = np.add.reduceat(m, off[:-1], dtype=np.int32).astype(np.int64)
    r[off[:-1] == off[1:]] = 0
    return r


class TextBatch:
    """One batch's text column, decoded ONCE for all three normalize
    kernels (text stats, language id, simhash), which all start from the
    Arrow string buffer:

    - ``arr``: the NULL-free Arrow array; ``off``: its int64 offsets;
    - ``low``: the ASCII-lowercased bytes plus a 15-byte zero pad (so a
      fixed 16-byte window can be read at any token start);
    - one whitespace tokenization (:func:`is_ws` runs, never spanning
      rows): token ``starts``/``ends``, ``tok_off`` (row r owns tokens
      ``tok_off[r]:tok_off[r+1]``) and ``w0``, each token's first
      8-byte window masked to its length;
    - ``nonascii``: rows holding a byte >= 0x80, where the byte kernels
      do not hold and each kernel takes its unicode path.
    """

    def __init__(self, texts):
        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(texts, type=pa.string())
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if pa.types.is_null(texts.type):  # an all-NULL column typed null
            texts = texts.cast(pa.string())
        self.arr = pc.fill_null(texts, "") if texts.null_count else texts
        low, self.off = string_buffer(pc.ascii_lower(self.arr))
        self.n = len(self.off) - 1
        self.low = np.concatenate([low, np.zeros(15, np.uint8)])
        self.starts, self.ends = span_runs(lambda x: ~is_ws(x), self.low, self.off)
        self.tok_off = np.searchsorted(self.starts, self.off)
        tl = np.minimum(self.ends - self.starts, 8)
        self.w0 = windows(self.low)[self.starts] & _WINDOW_MASK[tl]

    @functools.cached_property
    def nonascii(self) -> np.ndarray:
        hi = self.low[: self.off[-1]] >= 0x80
        return _per_row(hi, self.off, self.n) > 0 if hi.any() else np.zeros(self.n, bool)


def with_columns(batch: pa.Table, cols: dict) -> pa.Table:
    """``batch`` with each named column replaced where it is or appended
    (the ``DataFrame.assign`` order)."""
    for name, values in cols.items():
        if not isinstance(values, (pa.Array, pa.ChunkedArray)):
            values = pa.array(values)
        i = batch.schema.get_field_index(name)
        batch = batch.set_column(i, name, values) if i >= 0 else batch.append_column(name, values)
    return batch


def _span_counts(low: np.ndarray, off: np.ndarray):
    """(n_words, n_alpha, n_punct) of one row span of lowered bytes (off
    normalized to it)."""
    n = len(off) - 1
    alpha = (low - np.uint8(97)) <= 25
    digit = (low - np.uint8(48)) <= 9
    punct = ~(alpha | digit | is_ws(low))
    # byte class 1 letter, 2 digit, 0 other: a word is every punct byte
    # plus every letter or digit run, which starts where the class
    # changes (the row's first byte has no previous byte)
    k = alpha.view(np.uint8) + (digit.view(np.uint8) << 1)
    prev = np.empty_like(k)
    if len(k):
        prev[0] = 0
        prev[1:] = k[:-1]
        idx = off[:-1]
        prev[idx[idx < len(k)]] = 0
    word = punct | ((k != 0) & (k != prev))
    return _per_row(word, off, n), _per_row(alpha, off, n), _per_row(punct, off, n)


def _byte_counts(tb: TextBatch):
    """All six counts in O(bytes) numpy over a :class:`TextBatch` -- no
    regex. Exact for every row whose bytes are all ASCII; a row holding
    a non-ASCII byte gets counts of no meaning, which
    :meth:`TextStats.counts` overwrites (byte-level char classes and
    Python's unicode ``\\s``/token semantics only coincide on ASCII).
    Tokens never cross a row boundary, so such a row cannot change its
    neighbours' counts.

    Definitions mirror the regex path EXACTLY (fuzz-tested): token =
    ``\\S+`` run (the batch's shared tokenization), word = letter-run |
    digit-run | single other-non-ws char, stopword = whole token equal
    to one of the 25 words after ASCII lowercasing. The per-byte work is
    cache-blocked into ``_SPAN``-byte row chunks (see the constant's
    comment)."""
    off = tb.off
    parts = [
        _span_counts(tb.low[off[r0] : off[r1]], off[r0 : r1 + 1] - off[r0])
        for r0, r1 in iter_spans(off)
    ]
    n_words, n_alpha, n_punct = (
        np.concatenate([np.zeros(0, np.int64)] + [p[i] for p in parts]) for i in range(3)
    )
    key = (tb.w0 & np.uint64(0xFFFFFFFF)) | ((tb.ends - tb.starts).astype(np.uint64) << np.uint64(32))
    n_stop = _per_row(_STOP_KEYS.find(key) >= 0, tb.tok_off, tb.n)
    return np.diff(off), np.diff(tb.tok_off), n_words, n_alpha, n_punct, n_stop


class TextStats:
    """Batch callable: regexes compiled once per worker process (T3 pattern)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(TOKEN_PATTERN)
        self.word = re.compile(WORD_PATTERN)
        self.alpha = re.compile(ALPHA_PATTERN)
        self.punct = re.compile(PUNCT_PATTERN)
        self.stops = set(STOPWORDS)
        # one C-regex alternation counting whole \S+ tokens equal to a
        # stopword -- replaces a per-row Python membership loop
        alt = "|".join(sorted(STOPWORDS, key=len, reverse=True))
        self.stop_rx = re.compile(rf"(?<![^\s])(?:{alt})(?![^\s])")

    def counts(self, tb: TextBatch):
        """The six counts (n_chars, n_tokens, n_words, n_alpha, n_punct,
        n_stop) of a :class:`TextBatch` as int64 arrays. ASCII rows take
        the byte kernel, the rest :meth:`regex_counts`; each row gets
        what it would get in a batch of its own."""
        rows = np.flatnonzero(tb.nonascii)
        if tb.n and len(rows) == tb.n:
            return self.regex_counts(tb.arr)
        out = _byte_counts(tb)
        if len(rows):
            for a, r in zip(out, self.regex_counts(tb.arr.take(rows))):
                a[rows] = r
        return out

    def regex_counts(self, arr: pa.Array):
        """The six counts by Python regex over the unicode text of a
        NULL-free Arrow string array: the path for non-ASCII rows and
        the reference the byte kernel is tested against."""
        s = arr.to_pandas()
        n_chars = s.str.len()
        n_tokens = s.str.count(self.tok)
        n_words = s.str.count(self.word)
        n_alpha = s.str.count(self.alpha)
        n_punct = s.str.count(self.punct)
        # lower with DuckDB/utf8proc semantics (sql_lower): Python
        # str.lower maps İ to TWO codepoints and would miss the
        # stopword the oracle's lower('İT') = 'it' finds. ASCII rows
        # (the byte kernel's) can never hold such codepoints, so the
        # two paths stay mutually consistent.
        n_stop = pc.utf8_lower(arr).to_pandas().str.count(self.stop_rx)
        return tuple(
            c.to_numpy().astype(np.int64)
            for c in (n_chars, n_tokens, n_words, n_alpha, n_punct, n_stop)
        )

    def __call__(self, batch: pa.Table, tb: TextBatch | None = None) -> pa.Table:
        """``batch`` plus the seven stats columns; ``tb`` is the batch's
        :class:`TextBatch` when the caller already built one."""
        if tb is None:
            tb = TextBatch(batch.column(self.text_col))
        n_chars, n_tokens, n_words, n_alpha, n_punct, n_stop = self.counts(tb)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_ratio = np.where(n_chars > 0, n_alpha / n_chars, 0.0)
            punct_ratio = np.where(n_chars > 0, n_punct / n_chars, 0.0)
            stop_ratio = np.where(n_tokens > 0, n_stop / n_tokens, 0.0)
        return with_columns(batch, {
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "n_words": n_words,
            "alpha_ratio": alpha_ratio,
            "punct_ratio": punct_ratio,
            "stop_ratio": stop_ratio,
            "quality": quality_score(n_tokens, alpha_ratio, punct_ratio, stop_ratio),
        })


def quality_score(n_tokens, alpha_ratio, punct_ratio, stop_ratio) -> np.ndarray:
    """Composite [0,1] heuristic: long-enough, mostly alphabetic, not
    punctuation-soup, some stopwords (C4/Gopher-style signals)."""
    length_ok = np.clip(np.asarray(n_tokens, dtype=np.float64) / 50.0, 0.0, 1.0)
    return np.round(
        0.25 * length_ok
        + 0.35 * np.asarray(alpha_ratio, dtype=np.float64)
        + 0.25 * (1.0 - np.clip(np.asarray(punct_ratio, dtype=np.float64) * 4, 0, 1))
        + 0.15 * np.clip(np.asarray(stop_ratio, dtype=np.float64) * 5, 0, 1),
        6,
    )


_PROC_CACHE: dict = {}


def _stats_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Task-based variant: state built once per worker process (module
    cache) -- elastic like tasks, amortized like an actor."""
    st = _PROC_CACHE.get(text_col)
    if st is None:
        st = _PROC_CACHE[text_col] = TextStats(text_col)
    return st(batch)


def text_stats(ds, text_col: str = "text", batch_size: int = 4096):
    """Elastic stateless tasks with per-process cached state."""
    return ds.map_batches(
        _stats_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        fn_kwargs={"text_col": text_col},
        batch_size=batch_size,
    )



# ---------------------------------------------------------------------------
# character-trigram entropy (model-free quality score)
# ---------------------------------------------------------------------------

def trigram_entropy(texts) -> np.ndarray:
    """Per-doc Shannon entropy (bits) over overlapping CHARACTER
    trigrams -- the SQL-mirrorable analog of a CCNet-class perplexity
    filter (round-4 VERDICT "What's missing" #3): keyboard-mash and
    template boilerplate score low, natural prose sits in a tight band,
    so a band filter on this column is a cheap quality gate.

    Fully vectorized and EXACT: every codepoint is < 2^21, so a trigram
    packs collision-free into ``(c0 << 42) | (c1 << 21) | c2`` -- one
    flat UTF-32 decode of the whole batch, doc-crossing windows masked
    (the ``_flat_shingles`` idiom), per-doc run-length counts from ONE
    lexsort, and the numerically stable integer-count form
    ``H = log2(n) - sum(c * log2 c) / n`` that the DuckDB mirror
    computes term-for-term. Docs with < 3 characters (incl. NULL) score
    0.0. Lone-surrogate rows (unencodable; in-memory batches only)
    degrade to a per-row Python count, same tolerance policy as
    ``sql_lower``.
    """
    n = len(texts)
    out = np.zeros(n, dtype=np.float64)
    if n == 0:
        return out
    clean = [t if isinstance(t, str) else "" for t in texts]
    try:
        flat = "".join(clean).encode("utf-32-le")
    except UnicodeEncodeError:
        # rare: route every row through the scalar fallback rather than
        # hunting the offender (surrogates never come from parquet)
        from collections import Counter
        from math import log2

        for i, t in enumerate(clean):
            if len(t) < 3:
                continue
            c = Counter(t[j : j + 3] for j in range(len(t) - 2))
            tot = sum(c.values())
            out[i] = log2(tot) - sum(v * log2(v) for v in c.values()) / tot
        return out
    cp = np.frombuffer(flat, dtype=np.uint32).astype(np.uint64)
    lens = np.array([len(t) for t in clean], dtype=np.int64)
    ends = np.cumsum(lens)
    N = len(cp)
    if N < 3:
        return out
    key = (cp[: N - 2] << np.uint64(42)) | (cp[1 : N - 1] << np.uint64(21)) | cp[2:]
    pos = np.arange(N - 2)
    doc_of = np.searchsorted(ends, pos, side="right")
    same = doc_of == np.searchsorted(ends, pos + 2, side="right")
    key, did = key[same], doc_of[same]
    if len(key) == 0:
        return out
    order = np.lexsort((key, did))
    kv, dv = key[order], did[order]
    new = np.empty(len(kv), bool)
    new[0] = True
    np.logical_or(dv[1:] != dv[:-1], kv[1:] != kv[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, len(kv))).astype(np.float64)
    run_doc = dv[starts]
    tot = np.bincount(did, minlength=n).astype(np.float64)
    clogc = np.bincount(run_doc, weights=cnt * np.log2(cnt), minlength=n)
    nz = tot > 0
    out[nz] = np.log2(tot[nz]) - clogc[nz] / tot[nz]
    return out


def add_trigram_entropy(ds, text_col: str = "text", out_col: str = "entropy"):
    """map_batches stage appending the per-doc trigram entropy column."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(**{out_col: trigram_entropy(df[text_col].tolist())})

    return ds.map_batches(fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# Gopher-style repetition filters
# ---------------------------------------------------------------------------

def repetition_stats(texts) -> tuple:
    """Per-doc ``(dup_line_frac, top_bigram_share)`` -- the two classic
    Gopher/MassiveText repetition filters (Rae et al. 2021, public):
    the fraction of non-distinct lines (boilerplate/menu pages repeat
    lines) and the share of the most frequent word bigram among all
    bigrams (spam/keyword-stuffed pages concentrate mass in one
    2-gram).

    Vectorized with the same machinery as the verify fold: lines /
    tokens are hashed once per batch (``pd.util.hash_array``, 64-bit;
    distinct strings collide with p ~ 2^-64), per-doc run counts come
    from ONE lexsort with first-of-run flags, and bigram keys reuse the
    flat k=2 XOR-mix recurrence (:func:`engine.dedup._flat_shingles`).
    Definitions mirror the DuckDB oracle exactly: lines =
    ``split('\\n')`` of the raw text (an empty doc is ONE empty line ->
    frac 0), bigrams over ``\\S+`` tokens of ``lower(text)``, docs with
    < 2 tokens score 0.0.
    """
    n = len(texts)
    dup_line = np.zeros(n, np.float64)
    top_bg = np.zeros(n, np.float64)
    if n == 0:
        return dup_line, top_bg
    clean = [t if isinstance(t, str) else "" for t in texts]

    lines_per = [t.split("\n") for t in clean]
    llens = np.array([len(x) for x in lines_per], np.int64)  # always >= 1
    lh = pd.util.hash_array(
        np.asarray([l for ls in lines_per for l in ls], dtype=object)
    ).astype(np.uint64)
    did = np.repeat(np.arange(n), llens)
    order = np.lexsort((lh, did))
    dv, kv = did[order], lh[order]
    new = np.empty(len(kv), bool)
    new[0] = True
    np.logical_or(dv[1:] != dv[:-1], kv[1:] != kv[:-1], out=new[1:])
    distinct = np.bincount(dv[new], minlength=n)
    dup_line = 1.0 - distinct / llens

    toks_per = [_TOKEN_RE_WS.findall(x) for x in sql_lower_list(clean)]
    lens = np.array([len(tk) for tk in toks_per], np.int64)
    flat = [s for tk in toks_per for s in tk]
    if flat:
        from engine.dedup import _flat_shingles

        th = pd.util.hash_array(np.asarray(flat, dtype=object)).astype(np.uint64)
        sh, s_off = _flat_shingles(th, lens, 2)
        did2 = np.repeat(np.arange(n), np.diff(s_off))
        if len(sh):
            order = np.lexsort((sh, did2))
            dv2, kv2 = did2[order], sh[order]
            new2 = np.empty(len(kv2), bool)
            new2[0] = True
            np.logical_or(dv2[1:] != dv2[:-1], kv2[1:] != kv2[:-1], out=new2[1:])
            starts = np.flatnonzero(new2)
            runs = np.diff(np.append(starts, len(kv2)))
            run_doc = dv2[starts]
            first = np.empty(len(run_doc), bool)
            first[0] = True
            first[1:] = run_doc[1:] != run_doc[:-1]
            firsts = np.flatnonzero(first)
            maxes = np.maximum.reduceat(runs, firsts)
            present = run_doc[firsts]
            tot = np.diff(s_off)
            top_bg[present] = maxes / tot[present]
            # docs with < 2 tokens have no bigram (the shrunk-k shingle
            # _flat_shingles emits for them is not a bigram)
            top_bg[lens < 2] = 0.0
    return dup_line, top_bg


#: compiled from the ONE canonical pattern above -- never restate the
#: oracle-critical token class (review finding; dedup compiles its
#: _TOKEN_RE from the same constant)
_TOKEN_RE_WS = re.compile(TOKEN_PATTERN)


def add_repetition_stats(ds, text_col: str = "text"):
    """map_batches stage appending ``dup_line_frac`` /
    ``top_bigram_share`` columns."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        dl, tb = repetition_stats(df[text_col].tolist())
        return df.assign(dup_line_frac=dl, top_bigram_share=tb)

    return ds.map_batches(fn, batch_format="pandas")
