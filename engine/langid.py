"""Language identification heuristic (n-gram/stopword + script ranges).

Deterministic, self-contained (no external models -- the profiles below
are small hard-coded stopword/function-word lists, public knowledge).
Script detection handles the non-Latin cases (CJK, Cyrillic, Arabic,
kana); Latin-script languages are scored by function-word hit rate.

Output: ``lang_pred`` (ISO-ish code or 'und') + ``lang_conf`` in [0,1].
Profiles and regexes are built once per worker process and cached
(reference pattern T3, ``security.py:11-26``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from engine.textstats import (
    _WINDOW_MASK, KeySet, TextBatch, _runs, iter_spans, span_runs, windows, with_columns,
)

PROFILES = {
    "en": "the of and to a in is you that it for on are with as at be this have from or by one had not but what all were".split(),
    "es": "de la que el en y a los se del las un por con no una su para es al lo como mas pero sus le ya o".split(),
    "de": "der die und in den von zu das mit sich des auf ist im dem nicht ein eine als auch es an werden aus er".split(),
    "fr": "de la le et les des en un du une que est pour qui dans a par plus pas au sur ne se ce il sont".split(),
    "pt": "de a o que e do da em um para com nao uma os no se na por mais as dos como mas foi ao ele".split(),
    "it": "di e il la che in a per un del con non una le si dei sono come dalla lo alla piu o anche ha".split(),
    "nl": "de van het een en in is dat op te zijn met voor niet aan er ook als bij maar om uit nog door".split(),
}

_SCRIPT_RANGES = [
    # kana MUST precede han: Japanese prose is ~25-40% kanji, so a
    # han-first check would classify virtually all Japanese as zh
    ("ja", re.compile(r"[぀-ヿ]")),
    ("zh", re.compile(r"[一-鿿㐀-䶿]")),
    ("ko", re.compile(r"[가-힯]")),
    ("ru", re.compile(r"[Ѐ-ӿ]")),
    ("ar", re.compile(r"[؀-ۿ]")),
    ("el", re.compile(r"[Ͱ-Ͽ]")),
]

_TOKEN = re.compile(r"[a-zà-ÿäöüßñç]+")

_LANGS = list(PROFILES)
assert all(len(w) <= 8 for ws in PROFILES.values() for w in ws)

#: per-language profile words as sorted uint64 packs of their (<=8)
#: bytes -- the vectorized token==word compare of the ASCII fast path
_PROFILE_PACKS = {
    lang: np.sort(
        np.array(
            [int.from_bytes(w.encode().ljust(8, b"\0"), "little") for w in words],
            dtype=np.uint64,
        )
    )
    for lang, words in PROFILES.items()
}

#: ONE set of every profile pack + a (num_packs x num_langs)
#: membership matrix: token membership across all 7 languages is a
#: single probe (words like "de" belong to several languages, hence a
#: matrix, not a lang id)
_ALL_PACKS = KeySet(np.concatenate(list(_PROFILE_PACKS.values())))
_PACK_LANGS = np.zeros((len(_ALL_PACKS.keys), len(PROFILES)), bool)
for _li, _lang in enumerate(PROFILES):
    _PACK_LANGS[_ALL_PACKS.find(_PROFILE_PACKS[_lang]), _li] = True

_SAMPLE_CAP = 4000

#: script ranges as (lang, [(lo_codepoint, hi_codepoint), ...]) parsed
#: FROM the regex char classes above -- one source of truth, so the
#: vectorized path cannot drift from :meth:`LangId.classify`
def _parse_spans(pattern: str):
    inner = pattern[1:-1]
    spans, i = [], 0
    while i < len(inner):
        if i + 2 < len(inner) and inner[i + 1] == "-":
            spans.append((ord(inner[i]), ord(inner[i + 2])))
            i += 3
        else:
            spans.append((ord(inner[i]), ord(inner[i])))
            i += 1
    return spans


_SCRIPT_SPANS = [(lang, _parse_spans(rx.pattern)) for lang, rx in _SCRIPT_RANGES]

#: cache block: ~64K chars -> 256 KB utf-32 temporaries stay L2-resident
#: so 32 concurrent workers contend on cores, not DRAM bandwidth
_BLOCK_CHARS = 64 * 1024


def _token_kernel(lanes: np.ndarray, starts: np.ndarray, ends: np.ndarray, off: np.ndarray):
    """(ntok, hitmat) of letter-run tokens given as (starts, ends) over
    ``lanes``, one byte per character, with row offsets.

    Every character of a token is in ``[a-zà-ÿäöüßñç]`` -- codepoints
    97-122 and 223-255 (0xDF..0xFF contiguous) -- so it fits one byte
    lane, and a <=8-char token packs into the uint64 of its 8-byte
    window (only pure-ASCII packs can ever equal an ASCII profile
    word's pack). ``lanes`` is padded so a window can start anywhere.
    """
    n = len(off) - 1
    tok_off = np.searchsorted(starts, off)
    ntok = np.diff(tok_off)
    lens = ends - starts
    short = np.flatnonzero(lens <= 8)
    packs = windows(lanes)[starts[short]] & _WINDOW_MASK[lens[short]]
    # ONE probe against the combined profile set (np.isin would
    # re-sort the large packs array once PER LANG)
    pos = _ALL_PACKS.find(packs)
    valid = pos >= 0
    hitmat = np.zeros((n, len(_LANGS)), np.int64)
    if valid.any():
        rows_v = np.repeat(np.arange(n, dtype=np.int32), ntok)[short[valid]]
        member = _PACK_LANGS[pos[valid]]  # (matched, num_langs)
        for li in range(len(_LANGS)):
            col = member[:, li]
            if col.any():
                hitmat[:, li] = np.bincount(rows_v[col], minlength=n)
    return ntok, hitmat


def _profile_vote(ntok: np.ndarray, hitmat: np.ndarray):
    """(preds, confs) of the stopword-profile vote: argmax first-wins
    matches :meth:`LangId.classify`'s dict-order tie breaking."""
    n = len(ntok)
    best = hitmat.argmax(axis=1)
    bh = hitmat[np.arange(n), best]
    und = (bh == 0) | (ntok == 0)
    preds = np.array(_LANGS, object)[best]
    preds[und] = "und"
    return preds, np.where(und, 0.0, np.minimum(1.0, bh / np.maximum(ntok, 1) * 2))


def _ascii_langid(tb):
    """(preds, confs) by the byte path, exact for every ASCII row of a
    :class:`~engine.textstats.TextBatch`: no script range holds an ASCII
    codepoint, and the letter class of the lowered text is ``a-z``, so
    :meth:`LangId.classify` reduces to ``a-z`` runs over the lowered
    bytes of each row's first ``_SAMPLE_CAP`` bytes (= characters)."""
    runs = span_runs(lambda x: (x - np.uint8(97)) <= 25, tb.low, tb.off, cap=_SAMPLE_CAP)
    return _profile_vote(*_token_kernel(tb.low, *runs, tb.off))


def _block_langid(texts):
    """(preds, confs) for one cache block of <=4000-char samples --
    vectorized for ANY content, exactly mirroring
    :meth:`LangId.classify`:

    - script vote: per-language codepoint-range counts (one boolean
      mask + bincount per language over the block's utf-32 view), in
      declaration order with first-match-wins (``ja`` before ``zh``);
    - residual rows: lowercase ONCE (whole block string), then
      letter-run tokenization + packed profile compare.

    Raises UnicodeEncodeError on lone surrogates (caller falls back to
    the per-row path for that block only).
    """
    n = len(texts)
    joined = "".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter(map(len, texts), np.int64, n)
    off = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    nchar = np.maximum(lens, 1).astype(np.float64)

    preds = np.full(n, "und", object)
    confs = np.zeros(n, np.float64)
    decided = np.zeros(n, bool)
    top = int(cp.max()) if len(cp) else 0
    if len(cp) and top >= min(lo for _, sp in _SCRIPT_SPANS for lo, _ in sp):
        rowid = np.repeat(np.arange(n, dtype=np.int32), lens)
        for lang, spans in _SCRIPT_SPANS:
            if all(lo > top for lo, _ in spans):
                continue  # block holds no codepoint that high (ASCII fast case)
            mask = np.zeros(len(cp), bool)
            for lo, hi in spans:
                mask |= (cp >= lo) & (cp <= hi)
            idx = rowid[mask]
            if not len(idx):
                continue
            ratio = np.bincount(idx, minlength=n) / nchar
            newly = ~decided & (ratio > 0.05)
            if newly.any():
                preds[newly] = lang
                confs[newly] = np.minimum(1.0, ratio[newly] * 4)
                decided |= newly

    # lower with DuckDB/utf8proc semantics (textstats.sql_lower): the
    # lang_id oracle tokenizes lower(s), and Python str.lower diverges
    # on İ (two codepoints, loses the 'in'/'it'/'is' profile hits the
    # oracle finds in Turkish text) and Greek final sigma. utf8proc's
    # simple mapping is codepoint 1:1, so the offsets stay valid
    # (pinned over every scalar value by
    # tests/test_text_ops.py::test_arrow_utf8_lower_is_one_to_one)
    from engine.textstats import sql_lower

    cpl = np.frombuffer(sql_lower(joined).encode("utf-32-le"), dtype=np.uint32)
    letter = ((cpl >= 97) & (cpl <= 122)) | ((cpl >= 0xDF) & (cpl <= 0xFF))
    lanes = np.concatenate([cpl.astype(np.uint8), np.zeros(8, np.uint8)])
    tok_pred, tok_conf = _profile_vote(*_token_kernel(lanes, *_runs(letter, off), off))
    take = ~decided
    preds[take] = tok_pred[take]
    confs[take] = tok_conf[take]
    return preds, confs


def _vector_langid(tb):
    """(lang_pred, lang_conf) for every row of a
    :class:`~engine.textstats.TextBatch`, mirroring classify() exactly
    (parity-fuzzed). ASCII rows take the byte path
    (:func:`_ascii_langid`); only non-ASCII rows are decoded to Python
    text and go through the utf-32 blocks (:func:`_block_langid`), and
    per-row Python survives only for a block holding lone surrogates
    (unencodable to utf-32)."""
    preds, confs = _ascii_langid(tb)
    rows = np.flatnonzero(tb.nonascii)
    texts = [t[:_SAMPLE_CAP] for t in tb.arr.take(rows).to_pylist()]
    off = np.zeros(len(texts) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)), out=off[1:])
    for r0, r1 in iter_spans(off, limit=_BLOCK_CHARS):
        try:
            p, c = _block_langid(texts[r0:r1])
        except UnicodeEncodeError:
            li = _fallback_langid()
            pc_rows = [li.classify(t or "") for t in texts[r0:r1]]
            p = np.array([x[0] for x in pc_rows], object)
            c = np.array([x[1] for x in pc_rows], np.float64)
        preds[rows[r0:r1]] = p
        confs[rows[r0:r1]] = c
    return preds, confs


_FALLBACK: list = []


def _fallback_langid():
    if not _FALLBACK:
        _FALLBACK.append(LangId())
    return _FALLBACK[0]


class LangId:
    """Batch callable: one profile build per worker process (``_PROC_CACHE``)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.profiles = {lang: frozenset(words) for lang, words in PROFILES.items()}
        self.scripts = _SCRIPT_RANGES
        self.token = _TOKEN

    def classify(self, text: str):
        if not text:
            return "und", 0.0
        # script-range vote first (non-Latin scripts)
        n = min(len(text), 4000)
        sample = text[:n]
        for lang, rx in self.scripts:
            hits = len(rx.findall(sample))
            if hits / max(1, n) > 0.05:
                return lang, min(1.0, hits / max(1, n) * 4)
        from engine.textstats import sql_lower

        toks = self.token.findall(sql_lower(sample))
        if not toks:
            return "und", 0.0
        best, best_hits = "und", 0
        for lang, words in self.profiles.items():
            hits = sum(1 for t in toks if t in words)
            if hits > best_hits:
                best, best_hits = lang, hits
        if best_hits == 0:
            return "und", 0.0
        return best, min(1.0, best_hits / len(toks) * 2)

    def __call__(self, batch: pa.Table, tb: TextBatch | None = None) -> pa.Table:
        """``batch`` plus ``lang_pred``/``lang_conf``; ``tb`` is the
        batch's TextBatch when the caller already built one."""
        if tb is None:
            tb = TextBatch(batch.column(self.text_col))
        preds, conf = _vector_langid(tb)
        return with_columns(
            batch, {"lang_pred": pa.array(preds, pa.string()), "lang_conf": np.round(conf, 6)}
        )


_PROC_CACHE: dict = {}


def _langid_fn(batch: pa.Table, text_col: str = "text") -> pa.Table:
    li = _PROC_CACHE.get(text_col)
    if li is None:
        li = _PROC_CACHE[text_col] = LangId(text_col)
    return li(batch)


def lang_id(ds, text_col: str = "text", batch_size: int = 4096):
    """Elastic tasks with per-process cached profiles."""
    return ds.map_batches(
        _langid_fn, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"text_col": text_col}, batch_size=batch_size,
    )
