"""Text analysis stages: stats/quality, langid, fingerprinting, and HTML
extraction over the binary ``html`` column."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import re
import ray.data

from engine.fingerprint import fingerprint64, fingerprint_stage, rolling_hashes, winnow
from engine.dedup import simhash_texts
from engine.langid import _SAMPLE_CAP, LangId, lang_id
from engine.multimodal import decode_html, html_to_text_batch
from engine.textstats import TextBatch, TextStats, text_stats


# --- textstats -------------------------------------------------------------

def test_textstats_counts():
    st = TextStats()
    df = st(pa.table({"text": pa.array(["the cat sat on the mat!", "", None, "a b-c 12.5"])})).to_pandas()
    assert df.n_tokens.tolist() == [6, 0, 0, 3]
    assert df.n_chars.tolist() == [23, 0, 0, 10]
    # words: the|cat|sat|on|the|mat|! -> 7 ; a|b|-|c|12|.|5 -> 7
    assert df.n_words.tolist() == [7, 0, 0, 7]
    assert df.loc[0, "stop_ratio"] == pytest.approx(3 / 6)  # 'the' x2 + 'on'
    assert df.loc[1, "alpha_ratio"] == 0.0
    assert ((df.quality >= 0) & (df.quality <= 1)).all()


def test_textstats_stage_runs(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = text_stats(ds).to_pandas()
    assert {"n_tokens", "alpha_ratio", "quality"} <= set(out.columns)
    assert len(out) == 500
    assert (out.n_tokens > 0).all()


# --- langid ----------------------------------------------------------------

def test_langid_obvious_cases():
    li = LangId()
    assert li.classify("the cat is on the mat and it is warm")[0] == "en"
    assert li.classify("el gato está en la casa y no se mueve de la silla")[0] == "es"
    assert li.classify("der Hund ist in dem Haus und die Katze auf dem Dach")[0] == "de"
    assert li.classify("这是一个中文句子，用来测试语言识别。")[0] == "zh"
    assert li.classify("Это русский текст для проверки")[0] == "ru"
    assert li.classify("")[0] == "und"
    assert li.classify("12345 67890 !!!")[0] == "und"


def test_langid_stage_deterministic(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    a = lang_id(ds).to_pandas().sort_values("doc_id").lang_pred.tolist()
    b = lang_id(ds).to_pandas().sort_values("doc_id").lang_pred.tolist()
    assert a == b


# --- fingerprinting --------------------------------------------------------

def test_rolling_hashes_shift_invariant():
    h1 = rolling_hashes("abcdefgh", 3)
    h2 = rolling_hashes("xxabcdefgh", 3)
    # shared grams hash identically regardless of position
    assert set(h1).issubset(set(h2))
    assert len(h1) == len("abcdefgh") - 2


def test_winnow_selects_window_minima():
    h = np.array([9, 3, 7, 5, 1, 8, 2], dtype=np.uint64)
    fp = winnow(h, w=3)
    # windows: [9,3,7]->3 [3,7,5]->3 [7,5,1]->1 [5,1,8]->1 [1,8,2]->1
    assert set(fp.tolist()) == {3, 1}


def test_fingerprint64_robust_and_sensitive():
    base = "the quick brown fox jumps over the lazy dog " * 4
    assert fingerprint64(base) == fingerprint64(base)
    assert fingerprint64(base) != fingerprint64(base.replace("quick", "slow"))
    assert fingerprint64("") == 0


def test_fingerprint_stage(ray_session, sf_dir):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = fingerprint_stage(ds).to_pandas()
    assert len(out) == 500 and out.fingerprint.nunique() > 490


# --- HTML extraction -------------------------------------------------------

def test_html_to_text_strips_and_quarantines():
    t = pa.table(
        {
            "html": pa.array(
                [b"<html><body>Hello &amp; <b>world</b></body></html>", b"\xff\xfe bad", None],
                pa.binary(),
            )
        }
    )
    out = html_to_text_batch(t)
    assert out.column("extracted_text").to_pylist() == ["Hello & world", None, None]
    errs = out.column("decode_error").to_pylist()
    assert errs[0] is None and errs[1] and errs[2] == "null payload"


def test_decode_html_on_pages(ray_session, sf_dir):
    from engine.pages import read_pages

    out = decode_html(read_pages(sf_dir)).to_pandas()
    ok = out[out.decode_error.isna()]
    # pages html wraps text: extraction round-trips the text column
    assert (ok.extracted_text == ok.text.str.replace(r"\s+", " ", regex=True).str.strip()).all()


def test_textstats_ascii_fast_path_parity():
    # the numpy byte kernel must match the regex path EXACTLY on every
    # count of an ASCII row (it feeds hard oracles token_stats/quality_ratios)
    import numpy as np
    import pandas as pd

    from engine.textstats import TextStats, _byte_counts

    ts = TextStats()
    cases = ["", " ", "the", " the ", "the the", "The.", "a a a a", "  ",
             "THE OF AND", "have\tfrom\nor", "\v\f\r", "xto tox", "w" * 5,
             "this is a test of the stopword packer", "a-b_c", "12 34", "...",
             # ASCII separator controls \x1c-\x1f are Python-\s
             # whitespace: they must split tokens on BOTH paths
             "a\x1cb", "the\x1dof", "\x1e\x1f", "x\x1c the"]
    rng = np.random.default_rng(7)
    alphabet = list("abcdefgh THEOFand.,;!?0123456789\t\n\x1c\x1f")
    for _ in range(300):
        cases.append("".join(rng.choice(alphabet, rng.integers(0, 60))))
    cases.append("the " * 50000)  # oversized single-row span, sums > int16
    cases.append("a" * 140000)  # oversized all-alpha row
    cases += ["", ""]  # trailing empty rows: the reduceat sentinel edge
    s = pa.array(cases, pa.string())
    fast = _byte_counts(TextBatch(s))
    ref = ts.regex_counts(s)
    for name, f, r in zip(
        ["n_chars", "n_tokens", "n_words", "n_alpha", "n_punct", "n_stop"], fast, ref
    ):
        assert (np.asarray(f) == r).all(), name


#: every multi-byte codepoint of PY_WS_RE2 (Python ``\s`` above ASCII)
_WIDE_WS = ["\x85", "\xa0", "\u1680", *map(chr, range(0x2000, 0x200B)),
            "\u2028", "\u2029", "\u202f", "\u205f", "\u3000"]


def _mixed_batch(rng, n):
    """ASCII rows interleaved with rows holding non-ASCII whitespace,
    case-mapping traps (İ and Kelvin K lower to ASCII letters), CJK
    glued to stopwords, NUL bytes, and empty / NULL rows."""
    words = ["the", "of", "and", "a", "to", "is", "it", "in", "THE", "Is",
             "x", "ok", "42", "...", "a\x00", "\x00", "the\x00of"]
    wide = ["İ", "İt", "İS", "\u212a", "\u212ao", "中文", "the中文", "中文of",
            "中the文", "é", "naïve", "\x00中"] + _WIDE_WS
    seps = [" ", "\t", "\n", "\x1c", ""]
    rows = []
    for _ in range(n):
        kind = rng.integers(0, 10)
        if kind == 0:
            rows.append(None if rng.integers(0, 2) else "")
            continue
        pool, glue_pool = (words + wide, seps + _WIDE_WS) if kind < 5 else (words, seps)
        k = int(rng.integers(1, 12))
        toks = [pool[j] for j in rng.integers(0, len(pool), k)]
        glue = [glue_pool[j] for j in rng.integers(0, len(glue_pool), k)]
        rows.append("".join(t + g for t, g in zip(toks, glue)))
    return rows


def test_textstats_mixed_batch_matches_regex_path():
    # a batch mixing ASCII and non-ASCII rows takes the byte kernels for
    # the ASCII rows and the unicode paths for the rest; every row must
    # get what the per-row reference gives it: text stats equal the
    # all-regex path (every count + quality), langid equals
    # LangId.classify and simhash equals a batch of that row alone.
    # Rows longer than the langid sample cap hold a letter run that
    # crosses it: 'dezzz' is cut to the profile word 'de' there, and the
    # words past the cap do not count.
    import numpy as np

    from engine.textstats import TextStats, _byte_counts

    rows = _mixed_batch(np.random.default_rng(11), 3000)
    rows += _WIDE_WS + ["the" + w + "of" for w in _WIDE_WS]
    rows += ["İt İS the", "\u212a the", "the中文 of 中文", "the\x00 of", None, ""]
    rows += [" " * (_SAMPLE_CAP - 2) + "dezzz the of",        # ASCII, cut
             "é" + " " * (_SAMPLE_CAP - 3) + "dezzz the of",  # non-ASCII, cut
             "the " * 1200 + "de la que", "ü" + "the " * 1200]
    tbl = pa.table({"text": pa.array(rows, pa.string()), "id": range(len(rows))})
    tb = TextBatch(tbl.column("text"))
    nonascii = np.array([any(ord(c) >= 0x80 for c in (t or "")) for t in rows])
    assert 0 < nonascii.sum() < len(rows)
    assert (tb.nonascii == nonascii).all()

    ts, ref_stage = TextStats(), TextStats()
    ref_stage.counts = lambda tb: ref_stage.regex_counts(tb.arr)  # the pure regex path
    for name, a, r in zip(
        ["n_chars", "n_tokens", "n_words", "n_alpha", "n_punct", "n_stop"],
        ts.counts(tb), ref_stage.regex_counts(tb.arr),
    ):
        assert (a == r).all(), name
    exp = ref_stage(tbl)
    assert ts(tbl).equals(exp)
    # the byte kernel alone miscounts the non-ASCII rows, so the
    # equality above is not vacuous
    raw = _byte_counts(tb)
    assert (raw[0][nonascii] != exp["n_chars"].to_numpy()[nonascii]).any()

    # all-ASCII, all-non-ASCII and empty batches take one path each
    for part in (tbl.filter(pa.array(~nonascii)), tbl.filter(pa.array(nonascii)), tbl.slice(0, 0)):
        assert ts(part).equals(ref_stage(part))

    li = LangId()
    got = li(tbl)
    preds, confs = got["lang_pred"].to_pylist(), got["lang_conf"].to_pylist()
    for i, t in enumerate(rows):
        p, c = li.classify(t or "")
        assert preds[i] == p and confs[i] == round(c, 6), (i, (t or "")[:40], preds[i], p)
    assert preds[-4:] == ["es", "es", "en", "en"]  # "de" is es first in dict order

    sig = simhash_texts(tbl.column("text"))
    assert sig.tolist() == [int(simhash_texts([t])[0]) for t in rows]


def test_textstats_row_counts_independent_of_batch():
    # a row's counts must not depend on what else shares its batch:
    # each row alone equals the same row inside a mixed batch
    import numpy as np
    import pandas as pd

    from engine.textstats import TextStats

    rows = _mixed_batch(np.random.default_rng(12), 300)
    tbl = pa.table({"text": pa.array(rows, pa.string())})
    ts = TextStats()
    batch = ts(tbl).to_pandas()
    cols = ["n_chars", "n_tokens", "n_words", "alpha_ratio", "punct_ratio",
            "stop_ratio", "quality"]
    alone = pd.concat([ts(tbl.slice(i, 1)).to_pandas() for i in range(len(rows))], ignore_index=True)
    assert batch[cols].equals(alone[cols])


def test_string_buffer_keeps_non_ascii_bytes():
    import pandas as pd

    from engine.textstats import string_buffer

    b, off = string_buffer(pa.array(["héllo", None, "a"]))
    assert bytes(b) == "héllo".encode() + b"a"
    assert off.tolist() == [0, 6, 6, 7]


def test_langid_vectorized_parity():
    # the default-on vectorized path must match classify() exactly for
    # ANY content -- ASCII, accents, CJK, Cyrillic, mixed-script, the
    # 4000-char sample cap, İ (U+0130, which str.lower expands 1->2;
    # the SQL lower keeps it one codepoint) (lang_id is a hard oracle;
    # ties break by profile dict order)
    import numpy as np
    import pandas as pd

    from engine.langid import PROFILES, LangId, _vector_langid

    li = LangId()
    pool = [w for ws in PROFILES.values() for w in ws] + [
        "zzz", "quux", "x", "12", "...", "verylongtokenhere",
        "café", "señor", "straße", "Ärger", "naïve",
    ]
    rng = np.random.default_rng(3)
    cases = [
        "", " ", "the the the", "de la que el", "der die und",
        "これは日本語のテキストです。",          # kana -> ja
        "这是一段中文文本，用来测试。",            # han  -> zh
        "한국어 텍스트 샘플입니다",               # hangul -> ko
        "это русский текст для проверки",      # cyrillic -> ru
        "هذا نص عربي للاختبار",                 # arabic -> ar
        "αυτό είναι ελληνικό κείμενο",          # greek -> el
        "日本語 mixed with the english text",    # mixed below 5% -> latin
        "汉" + "x" * 100,                        # han below threshold
        "élan à la ça väl öl für",              # accented latin only
        "İstanbul İÇİNDE İ İ İ",                 # U+0130: lower() expands 1->2
        "\U0001F600 emoji the of and to a in",   # non-BMP
    ]
    for _ in range(300):
        cases.append(" ".join(rng.choice(pool, rng.integers(0, 30))))
    cases.append(("the " * 1500) + ("de la " * 500))  # 4000-char sample cap
    cases.append("x" * 5000)
    cases.append("語" * 300 + " the of and" * 10)     # script + latin tail
    preds, confs = _vector_langid(TextBatch(pa.array(cases, pa.string())))
    for i, t in enumerate(cases):
        rp, rc = li.classify(t or "")
        assert preds[i] == rp, (i, t[:40], preds[i], rp)
        assert abs(confs[i] - rc) < 1e-12, (i, t[:40], confs[i], rc)


def test_arrow_utf8_lower_is_one_to_one():
    # langid's utf-32 path lowers a whole block string at once and keeps
    # the row offsets of the original: that is only sound while Arrow's
    # utf8_lower maps every Unicode scalar value to exactly ONE
    # codepoint. An Arrow upgrade that breaks it must fail here, not
    # silently misalign the offsets.
    import pyarrow.compute as pc

    from engine.textstats import sql_lower

    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    assert len(chars) == 1_112_064
    low = pc.utf8_lower(pa.array(chars, pa.string()))
    assert pc.all(pc.equal(pc.utf8_length(low), 1)).as_py()
    assert len(sql_lower("".join(chars))) == len(chars)


def test_fingerprint_oracle_sql_parity(ray_session, sf_dir):
    # the DuckDB oracle in __ray_entry__.oracle_sql()["fingerprint"] is
    # an independent SQL re-derivation of winnowing (HUGEINT mod-2^64
    # recurrence); it must agree with the Ray stage on the real corpus
    # AND on adversarial edge docs (empty, shorter than k, len(h)<=w,
    # non-ASCII multi-byte, ties in windows)
    import duckdb
    import numpy as np

    import __ray_entry__ as entry

    sql = entry.oracle_sql()["fingerprint"]
    edge = pa.table(
        {
            "doc_id": pa.array(np.arange(9000, 9008), pa.int64()),
            "text": pa.array(
                ["", "abc", "abcd", "abcde", "abcdefg", "aaaaaaaaaaaa",
                 "héllo wörld ünïcode", "日本語のテキスト"]
            ),
        }
    )
    con = duckdb.connect()
    con.register("edge", edge)
    con.sql(f"CREATE VIEW documents AS SELECT doc_id, text FROM '{sf_dir}/documents.parquet' UNION ALL SELECT * FROM edge")
    oracle = con.sql(sql).df().sort_values("doc_id").reset_index(drop=True)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).union(
        ray.data.from_arrow(edge)
    )
    got = fingerprint_stage(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (got.doc_id.to_numpy() == oracle.doc_id.to_numpy()).all()
    assert (got.fingerprint.to_numpy().astype(np.uint64) == oracle.fingerprint.to_numpy().astype(np.uint64)).all()
    assert (got.n_grams.to_numpy() == oracle.n_grams.to_numpy()).all()


def test_per_row_int32_accumulator_exact_past_float32_cap():
    # round-4 regression: the reduceat accumulator is an explicit int32
    # over uint8 input. The retired float32 path lost exactness at 2^24
    # ones per segment and the code switched implementations at
    # len(mask) >= 2^24; assert the single unconditional path is exact
    # ACROSS that old boundary and at a segment sum above 2^24.
    import numpy as np

    from engine.textstats import _per_row

    big = (1 << 24) + 3  # one row's span crosses the old cap
    mask = np.ones(big + 7, dtype=bool)
    mask[big:] = False
    off = np.array([0, big, big, big + 7], dtype=np.int64)  # empty middle row
    r = _per_row(mask, off, 3)
    assert r.tolist() == [big, 0, 0]
    # 2^24 + 1 ones: float32 accumulation would have returned 2^24
    off2 = np.array([0, big], dtype=np.int64)
    assert _per_row(np.ones(big, dtype=bool), off2, 1)[0] == big


def test_redact_duckdb_parity_and_order(ray_session):
    """engine.redact == nested DuckDB regexp_replace over the same
    literal patterns; order pinned (email before phone, url before ip);
    URL terminates at unicode whitespace (Python-\\s, not RE2 \\s)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from engine.redact import oracle_expr, redact_array

    texts = [
        None,
        "",
        "write to bob.smith+x@ex-ample.co.uk now",
        "see https://ex.com/a?b=1#c　next and http://10.0.0.1/x",
        "ip 192.168.1.255 port",
        "call +1 (555) 123-4567 or 555.123.4567",
        "a@b.c",  # 1-char TLD: not an email
        "mixed user@host.org visits http://host.org/p?e=user@host.org",
    ]
    got = redact_array(pa.array(texts, type=pa.string())).to_pylist()
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"text": texts}))
    want = [
        r[0] for r in con.execute(f"SELECT {oracle_expr('text')} FROM t").fetchall()
    ]
    assert got == want
    assert got[3] == "see <URL>　next and <URL>"  # no bare <IP> inside a URL
    assert got[5] == "call <PHONE> or <PHONE>"
    assert got[6] == "a@b.c"


def test_redact_dataset_stage(ray_session):
    import pandas as pd
    import ray.data

    from engine.redact import redact_text

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["x a@bb.co y", None]})
    out = redact_text(ray.data.from_pandas(df)).to_pandas()
    assert out.redacted.tolist() == ["x <EMAIL> y", ""]


def test_top_terms_per_lang_duckdb_parity(ray_session):
    """engine.terms == SQL tokenize/count/rank on a fixture with NULL
    text/lang, unicode uppercase, CJK, unicode whitespace boundaries,
    stopwords, and ties."""
    import duckdb
    import pandas as pd
    import ray.data

    from engine.terms import top_terms_per_lang
    from engine.textstats import STOPWORDS

    texts = [
        None,
        "",
        "Hello WORLD hello\tworld  foo",
        "the of and a to in is foo bar foo",
        "北京 北京 écran Écran",
        "mixed tokens　here mixed",
        "x " * 50 + "y",
    ]
    langs = ["en", "en", "en", None, "zh", "fr", "fr"]
    df = pd.DataFrame(
        {"text": texts * 30, "lang": langs * 30, "doc_id": range(len(texts) * 30)}
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = top_terms_per_lang(ds, k=3).to_pandas()
    from engine.textstats import PY_WS_RE2 as pys
    stop = ", ".join(f"'{w}'" for w in STOPWORDS)
    con = duckdb.connect()
    con.register("documents", df)
    want = con.execute(
        f"""
        WITH toks AS (
          SELECT lang, unnest(regexp_extract_all(lower(coalesce(text,'')),
                 '[^{pys}]+')) AS term FROM documents
        ), counts AS (
          SELECT lang, term, count(*) AS n FROM toks
          WHERE term NOT IN ({stop}) GROUP BY lang, term)
        SELECT lang, term, n FROM (
          SELECT *, row_number() OVER (PARTITION BY lang ORDER BY n DESC, term) rn
          FROM counts) WHERE rn <= 3"""
    ).fetchdf()

    def norm(d):
        d = d[sorted(d.columns)].copy()
        return d.sort_values(list(d.columns), na_position="first").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)


def test_sql_lower_surrogate_and_capacity_tolerance():
    """sql_lower must TOLERATE lone surrogates (str.lower fallback),
    not crash -- it sits inside the per-row fallbacks langid/minhash
    route surrogate-bearing rows to (review finding)."""
    from engine.textstats import sql_lower, sql_lower_list

    s = "AbC \ud800 İstanbul"
    assert sql_lower(s) == s.lower()  # surrogate: Python fallback
    assert sql_lower("İT") == "it"    # normal path: utf8proc
    out = sql_lower_list(["OK", None, "A\ud800B"])
    assert out == ["ok", "", "a\ud800b"]


def test_langid_classify_tolerates_lone_surrogate(ray_session):
    """LangId.classify (the surrogate fallback path of the vectorized
    langid) must not raise on surrogate-bearing text."""
    from engine.langid import LangId

    li = LangId()
    lang, conf = li.classify("the of and a to in is \ud800 you that it")
    assert lang == "en"


def test_trigram_entropy_matches_reference():
    from collections import Counter
    from math import log2

    from engine.textstats import trigram_entropy

    def ref(t):
        t = t if isinstance(t, str) else ""
        if len(t) < 3:
            return 0.0
        c = Counter(t[j : j + 3] for j in range(len(t) - 2))
        tot = sum(c.values())
        return log2(tot) - sum(v * log2(v) for v in c.values()) / tot

    texts = [
        "", None, "ab", "abc", "aaaa", "abcabcabc",
        "the quick brown fox jumps over the lazy dog",
        "日本語のテキストです",       # non-ASCII codepoints pack exactly
        "𝔘nicode 𝔞stral ch𝔞rs",      # astral plane < 2^21: no collision
        "aaaaaaaaab", "x" * 1000,
        "".join(chr(33 + (i * 7) % 90) for i in range(500)),
    ]
    got = trigram_entropy(texts)
    want = np.array([ref(t) for t in texts])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # uniform-random-ish text scores high, constant text scores 0
    assert got[10] == 0.0 and got[11] > 5.0
    # surrogate-bearing batch degrades to the scalar path, same values
    bad = trigram_entropy(["abcab", "x\ud800yz w"])
    assert abs(bad[0] - ref("abcab")) < 1e-12


def test_add_trigram_entropy_stage(ray_session):
    import pyarrow as pa
    import ray.data

    from engine.textstats import add_trigram_entropy

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["abcabcabc", None], pa.string())})
    out = add_trigram_entropy(ray.data.from_arrow(t)).to_pandas()
    assert list(out.columns) == ["doc_id", "text", "entropy"]
    assert out.loc[out.doc_id == 2, "entropy"].iloc[0] == 0.0


def test_repetition_stats_match_reference():
    from collections import Counter

    from engine.textstats import repetition_stats, sql_lower_list

    def ref(t):
        t = t if isinstance(t, str) else ""
        lines = t.split("\n")
        dlf = 1.0 - len(set(lines)) / len(lines)
        toks = re.findall(r"\S+", sql_lower_list([t])[0])
        if len(toks) < 2:
            return dlf, 0.0
        c = Counter(zip(toks, toks[1:]))
        return dlf, max(c.values()) / (len(toks) - 1)

    texts = [
        "a\na\nb",                      # 1/3 dup lines
        "menu\nmenu\nmenu\nmenu",       # 3/4 dup lines
        "", None, "one",                # degenerate: 0.0 / 0.0
        "x y x y x y",                  # top bigram 'x y' = 3/5
        "spam spam spam spam",          # 'spam spam' = 3/3
        "a b c d e f",                  # all distinct = 1/5
        "İ İ İ",                        # unicode lower through sql_lower
        "line\n\nline\n",               # empty lines count as lines
    ]
    dl, tb = repetition_stats(texts)
    for i, t in enumerate(texts):
        rdl, rtb = ref(t)
        assert abs(dl[i] - rdl) < 1e-12, (i, dl[i], rdl)
        assert abs(tb[i] - rtb) < 1e-12, (i, tb[i], rtb)


def test_add_repetition_stats_stage(ray_session):
    import pyarrow as pa
    import ray.data

    from engine.textstats import add_repetition_stats

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["x y x y x y", None], pa.string())})
    out = add_repetition_stats(ray.data.from_arrow(t)).to_pandas()
    assert abs(out.loc[0, "top_bigram_share"] - 0.6) < 1e-12
    assert out.loc[1, "dup_line_frac"] == 0.0
