"""Independent expected state for the benchmark's correctness checks.

:class:`LwwOracle` restates the engine's MERGE contract in DuckDB SQL
over the raw input rows: one row per non-empty url, ``warc_ts`` is the
newest, every other column takes its newest non-empty value (else the
oldest row's value), NULL/empty urls pass through unmerged. Text is
sanitized first, as ingest does: trim CPython's ``str.strip`` whitespace
set, then prefix ``'`` to a leading ``= + - @``. Folding a batch into
the already-folded state equals folding every row at once only when the
batch is newer than every row before it (a folded row keeps the newest
``warc_ts``, not the age of each value it kept), so :meth:`LwwOracle.add`
refuses an older batch.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

#: CPython's ``str.strip()`` set, derived here rather than imported
PY_WHITESPACE = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
PAGE_COLS = ["url", "warc_ts", "text", "lang", "html"]


def _sql_str(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


SANITIZED_TEXT = f"""
CASE WHEN regexp_matches(trim(coalesce(text, ''), {_sql_str(PY_WHITESPACE)}), '^[=+@-]')
     THEN '''' || trim(coalesce(text, ''), {_sql_str(PY_WHITESPACE)})
     ELSE trim(coalesce(text, ''), {_sql_str(PY_WHITESPACE)}) END
"""

_FOLD = """
SELECT url,
       max(warc_ts) AS warc_ts,
       coalesce(arg_max(text, warc_ts) FILTER (WHERE text <> ''), arg_min(text, warc_ts)) AS text,
       coalesce(arg_max(lang, warc_ts) FILTER (WHERE lang <> ''), arg_min(lang, warc_ts)) AS lang,
       coalesce(arg_max(html, warc_ts) FILTER (WHERE octet_length(html) > 0),
                arg_min(html, warc_ts)) AS html
FROM rows WHERE url IS NOT NULL AND url <> '' GROUP BY url
UNION ALL
SELECT url, warc_ts, text, lang, html FROM rows WHERE url IS NULL OR url = ''
"""


class LwwOracle:
    """Expected table contents after LWW-merging every row added."""

    def __init__(self):
        self.con = duckdb.connect()
        self.con.execute("SET threads TO 1")
        self.con.execute(
            "CREATE TABLE expected (url VARCHAR, warc_ts TIMESTAMP, text VARCHAR, "
            "lang VARCHAR, html BLOB)"
        )

    def add(self, pages: pa.Table) -> None:
        self.con.register("batch", pages.select(PAGE_COLS))
        newest, oldest = self.con.execute(
            "SELECT (SELECT max(warc_ts) FROM expected), (SELECT min(warc_ts) FROM batch)"
        ).fetchone()
        if newest is not None and oldest is not None and oldest <= newest:
            self.con.unregister("batch")
            raise ValueError(f"oracle batch starts at {oldest}, not after {newest}")
        self.con.execute(
            f"""
            CREATE OR REPLACE TABLE expected AS
            WITH rows AS (
              SELECT url, warc_ts, text, lang, html FROM expected
              UNION ALL
              SELECT url, warc_ts, {SANITIZED_TEXT} AS text, lang, html FROM batch
            ) {_FOLD}
            """
        )
        self.con.unregister("batch")

    def count(self, lang: str | None = None) -> int:
        if lang is None:
            return self.con.execute("SELECT count(*) FROM expected").fetchone()[0]
        return self.con.execute(
            "SELECT count(*) FROM expected WHERE lang = ?", [lang]
        ).fetchone()[0]

    def newest(self, url: str):
        """(warc_ts in us, text) expected for ``url``, or None."""
        row = self.con.execute(
            "SELECT epoch_us(warc_ts), text FROM expected WHERE url = ?", [url]
        ).fetchone()
        return None if row is None else (row[0], row[1])

    def mismatches(self, got: pa.Table) -> int:
        """Rows in ``got`` or expected but not both (multiset difference)."""
        self.con.register("got", got.select(PAGE_COLS))
        n = self.con.execute(
            """
            SELECT (SELECT count(*) FROM (SELECT url, warc_ts, text, lang, html FROM got
                                          EXCEPT ALL SELECT * FROM expected))
                 + (SELECT count(*) FROM (SELECT * FROM expected
                                          EXCEPT ALL SELECT url, warc_ts, text, lang, html FROM got))
            """
        ).fetchone()[0]
        self.con.unregister("got")
        return n

    def close(self) -> None:
        self.con.close()
