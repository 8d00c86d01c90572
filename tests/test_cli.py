"""CLI analysis subcommands (quantiles / topk / top-terms) over a real
table. cli.main respects the pytest session's Ray."""

import json

import duckdb
import ray.data

from engine import cli
from engine.jobs import ingest
from engine.manifest import Table
from pages_fixture import synth_pages_table


def _mk_table(root) -> str:
    t = Table.create(str(root / "tbl"))
    ingest(t, ray.data.from_arrow(synth_pages_table(300)), sanitize_cols=())
    return str(root / "tbl")


def test_cli_quantiles_and_grouped(tmp_path, ray_session, capsys):
    path = _mk_table(tmp_path)
    assert cli.main(["quantiles", "--table", path, "--column", "warc_ts",
                     "--q", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "q_0.5" in out
    assert cli.main(["quantiles", "--table", path, "--column", "warc_ts",
                     "--q", "0.5", "--by", "lang"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rows and all("q_0.5" in r for r in rows)
    # oracle: per-lang discrete median over the same table
    df = Table.load(path).scan(columns=["lang", "warc_ts"]).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    want = dict(
        con.execute(
            "SELECT lang, quantile_disc(warc_ts, 0.5) FROM t GROUP BY lang"
        ).fetchall()
    )
    got = {r["lang"]: r["q_0.5"] for r in rows}
    # the CLI JSON stringifies timestamps (default=str): compare values
    # through the same rendering, not just the key set
    assert got == {k: str(v) for k, v in want.items()}


def test_cli_topk_global_and_grouped(tmp_path, ray_session, capsys):
    path = _mk_table(tmp_path)
    assert cli.main(["topk", "--table", path, "--order", "warc_ts",
                     "--k", "3", "--tie", "url"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(rows) == 3
    assert cli.main(["topk", "--table", path, "--order", "warc_ts",
                     "--k", "2", "--by", "lang", "--tie", "url"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    langs = {r["lang"] for r in rows}
    assert len(rows) <= 2 * len(langs) and len(langs) > 1


def test_cli_top_terms(tmp_path, ray_session, capsys):
    path = _mk_table(tmp_path)
    assert cli.main(["top-terms", "--table", path, "--k", "2"]) == 0
    rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rows and all({"lang", "term", "n"} <= set(r) for r in rows)


def test_cli_scan_reports_dead_letters(tmp_path, ray_session, capsys):
    # round-4 VERDICT #8: quarantine counts are a first-class manifest
    # stat that survives commit and is queryable via `engine scan`
    path = _mk_table(tmp_path)
    t = Table.load(path)
    t.commit("quarantine-test", add_files=[], dead_letter_records=7)
    # reload from disk: the stat must round-trip through the header
    t2 = Table.load(path)
    assert t2.snapshot().dead_letter_records == 7
    counts = t2.dead_letter_counts()
    assert counts[t2.current_snapshot_id()] == 7
    assert sum(counts.values()) == 7

    assert cli.main(["scan", "--table", path, "--limit", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["dead_letters"] == 7
    assert out["dead_letters_total"] == 7


def test_cli_ingest_csv_quarantine_lands_in_manifest(tmp_path, ray_session, capsys):
    good = tmp_path / "good.csv"
    good.write_text("url,lang\na,en\nb,de\n")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00\x01\x02 not a csv")
    assert cli.main([
        "ingest-csv", "--table", str(tmp_path / "tbl2"),
        "--input", str(good), str(bad),
    ]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    t = Table.load(str(tmp_path / "tbl2"))
    # however the bad file was classified (rejected or decode error),
    # the manifest carries it as a dead letter
    assert t.snapshot().dead_letter_records == len(out["rejected"]) + len(out["quarantined"]) >= 1


def test_cli_reindex_ivf(tmp_path, ray_session, capsys):
    import numpy as np
    import pyarrow as pa

    from engine.similarity import build_ivf_index
    from engine.writer import write_files

    rng = np.random.default_rng(3)
    m = rng.standard_normal((120, 8)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(120), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m], pa.list_(pa.float32())),
    })
    root = str(tmp_path / "ivf")
    table, _ = build_ivf_index(ray.data.from_arrow(t), root, n_centroids=4, rows_per_file=40)
    up = pa.table({
        "vec_id": pa.array([900], pa.int64()),
        "embedding": pa.array([[1.0] * 8], pa.list_(pa.float32())),
        "__list": pa.array([0], pa.int64()),
    })
    entries = write_files(ray.data.from_arrow(up), table.data_dir, prefix="up", stats_cols=("vec_id",))
    table.commit("merge", add_files=entries)

    assert cli.main(["reindex", "--table", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["files_checked"] >= 1
    assert out["rows_rewritten"] >= 1 or out["files_rewritten"] >= 1
    # idempotent second run
    assert cli.main(["reindex", "--table", root]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["files_rewritten"] == 0


def test_cli_history_lists_snapshots(tmp_path, ray_session, capsys):
    path = _mk_table(tmp_path)
    t = Table.load(path)
    t.commit("quarantine-x", add_files=[], dead_letter_records=3)
    assert cli.main(["history", "--table", path]) == 0
    hist = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [h["operation"] for h in hist][:1] == ["create"]
    assert hist[-1]["operation"] == "quarantine-x"
    assert hist[-1]["dead_letters"] == 3
    assert all("rows" in h and "files" in h for h in hist)
