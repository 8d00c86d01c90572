"""Full driver-style oracle sweep: run every ``queries()`` entry against
its ``oracle_sql()`` in DuckDB at a given sf dir and report per-query
rows/schema/value agreement (the driver's CORRECTNESS gate, locally).

Usage: python BENCH/oracle_sweep.py [sf_dir] [query ...]
Owns its Ray session (scripts only -- see CLAUDE.md), sized to the
host's CPU count; ``RAY_GRAFT_CPUS`` overrides it.
"""

from __future__ import annotations

import json
import os
import sys

import duckdb
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(2)
    return df.sort_values(list(df.columns), na_position="first").reset_index(
        drop=True
    )


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1),
            include_dashboard=False,
        )
    import __ray_entry__ as entry

    qs, oracles = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    results, bad = {}, []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = fn(sf_dir)
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas()
            if name not in oracles:
                results[name] = {"err": "no_oracle", "rows": len(got)}
                continue
            want = con.execute(oracles[name]).fetchdf()
            g, w = _normalize(got), _normalize(want)
            entry_res = {
                "rows_match": len(g) == len(w),
                "schema_match": list(g.columns) == list(w.columns),
            }
            if entry_res["rows_match"] and entry_res["schema_match"]:
                try:
                    pd.testing.assert_frame_equal(
                        g, w, check_dtype=False, check_exact=False,
                        rtol=0, atol=5e-3,
                    )
                    entry_res["hash_match"] = True
                except AssertionError as e:
                    entry_res["hash_match"] = False
                    entry_res["err"] = str(e).splitlines()[0][:200]
            else:
                entry_res["hash_match"] = False
                entry_res["err"] = (
                    f"rows {len(g)} vs {len(w)}; "
                    f"cols {list(g.columns)} vs {list(w.columns)}"
                )
            results[name] = entry_res
            if not entry_res["hash_match"]:
                bad.append(name)
        except Exception as e:  # noqa: BLE001 - sweep must not stop
            results[name] = {"err": f"{type(e).__name__}: {e}"[:300]}
            bad.append(name)
        ok = results[name].get("hash_match")
        print(f"{name}: {'OK' if ok else results[name]}", flush=True)
    n_ok = sum(1 for r in results.values() if r.get("hash_match"))
    print(json.dumps({"ok": n_ok, "total": len(results), "bad": bad}))
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
