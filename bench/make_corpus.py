"""Regenerate the committed corpus and its golden outputs.

    python3 bench/make_corpus.py

Draws every workload's inputs from ``workloads.POOL_SEED``, writes the CLI
configs, runs each input once through the program in this checkout and
records the outputs as the golden reference that later runs are held to.
Run it only when the benchmark's inputs change on purpose: it overwrites the
golden outputs with whatever the current program prints.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import io
import json
import shutil
import sys

import workloads as wl
from workloads import CORPUS, ROOT


def golden_path(workload: str):
    return CORPUS / f"{workload}.json.gz"


def write_json_gz(path, payload) -> None:
    data = json.dumps(payload, indent=0, sort_keys=True).encode()
    path.write_bytes(gzip.compress(data, mtime=0))


def read_json_gz(path):
    return json.loads(gzip.decompress(path.read_bytes()))


def run_cli_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, stdout=out)
    return code, out.getvalue(), err.getvalue()


def make_cli_corpus(cli, workload: str, entries: list[dict]) -> list[dict]:
    folder = CORPUS / workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    manifest = []
    for entry in entries:
        (folder / f"{entry['id']}.ini").write_text(entry["text"])
        code, out, err = run_cli_in_process(cli, wl.corpus_argv(workload, entry))
        record = {k: v for k, v in entry.items() if k != "text"}
        record.update(exit=code, stdout=out, stderr_kind=err.split(":", 1)[0] if code else "")
        manifest.append(record)
    write_json_gz(golden_path(workload), manifest)
    return manifest


def make_library_corpus(et, workload: str) -> list[dict]:
    items = wl.draw_pool(workload)
    golden = []
    for item in items:
        wl.build(et, item)
        golden.append({"key": item.key, "fp": wl.fingerprint(item.desc), "out": wl.run_library_op(et, item)})
    write_json_gz(golden_path(workload), {"pool_seed": wl.POOL_SEED, "items": golden})
    return golden


def _report_cli(workload: str, manifest: list[dict]) -> list[str]:
    """Entries that produce levels must exit 0; error cases must not."""
    problems = [
        f"{workload} {rec['id']}: exit {rec['exit']} ({rec['stderr_kind']})"
        for rec in manifest
        if (rec["exit"] == 0) != (rec["levels"] > 0)
    ]
    codes = collections.Counter(rec["exit"] for rec in manifest)
    print(f"{workload}: {len(manifest)} entries, exit codes {dict(codes)}")
    return problems


def _report_library(workload: str, items: list[wl.Item], golden: list[dict]) -> list[str]:
    problems = []
    outcomes = collections.Counter()
    for item, rec in zip(items, golden):
        out = rec["out"]
        kind = out.get("error") or out.get("oracle_error") or out.get("bound", "ok")
        outcomes[kind] += 1
        if item.desc.get("expect_error") and out.get("error") != item.desc["expect_error"]:
            problems.append(f"{item.key}: expected {item.desc['expect_error']}, got {out}")
    print(f"{workload}: {len(golden)} items, outcomes {dict(outcomes)}")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import envtheory as et
    from envtheory import cli

    problems = []
    for workload, entries in (("cold-cli", wl.cold_cli_entries()), ("sweep", wl.sweep_entries())):
        problems += _report_cli(workload, make_cli_corpus(cli, workload, entries))
    for workload in ("mixed-levels", "oracle-check"):
        golden = make_library_corpus(et, workload)
        problems += _report_library(workload, wl.draw_pool(workload), golden)
    for line in problems:
        print("design problem:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
