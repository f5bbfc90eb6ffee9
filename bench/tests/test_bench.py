"""Tests of the benchmark itself: generators, checker, tracing and output.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import make_corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

LIBRARY = ("mixed-levels", "oracle-check")


def _descs(items):
    return [(item.key, item.desc) for item in items]


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("workload", LIBRARY)
def test_library_generator_repeats_for_a_seed(workload):
    assert _descs(wl.draw_pool(workload, [0, 3])) == _descs(wl.draw_pool(workload, [0, 3]))
    other = wl.draw_pool(workload, [0], seed=wl.POOL_SEED + 1)
    assert _descs(other) != _descs(wl.draw_pool(workload, [0]))


@pytest.mark.parametrize("workload", LIBRARY)
def test_any_round_subset_matches_the_full_pool(workload):
    full = {item.key: item.desc for item in wl.draw_pool(workload)}
    for item in wl.draw_pool(workload, [4, 1]):
        assert full[item.key] == item.desc


def test_cli_generators_repeat_for_a_seed():
    assert wl.cold_cli_entries() == wl.cold_cli_entries()
    assert wl.sweep_entries() == wl.sweep_entries()
    assert wl.cold_cli_entries(seed=1) != wl.cold_cli_entries()


def test_run_order_depends_only_on_the_seed():
    assert wl.run_order(240, 5) == wl.run_order(240, 5)
    assert wl.run_order(240, 5) != wl.run_order(240, 6)
    items = list(range(50))
    assert wl.shuffled(items, 5, 2) == wl.shuffled(items, 5, 2)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_inputs_repeat_for_a_seed(workload):
    first = run.WORKLOAD_TYPES[workload](workload, 11)
    second = run.WORKLOAD_TYPES[workload](workload, 11)
    assert [[i.key for i in rd] for rd in first.rounds] == [[i.key for i in rd] for rd in second.rounds]
    third = run.WORKLOAD_TYPES[workload](workload, 12)
    assert [[i.key for i in rd] for rd in first.rounds] != [[i.key for i in rd] for rd in third.rounds]


def test_committed_corpus_matches_the_generators():
    for workload, entries in (("cold-cli", wl.cold_cli_entries()), ("sweep", wl.sweep_entries())):
        manifest = make_corpus.read_json_gz(make_corpus.golden_path(workload))
        assert [rec["id"] for rec in manifest] == [e["id"] for e in entries]
        for rec, entry in zip(manifest, entries):
            assert (wl.CORPUS / workload / f"{entry['id']}.ini").read_text() == entry["text"]
            assert rec["extra"] == entry["extra"] and rec["levels"] == entry["levels"]
    for workload in LIBRARY:
        golden = make_corpus.read_json_gz(make_corpus.golden_path(workload))["items"]
        drawn = [(item.key, wl.fingerprint(item.desc)) for item in wl.draw_pool(workload)]
        assert drawn == [(rec["key"], rec["fp"]) for rec in golden]


# -- checker ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed():
    return run.LibraryWorkload("mixed-levels", 11)


def _first(workload, predicate):
    return next(item for rd in workload.rounds for item in rd if predicate(item, workload.golden[item.key]))


def test_checker_flags_a_perturbed_energy(mixed):
    item = _first(mixed, lambda i, g: "E" in g and "error" not in g)
    golden = mixed.golden[item.key]
    out = mixed.run(item)
    assert checker.check_library(mixed.et, item, out, golden).ok
    nudged = dict(out, E=out["E"] * (1 + 1e-8))
    assert not checker.check_library(mixed.et, item, nudged, golden).ok
    last_digits = dict(out, E=out["E"] * (1 + 1e-13))
    check = checker.check_library(mixed.et, item, last_digits, golden)
    assert check.ok and not check.identical


def test_checker_flags_a_flipped_bound_label(mixed):
    item = _first(mixed, lambda i, g: g.get("bound") == "UpperBound")
    out = dict(mixed.run(item), bound="LowerBound")
    assert not checker.check_library(mixed.et, item, out, mixed.golden[item.key]).ok


def test_checker_flags_a_level_on_the_wrong_side_of_the_oracle():
    workload = run.LibraryWorkload("oracle-check", 11)
    item = _first(workload, lambda i, g: g.get("bound") == "UpperBound" and "E_oracle" in g)
    golden = copy.deepcopy(workload.golden[item.key])
    golden["E"] = golden["E_oracle"] - 1e-3 * abs(golden["E_oracle"])
    check = checker.check_library(workload.et, item, dict(golden), golden)
    assert any("below the radial oracle" in p for p in check.problems)


def test_checker_flags_a_wrong_exit_code():
    golden = {"exit": 2, "stdout": "", "stderr_kind": "no stationary point"}
    assert checker.check_cli((2, "", "no stationary point: collapse"), golden).ok
    assert not checker.check_cli((0, "", ""), golden).ok
    assert not checker.check_cli((1, "", "config error: x"), golden).ok


def test_checker_compares_csv_floats_to_tolerance():
    want = "N,E\n3,1.2345678901234567\n"
    assert checker.compare_csv("N,E\n3,1.2345678901234569\n", want).ok
    assert not checker.compare_csv("N,E\n3,1.2345679\n", want).ok
    assert not checker.compare_csv("N,E\n4,1.2345678901234567\n", want).ok


def test_known_oracle_failure_counts_as_failed_but_expected():
    golden = {"E": 1.0, "q": 1.5, "bound": "Unknown", "oracle_error": "NotConverged"}
    item = wl.Item("x", "s", 0, {"op": "oracle", "aux": 2.0, "mu": 1.0, "potential": {"family": "logarithmic"}})
    check = checker.check_library(None, item, dict(golden), golden)
    assert not check.ok and check.known and not check.problems


# -- tracing -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["mixed-levels", "oracle-check", "sweep"])
def test_traced_ops_pass_the_same_checks(workload):
    w = run.WORKLOAD_TYPES[workload](workload, 11)
    trace = tracer.Tracer()
    for op, item in enumerate(run.op_set(w, workload)[:12]):
        plain = w.run(item)
        traced = w.run_traced(item, trace, op)
        assert plain == traced
        for result in (plain, traced):
            assert not w.check(item, result).problems
    names = {rec[tracer.NAME] for rec in trace.spans}
    assert "solver.solve" in names and "solver.residual" in names


def test_traced_cold_cli_op_passes_the_same_checks():
    w = run.ColdCliWorkload("cold-cli", 11)
    item = next(i for i in run.op_set(w, "cold-cli") if i.desc["command"] == "solve" and i.desc["exit"] == 0)
    trace = tracer.Tracer()
    plain, traced = w.run(item), w.run_traced(item, trace, 0)
    assert plain[:3] == traced[:3]
    assert w.check(item, plain).ok and w.check(item, traced).ok
    names = {rec[tracer.NAME] for rec in trace.spans}
    assert {"import.cli", "cli.run", "cli.parse", "solver.solve"} <= names


def test_tracer_restores_the_program():
    import envtheory
    from envtheory import solver

    before = (envtheory.solve_nbody, solver.brentq, solver.stationary_residual)
    trace = tracer.Tracer()
    with trace.installed(0):
        assert solver.brentq is not before[1]
    assert (envtheory.solve_nbody, solver.brentq, solver.stationary_residual) == before


def test_trace_counts_repeat_exactly(mixed):
    ops = run.op_set(mixed, "mixed-levels")[:104]
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        for op, item in enumerate(ops):
            mixed.run_traced(item, trace, op)
        metrics = tracer.layer_metrics(trace.spans, len(ops))
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_us", "_ms", "_ns_per_point", "eigh_share"))})
    assert counts[0] == counts[1]


# -- output --------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mixed-levels", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]
