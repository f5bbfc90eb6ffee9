#!/usr/bin/env python3
"""Benchmark of envelope levels: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

WORKLOAD is cold-cli, sweep, mixed-levels, oracle-check, or ``all`` (each in
turn, in its own process).  Run it from anywhere; it uses the ``src/`` next
to this directory and nothing installed.

Each workload is a closed loop with one client.  ``--seed`` picks a run's
op set from the committed corpus and orders it (see workloads.py); the loop
repeats the set in whole passes until ``--seconds`` have passed, and checks
every op's output against the golden corpus and against independent
references (checker.py).

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
three fresh set-ups, each a child process timed from its start to the end of
its warm-up.  ``--trace 1`` runs every op twice, once plain and once with the
tracer's pass-throughs installed (alternating which goes first), and prints
the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Ops that fail the way the golden corpus recorded them failing at
the reference commit (the radial oracle's NotConverged) count in ``failed``
but keep ``correct`` true; any other failure makes it false.  The exit code
is 0 whenever the run completed, and 2 when the program or its corpus is
missing or stale.
"""

from __future__ import annotations

import os

# Held fixed for this process and every child it starts, before numpy loads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from make_corpus import golden_path, read_json_gz  # noqa: E402

SRC = wl.ROOT / "src"
RESULTS = wl.BENCH_DIR / "results"
SETUP_RUNS = 3
# Rounds of the seeded order that make up a run's op set, which the timed
# loop repeats in whole passes; a pass takes 3-10 s on a 2-vCPU Xeon virtual
# machine.  oracle-check's set is its whole pool, so every run times the same
# ops.
SET_ROUNDS = {"cold-cli": 1, "sweep": 3, "mixed-levels": 80, "oracle-check": wl.ORACLE_ROUNDS}

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "levels_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "import.python_start_ms": "ms",
    "import.envtheory_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.mpmath_ms": "ms",
    "import.cli_ms": "ms",
    "cli.parse_us": "us",
    "cli.parses_per_level": "ratio",
    "cli.self_ms_per_op": "ms",
    "qnum.airy_first_ms": "ms",
    "qnum.q_us": "us",
    "model.residual_ns_per_point": "ns",
    "solver.solve_us": "us",
    "solver.scan_self_us": "us",
    "solver.polish_us": "us",
    "solver.scan_passes_per_level": "ratio",
    "solver.residual_points_per_level": "ratio",
    "solver.polish_fevals_per_root": "ratio",
    "solver.roots_per_level": "ratio",
    "solver.no_stationary_share": "ratio",
    "analysis.classify_us": "us",
    "analysis.sampled_term_share": "ratio",
    "analysis.critical_us": "us",
    "analysis.perturb_us": "us",
    "apps.max_mass_us": "us",
    "apps.closed_form_us": "us",
    "oracle.radial_ms": "ms",
    "oracle.grids_per_call": "ratio",
    "oracle.points_per_call": "ratio",
    "oracle.eigh_share": "ratio",
    "oracle.not_converged_share": "ratio",
    "oracle.envelope_gap.max": "ratio",
    "golden.byte_identical_share": "ratio",
    "trace.overhead_pct": "%",
    "host.calib_ms": "ms",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or a stale corpus)."""


def require_program() -> None:
    if not (SRC / "envtheory" / "__init__.py").is_file():
        raise BenchmarkError(f"no program at {SRC}/envtheory")


def import_program():
    """Import envtheory from this checkout's src/, refusing any other copy."""
    require_program()
    sys.path.insert(0, str(SRC))
    import envtheory

    if wl.Path(envtheory.__file__).resolve().parent != (SRC / "envtheory").resolve():
        raise BenchmarkError(f"envtheory imported from {envtheory.__file__}, not {SRC}")
    return envtheory


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict | None = None) -> tuple[int, str, str, float, int]:
    """Run a child to completion: (exit code, stdout, stderr, wall s, max RSS KiB)."""
    start = time.perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env or child_env(), cwd=wl.ROOT
    ) as proc:
        # CLI diagnostics are a line or two, far below the pipe buffer, so
        # reading stdout first cannot block the child on a full stderr pipe.
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """mixed-levels and oracle-check: one library call (or a short chain) per op."""

    def __init__(self, name: str, seed: int):
        self.et = import_program()
        golden = {rec["key"]: rec for rec in read_json_gz(golden_path(name))["items"]}
        # The op set plus, where the pool has one, a round to warm up on.
        order = wl.run_order(wl.pool_rounds(name), seed)[: SET_ROUNDS[name] + 1]
        items = wl.draw_pool(name, order)
        for item in items:
            rec = golden.get(item.key)
            if rec is None or rec["fp"] != wl.fingerprint(item.desc):
                raise BenchmarkError(f"{name}: input {item.key} differs from the corpus; rerun make_corpus.py")
            wl.build(self.et, item)
        self.golden = {key: golden[key]["out"] for key in (item.key for item in items)}
        self.rounds = _rounds(items, order, seed)

    def warmup_items(self) -> list:
        """One op of each kind (op type and auxiliary exponent) from the last round."""
        seen = {}
        for item in self.rounds[-1]:
            seen.setdefault((item.desc["op"], item.desc.get("aux")), item)
        return list(seen.values())

    def run(self, item):
        return wl.run_library_op(self.et, item)

    def run_traced(self, item, trace: tracing.Tracer, op: int):
        with trace.installed(op):
            return self.run(item)

    def check(self, item, out) -> checker.Check:
        return checker.check_library(self.et, item, out, self.golden[item.key])


def _rounds(items: list, order: list[int], seed: int) -> list[list]:
    """Items grouped into rounds in run order, each round in its seeded order."""
    by_round: dict[int, list] = {}
    for item in items:
        by_round.setdefault(item.round, []).append(item)
    return [wl.shuffled(by_round[r], seed, r) for r in order]


class CliWorkload:
    """Shared corpus handling of the two CLI workloads."""

    def __init__(self, name: str, seed: int):
        items = []
        for entry in read_json_gz(golden_path(name)):
            items.append(wl.Item(entry["id"], entry.get("stratum") or entry["command"], entry["round"],
                                 entry, entry["levels"], {"argv": wl.corpus_argv(name, entry)}))
        self.rounds = _rounds(items, wl.run_order(1 + max(i.round for i in items), seed), seed)

    def warmup_items(self) -> list:
        return self.rounds[-1][:1]

    def check(self, item, result) -> checker.Check:
        return checker.check_cli(result[:3], item.desc)


class SweepWorkload(CliWorkload):
    """In-process ``cli.run(["sweep", ...])`` calls."""

    def __init__(self, name: str, seed: int):
        import_program()
        from envtheory import cli

        self.cli = cli
        super().__init__(name, seed)

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.run(item.args["argv"], stdout=out)
        return code, out.getvalue(), err.getvalue()

    def run_traced(self, item, trace: tracing.Tracer, op: int):
        with trace.installed(op), trace.span("cli.run"):
            return self.run(item)


class ColdCliWorkload(CliWorkload):
    """A fresh ``python -m envtheory.cli`` process per op."""

    def __init__(self, name: str, seed: int):
        require_program()
        super().__init__(name, seed)
        self.env = child_env()

    def run(self, item):
        code, out, err, _wall, rss = spawn([sys.executable, "-m", "envtheory.cli", *item.args["argv"]], self.env)
        return code, out, err, rss

    def run_traced(self, item, trace: tracing.Tracer, op: int):
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"shim-spans-{os.getpid()}.json"
        shim = str(wl.BENCH_DIR / "cli_shim.py")
        code, out, err, _wall, rss = spawn([sys.executable, shim, str(spans_path), *item.args["argv"]], self.env)
        trace.extend(json.loads(spans_path.read_text()), op)
        spans_path.unlink()
        return code, out, err, rss


WORKLOAD_TYPES = {
    "cold-cli": ColdCliWorkload,
    "sweep": SweepWorkload,
    "mixed-levels": LibraryWorkload,
    "oracle-check": LibraryWorkload,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    """Outcome counts over every checked op execution."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = self.identical = 0
        self.problems: list[str] = []

    def add(self, item, check: checker.Check) -> None:
        self.attempted += 1
        self.identical += check.identical
        if not check.ok:
            self.failed += 1
            if check.problems:
                self.unexpected += 1
            if len(self.problems) < 20:
                self.problems.append(f"{item.key}: {'; '.join(check.problems + check.known)}")


def warm_up(workload, tally: Tally) -> None:
    for item in workload.warmup_items():
        tally.add(item, workload.check(item, workload.run(item)))


def op_set(workload, name: str) -> list:
    """The ops one run times: the first SET_ROUNDS rounds of the seeded order."""
    return [item for rd in workload.rounds[: SET_ROUNDS[name]] for item in rd]


def measure(workload, ops: list, seconds: float) -> dict:
    """Untraced closed loop: whole passes over ``ops`` until ``seconds`` have passed.

    Each input's latency is its mean over the passes.  A shared 2-vCPU
    virtual machine can run at anything from half to full speed for seconds
    to minutes at a time; averaging each input over the run lets percentiles
    move smoothly with the share of slow time instead of jumping between a
    fast and a slow mode.
    """
    tally, totals, rss, passes = Tally(), [0.0] * len(ops), [], 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, item in enumerate(ops):
            t0 = time.perf_counter()
            result = workload.run(item)
            totals[i] += time.perf_counter() - t0
            tally.add(item, workload.check(item, result))
            if isinstance(workload, ColdCliWorkload):
                rss.append(result[3])
        passes += 1
    return {"tally": tally, "latencies": [t / passes for t in totals],
            "levels": sum(item.levels for item in ops) * passes, "passes": passes, "child_rss": rss}


def measure_traced(workload, ops: list, seconds: float) -> dict:
    """Passes over ``ops``, each op plain and traced, alternating which goes first.

    Counts come from the first pass only (op index below len(ops)), so they
    repeat exactly; times use every pass.
    """
    trace, tally, gaps = tracing.Tracer(), Tally(), []
    times = {False: 0.0, True: 0.0}
    passes, start = 0, time.perf_counter()
    while passes < 1 or time.perf_counter() - start < seconds:
        for i, item in enumerate(ops):
            op = passes * len(ops) + i
            for traced in ((False, True) if op % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                result = workload.run_traced(item, trace, op) if traced else workload.run(item)
                times[traced] += time.perf_counter() - t0
                tally.add(item, workload.check(item, result))
                if traced and passes == 0 and isinstance(result, dict):
                    gaps.append(checker.envelope_gap(result))
        passes += 1
    gaps = [g for g in gaps if g is not None]
    return {"trace": trace, "tally": tally, "times": times, "window_ops": len(ops), "window_gaps": gaps}


def calibrate() -> float:
    """A fixed pure-Python loop (median of 5, ms): shows slow-host periods."""
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) * 1e3


def setup_probe_times(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from process start to the end of warm-up."""
    values = []
    for _ in range(SETUP_RUNS):
        started = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        code, out, err, _wall, _rss = spawn(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe", repr(started)]
        )
        if code != 0:
            raise BenchmarkError(f"set-up probe failed: {err.strip()[-500:]}")
        values.append(float(out.strip().splitlines()[-1]))
    return values


def import_probes() -> dict[str, tuple[float, str]]:
    """Import costs seen from outside: a bare interpreter and ``-X importtime``."""
    bare = [spawn([sys.executable, "-c", "pass"])[3] * 1e3 for _ in range(5)]
    parts = {"envtheory": [], "scipy": [], "numpy": [], "mpmath": []}
    for _ in range(3):
        code, _out, err, _wall, _rss = spawn([sys.executable, "-X", "importtime", "-c", "import envtheory"])
        if code != 0:
            raise BenchmarkError(f"import envtheory failed: {err.strip()[-500:]}")
        self_us = {"scipy": 0, "numpy": 0, "mpmath": 0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, cumulative, module = line[len("import time:"):].split("|")
            module = module.strip()
            if module == "envtheory":
                parts["envtheory"].append(int(cumulative) / 1e3)
            root = module.split(".")[0]
            if root in self_us:
                self_us[root] += int(own)
        for root, total in self_us.items():
            parts[root].append(total / 1e3)
    out = {"import.python_start_ms": (statistics.median(bare), "median wall time of 5 `python -c pass`")}
    for root, values in parts.items():
        how = "cumulative" if root == "envtheory" else f"sum of self times of {root}.* modules"
        out[f"import.{root}_ms"] = (statistics.median(values), f"median of 3 -X importtime runs, {how}")
    return out


def environment(calib: list[float]) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads_env": THREAD_ENV,
        "host.calib_ms": {"before": round(calib[0], 3), "after": round(calib[-1], 3)},
        "machine_tuning": "none: no CPU governor, cgroup, affinity or cache-drop changes; "
        "only this benchmark's own processes are timed",
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def end_to_end(name: str, m: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    lat = sorted(dt * 1e3 for dt in m["latencies"])
    n = len(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if n > 1 else lat[0]
    beyond = sum(x > p90 for x in lat)
    sample = f"{n} inputs, each the mean of {m['passes']} passes"
    busy = sum(lat) * m["passes"] / 1e3
    if name == "cold-cli":
        rss, rss_how = max(m["child_rss"]) / 1024, f"max ru_maxrss of {len(m['child_rss'])} CLI processes"
    else:
        rss, rss_how = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss of this process"
    tally = m["tally"]
    return {
        "setup_s": (statistics.median(setups), "median of " + ", ".join(f"{s:.3f}" for s in setups)),
        "op_ms.p50": (statistics.median(lat), sample),
        "op_ms.p90": (p90, f"{sample}; {beyond} beyond it"),
        "levels_per_s": (m["levels"] / busy, f"{m['levels']} levels in {busy:.3f} s of ops"),
        "peak_rss_mb": (rss, rss_how),
        "ok_ratio": (1 - tally.failed / tally.attempted, f"fail_ratio = {tally.failed}/{tally.attempted} failed"),
    }


def per_layer(name: str, m: dict, imports: dict, airy_first: float | None, calib: list[float]) -> dict:
    trace, tally, times = m["trace"], m["tally"], m["times"]
    out = dict(imports)
    out.update(tracing.layer_metrics(trace.spans, m["window_ops"]))
    shim_imports = [r[tracing.END] - r[tracing.START] for r in trace.spans if r[tracing.NAME] == "import.cli"]
    out["import.cli_ms"] = (
        statistics.median(shim_imports) * 1e3 if shim_imports else 0.0,
        f"median of {len(shim_imports)} in-op `import envtheory.cli` (cold-cli only)",
    )
    out["qnum.airy_first_ms"] = (
        airy_first * 1e3 if airy_first is not None else 0.0,
        "first airy_zero call of the process, during warm-up" if airy_first is not None else "no Airy call",
    )
    gaps = m["window_gaps"]
    out["oracle.envelope_gap.max"] = (max(gaps) if gaps else 0.0, f"max over {len(gaps)} oracle levels")
    out["golden.byte_identical_share"] = (
        tally.identical / tally.attempted,
        f"{tally.identical}/{tally.attempted} op outputs bit-identical to the corpus",
    )
    plain, traced = times[False], times[True]
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, f"traced {traced:.3f} s vs plain {plain:.3f} s")
    out["host.calib_ms"] = (statistics.median(calib), "median of the calibration loop before and after")
    return out


def report(values: dict, units: dict, tally: Tally, header: str, env: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"metrics not computed: {sorted(missing)}")
    print(header)
    print("# env " + json.dumps(env, sort_keys=True))
    for key in units:
        value, how = values[key]
        print(f"{key:34s} {value:14.6g} {units[key]:6s} {how}")
    if "golden.byte_identical_share" not in units:
        share = tally.identical / tally.attempted
        print(f"{'golden.byte_identical_share':34s} {share:14.6g} {'ratio':6s} {tally.identical}/{tally.attempted}")
    print(f"fail_ratio {tally.failed}/{tally.attempted}; unexpected failures {tally.unexpected}")
    for line in tally.problems:
        print("  failed:", line)
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": float(values[key][0]), "unit": units[key]} for key in units},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    require_program()
    calib = [calibrate()]
    header = f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}"
    if not trace:
        setups = setup_probe_times(name, seed)
        workload = WORKLOAD_TYPES[name](name, seed)
        warm = Tally()
        warm_up(workload, warm)
        m = measure(workload, op_set(workload, name), seconds)
        calib.append(calibrate())
        values, units = end_to_end(name, m, setups), END_TO_END
        tally = _merge(warm, m["tally"])
    else:
        imports = import_probes()
        workload = WORKLOAD_TYPES[name](name, seed)
        warm, airy_first = Tally(), None
        if name == "oracle-check":
            first = tracing.Tracer()
            with first.installed(-1):
                warm_up(workload, warm)
            airy = [r for r in first.spans if r[tracing.NAME] == "qnum.airy"]
            airy_first = airy[0][tracing.END] - airy[0][tracing.START] if airy else None
        else:
            warm_up(workload, warm)
        m = measure_traced(workload, op_set(workload, name), seconds)
        calib.append(calibrate())
        values, units = per_layer(name, m, imports, airy_first, calib), PER_LAYER
        tally = _merge(warm, m["tally"])
        _write_spans(name, seed, m)
    env = environment(calib)
    result = report(values, units, tally, header, env)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1)
    )
    return result


def _merge(a: Tally, b: Tally) -> Tally:
    b.attempted += a.attempted
    b.failed += a.failed
    b.unexpected += a.unexpected
    b.identical += a.identical
    b.problems = a.problems + b.problems
    return b


def _write_spans(name: str, seed: int, m: dict) -> None:
    """Spans of the counted ops, written once the run is over."""
    RESULTS.mkdir(exist_ok=True)
    window = [rec for rec in m["trace"].spans if rec[tracing.OP] < m["window_ops"]]
    (RESULTS / f"{name}-seed{seed}-spans.json").write_text(json.dumps(window))


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        code, out, err, _wall, _rss = spawn(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        if code != 0:
            print(err, file=sys.stderr)
            return code
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def setup_probe(name: str, seed: int, started: float) -> int:
    workload = WORKLOAD_TYPES[name](name, seed)
    tally = Tally()
    warm_up(workload, tally)
    elapsed = time.monotonic() - started
    if tally.unexpected:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            return setup_probe(args.workload, args.seed, args.setup_probe)
        if args.workload == "all":
            return run_all(args)
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
