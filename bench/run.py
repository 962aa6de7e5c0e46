"""calmsim's benchmark: one command, stdlib only, no threads.

    python3 bench/run.py --workload kmer_a_faults --seed 1 --seconds 20 --trace 0

Set-up time and peak memory are measured in short-lived child
interpreters, one at a time; everything else runs in this process.

Builds the workload's corpus from ``--seed``, repeats the workload for
``--seconds`` (at least ``MIN_REPS`` times), checks every repetition against
the in-repo oracle, and prints two JSON lines on stdout: an ``info`` object
(determinism record, per-repetition samples, ``src/`` line count, tier-1
test count, and the ungated ``windows_per_s`` and ``fail_rate``), then
the result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` reports the per-layer metrics from a
separate traced run and writes its spans to ``bench/out/``.  ``--smoke``
runs tiny corpora, so a test can run every path in seconds.  Metric
definitions and the reason for each workload are in ``bench/README.md``.

Exit status: 0 when every repetition was correct and deterministic, 1 when
one was not (the result is still printed), 2 when the repo's ``src/`` is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_REPS = 3
MIN_SETUPS = 7
REF_CALLS = 3
REF_SECONDS = 0.5
CHILD_TIMEOUT_S = 120
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def reference_s(wl) -> float:
    """Median reference time over at least REF_CALLS calls and REF_SECONDS."""
    times = []
    while len(times) < REF_CALLS or sum(times) < REF_SECONDS:
        times.append(timed(wl.reference))
    return median(times)


def child(args: list[str], stdin: str = "", python_flags=()) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *python_flags, str(BENCH / "child.py"), *args],
        input=stdin, capture_output=True, text=True, env=CHILD_ENV,
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def setup_child(wl, python_flags=()) -> tuple[dict, str]:
    """One set-up in a fresh interpreter."""
    return child(["setup", json.dumps(wl.setup_spec())], wl.corpus,
                 python_flags)


def tables_import_s(stderr: str) -> float:
    """Cumulative import time of calmsim.tables from ``-X importtime``."""
    for line in stderr.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3 and cells[2] == "calmsim.tables":
            return int(cells[1]) / 1e6
    raise ValueError("calmsim.tables missing from -X importtime output")


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def tier1_tests() -> int | None:
    """Tests the tier-1 suite collects; None when collection fails."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-p", "no:cacheprovider"],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    found = re.search(r"(\d+) tests? collected", proc.stdout)
    return int(found.group(1)) if found else None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def tail_percentile(values) -> tuple[float, float]:
    """p90, or the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    q = 90.0 if n >= 100 else max(50.0, 100.0 * (n - 10) / n) if n else 90.0
    return percentile(values, q), q


class Run:
    """Repetitions of one workload, with their checks and records."""

    def __init__(self, wl, label: str):
        self.wl = wl
        self.label = label
        self.attempted = 0
        self.failed = 0
        self.records: set = set()

    def once(self, run=None, on_result=None) -> float | None:
        """One checked repetition; its seconds, or None when it failed.

        ``on_result`` sees a correct result before it is dropped, so no
        result outlives its repetition.
        """
        from calmsim.errors import CalmsimError
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            result = (run or self.wl.run)()
        except CalmsimError as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        error = self.wl.check(result)
        if error:
            self.fail(error)
            return None
        self.records.add((*self.wl.ticks_messages(result),
                          self.wl.digest(result)))
        if on_result:
            on_result(result)
        return elapsed

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.label} rep {self.attempted}: {why}",
              file=sys.stderr)

    @property
    def deterministic(self) -> bool:
        return len(self.records) <= 1


def end_to_end(wl, run: Run, seconds: float, smoke: bool) -> tuple[dict, dict]:
    setup_child(wl)  # warm-up: it may write bytecode caches
    rss, _ = child(["rss", wl.name, str(wl.seed), "1" if smoke else "0"])
    wl.prepare()
    reps, setups = [], []
    # Each repetition is divided by the mean of the reference times taken
    # just before and just after it, so host speed drift cancels.
    ref_before = reference_s(wl)
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        elapsed = run.once()
        ref_after = reference_s(wl)
        # Set-ups are spread over the run, like the repetitions, so that
        # their median sees the same mix of host load.
        setups.append(setup_child(wl)[0]["setup_s"])
        if elapsed is not None:
            reps.append((elapsed, (ref_before + ref_after) / 2))
        elif run.failed >= MIN_REPS and not reps:
            break
        ref_before = ref_after
    while len(setups) < MIN_SETUPS:
        setups.append(setup_child(wl)[0]["setup_s"])
    ticks, messages, _ = min(run.records) if run.records else (0, 0, "")
    metrics = {
        "oracle_x": median([t / ref for t, ref in reps]),
        "setup_s": median(setups),
        "peak_rss_mb": rss["peak_rss_mb"],
        "ticks": ticks,
        "messages": messages,
    }
    # Absolute throughput follows the host's speed (its spread over ten
    # seeds reached 0.21), so it is reported here but not gated.
    info = {"windows_per_s": {
                "value": median([wl.windows / t for t, _ in reps]),
                "unit": "windows/s"},
            "rep_s": [t for t, _ in reps], "reference_s": [r for _, r in reps],
            "setup_samples_s": setups}
    return metrics, info


def layer_counts(tracer, wl, result) -> dict:
    """Per-layer values of one traced repetition."""
    sims = wl.sims(result)
    kinds = Counter(ev[1] for sim in sims for ev in sim.events)
    latencies, first, reissued = [], set(), 0
    for i, sim in enumerate(sims):
        sent, assigns = {}, Counter()
        for tick, kind, src, dst, token, use in sim.events:
            if kind == "send":
                sent.setdefault((token, use, src, dst), tick)
            elif kind == "deliver":
                latencies.append(tick - sent[(token, use, src, dst)])
                first.add((i, token, use, dst))
            elif kind == "assign":
                assigns[token] += 1
        reissued += sum(n - 1 for n in assigns.values())
    c, s = tracer.calls, tracer.secs
    hashes = c["hashing.hash64"]
    return {
        "lattice.merge_calls": c["lattice.merge"],
        "lattice.merge_s": s["lattice.merge"],
        "lattice.copied_per_delta":
            tracer.copied / tracer.merged_in if tracer.merged_in else 0.0,
        "runtime.send_calls": c["runtime.send"],
        "runtime.send_s": s["runtime.send"],
        "runtime.deliver_due_s": s["deliver_due"],
        "runtime.deliver": kinds["deliver"],
        "runtime.dup": kinds["dup"],
        "runtime.drop": kinds["drop"],
        "runtime.hold": kinds["hold"],
        "runtime.useful_deliveries":
            len(first) / kinds["deliver"] if kinds["deliver"] else 0.0,
        "runtime.in_flight_max": tracer.in_flight_max,
        "runtime.delivery_ticks_p50": percentile(latencies, 50),
        "runtime.delivery_ticks_p90": percentile(latencies, 90),
        "runtime.rule_ticks": c["rule_tick"],
        "runtime.rule_tick_s": s["rule_tick"],
        "runtime.rule_expr_s": s["runtime.rule_expr"],
        "runtime.rule_new_share":
            tracer.new / tracer.derived if tracer.derived else 0.0,
        "kmer.chunk_windows_s": s["kmer.chunk_windows"],
        "kmer.worker_step_s": s["worker_step"],
        "kmer.on_deliver_s": s["on_deliver"],
        "kmer.fingerprint_calls": c["fingerprint"],
        "kmer.fingerprint_s": s["fingerprint"],
        "kmer.state_elems": wl.state_elems(result),
        "hashing.hash64_calls": hashes,
        "hashing.hash64_s": s["hashing.hash64"],
        "hashing.distinct_share":
            len(tracer.hash_keys) / hashes if hashes else 0.0,
        "sketch.insert_calls": c["sketch.insert"],
        "sketch.insert_s": s["sketch.insert"],
        "sketch.query_s": s["sketch.query"],
        "sketch.gather": kinds["gather"],
        "tables.owner_of_key_calls": c["tables.owner_of_key"],
        "tables.owner_of_key_s": s["tables.owner_of_key"],
        "dispenser.next_calls": c["dispenser.next"],
        "dispenser.next_s": s["dispenser.next"],
        "dispenser.reissued": reissued,
    }


def per_layer(wl, run: Run, seconds: float, smoke: bool) -> tuple[dict, dict]:
    from tracer import Tracer, self_times
    setup_child(wl)  # warm-up: it may write bytecode caches
    imports = [tables_import_s(setup_child(wl, ("-X", "importtime"))[1])
               for _ in range(1 if smoke else 3)]
    wl.prepare()
    tracer = Tracer()
    untraced, traced, per_rep, tick_ms = [], [], [], []

    def traced_run():
        tracer.active = True
        root = tracer.begin("rep")
        try:
            return wl.run()
        finally:
            tracer.end(root)
            tracer.active = False

    tracer.install()
    try:
        deadline = perf_counter() + seconds
        while len(traced) < 2 or perf_counter() < deadline:
            # Untraced and traced repetitions alternate, so that
            # trace.overhead_x compares runs made under the same load.
            elapsed = run.once()
            if elapsed is not None:
                untraced.append(elapsed)
            tracer.reset()
            elapsed = run.once(traced_run, lambda result: per_rep.append(
                layer_counts(tracer, wl, result)))
            if elapsed is None:
                if run.failed >= MIN_REPS and not traced:
                    break
                continue
            traced.append(elapsed)
            tick_ms += [(end - start) * 1e3
                        for _, _, _, name, start, end in tracer.rep_spans()
                        if name == "tick"]
    finally:
        tracer.uninstall()

    tracemalloc.start()
    try:
        run.once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    from calmsim import kmer
    metrics = {name: median([rep[name] for rep in per_rep])
               for name in (per_rep[0] if per_rep else ())}
    tick_p90, tick_q = tail_percentile(tick_ms)
    import workloads
    metrics.update({
        "runtime.tick_ms_p50": percentile(tick_ms, 50),
        "runtime.tick_ms_p90": tick_p90,
        "kmer.oracle_s": median([timed(lambda: kmer.oracle_count(
            wl.corpus, wl.k)) for _ in range(REF_CALLS)]),
        "sketch.reference_s": reference_s(wl)
        if isinstance(wl, workloads.CmsTwoDesigns) else 0.0,
        "tables.import_s": median(imports),
        "trace.overhead_x":
            median(traced) / median(untraced) if untraced and traced else 0.0,
        "trace.peak_alloc_mb": peak / 2**20,
    })
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{wl.name}-seed{wl.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["rep", "id", "parent", "name", "start", "end"],
         "spans": tracer.spans}))
    reps = len(traced)
    info = {"traced_reps": reps, "untraced_rep_s": untraced,
            "traced_rep_s": traced, "tick_samples": len(tick_ms),
            "tick_ms_p90_is_percentile": tick_q,
            "self_s_per_rep": {name: t / reps for name, t in
                               sorted(self_times(tracer.spans).items())}
            if reps else {},
            "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, info


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and single set-ups")
    args = parser.parse_args(argv)
    if not (SRC / "calmsim" / "__init__.py").is_file():
        print(f"error: no calmsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    run = Run(wl, f"{wl.name} seed {wl.seed}")
    measure = per_layer if args.trace else end_to_end
    values, info = measure(wl, run, args.seconds, args.smoke)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared "
                           f"{sorted(units)}")
    if not run.deterministic:
        print(f"FAIL {run.label}: repetitions differ in "
              f"(ticks, messages, event digest): {sorted(run.records)}",
              file=sys.stderr)
    correct = run.failed == 0 and run.deterministic and bool(run.records)
    ticks, messages, digest = (min(run.records) if run.records
                               else (None, None, None))
    print(json.dumps({"info": {
        "workload": wl.name, "seed": wl.seed, "trace": args.trace,
        "smoke": args.smoke, "corpus_bytes": len(wl.corpus),
        "windows_per_rep": wl.windows, "ticks": ticks, "messages": messages,
        "event_digest": digest, "deterministic": run.deterministic,
        "fail_rate": {"value": run.failed / run.attempted
                      if run.attempted else 0.0, "unit": "ratio"},
        "src_loc": src_loc(), "tier1_tests": tier1_tests(), **info}}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
