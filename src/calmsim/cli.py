"""Command-line harness: run workloads under fault injection, emit JSON
reports and event logs.

All randomness flows from the single ``--seed``; the same config and seed
reproduce a byte-identical report and event log.  Exit codes: 0 when the
result matches the built-in oracle, 1 on mismatch, 2 on config errors, 3 on
divergence (tick cap exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace

from . import kmer, sketch
from .errors import CalmsimError, DivergenceError, UnknownWorkerError
from .runtime import DeliverySchedule
from .tables import Value
from .lattice import GSet, LMax, LWWSet, LWWTokenSet, Timestamp, TwoPSet

WORKLOADS = ("kmer_a", "kmer_b", "kmer_table", "cms_design1", "cms_design2",
             "lattice_demo")


@dataclass
class RunConfig:
    workload: str = "kmer_a"
    input: str | None = None
    k: int = 4
    threshold: int = 3
    workers: int = 1
    seed: int = 0
    dup_prob: float = 0.0
    reorder_window: int = 0
    drop_prob: float = 0.0
    eps: float = 0.01
    delta: float = 0.01
    fail: list = field(default_factory=list)       # (tick, worker)
    partition: list = field(default_factory=list)  # (tick, pairs)
    join: list = field(default_factory=list)       # tick
    emit_events: str | None = None
    report: str | None = None

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.workload != "lattice_demo" and not self.input:
            raise ValueError("--input is required for this workload")
        if self.k < 1 or self.workers < 1 or self.threshold < 1:
            raise ValueError("k, workers, and threshold must be >= 1")
        for p in (self.dup_prob, self.drop_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        failed = [wid for _tick, wid in self.fail]
        for wid in failed:
            if failed.count(wid) > 1:
                raise ValueError(
                    f"worker {wid} is listed to fail more than once")

    def schedule(self, seed=None) -> DeliverySchedule:
        return DeliverySchedule(
            seed=self.seed if seed is None else seed,
            duplicate_prob=self.dup_prob,
            reorder_window=self.reorder_window,
            drop_prob=self.drop_prob,
        )

    def echo(self) -> dict:
        out = asdict(self)
        out["partition"] = [[t, sorted(map(sorted, p))] for t, p in self.partition]
        out["fail"] = [list(f) for f in self.fail]
        return out


def _parse_fail(spec: str):
    tick, wid = spec.split(":")
    return (int(tick), int(wid))


def _parse_partition(spec: str):
    tick, _, pairs = spec.partition(":")
    cut = []
    for pair in filter(None, pairs.split(",")):
        a, b = pair.split("-")
        cut.append((int(a), int(b)))
    return (int(tick), tuple(cut))


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_INT_KEYS = {"k", "threshold", "workers", "seed", "reorder_window"}
_FLOAT_KEYS = {"dup_prob", "drop_prob", "eps", "delta"}


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key == "fail":
        return [_parse_fail(s) for s in value.split()]
    if key == "partition":
        return [_parse_partition(s) for s in value.split()]
    if key == "join":
        return [int(s) for s in value.split()]
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if not hasattr(config, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(config, key, _coerce(key, value))
    overrides = {
        "workload": args.workload, "input": args.input, "k": args.k,
        "threshold": args.threshold, "workers": args.workers,
        "seed": args.seed, "dup_prob": args.dup_prob,
        "reorder_window": args.reorder_window, "drop_prob": args.drop_prob,
        "eps": args.eps, "delta": args.delta,
        "emit_events": args.emit_events, "report": args.report,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    if args.fail:
        config.fail = [_parse_fail(s) for s in args.fail]
    if args.partition:
        config.partition = [_parse_partition(s) for s in args.partition]
    if args.join:
        config.join = [int(s) for s in args.join]
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Workload execution


def _load_corpus(config: RunConfig) -> str:
    with open(config.input, encoding="ascii") as fh:
        return fh.read()


def _kmer_b_match(counts, truth, threshold) -> bool:
    kmers = set(counts) | set(truth)
    for km in kmers:
        c, t = counts.get(km, 0), truth.get(km, 0)
        if c > t:
            return False
        if t < threshold and c != t:
            return False
        if (c >= threshold) != (t >= threshold):
            return False
    return True


def _run_kwargs(config: RunConfig) -> dict:
    """Delivery schedule and fault injections shared by every runner."""
    return dict(schedule=config.schedule(), failures=config.fail,
                joins=config.join, partitions=config.partition)


def _run_kmer(config: RunConfig):
    corpus = _load_corpus(config)
    truth = kmer.oracle_count(corpus, config.k)
    kwargs = _run_kwargs(config)
    if config.workload == "kmer_a":
        res = kmer.impl_a_run(corpus, config.k, config.workers, **kwargs)
        match = res.histogram == truth
    elif config.workload == "kmer_b":
        res = kmer.impl_b_run(corpus, config.k, config.workers,
                              config.threshold, **kwargs)
        match = _kmer_b_match(res.histogram, truth, config.threshold)
    else:
        res = kmer.table_kmer_run(corpus, config.k, config.workers, **kwargs)
        match = res.histogram == truth and bool(res.coordination_free)
    result = kmer.histogram_report(config.k, res.histogram)
    coordination = {
        "plan_coordination_free": res.coordination_free,
        "failed_workers": len(config.fail),
    }
    return res.sim, result, match, coordination


def _run_cms(config: RunConfig):
    corpus = _load_corpus(config)
    params = sketch.choose_params(config.eps, config.delta, seed=config.seed)
    stream = sketch.corpus_stream(corpus, config.k)
    reference = sketch.sequential_sketch(stream, params)
    truth = kmer.oracle_count(corpus, config.k)
    items = sorted(truth)
    kwargs = _run_kwargs(config)
    if config.workload == "cms_design1":
        res = sketch.design1_run(corpus, config.k, params, config.workers,
                                 **kwargs)
        # Worker 0 answers IDK (reported as null) for an item whose cell
        # owner is still cut off from it when the run ends.
        answers = {x: res.query(x) for x in items}
        estimates = {x: a.payload if isinstance(a, Value) else None
                     for x, a in answers.items()}
        converged = True
        gather = sum(1 for ev in res.sim.events if ev[1] == "gather")
    else:
        res = sketch.design2_run(corpus, config.k, params, config.workers,
                                 **kwargs)
        estimates = {x: res.query(x) for x in items}
        converged = res.converged()
        gather = 0
    match = converged and all(
        estimates[x] == reference.query(x) and estimates[x] >= truth[x]
        for x in items
    )
    sk = res.sketch() if config.workload == "cms_design2" else reference
    result = dict(sk.dump(), estimates=estimates)
    coordination = {"gather_messages": gather, "replicas_converged": converged}
    return res.sim, result, match, coordination


def _run_lattice_demo(config: RunConfig):
    """Tiny deterministic tour of the core lattice types."""
    gset = GSet.of([1, 2]).merge(GSet.of([2, 3]))
    cart = TwoPSet().add("milk").add("eggs").remove("eggs")
    lww = (LWWSet().add("x", Timestamp(1, 0))
           .remove("x", Timestamp(2, 1)).add("x", Timestamp(3, 0)))
    tokens = (LWWTokenSet()
              .insert("t1", 11, Timestamp(1, 0), "v1")
              .remove("t1", Timestamp(2, 0))
              .insert("t1", 12, Timestamp(3, 0), "v2"))
    result = {
        "gset": sorted(gset.elems),
        "two_phase_read": sorted(cart.read()),
        "lww_read": sorted(lww.read()),
        "token_read": tokens.read(),
        "lmax": LMax(5).merge(LMax(3)).value,
    }
    expected = {
        "gset": [1, 2, 3], "two_phase_read": ["milk"], "lww_read": ["x"],
        "token_read": {"t1": "v2"}, "lmax": 5,
    }
    return None, result, result == expected, {}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one workload; returns (exit_code, report)."""
    try:
        config.validate()
    except (ValueError, OSError) as exc:
        return 2, {"error": str(exc)}
    try:
        if config.workload.startswith("kmer"):
            sim, result, match, coordination = _run_kmer(config)
        elif config.workload.startswith("cms"):
            sim, result, match, coordination = _run_cms(config)
        else:
            sim, result, match, coordination = _run_lattice_demo(config)
    except DivergenceError as exc:
        return 3, {"error": str(exc), "config": config.echo()}
    except (ValueError, OSError, UnknownWorkerError) as exc:
        return 2, {"error": str(exc)}
    report = {
        "config": config.echo(),
        "workload": config.workload,
        "match": match,
        "result": result,
        "ticks": sim.now if sim else 0,
        "messages": sum(1 for ev in sim.events if ev[1] == "send") if sim else 0,
        "coordination": coordination,
    }
    if config.emit_events and sim:
        with open(config.emit_events, "w", encoding="utf-8") as fh:
            fh.write(sim.event_lines())
    if config.report:
        with open(config.report, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    return (0 if match else 1), report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _comparable(config: RunConfig, report: dict):
    """Seed-invariant projection of a run's result.

    Thresholded histograms may legitimately differ above the threshold, so
    only the below-threshold counts and the at-or-above predicate are
    compared across seeds.
    """
    result = report.get("result", {})
    if config.workload == "kmer_b":
        t = config.threshold
        return {km: (c if c < t else f">={t}")
                for km, c in result.get("counts", {}).items()}
    if config.workload.startswith("cms"):
        return result.get("estimates", {})
    if config.workload.startswith("kmer"):
        return result.get("counts", {})
    return result


def verify(config: RunConfig, seeds: list[int]) -> tuple[int, dict]:
    """Run the workload once per seed and check all runs converge alike."""
    if len(seeds) < 2:
        return 2, {"error": "verify needs at least two seeds"}
    projections = []
    matches = []
    diverging = None
    for seed in seeds:
        code, report = run(replace(config, seed=seed, report=None,
                                   emit_events=None))
        if code in (2, 3):
            return code, report
        matches.append(code == 0)
        projections.append(_comparable(config, report))
        if projections[0] != projections[-1] and diverging is None:
            diverging = seed
    identical = diverging is None
    summary = {
        "workload": config.workload,
        "seeds": list(seeds),
        "identical": identical,
        "all_match": all(matches),
        "diverging_seed": diverging,
    }
    return (0 if identical and all(matches) else 1), summary


# ---------------------------------------------------------------------------
# Argument parsing


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calmsim",
        description="Deterministic CRDT workload simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--workload", choices=WORKLOADS)
        p.add_argument("--input")
        p.add_argument("-k", type=int, dest="k")
        p.add_argument("--threshold", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--dup-prob", type=float, dest="dup_prob")
        p.add_argument("--reorder-window", type=int, dest="reorder_window")
        p.add_argument("--drop-prob", type=float, dest="drop_prob")
        p.add_argument("--eps", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--fail", action="append", metavar="TICK:WORKER")
        p.add_argument("--partition", action="append", metavar="TICK:A-B,...")
        p.add_argument("--join", action="append", metavar="TICK")
        p.add_argument("--emit-events", dest="emit_events", metavar="PATH")
        p.add_argument("--report", metavar="PATH")
        p.add_argument("--config", metavar="PATH",
                       help="key=value config file; flags override")
    sub.choices["verify"].add_argument(
        "--seeds", required=True,
        help="comma-separated list of at least two seeds")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "verify":
            seeds = [int(s) for s in args.seeds.split(",") if s]
    except (ValueError, OSError) as exc:
        parser.print_usage(sys.stderr)
        print(f"calmsim: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            code, report = run(config)
        else:
            code, report = verify(config, seeds)
    except CalmsimError as exc:
        print(f"calmsim: error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
