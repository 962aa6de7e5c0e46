"""Command-line harness: run workloads under fault injection, emit JSON
reports and event logs.

Each ``WORKLOADS`` record names the options a workload reads; any other
option, even one given at its default value, is a config error.  ``--seed``
drives only the delivery schedule; the same config and seed reproduce a
byte-identical report and event log, which ``--report`` and
``--emit-events`` must write to two files.  Exit codes: 0 when the result
matches the built-in oracle, 1 on mismatch, 2 on config errors, and for a
:class:`CalmsimError` raised by the run, the code ``EXIT_CODES`` gives its
class: 3 on divergence (no quiescence; see ``run_to_quiescence``), 4 when
the program breaks a lattice or stratification contract.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import kmer, sketch
from .errors import (CalmsimError, DivergenceError, LatticeLawError,
                     LatticeTypeError, StratificationError,
                     ThresholdMismatchError, UnknownWorkerError)
from .runtime import DeliverySchedule
from .tables import Value
from .lattice import GSet, LMax, LWWSet, LWWTokenSet, Timestamp, TwoPSet


def _parse_fail(spec: str):
    tick, wid = spec.split(":")
    return (int(tick), int(wid))


def _parse_partition(spec: str):
    tick, _, pairs = spec.partition(":")
    return (int(tick), tuple(tuple(map(int, pair.split("-")))
                             for pair in filter(None, pairs.split(","))))


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
    fail: list = field(default_factory=list, metadata={  # (tick, worker)
        "item": _parse_fail, "metavar": "TICK:WORKER"})
    partition: list = field(default_factory=list, metadata={  # (tick, pairs)
        "item": _parse_partition, "metavar": "TICK:A-B,..."})
    join: list = field(default_factory=list, metadata={  # tick
        "item": int, "metavar": "TICK"})
    emit_events: str | None = None
    report: str | None = None

    def validate(self, given=()) -> None:
        """``ValueError`` for a config no run can follow.  An option the
        workload does not read is an error when it is in ``given``, the
        names a flag or config key set, or differs from its default."""
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        # Every workload takes a seed (verify sets one) and a report.
        reads = {"workload", "seed", "report", *WORKLOADS[self.workload].reads}
        default = RunConfig()
        unread = [name for name in _FIELDS if name not in reads and (
            name in given or getattr(self, name) != getattr(default, name))]
        if unread:
            raise ValueError(f"{self.workload} takes no {', '.join(unread)}")
        if "input" in reads and not self.input:
            raise ValueError("--input is required for this workload")
        outputs = [*map(Path, filter(None, (self.report, self.emit_events)))]
        for path in outputs:
            if path.is_dir() or not path.parent.is_dir():
                raise ValueError(f"cannot write output file {str(path)!r}")
        if len({path.resolve() for path in outputs}) < len(outputs):
            raise ValueError("--report and --emit-events name one file")
        if self.k < 1 or self.workers < 1 or self.threshold < 1:
            raise ValueError("k, workers, and threshold must be >= 1")
        _schedule(self)  # raises ValueError on a bad delivery schedule
        sketch.choose_params(self.eps, self.delta)  # and on eps, delta
        kmer.check_faults(self.workers, self.fail, self.join,
                          self.partition)

    def echo(self) -> dict:
        out = asdict(self)
        out["partition"] = [[t, sorted(map(sorted, p))] for t, p in self.partition]
        out["fail"] = [list(f) for f in self.fail]
        return out


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _coerce(name: str, text):
    """Option ``name`` from its text, or its item texts if repeatable."""
    f = _FIELDS[name]
    try:
        if "item" in f.metadata:
            return [f.metadata["item"](s) for s in text]
        return text if f.default is None else type(f.default)(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_seeds(text: str) -> list[int]:
    """``verify --seeds``: distinct integers, comma-separated."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"seeds: {exc}") from None
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds: {text!r} repeats a seed")
    return seeds


def build_config(args: argparse.Namespace) -> RunConfig:
    texts = {}
    if args.config:  # key = value lines, "#" comments
        with open(args.config, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, text = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _FIELDS:
                    raise ValueError(f"unknown config key {key!r}")
                if key == "seed" and args.command == "verify":
                    raise ValueError("verify takes --seeds, not seed")
                repeatable = "item" in _FIELDS[key].metadata
                texts[key] = text.split() if repeatable else text.strip()
    # Flags override the file; verify has no --seed, --report or --emit-events.
    for name in _FIELDS:
        if getattr(args, name, None) is not None:
            texts[name] = getattr(args, name)
    config = RunConfig(**{name: _coerce(name, text)
                          for name, text in texts.items()})
    config.validate(given=texts)
    return config


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    reads: tuple    # options read besides workload, seed and report
    run: object     # config -> (sim, result, match, coordination)
    answer: object  # (config, result) -> the part no seed may change


_SIMULATED = ("input", "k", "workers", "dup_prob", "reorder_window",
              "drop_prob", "fail", "partition", "join", "emit_events")


def _load_corpus(config: RunConfig) -> str:
    with open(config.input, encoding="ascii") as fh:
        return fh.read()


def _schedule(config: RunConfig) -> DeliverySchedule:
    return DeliverySchedule(
        seed=config.seed, duplicate_prob=config.dup_prob,
        reorder_window=config.reorder_window, drop_prob=config.drop_prob)


def _run_kwargs(config: RunConfig) -> dict:
    """Delivery schedule and fault injections shared by every runner."""
    return dict(schedule=_schedule(config), failures=config.fail,
                joins=config.join, partitions=config.partition)


def _at_threshold(config: RunConfig, counts: dict) -> dict:
    """kmer_b's answer: counts below the threshold are exact; a count at or
    above it says only that the threshold was reached."""
    t = config.threshold
    return {km: c if c < t else f">={t}" for km, c in counts.items()}


def _kmer(runner: str, answer=lambda config, counts: counts, reads=()):
    """A k-mer workload: ``kmer.<runner>``, which also takes the options in
    ``reads`` as keywords, must give the oracle's ``answer``."""
    def run_kmer(config):
        corpus = _load_corpus(config)
        truth = kmer.oracle_count(corpus, config.k)
        res = getattr(kmer, runner)(
            corpus, config.k, config.workers,
            **{name: getattr(config, name) for name in reads},
            **_run_kwargs(config))
        # Only the table variant plans a query; it must be coordination-free.
        match = (answer(config, res.histogram) == answer(config, truth)
                 and res.coordination_free is not False)
        coordination = {"plan_coordination_free": res.coordination_free,
                        "failed_workers": len(config.fail)}
        return (res.sim, kmer.histogram_report(config.k, res.histogram),
                match, coordination)
    return Workload(_SIMULATED + reads, run_kmer,
                    lambda config, result: answer(config, result["counts"]))


def _cms(runner: str):
    """A count-min workload: ``sketch.<runner>``'s holders must converge,
    and its estimates at worker 0 must equal the reference's and never
    undercount.  An estimate is IDK, reported as null, where a cell's
    holder is still cut off from worker 0 when the run ends.  The row seeds
    keep their default, so every ``--seed`` builds the same sketch."""
    def run_cms(config):
        corpus = _load_corpus(config)
        params = sketch.choose_params(config.eps, config.delta)
        reference = sketch.sequential_sketch(
            sketch.corpus_stream(corpus, config.k), params)
        truth = kmer.oracle_count(corpus, config.k)
        res = getattr(sketch, runner)(corpus, config.k, params,
                                      config.workers, **_run_kwargs(config))
        answers = {x: sketch.SketchResult.query(res, x) for x in sorted(truth)}
        estimates = {x: a.payload if isinstance(a, Value) else None
                     for x, a in answers.items()}
        converged = res.converged()
        match = converged and all(
            estimates[x] == reference.query(x) and estimates[x] >= truth[x]
            for x in truth)
        result = dict(res.sketch().dump(), estimates=estimates)
        gather = sum(1 for ev in res.sim.events if ev[1] == "gather")
        coordination = {"gather_messages": gather,
                        "replicas_converged": converged}
        return res.sim, result, match, coordination
    return Workload(_SIMULATED + ("eps", "delta"), run_cms,
                    lambda config, result: result["estimates"])


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


# The runners are looked up when a workload runs, so tests can replace them.
WORKLOADS = {
    "kmer_a": _kmer("impl_a_run"),
    "kmer_b": _kmer("impl_b_run", _at_threshold, ("threshold",)),
    "kmer_table": _kmer("table_kmer_run"),
    "cms_design1": _cms("design1_run"),
    "cms_design2": _cms("design2_run"),
    "lattice_demo": Workload((), _run_lattice_demo,
                             lambda config, result: result),
}


# The exit code of each error class a run may raise.
EXIT_CODES = {
    UnknownWorkerError: 2,      # a fault names a worker never registered
    DivergenceError: 3,         # no quiescence or no fixed point
    LatticeTypeError: 4,        # merge across lattice types
    ThresholdMismatchError: 4,  # merge across thresholds
    LatticeLawError: 4,         # a merge that is not ACI
    StratificationError: 4,     # an instantaneous rule cycle
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one workload; returns (exit_code, report)."""
    try:
        config.validate()
        sim, result, match, coordination = WORKLOADS[config.workload].run(
            config)
    except (ValueError, OSError) as exc:
        return 2, {"error": str(exc)}
    except CalmsimError as exc:
        code = EXIT_CODES[type(exc)]
        if code == 2:
            return 2, {"error": str(exc)}
        # The run's sim is lost with the error, so no event log is written.
        sim, report = None, {"error": str(exc), "config": config.echo()}
    else:
        code = 0 if match else 1
        report = {
            "config": config.echo(),
            "workload": config.workload,
            "match": match,
            "result": result,
            "ticks": sim.now if sim else 0,
            "messages": sum(ev[1] == "send" for ev in sim.events) if sim else 0,
            "coordination": coordination,
        }
    if config.emit_events and sim:
        with open(config.emit_events, "w", encoding="utf-8") as fh:
            fh.write(sim.event_lines())
    if config.report:
        with open(config.report, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    return code, report


def report_json(report: dict) -> str:
    import json  # on use, as argparse is: a cheaper `import calmsim.cli`
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def verify(config: RunConfig, seeds: list[int]) -> tuple[int, dict]:
    """Run the workload once per seed; all runs must give the same answer."""
    if len(seeds) < 2:
        return 2, {"error": "verify needs at least two seeds"}
    if config.report or config.emit_events:
        return 2, {"error": "verify writes no report or event log"}
    answers, matches, diverging = [], [], None
    for seed in seeds:
        code, report = run(replace(config, seed=seed))
        if code > 1:
            return code, report
        matches.append(code == 0)
        answers.append(
            WORKLOADS[config.workload].answer(config, report["result"]))
        if answers[0] != answers[-1] and diverging is None:
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
    import argparse
    parser = argparse.ArgumentParser(
        prog="calmsim",
        description="Deterministic CRDT workload simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "verify"):
        # No abbreviations: verify must not read --seed as --seeds.
        p = sub.add_parser(command, allow_abbrev=False)
        for f in fields(RunConfig):
            # verify runs several seeds and writes no files.
            if command == "verify" and f.name in ("seed", "emit_events",
                                                  "report"):
                continue
            flag = ("-" if len(f.name) == 1 else "--") + f.name.replace(
                "_", "-")
            p.add_argument(
                flag, dest=f.name,
                action="append" if "item" in f.metadata else "store",
                choices=WORKLOADS if f.name == "workload" else None,
                metavar=f.metadata.get("metavar"))
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
            seeds = _parse_seeds(args.seeds)
    except (ValueError, OSError) as exc:
        parser.print_usage(sys.stderr)
        print(f"calmsim: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        code, report = run(config)
    else:
        code, report = verify(config, seeds)
    sys.stdout.write(report_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
