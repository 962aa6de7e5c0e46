import json
import os
import re
import sysconfig
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from calmsim import cli, errors, kmer, sketch
from calmsim.cli import RunConfig

from conftest import SRC, run_python


@pytest.fixture(scope="session")
def corpus_file(tmp_path_factory, small_corpus):
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    path.write_text(small_corpus)
    return str(path)


def test_run_kmer_a_matches_oracle(corpus_file, small_corpus):
    code, report = cli.run(RunConfig(workload="kmer_a", input=corpus_file,
                                     workers=3, seed=1, dup_prob=0.3))
    assert code == 0 and report["match"]
    assert report["result"]["counts"] == kmer.oracle_count(small_corpus, 4)
    assert report["messages"] > 0 and report["ticks"] > 0


def test_run_lattice_demo():
    code, report = cli.run(RunConfig(workload="lattice_demo"))
    assert code == 0 and report["match"]


def test_run_cms_design2(corpus_file):
    code, report = cli.run(RunConfig(workload="cms_design2", input=corpus_file,
                                     k=5, workers=2, eps=0.05, delta=0.1))
    assert code == 0
    assert report["coordination"]["replicas_converged"]


def test_run_cms_design1_counts_gathers(corpus_file):
    code, report = cli.run(RunConfig(workload="cms_design1", input=corpus_file,
                                     k=5, workers=3, eps=0.05, delta=0.1))
    assert code == 0
    assert report["coordination"]["gather_messages"] > 0


@pytest.mark.parametrize("workload", ["cms_design1", "cms_design2"])
def test_cms_report_cells_are_the_sequential_sketchs(workload, corpus_file,
                                                     small_corpus):
    # Dup, drop and reorder, a failure, a join and a cut that heals.
    code, report = cli.run(RunConfig(
        workload=workload, input=corpus_file, k=5, workers=3, eps=0.05,
        delta=0.1, seed=2, dup_prob=0.3, drop_prob=0.1, reorder_window=4,
        fail=[(3, 1)], join=[5], partition=[(2, ((0, 1),)), (6, ())]))
    assert code == 0, report
    ref = sketch.sequential_sketch(sketch.corpus_stream(small_corpus, 5),
                                   sketch.choose_params(0.05, 0.1))
    cells = [len(c) for row in ref.cells for c in row]
    assert report["result"]["cells"] == cells and sum(cells) > 0


def test_unknown_workload_exits_2():
    code, report = cli.run(RunConfig(workload="bogus"))
    assert code == 2 and "error" in report


def test_missing_input_exits_2():
    code, _ = cli.run(RunConfig(workload="kmer_a", input=None))
    assert code == 2


def test_unreadable_input_exits_2(tmp_path):
    code, _ = cli.run(RunConfig(workload="kmer_a",
                                input=str(tmp_path / "nope.txt")))
    assert code == 2


@pytest.mark.parametrize("path", ["missing/out", "."],
                         ids=["missing-dir", "is-a-dir"])
@pytest.mark.parametrize("flag", ["--report", "--emit-events"])
def test_unwritable_output_path_exits_2_before_the_run(
        corpus_file, flag, path, tmp_path, capsys, monkeypatch):
    def no_run(*a, **kw):
        raise AssertionError("the workload ran")

    monkeypatch.setattr(kmer, "impl_a_run", no_run)
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     flag, str(tmp_path / path)])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert "calmsim: error: cannot write output file " in err
    assert not (tmp_path / "missing").exists()


def test_divergence_exits_3(corpus_file, monkeypatch):
    def stuck_run(*a, **kw):
        raise cli.DivergenceError("tick cap exceeded")

    monkeypatch.setattr(kmer, "impl_a_run", stuck_run)
    code, report = cli.run(RunConfig(workload="kmer_a", input=corpus_file))
    assert code == 3 and "error" in report


RUN_ERRORS = [
    (errors.UnknownWorkerError("worker 9 was never registered"), 2),
    (errors.DivergenceError("tick cap exceeded"), 3),
    (errors.LatticeTypeError("cannot merge GSet with LMax"), 4),
    (errors.ThresholdMismatchError("threshold mismatch: 3 != 1"), 4),
    (errors.LatticeLawError("merge is not idempotent"), 4),
    (errors.StratificationError(["a", "b", "a"]), 4),
]


def test_run_errors_cover_every_calmsim_error():
    classes, todo = set(), [errors.CalmsimError]
    while todo:
        sub = todo.pop().__subclasses__()
        classes.update(sub)
        todo += sub
    assert {type(e) for e, _code in RUN_ERRORS} == classes == set(
        cli.EXIT_CODES)


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("error, code", RUN_ERRORS,
                         ids=[type(e).__name__ for e, _code in RUN_ERRORS])
def test_run_error_exits_with_its_code(corpus_file, monkeypatch, capsys,
                                       command, error, code):
    def failing_run(*a, **kw):
        raise error

    monkeypatch.setattr(kmer, "impl_a_run", failing_run)
    argv = [command, "--workload", "kmer_a", "--input", corpus_file]
    if command == "verify":
        argv += ["--seeds", "1,2"]
    assert cli.main(argv) == code
    assert json.loads(capsys.readouterr().out)["error"] == str(error)


@pytest.mark.parametrize("error, code", RUN_ERRORS,
                         ids=[type(e).__name__ for e, _code in RUN_ERRORS])
def test_run_error_writes_the_report_it_prints(corpus_file, tmp_path,
                                               monkeypatch, capsys, error,
                                               code):
    # Exit 3 or 4 writes stdout's report to --report too; a config error
    # (exit 2) writes no file, and no error writes an event log.
    def failing_run(*a, **kw):
        raise error

    monkeypatch.setattr(kmer, "impl_a_run", failing_run)
    report, events = tmp_path / "r.json", tmp_path / "ev.log"
    assert cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--report", str(report),
                     "--emit-events", str(events)]) == code
    out = capsys.readouterr().out
    assert not events.exists()
    if code == 2:
        assert not report.exists()
    else:
        assert report.read_bytes() == out.encode()
        assert json.loads(out).keys() == {"config", "error"}


def test_unhealed_partition_exits_3_and_writes_the_report(corpus_file,
                                                          tmp_path, capsys):
    report = tmp_path / "r.json"
    assert cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "3", "--partition", "2:0-1",
                     "--report", str(report)]) == 3
    out = capsys.readouterr().out
    assert report.read_bytes() == out.encode()
    assert "no quiescence" in json.loads(out)["error"]


def test_run_with_every_worker_failed_exits_3_at_once(corpus_file):
    config = RunConfig(workload="kmer_a", input=corpus_file, workers=2,
                       fail=[(2, 0), (2, 1)])
    code, report = cli.run(config)
    assert code == 3 and "no worker is alive" in report["error"]
    # A later join takes the work left.
    code, report = cli.run(replace(config, join=[5]))
    assert code == 0 and report["match"]


def test_dropped_windows_exit_1(corpus_file, monkeypatch):
    real = kmer.chunk_columns

    def lossy(data, chunk, k):
        if chunk.start == 0:
            return [], []
        return real(data, chunk, k)

    monkeypatch.setattr(kmer, "chunk_columns", lossy)
    code, report = cli.run(RunConfig(workload="kmer_a", input=corpus_file,
                                     workers=2))
    assert code == 1 and not report["match"]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_fail_unregistered_worker_exits_2(corpus_file, command, capsys):
    # A partition endpoint must be registered too; both are config errors,
    # found before the run.
    for flag in (["--fail", "3:9"], ["--partition", "3:0-9"]):
        argv = [command, "--workload", "kmer_a", "--input", corpus_file,
                "--workers", "2", *flag]
        if command == "verify":
            argv += ["--seeds", "1,2"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(r"calmsim: error: .*worker 9", err)


def test_cms_design1_reports_idk_behind_unhealed_partition(corpus_file):
    code, report = cli.run(RunConfig(
        workload="cms_design1", input=corpus_file, k=5, workers=3,
        eps=0.05, delta=0.1, partition=[(200, ((0, 1),))]))
    assert code == 1 and not report["match"]
    assert None in report["result"]["estimates"].values()


def test_import_loads_only_stdlib_and_calmsim():
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import calmsim.cli\n"
            "print(json.dumps([getattr(sys.modules[name], '__file__', None)\n"
            "                  for name in set(sys.modules) - before]))\n")
    paths = sysconfig.get_paths()

    def real(*keys):
        return tuple(os.path.realpath(paths[k]) + os.sep for k in keys)

    stdlib, third_party = real("stdlib", "platstdlib"), real("purelib", "platlib")
    src = os.path.realpath(SRC) + os.sep
    outside = []
    for path in filter(None, json.loads(run_python(code))):
        path = os.path.realpath(path)
        if not path.startswith(src) and (path.startswith(third_party)
                                         or not path.startswith(stdlib)):
            outside.append(path)
    assert outside == []


def test_bench_tracer_finds_every_name_it_patches():
    # bench/tracer.py patches calmsim names from outside src/; deleting one
    # of them breaks traced benchmark runs.
    tracer = SRC.parent / "bench" / "tracer.py"
    code = ("import importlib.util\n"
            "spec = importlib.util.spec_from_file_location(\n"
            f"    'tracer', {str(tracer)!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "tracer = module.Tracer()\n"
            "tracer.install()\n"
            "tracer.uninstall()\n"
            "print('ok')\n")
    assert run_python(code) == "ok\n"


@pytest.mark.parametrize("flag", [["--fail", "0:1"], ["--partition", "0:0-1"],
                                  ["--join", "-3"]])
def test_fault_tick_below_one_exits_2(corpus_file, flag, capsys):
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "2", *flag])
    assert code == 2
    assert "fault ticks must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--report", "r.json"],
                                  ["--emit-events", "e.log"]])
def test_verify_rejects_single_run_flags(corpus_file, flag, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--workload", "kmer_a", "--input", corpus_file,
                  "--seeds", "1,2", *flag])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["report", "emit_events"])
def test_verify_rejects_output_files_from_config(corpus_file, key, tmp_path,
                                                 capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"{key} = {tmp_path / 'out'}\n")
    code = cli.main(["verify", "--config", str(cfg), "--workload", "kmer_a",
                     "--input", corpus_file, "--seeds", "1,2"])
    assert code == 2
    assert "verify writes no report" in json.loads(capsys.readouterr().out)[
        "error"]
    assert not (tmp_path / "out").exists()


def test_lattice_demo_rejects_options_it_does_not_read(tmp_path, capsys):
    code = cli.main(["run", "--workload", "lattice_demo", "--fail", "3:1",
                     "--join", "2", "--input", "/nonexistent"])
    assert code == 2
    assert "lattice_demo takes no input, fail, join" in capsys.readouterr().err
    report = tmp_path / "report.json"
    assert cli.main(["run", "--workload", "lattice_demo", "--seed", "4",
                     "--report", str(report)]) == 0
    assert json.loads(report.read_text())["match"]


@pytest.mark.parametrize("config_line", [None, "threshold = 3"],
                         ids=["flag", "config-key"])
def test_an_unread_option_at_its_default_exits_2(corpus_file, config_line,
                                                 tmp_path, capsys):
    assert RunConfig().threshold == 3  # the value given is the default
    flag = ["--threshold", "3"]
    if config_line:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        flag = ["--config", str(cfg)]
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     *flag])
    assert code == 2
    out, err = capsys.readouterr()
    assert "calmsim: error: kmer_a takes no threshold" in err and not out


def test_report_and_event_log_naming_one_file_exit_2(corpus_file, tmp_path,
                                                     capsys):
    (tmp_path / "sub").mkdir()
    same, alias = tmp_path / "same.out", tmp_path / "sub" / ".." / "same.out"
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "2", "--report", str(same),
                     "--emit-events", str(alias)])
    assert code == 2
    assert "name one file" in capsys.readouterr().err
    assert not same.exists()


@pytest.mark.parametrize("error, flag, config_line", [
    ("fail: ", ["--fail", "notanumber"], None),
    ("workers: ", ["--workers", "x"], None),
    ("workers: ", [], "workers = x"),
    ("worker 1 cannot be cut off from itself", ["--partition", "3:1-1"], None),
    ("each cut pair must name two workers", ["--partition", "3:0-1-2"], None),
], ids=["fail", "workers", "workers-in-config", "partition-self-pair",
        "partition-three-workers"])
def test_main_malformed_flag_exits_2(corpus_file, error, flag, config_line,
                                     tmp_path, capsys):
    if config_line:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_line + "\n")
        flag = ["--config", str(cfg)]
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     *flag])
    assert code == 2
    out, err = capsys.readouterr()
    assert f"calmsim: error: {error}" in err and not out


@pytest.mark.parametrize("seeds", ["1,x", "1,1", "1,,2"],
                         ids=["not-int", "repeated", "empty-item"])
def test_verify_malformed_seeds_exits_2(corpus_file, seeds, capsys):
    code = cli.main(["verify", "--workload", "kmer_a", "--input", corpus_file,
                     "--seeds", seeds])
    assert code == 2
    assert "calmsim: error: seeds: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--drop-prob", "1.0"],
                                  ["--reorder-window", "-1"],
                                  ["--dup-prob", "2"]])
def test_bad_delivery_schedule_is_a_config_error(corpus_file, flag, capsys):
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     *flag])
    assert code == 2
    out, err = capsys.readouterr()
    assert "calmsim: error: " in err and not out


@pytest.mark.parametrize("flag", [["--eps", "0"], ["--eps", "1"],
                                  ["--delta", "0"]])
def test_bad_eps_or_delta_is_a_config_error(flag, tmp_path, capsys):
    # Rejected with the other flags, before the input is read.
    code = cli.main(["run", "--workload", "cms_design1",
                     "--input", str(tmp_path / "missing.txt"), *flag])
    assert code == 2
    out, err = capsys.readouterr()
    assert "calmsim: error: epsilon and delta must be in (0, 1)" in err
    assert not out


@pytest.mark.parametrize("flag", [["-k", "0"], ["--workers", "0"],
                                  ["--threshold", "0"]])
def test_k_workers_or_threshold_below_1_exits_2(flag, tmp_path, capsys):
    # Rejected with the other flags, before the input is read.
    code = cli.main(["run", "--workload", "kmer_b",
                     "--input", str(tmp_path / "missing.txt"), *flag])
    assert code == 2
    out, err = capsys.readouterr()
    assert "calmsim: error: k, workers, and threshold must be >= 1" in err
    assert not out


def test_worker_failed_twice_exits_2(corpus_file, capsys):
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "3", "--fail", "3:1", "--fail", "5:1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "worker 1 is listed to fail more than once" in err


def test_two_cuts_at_one_tick_exit_2(corpus_file, capsys):
    # The second cut would replace the first, silently dropping its pair.
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "3", "--partition", "1:0-1",
                     "--partition", "1:1-2", "--partition", "6:"])
    assert code == 2
    out, err = capsys.readouterr()
    assert "two partitions at tick 1" in err and not out
    code = cli.main(["run", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "3", "--partition", "1:0-1,1-2",
                     "--partition", "6:"])
    assert code == 0


def test_main_run_and_flag_parsing(corpus_file, capsys):
    code = cli.main([
        "run", "--workload", "kmer_table", "--input", corpus_file,
        "--workers", "4", "--seed", "2", "--dup-prob", "0.5",
        "--fail", "5:1", "--join", "7",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["fail"] == [[5, 1]]
    assert report["config"]["join"] == [7]
    assert report["coordination"]["plan_coordination_free"]


def test_config_file_with_flag_override(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "workload = kmer_b\n"
        f"input = {corpus_file}\n"
        "workers = 2\n"
        "threshold = 3   # guard value\n"
        "dup-prob = 0.2\n"
    )
    code = cli.main(["run", "--config", str(cfg), "--workers", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["workers"] == 4  # flag beats file
    assert report["config"]["threshold"] == 3
    assert report["config"]["dup_prob"] == 0.2


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wrokload = kmer_a\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "workload",
    [w for w, spec in cli.WORKLOADS.items() if "emit_events" in spec.reads])
def test_report_and_event_files_deterministic(tmp_path, corpus_file, workload):
    rep = tmp_path / "report.json"
    ev = tmp_path / "events.log"

    def one_run():
        config = RunConfig(workload=workload, input=corpus_file, workers=3,
                           seed=9, dup_prob=0.3, reorder_window=4,
                           drop_prob=0.1, report=str(rep),
                           emit_events=str(ev))
        assert cli.run(config)[0] == 0
        return rep.read_bytes(), ev.read_bytes()

    assert one_run() == one_run()


def test_event_log_format(tmp_path, corpus_file):
    ev = tmp_path / "events.log"
    cli.run(RunConfig(workload="kmer_a", input=corpus_file, workers=2,
                      emit_events=str(ev)))
    lines = ev.read_text().splitlines()
    assert lines
    kinds = set()
    for line in lines:
        tick, kind, *_ = line.split(",")
        int(tick)
        kinds.add(kind)
    assert {"send", "deliver", "assign", "complete"} <= kinds


def test_verify_identical_across_seeds(corpus_file, capsys):
    code = cli.main(["verify", "--workload", "kmer_a", "--input", corpus_file,
                     "--workers", "3", "--dup-prob", "0.3",
                     "--drop-prob", "0.1", "--reorder-window", "3",
                     "--seeds", "1,2,3"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["identical"] and summary["all_match"]
    assert summary["diverging_seed"] is None


@pytest.mark.parametrize("workload", ["kmer_b", "cms_design1", "cms_design2"])
def test_verify_identical_across_seeds_on_every_answer(corpus_file, workload,
                                                       capsys):
    # kmer_b compares below-threshold counts; the sketches keep their row
    # seeds whatever the delivery seed.
    code = cli.main(["verify", "--workload", workload, "--input", corpus_file,
                     "--workers", "3", "--dup-prob", "0.3",
                     "--drop-prob", "0.1", "--seeds", "1,2,3"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0, summary
    assert summary["identical"] and summary["all_match"]


def test_verify_reports_the_first_diverging_seed(corpus_file, monkeypatch,
                                                capsys):
    # Seeds 2 and 3 each lose a k-mer; verify names the first of them.
    impl_a_run = kmer.impl_a_run

    def lossy(*args, **kwargs):
        res = impl_a_run(*args, **kwargs)
        if kwargs["schedule"].seed in (2, 3):
            res.histogram.pop(min(res.histogram))
        return res

    monkeypatch.setattr(kmer, "impl_a_run", lossy)
    code = cli.main(["verify", "--workload", "kmer_a", "--input", corpus_file,
                     "--seeds", "1,2,3"])
    summary = json.loads(capsys.readouterr().out)
    assert code == 1
    assert summary["identical"] is False and summary["all_match"] is False
    assert summary["diverging_seed"] == 2


def test_verify_rejects_seed_from_config(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("seed = 5\n")
    code = cli.main(["verify", "--config", str(cfg), "--workload", "kmer_a",
                     "--input", corpus_file, "--seeds", "1,2"])
    assert code == 2
    assert "verify takes --seeds, not seed" in capsys.readouterr().err


# A valid value other than the default for every RunConfig field but
# ``workload``.
SET_FIELDS = dict(input="corpus.txt", k=5, threshold=7, workers=2, seed=5,
                  dup_prob=0.5, reorder_window=2, drop_prob=0.5, eps=0.5,
                  delta=0.5, fail=[(3, 1)], partition=[(3, ((0, 1),))],
                  join=[4], emit_events="e.log", report="r.json")


@pytest.mark.parametrize("workload", list(cli.WORKLOADS))
def test_workload_rejects_options_it_does_not_read(workload):
    assert {"workload", *SET_FIELDS} == {f.name for f in fields(RunConfig)}
    reads = {"seed", "report", *cli.WORKLOADS[workload].reads}
    # Two workers where they are read, so the faults name known workers.
    base = RunConfig(workload=workload,
                     input="corpus.txt" if "input" in reads else None,
                     workers=2 if "workers" in reads else 1)
    for name, value in SET_FIELDS.items():
        config = replace(base, **{name: value})
        if name in reads:
            config.validate()
        else:
            code, report = cli.run(config)
            assert code == 2
            assert report["error"] == f"{workload} takes no {name}"


def test_verify_single_seed_rejected(corpus_file):
    code, report = cli.verify(
        RunConfig(workload="kmer_a", input=corpus_file), seeds=[1])
    assert code == 2 and "error" in report


@st.composite
def fault_schedules(draw):
    """Lossy delivery, plus an optional failure of a worker other than 0,
    an optional partition of one pair that heals later, and an optional
    join."""
    workers = draw(st.integers(2, 4))
    faults = dict(workers=workers, seed=draw(st.integers(0, 2**16)),
                  dup_prob=draw(st.floats(0, 0.5)),
                  reorder_window=draw(st.integers(0, 5)),
                  drop_prob=draw(st.floats(0, 0.3)))
    if draw(st.booleans()):
        faults["fail"] = [(draw(st.integers(1, 20)),
                           draw(st.integers(1, workers - 1)))]
    if draw(st.booleans()):
        pair = tuple(draw(st.lists(st.integers(0, workers - 1), min_size=2,
                                   max_size=2, unique=True)))
        cut = draw(st.integers(1, 15))
        faults["partition"] = [(cut, (pair,)),
                               (cut + draw(st.integers(1, 15)), ())]
    if draw(st.booleans()):
        faults["join"] = [draw(st.integers(1, 20))]
    return faults


@pytest.mark.parametrize(
    "workload",
    [w for w, spec in cli.WORKLOADS.items() if "fail" in spec.reads])
@settings(max_examples=25, deadline=None)
@given(faults=fault_schedules())
def test_random_fault_schedules_match_oracle(workload, corpus_file, faults):
    code, report = cli.run(RunConfig(workload=workload, input=corpus_file,
                                     **faults))
    assert code == 0, report
