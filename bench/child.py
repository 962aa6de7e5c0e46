"""Child processes of the benchmark, each started in a fresh interpreter.

``setup SPEC``: read a corpus on stdin, then time a cold
``import calmsim.cli`` plus building a run's inputs from it.
``rss WORKLOAD SEED SMOKE``: run one repetition and report ``ru_maxrss``.
Each prints one JSON object.  ``PYTHONPATH`` must name the repo's ``src``.
"""

import json
import sys
import time


def setup(spec: dict) -> dict:
    corpus = sys.stdin.read()
    start = time.perf_counter()
    import calmsim.cli  # noqa: F401  (the import is what is timed)
    from calmsim import kmer, runtime, sketch
    kmer.normalize_corpus(corpus)
    if "cms" in spec:
        sketch.choose_params(*spec["cms"])
    if "schedule" in spec:
        runtime.DeliverySchedule(**spec["schedule"])
    return {"setup_s": time.perf_counter() - start}


def rss(workload: str, seed: int, smoke: bool) -> dict:
    import resource

    import workloads
    wl = workloads.WORKLOADS[workload](seed, smoke)
    wl.run()
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mb": kib / 1024}


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        out = setup(json.loads(sys.argv[2]))
    elif mode == "rss":
        out = rss(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(out))
