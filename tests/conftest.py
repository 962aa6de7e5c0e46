import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, **env) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports calmsim
    from this checkout; ``env`` adds environment variables."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env})
    return out.stdout


def make_corpus(rng: random.Random, lines: int, width: int) -> str:
    return "\n".join(
        "".join(rng.choice("ACGT") for _ in range(width)) for _ in range(lines)
    ) + "\n"


@pytest.fixture(scope="session")
def corpus_10k() -> str:
    return make_corpus(random.Random(7), lines=100, width=100)


@pytest.fixture(scope="session")
def corpus_10k_path(tmp_path_factory, corpus_10k):
    path = tmp_path_factory.mktemp("fixtures") / "corpus_10k.txt"
    path.write_text(corpus_10k)
    return path


@pytest.fixture(scope="session")
def small_corpus() -> str:
    return make_corpus(random.Random(3), lines=12, width=60)
