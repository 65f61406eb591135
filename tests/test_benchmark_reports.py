"""The benchmark's own reports, pinned in tier-1.

Each workload of `perfbench/run.py` is built by its `workload_spec` at seed
1, parsed under the file name the benchmark writes, and run in-process as
one benchmark operation runs it.  The digests are those that
`perfbench/digests.py --seed 1` prints, listed in `perfbench/README.md`, so
a change that moves a byte of a benchmark report fails here, before the
benchmark's own checks run.  `perfbench/` is imported, never written.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from ktforest import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    "quadratic-lr-k7": "a5e2f6e9fcb9519176a7af64c5d671c85d825344fa4c45f4e9fac6f0ff513033",
    "taylor4-k5": "ef96da0e516938d6a9ca47dfc0f0a7950b61fd1028d4f07db46276ca0526cb02",
    "exactness-cap12": "079d66d0903a8cbc6314cd0b341456f9d828e5f205b44b18eceb5c5265195aac",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_report_digest(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("run")
    assert name in bench.WORKLOADS
    spec = cli.parse_spec(f"{name}-seed1.kt", text=bench.workload_spec(name, 1))
    text = cli.emit(cli.run(spec), "text")
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
