"""Differential verification: generative fuzzing across redundant
implementations.

The repository intentionally contains several independently-implemented
answers to the same questions — object vs vectorized simulation, kernel
vs reference round elimination, CSP search vs brute-force enumeration,
view collection vs its definition.  This package turns that redundancy
into a correctness harness:

* :mod:`~repro.verification.generators` — seeded random problems, graphs,
  Supported LOCAL instances and serialization payloads, all described by
  replayable JSON dicts;
* :mod:`~repro.verification.oracles` — the differential oracle registry
  (``roundelim``, ``engines``, ``solver``, ``serialization``, ``views``);
* :mod:`~repro.verification.shrink` — a greedy minimizer for failing
  cases;
* :mod:`~repro.verification.corpus` — the serialized counterexample
  corpus under ``tests/corpus/`` and its replay path;
* :mod:`~repro.verification.cli` — ``python -m repro.verification``
  (``list`` / ``fuzz`` / ``replay``), seeded and jobs-parallel with
  byte-deterministic output.
"""

from repro.verification.corpus import (
    CORPUS_SCHEMA,
    DEFAULT_CORPUS_DIR,
    corpus_files,
    load_entry,
    make_entry,
    replay_entry,
    save_entry,
)
from repro.verification.oracles import (
    ORACLES,
    Oracle,
    available_oracles,
    resolve_oracle,
    run_check,
)
from repro.verification.shrink import ShrinkResult, shrink_failing_case
from repro.verification.cli import generate_cases, main, run_fuzz

__all__ = [
    "CORPUS_SCHEMA",
    "DEFAULT_CORPUS_DIR",
    "ORACLES",
    "Oracle",
    "ShrinkResult",
    "available_oracles",
    "corpus_files",
    "generate_cases",
    "load_entry",
    "main",
    "make_entry",
    "replay_entry",
    "resolve_oracle",
    "run_check",
    "run_fuzz",
    "save_entry",
    "shrink_failing_case",
]
