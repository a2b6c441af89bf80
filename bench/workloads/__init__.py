"""The benchmark's workloads.

Each workload generates rounds of operations from a seed before they are
timed, runs one operation at a time, and checks a round's results afterwards
against oracles that do not use the result being checked.  A workload has:

- ``name``, ``min_ops`` (fewest distinct operations a timed run completes),
  ``ops_per_round``, ``passes`` (times a timed run replays each round),
  ``round_s`` (seconds one pass over one round takes on a 2-core VM),
  ``cycle`` (a timed run holds whole cycles of this many rounds; see
  ``round_count``) and ``trace_rounds`` (rounds a traced run replays);
- ``make_rounds(seed, count) -> list[Round]``;
- ``prepare(op)``: untimed work before one operation, such as clearing the
  caches with the runner's ``cold`` state;
- ``run_op(op, tracer)``: one operation; ``tracer`` is only used by workloads
  whose operations run in child processes (``in_process`` is False), which
  also leave in ``reading`` the speed probes the child ran after the
  untraced operation (see ``bench/cli_run.py``);
- ``check(round, results) -> list``: a problem string or None per operation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Child interpreters write no bytecode, so every run compiles the package from
# source, and skip ``site``, whose .pth hooks belong to the environment, not to
# the package (a hook that imports certifi costs about 70 ms per process).
CHILD_FLAGS = ("-B", "-S")


@dataclass
class Round:
    index: int
    ops: list
    inputs: str  # canonical text of the generated inputs; its SHA-256 is the digest


def round_count(workload, seconds: float) -> int:
    """Rounds in a timed run: about ``seconds`` of operations over all
    passes, in whole cycles of ``workload.cycle`` rounds, and at least
    ``min_ops`` distinct operations.  The count depends on ``seconds`` only,
    not on the clock, so every run of the same length does the same work."""
    cycles = max(1, round(seconds / (workload.passes * workload.round_s * workload.cycle)))
    fewest = math.ceil(workload.min_ops / (workload.ops_per_round * workload.cycle))
    return workload.cycle * max(cycles, fewest)


def stratified(options, seed: str, slot: str, index: int):
    """The option for round ``index`` in one slot: each slot walks through all
    options in turn from an offset drawn from the seed, so every run of whole
    cycles does the same work while the seed still decides which round gets
    which option."""
    offset = random.Random(f"{seed}:{slot}").randrange(len(options))
    return options[(offset + index) % len(options)]


def raised(result) -> str | None:
    """The problem to report for an operation that raised instead of returning."""
    return f"raised {result!r}" if isinstance(result, Exception) else None


def get(name: str, root):
    if name == "loops":
        from .loops import LoopsWorkload
        return LoopsWorkload()
    if name == "posets":
        from .posets import PosetsWorkload
        return PosetsWorkload(root)
    if name == "cli":
        from .cli import CliWorkload
        return CliWorkload(root)
    raise ValueError(f"unknown workload {name!r}; available: loops, posets, cli")
