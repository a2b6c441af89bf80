"""``posets``: seeded queries on the orbit posets of all ten catalog forms.

A round holds four queries per form, in shuffled order:

- a slice (``build_poset_slice``) in one order and, right after it, the same
  (form, height) in the other order (``reslice``), which finds the caches warm;
- all pairs of a slice under ``k_leq``, ``r_leq`` and ``real_step_leq``;
- ``matsuki_dual`` and ``core_data`` at every index of a slice.

The forms with a central direction, whose slices grow fastest, use one
stated size: ``gl2_split`` at height 11 (108 indices) and ``gl3_split`` at
height 7 (64 indices).  The other forms take the six heights of
``DEFAULT_HEIGHTS`` in turn, one per round and query, so a timed run, which
holds whole cycles of six rounds, asks every seed the same queries; the seed
decides which round asks which, and in what order (see ``stratified``).
No matrix code runs.
Every query but ``reslice`` starts from empty caches, so what a query costs
does not depend on the queries before it in the round.
Slices are checked by Hasse closure against an independent dominance oracle,
R edges against the reversed K edges, and the ``pgl2_so21`` slice at height 20
against the golden file.
"""

from __future__ import annotations

import random
from pathlib import Path

from matsuki import orbitposet, realform

from ..oracles import Lattices, closure_mismatch, poset_report
from . import Round, raised, stratified

# the forms with a central direction grow fastest: one stated size each
HEIGHTS = {"gl2_split": (11,), "gl3_split": (7,)}
DEFAULT_HEIGHTS = (12, 14, 16, 19, 21, 24)
CYCLE = len(DEFAULT_HEIGHTS)
GOLDEN = ("pgl2_so21", 20, "tests/golden/pgl2_so21_poset_h20.txt")
RELATIONS = ("k_leq", "r_leq", "real_step_leq")
SLICES = ("slice", "reslice")


def run_query(op):
    kind, form, height, arg = op
    spec = realform.catalog(form).spec
    if kind in SLICES:
        return orbitposet.build_poset_slice(spec, height, arg)
    elements = orbitposet.enumerate_orbits(spec, height)
    if kind == "pairs":
        return elements, tuple(
            tuple(getattr(orbitposet, relation)(spec, a, b) for a in elements for b in elements)
            for relation in RELATIONS
        )
    duals = tuple(orbitposet.matsuki_dual(spec, lam) for lam in elements)
    cores = tuple(orbitposet.core_data(spec, lam) for lam in elements)
    return elements, duals, cores


class PosetsWorkload:
    name = "posets"
    in_process = True
    min_ops = 100
    ops_per_round = 4 * len(realform.catalog_names())
    passes = 5
    round_s = 0.85
    cycle = CYCLE
    trace_rounds = 4

    def __init__(self, root: Path):
        self.golden = (root / GOLDEN[2]).read_text(encoding="utf-8")
        self.lattices = Lattices()
        self.cold = None  # the runner's cold state, set before any operation runs

    def make_rounds(self, seed: int, count: int) -> list[Round]:
        return [self.make_round(seed, index) for index in range(count)]

    def make_round(self, seed: int, index: int) -> Round:
        rng = random.Random(f"posets:{seed}:{index}")
        run = f"posets:{seed}"
        units = []  # a slice and its reslice stay together
        for form in realform.catalog_names():
            step = stratified(range(CYCLE), run, form, index)  # this round's place in the form's cycle
            heights = HEIGHTS.get(form, DEFAULT_HEIGHTS)
            # the three queries walk the heights in step, two heights apart
            slice_height, pairs_height, dual_height = (heights[(step + 2 * k) % len(heights)] for k in range(3))
            if form == GOLDEN[0]:
                slice_height = GOLDEN[1]
            first = "KR"[step % 2]  # the same first order at a height for every seed
            units.append([("slice", form, slice_height, first), ("reslice", form, slice_height, "R" if first == "K" else "K")])
            units.append([("pairs", form, pairs_height, None)])
            units.append([("dual", form, dual_height, None)])
        rng.shuffle(units)
        ops = [op for unit in units for op in unit]
        return Round(index=index, ops=ops, inputs="".join(f"{op!r}\n" for op in ops))

    def prepare(self, op) -> None:
        if op[0] != "reslice":
            self.cold.clear()

    def run_op(self, op, tracer=None):
        return run_query(op)

    def check(self, round_: Round, results) -> list:
        slices = {}
        for op, result in zip(round_.ops, results):
            if op[0] in SLICES and not isinstance(result, Exception):
                slices[op[1], op[2], op[3]] = result
        return [self.problem(op, result, slices) for op, result in zip(round_.ops, results)]

    def problem(self, op, result, slices) -> str | None:
        if isinstance(result, Exception):
            return raised(result)
        kind, form, height, arg = op
        lattice = self.lattices[form]
        if kind in SLICES:
            return self.slice_problem(lattice, op, result, slices)
        elements = result[0]
        if list(elements) != sorted(set(elements)) or not all(lattice.is_orbit_shaped(e) for e in elements):
            return "slice elements are not sorted dominant theta-fixed coweights"
        if kind == "pairs":
            k_order = tuple(lattice.leq(a, b) for a in elements for b in elements)
            r_order = tuple(lattice.leq(b, a) for a in elements for b in elements)
            for relation, got, want in zip(RELATIONS, result[1], (k_order, r_order, k_order)):
                if got != want:
                    return f"{relation} disagrees with the dominance oracle"
            return None
        for lam, (dual, core), core2 in zip(elements, result[1], result[2]):
            if dual != lam or core.coweight != lam or core2 != core:
                return f"dual or core at {lam} is not carried by the same index"
            if (core.parabolic_simple_roots, core.flag_dimension) != lattice.core(lam):
                return f"core at {lam} disagrees with the root oracle"
        return None

    def slice_problem(self, lattice, op, slice_, slices) -> str | None:
        _, form, height, order = op
        elements = slice_.elements
        if list(elements) != sorted(set(elements)) or not all(lattice.is_orbit_shaped(e) for e in elements):
            return "slice elements are not sorted dominant theta-fixed coweights"
        leq = lattice.leq if order == "K" else (lambda a, b: lattice.leq(b, a))
        bad = closure_mismatch(elements, slice_.hasse_edges, leq)
        if bad is not None:
            return f"Hasse closure disagrees with the {order} order at {bad}"
        if slice_.component_count != lattice.components(elements):
            return f"component count {slice_.component_count} disagrees with the oracle"
        other = slices.get((form, height, "R" if order == "K" else "K"))
        if other is not None:
            k_edges, r_edges = (slice_, other) if order == "K" else (other, slice_)
            if r_edges.hasse_edges != tuple(sorted((b, a) for a, b in k_edges.hasse_edges)):
                return "R edges are not the K edges reversed"
        if (form, height) == GOLDEN[:2]:
            k_slice = slice_ if order == "K" else other
            if k_slice is not None and poset_report(k_slice) != self.golden:
                return "pgl2_so21 slice differs from the golden file"
        return None
