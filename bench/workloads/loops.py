"""``loops``: classify seeded Laurent loops of all seven matrix forms.

One operation computes the four invariants of a loop g (Cartan, Birkhoff,
K-orbit, R-orbit) and the same invariants of pre-built moved copies
a·g·b, m·g·b, k·g·b and r·g, as the criterion-6 laws do.  A round holds one
loop of each kind for each form:

- ``laws``: g = real·k·polynomial, checked by the four laws and Birkhoff <= Cartan;
- ``cartan``: g = a·t^lam·b with a, b polynomial, whose Cartan invariant is sorted(lam);
- ``birkhoff``: g = m·t^lam·b with m a negative polynomial loop, whose
  Birkhoff invariant is sorted(lam).

The loops come from the package's seeded generators, which multiply a
random number of factors, so one loop can cost 10x another of the same form
and kind; loops drawn afresh for each seed varied in total cost by about 10%
from seed to seed.  A timed run therefore classifies a fixed suite: the
loops depend only on the number of rounds, and ``--seed`` decides which
round classifies which loop and in what order.  Exponents stay at desk scale,
and no lattice code runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from matsuki import loopmatrix as lm
from matsuki import textio

from ..oracles import dominant_sorted, type_a_leq
from . import Round, raised

KINDS = ("laws", "cartan", "birkhoff")


@dataclass(frozen=True)
class Case:
    form: str
    kind: str
    lam: tuple[int, ...] | None  # the known answer of the cartan and birkhoff kinds
    g: object
    ab: object  # a·g·b, same Cartan invariant
    mb: object  # m·g·b, same Birkhoff invariant
    kb: object  # k·g·b, same K-orbit invariant
    rg: object  # r·g, same R-orbit invariant


def _desk_coweight(form, rng) -> tuple[int, ...]:
    lam = [rng.randint(-2, 2) for _ in range(form.n)]
    if form.special:
        lam[-1] = -sum(lam[:-1])
    return tuple(lam)


def build_case(form_name: str, kind: str, base: int, rng) -> Case:
    form = lm.form_action(form_name)

    def poly(seed, negative=False):
        return lm.random_polynomial_loop(form, seed, negative=negative)

    lam = None
    if kind == "laws":
        g = lm.mat_mul(lm.mat_mul(lm.random_real_loop(form, base), lm.random_k_loop(form, base + 1)), poly(base + 2))
    else:
        lam = _desk_coweight(form, rng)
        left = poly(base, negative=True) if kind == "birkhoff" else poly(base)
        g = lm.mat_mul(lm.mat_mul(left, lm.diagonal_loop(form_name, lam)), poly(base + 1))
    b = poly(base + 4)
    return Case(
        form=form_name,
        kind=kind,
        lam=lam,
        g=g,
        ab=lm.mat_mul(lm.mat_mul(poly(base + 3), g), b),
        mb=lm.mat_mul(lm.mat_mul(poly(base + 5, negative=True), g), b),
        kb=lm.mat_mul(lm.mat_mul(lm.random_k_loop(form, base + 6), g), b),
        rg=lm.mat_mul(lm.random_real_loop(form, base + 7), g),
    )


def classify(case: Case) -> tuple:
    return (
        lm.stratum_invariant(case.g),
        lm.splitting_type(case.g),
        lm.k_orbit_invariant(case.g),
        lm.r_orbit_invariant(case.g),
        lm.stratum_invariant(case.ab),
        lm.splitting_type(case.mb),
        lm.k_orbit_invariant(case.kb),
        lm.r_orbit_invariant(case.rg),
    )


def problem(case: Case, result) -> str | None:
    if isinstance(result, Exception):
        return raised(result)
    cartan, birkhoff, k_inv, r_inv, cartan_ab, birkhoff_mb, k_kb, r_rg = result
    if cartan_ab != cartan:
        return f"Cartan invariant moved: {cartan} vs {cartan_ab}"
    if birkhoff_mb != birkhoff:
        return f"Birkhoff invariant moved: {birkhoff} vs {birkhoff_mb}"
    if k_kb != k_inv:
        return f"K-orbit invariant moved: {k_inv} vs {k_kb}"
    if r_rg != r_inv:
        return f"R-orbit invariant moved: {r_inv} vs {r_rg}"
    if not type_a_leq(birkhoff, cartan):
        return f"Birkhoff {birkhoff} not below Cartan {cartan}"
    if case.kind == "cartan" and cartan != dominant_sorted(case.lam):
        return f"Cartan invariant {cartan}, expected {dominant_sorted(case.lam)}"
    if case.kind == "birkhoff" and birkhoff != dominant_sorted(case.lam):
        return f"Birkhoff invariant {birkhoff}, expected {dominant_sorted(case.lam)}"
    return None


class LoopsWorkload:
    name = "loops"
    in_process = True
    min_ops = 100
    ops_per_round = len(lm.form_names()) * len(KINDS)
    passes = 5
    round_s = 0.65
    cycle = 1
    trace_rounds = 4

    def make_rounds(self, seed: int, count: int) -> list[Round]:
        suite = random.Random(f"loops:suite:{count}")
        rng = random.Random(f"loops:{seed}:{count}")
        slots = []
        for form_name in lm.form_names():
            for kind in KINDS:
                cases = [build_case(form_name, kind, suite.randrange(1, 10**9) * 8, suite) for _ in range(count)]
                rng.shuffle(cases)
                slots.append(cases)
        rounds = []
        for index in range(count):
            cases = [slot[index] for slot in slots]
            rng.shuffle(cases)
            inputs = "".join(
                f"{c.form} {c.kind} {c.lam}\n"
                + "".join(textio.format_matrix(m) for m in (c.g, c.ab, c.mb, c.kb, c.rg))
                for c in cases
            )
            rounds.append(Round(index=index, ops=cases, inputs=inputs))
        return rounds

    def prepare(self, op) -> None:
        pass

    def run_op(self, op: Case, tracer=None):
        return classify(op)

    def check(self, round_: Round, results) -> list:
        return [problem(case, result) for case, result in zip(round_.ops, results)]
