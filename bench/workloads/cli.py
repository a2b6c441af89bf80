"""``cli``: one ``python -m matsuki.cli`` command per fresh process.

A round is a fixed script of 25 commands whose arguments are drawn from the
seed:

- ``catalog``, ``catalog --name``, and ``catalog --export DIR`` followed by
  ``pi1`` on an exported spec file;
- ``pi1``, ``dual``, ``core``, and small ``orbits`` and ``poset`` commands;
- the golden ``poset pgl2_so21 --height 20``;
- ``check`` on two entries whose suites are quick (the matrix-form suites
  take about a second each and would set p90 instead of the loop files);
- ``invariant`` on four generated 3x3 loop files whose R-orbit computation
  runs at exponent spread about 20 to 24, one kind and form per slot so
  that their cost, which sets p90, is alike from round to round.

Every process imports the package cold, so start-up work shows here.  A
timed command runs through ``bench/cli_run.py``, which runs it as
``python -m matsuki.cli`` would and then runs the speed probes in the same
process.  With a tracer the commands run through ``bench/cli_shim.py``
instead, which records the per-layer totals in the child.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from matsuki import loopmatrix as lm
from matsuki import orbitposet, realform, textio

from ..oracles import (
    Lattices,
    closure_mismatch,
    dominant_sorted,
    fmt_coweight,
    parse_coweight,
    type_a_leq,
)
from . import CHILD_FLAGS, Round, raised

CHECKED = ("sl2_compact", "pgl2_so21", "sl2C_as_real", "gl1_split")
# One kind and form per slot, all 3x3.  The two geodesic files cost least
# and most alike of the four; with the two others above them they set p90.
FILE_SLOTS = (("cartan", "gl3_split"), ("birkhoff", "sl3_split"), ("geodesic", "gl3_split"), ("geodesic", "sl3_split"))
FILE_HALF_SPREAD = 10
SMALL_HEIGHTS = {"gl2_split": (2, 8), "gl3_split": (2, 5)}
DEFAULT_SMALL_HEIGHTS = (4, 16)
GOLDEN = "tests/golden/pgl2_so21_poset_h20.txt"
COMMAND_TIMEOUT_S = 60


def _fields(stdout: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        fields.setdefault(key, []).append(value)
    return fields


class CliWorkload:
    name = "cli"
    in_process = False
    min_ops = 100
    ops_per_round = 25
    passes = 1  # a second pass of 100 fresh processes would double a 25 s run
    round_s = 6.0
    cycle = 1
    trace_rounds = 1

    def __init__(self, root: Path):
        self.root = root
        self.golden = (root / GOLDEN).read_text(encoding="utf-8")
        self.work = None  # directory for generated files, set by the runner
        self.import_times: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.lattices = Lattices()
        self.reading = None  # (tail_s, probe times) of the last command, from bench/cli_run.py

    # -- generation ---------------------------------------------------------

    def _index(self, rng, name: str, height: int = 8) -> tuple[int, ...]:
        return rng.choice(orbitposet.enumerate_orbits(realform.catalog(name).spec, height))

    def _height(self, rng, name: str) -> int:
        return rng.randint(*SMALL_HEIGHTS.get(name, DEFAULT_SMALL_HEIGHTS))

    def _matrix_file(self, rng, kind: str, form_name: str, half: int, path: Path) -> tuple[int, ...]:
        """Write a loop whose invariant of the given kind is known: t^lam between
        polynomial loops (cartan), between a negative and a polynomial loop
        (birkhoff), or the geodesic whose real square is t^lam (geodesic).
        The entries of lam span about 2 * half."""
        form = lm.form_action(form_name)
        if kind == "geodesic":
            half //= 2  # entries are doubled below, which also avoids the parity obstruction
        lam = [half] + [rng.randint(-half // 2, half // 2) for _ in range(form.n - 2)] + [-half]
        if form.special:
            lam[-1] = -sum(lam[:-1])
        lam = dominant_sorted(lam)
        if kind == "geodesic":
            lam = tuple(2 * x for x in lam)
            g = lm.geodesic_representative(form, lam)
        else:
            seed = rng.randrange(1, 10**9)
            left = lm.random_polynomial_loop(form, seed, negative=kind == "birkhoff")
            right = lm.random_polynomial_loop(form, seed + 1)
            g = lm.mat_mul(lm.mat_mul(left, lm.diagonal_loop(form.name, lam)), right)
        path.write_text(textio.format_matrix(g), encoding="utf-8")
        return lam

    def make_rounds(self, seed: int, count: int) -> list[Round]:
        return [self.make_round(seed, index) for index in range(count)]

    def make_round(self, seed: int, index: int) -> Round:
        rng = random.Random(f"cli:{seed}:{index}")
        names = realform.catalog_names()
        folder = self.work / f"round{index}"
        export = folder / "export"
        folder.mkdir(parents=True)
        pick = rng.choice(names)
        ops = [
            ("catalog", ["catalog"], names),
            ("entry", ["catalog", "--name", rng.choice(names)], None),
            ("export", ["catalog", "--export", str(export)], names),
            ("pi1_file", ["pi1", str(export / f"{pick}.involution")], pick),
            ("pi1", ["pi1", pick], pick),
            ("pi1", ["pi1", rng.choice(names)], None),
        ]
        for kind in ("dual", "core") * 3:
            name = rng.choice(names)
            lam = self._index(rng, name)
            ops.append((kind, [kind, name, *map(str, lam)], (name, lam)))
        for _ in range(4):
            name = rng.choice(names)
            height = self._height(rng, name)
            ops.append(("orbits", ["orbits", name, "--height", str(height)], (name, height, "K")))
        for order in ("K", "R"):
            name = rng.choice(names)
            height = self._height(rng, name)
            ops.append(("poset", ["poset", name, "--height", str(height), "--order", order], (name, height, order)))
        ops.append(("poset", ["poset", "pgl2_so21", "--height", "20"], ("pgl2_so21", 20, "K")))
        for name in rng.sample(CHECKED, 2):
            ops.append(("check", ["check", name, "--seed", str(rng.randrange(100))], name))
        for i, (kind, form) in enumerate(FILE_SLOTS):
            path = folder / f"loop{i}.matrix"
            lam = self._matrix_file(rng, kind, form, FILE_HALF_SPREAD, path)
            ops.append(("invariant", ["invariant", str(path)], (kind, lam, path.read_text(encoding="utf-8"))))
        work = str(self.work)
        inputs = "".join(
            " ".join(a.replace(work, "<work>") for a in argv) + "\n" + (expect[2] if kind == "invariant" else "")
            for kind, argv, expect in ops
        )
        return Round(index=index, ops=ops, inputs=inputs)

    # -- running ------------------------------------------------------------

    def prepare(self, op) -> None:
        pass

    def run_op(self, op, tracer=None):
        _, argv, _ = op
        reading = self.work / "reading.json"
        self.reading = None
        if tracer is None:
            cmd = [sys.executable, *CHILD_FLAGS, str(self.root / "bench" / "cli_run.py"), str(reading), *argv]
        else:
            stats = self.work / "stats.json"
            cmd = [sys.executable, *CHILD_FLAGS, str(self.root / "bench" / "cli_shim.py"), str(stats), *argv]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
        )
        if tracer is None and reading.exists():
            recorded = json.loads(reading.read_text(encoding="utf-8"))
            reading.unlink()
            self.reading = recorded["tail_s"], recorded["probes"]
        if tracer is not None:
            recorded = json.loads(stats.read_text(encoding="utf-8"))
            stats.unlink()
            tracer.merge(recorded["totals"])
            self.import_times.append(recorded["import_s"])
        return proc.returncode, proc.stdout, proc.stderr

    # -- checking -----------------------------------------------------------

    def check(self, round_: Round, results) -> list:
        problems = [self.problem(op, result) for op, result in zip(round_.ops, results)]
        # pi1 on the exported spec file reports what pi1 on the name reports
        kinds = [op[0] for op in round_.ops]
        by_file, by_name = kinds.index("pi1_file"), kinds.index("pi1")
        if problems[by_file] is None and problems[by_name] is None and results[by_file][1] != results[by_name][1]:
            problems[by_file] = "pi1 on the exported spec file differs from pi1 on the name"
        return problems

    def problem(self, op, result) -> str | None:
        if isinstance(result, Exception):
            return raised(result)
        kind, argv, expect = op
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        fields = _fields(stdout)
        try:
            return getattr(self, f"_check_{kind}")(expect, stdout, fields)
        except (KeyError, IndexError, ValueError) as exc:
            return f"unreadable output of {' '.join(argv[:2])}: {exc!r}"

    def _check_catalog(self, names, stdout, fields):
        listed = tuple(line.split(":", 1)[0] for line in stdout.splitlines())
        return None if listed == names else f"catalog lists {listed}"

    def _check_entry(self, _, stdout, fields):
        name = fields["name"][0]
        rank = int(fields["rank"][0])
        theta = stdout.split("theta:\n", 1)[1].splitlines()[:rank]
        want = [" ".join(map(str, row)) for row in realform.catalog(name).theta]
        return None if [row.strip() for row in theta] == want else f"catalog entry {name} shows theta {theta}"

    def _check_export(self, names, stdout, fields):
        paths = [Path(p) for p in fields["wrote"]]
        if [p.stem for p in paths] != list(names) or not all(p.is_file() for p in paths):
            return "catalog --export did not write one file per entry"
        return None

    def _check_pi1(self, name, stdout, fields):
        if name is not None and fields["spec"] != [name]:
            return f"pi1 reports spec {fields['spec']}"
        if "note" in fields or int(fields["image_index"][0]) < 1:
            return "pi1 report is not a catalog report"
        return None

    _check_pi1_file = _check_pi1

    def _check_dual(self, expect, stdout, fields):
        name, lam = expect
        parabolic, dim = self.lattices[name].core(lam)
        roots = " ".join(map(str, parabolic)) or "none"
        got = (fields["orbit"], fields["dual"], fields["core_parabolic_simple_roots"], fields["core_flag_dimension"])
        want = ([fmt_coweight(lam)], [fmt_coweight(lam)], [roots], [str(dim)])
        return None if got == want else f"dual report {got}, expected {want}"

    def _check_core(self, expect, stdout, fields):
        name, lam = expect
        parabolic, dim = self.lattices[name].core(lam)
        got = (fields["orbit"], fields["parabolic_simple_roots"], fields["flag_dimension"])
        want = ([fmt_coweight(lam)], [" ".join(map(str, parabolic)) or "none"], [str(dim)])
        return None if got == want else f"core report {got}, expected {want}"

    def _check_orbits(self, expect, stdout, fields):
        name, _, _ = expect
        lattice = self.lattices[name]
        elements = [parse_coweight(x) for x in fields.get("orbit", [])]
        if int(fields["count"][0]) != len(elements) or elements != sorted(set(elements)):
            return "orbit list is not a sorted list of the stated count"
        if not all(lattice.is_orbit_shaped(e) for e in elements):
            return "an orbit index is not dominant and theta-fixed"
        if int(fields["components"][0]) != lattice.components(elements):
            return "component count disagrees with the oracle"
        return None

    def _check_poset(self, expect, stdout, fields):
        name, height, order = expect
        if (name, height, order) == ("pgl2_so21", 20, "K"):
            return None if stdout == self.golden else "pgl2_so21 poset differs from the golden file"
        problem = self._check_orbits(expect, stdout, {**fields, "orbit": fields.get("element", []), "count": fields["elements"]})
        if problem is not None:
            return problem
        lattice = self.lattices[name]
        elements = [parse_coweight(x) for x in fields.get("element", [])]
        edges = [tuple(parse_coweight(x) for x in e.split(" -> ")) for e in fields.get("edge", [])]
        leq = lattice.leq if order == "K" else (lambda a, b: lattice.leq(b, a))
        bad = closure_mismatch(elements, edges, leq)
        return None if bad is None else f"Hasse closure disagrees with the {order} order at {bad}"

    def _check_check(self, name, stdout, fields):
        return None if stdout.endswith("check: all suites passed\n") else "a property suite failed"

    def _check_invariant(self, expect, stdout, fields):
        kind, lam, _ = expect
        cartan, birkhoff, k_orbit, r_orbit = (
            parse_coweight(fields[key][0]) for key in ("cartan", "birkhoff", "k_orbit", "r_orbit")
        )
        if not type_a_leq(birkhoff, cartan):
            return f"Birkhoff {birkhoff} not below Cartan {cartan}"
        want = dominant_sorted(lam)
        if kind == "cartan" and cartan != want:
            return f"Cartan invariant {cartan}, expected {want}"
        if kind == "birkhoff" and birkhoff != want:
            return f"Birkhoff invariant {birkhoff}, expected {want}"
        if kind == "geodesic" and (k_orbit, r_orbit) != (want, want):
            return f"geodesic invariants {k_orbit}, {r_orbit}, expected {want}"
        return None
