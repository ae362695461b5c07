"""The three workloads: their jobs, and a reference check for every job.

A job's ``run`` is the timed call into kovex; its ``check`` runs after the
pass, outside the timed region, and compares the output with a reference
that does not come from the code under test: the committed golden reports,
loci and spectra derived by hand (below and in ``gen``), and the
benchmark's own ``Fraction`` arithmetic.  kovex functions are looked up on
their module at call time, so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

WORKLOADS = ("corpus", "series_deep", "loci_scale")
TRUNCATIONS = (16, 24, 32)


class SetupError(Exception):
    """The checkout lacks what a workload needs (sources, problems, goldens)."""


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    digest: str = ""
    report_bytes: int = 0
    loci_missing: int = 0


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    jobs: list[Job]
    inputs_digest: str
    notes: dict = field(default_factory=dict)


def build(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    builders = {"corpus": _corpus, "series_deep": _series_deep,
                "loci_scale": _loci_scale}
    return builders[name](seed, root, scratch)


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise SetupError(f"cannot read {path}: {exc.strerror or exc}") from None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _cli(argv: list[str]) -> int:
    """kovex.cli.main in-process; the text summary is rendered and dropped."""
    import kovex.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return kovex.cli.main(argv)


def _report(path: Path) -> bytes | None:
    """The JSON report a job wrote, removed so the next pass starts clean."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    path.unlink()
    return data


def _spectrum(entry) -> tuple[Fraction, ...]:
    rational = entry["exponents"]["rational"]
    return tuple(sorted(Fraction(r["value"]) for r in rational
                        for _ in range(r["multiplicity"])))


# ---------------------------------------------------------------------------
# corpus: `kovex analyze` on every bundled problem

GOLDEN = ("weierstrass", "cubic_pair", "painleve1_coupled_4d")

# Hand-derived answers for the bundled problems without a golden report
# (README and problem comments).  painleve1_auto is q' = p, p' = 6 q^2,
# weights (2, 3): -2c1 = c2, -3c2 = 6c1^2 gives (1, -2).  painleve2_auto is
# q' = p, p' = 2 q^3, weights (1, 2): c1^2 = 1.  painleve4_auto is
# q' = -q^2 + 2pq, p' = 2pq - p^2, weights (1, 1): (1, 0), (0, 1), (-1, -1).
HAND = {
    "painleve1_auto": ((2, 3), {(1, -2): (-1, 6)}),
    "painleve2_auto": ((1, 2), {(1, -1): (-1, 4), (-1, 1): (-1, 4)}),
    "painleve4_auto": ((1, 1), {(1, 0): (-1, 3), (0, 1): (-1, 3),
                                (-1, -1): (-1, 3)}),
}


def _corpus(seed: int, root: Path, scratch: Path) -> Workload:
    problems = sorted((root / "problems").glob("*.kov"))
    stems = {p.stem for p in problems}
    if stems != set(GOLDEN) | set(HAND):
        raise SetupError(f"problems/ holds {sorted(stems)}, expected the six "
                         f"bundled problems")
    goldens = {stem: _read(root / "tests" / "golden" / f"{stem}.json")
               for stem in GOLDEN}
    jobs = []
    for path in problems:
        out = scratch / f"{path.stem}.json"
        check = (_golden_check(out, goldens[path.stem])
                 if path.stem in goldens
                 else _hand_check(out, *HAND[path.stem]))
        jobs.append(Job(path.stem,
                        lambda p=path, o=out: _cli(["analyze", str(p),
                                                    "--json", str(o)]),
                        check))
    return Workload(jobs, _digest(*(_read(p) for p in problems)))


def _golden_check(out: Path, golden: bytes):
    def check(code) -> Outcome:
        data = _report(out)
        if code != 0 or data is None:
            return Outcome(False, f"exit {code}, report "
                                  f"{'missing' if data is None else 'written'}")
        if data != golden:
            return Outcome(False, "report differs from the golden",
                           _digest(data), len(data))
        return Outcome(True, "", _digest(data), len(data))
    return check


def _hand_check(out: Path, weights, loci):
    expected = {tuple(Fraction(x) for x in point):
                tuple(sorted(Fraction(e) for e in spectrum))
                for point, spectrum in loci.items()}

    def check(code) -> Outcome:
        data = _report(out)
        if code != 0 or data is None:
            return Outcome(False, f"exit {code}")
        report = json.loads(data)
        found = {}
        for entry in report["loci"]:
            if entry["exactness"] != "exact":
                return Outcome(False, f"numeric locus {entry['point']}")
            found[tuple(Fraction(x) for x in entry["point"])] = _spectrum(entry)
        problems = []
        if report["weights"]["weights"] != list(weights):
            problems.append(f"weights {report['weights']['weights']}")
        if found != expected:
            problems.append(f"loci {sorted(found.items())}")
        if report["violations"]:
            problems.append(f"violations {report['violations']}")
        return Outcome(not problems, "; ".join(problems), _digest(data),
                       len(data))
    return check


# ---------------------------------------------------------------------------
# series_deep: build_series and g_expansion at every exact golden locus

# Both fields written out by hand from the H_F and H_G of the problem files
# over (q1, p1, q2, p2): F_i and G_i as {exponents: coefficient}.
HAND_FIELDS = {
    "cubic_pair": (
        (2, 3, 2, 3), 1,
        ({(0, 1, 0, 0): 1}, {(2, 0, 0, 0): 6},
         {(0, 0, 0, 1): 1}, {(0, 0, 2, 0): 6}),
        ({(0, 1, 0, 0): 1}, {(2, 0, 0, 0): 6}, {}, {})),
    "painleve1_coupled_4d": (
        (2, 5, 4, 3), 3,
        ({(0, 0, 0, 1): 2},
         {(0, 0, 0, 2): -3, (3, 0, 0, 0): -4, (1, 0, 1, 0): 2},
         {(0, 1, 0, 0): 2, (1, 0, 0, 1): 6},
         {(2, 0, 0, 0): 1, (0, 0, 1, 0): 2}),
        ({(0, 1, 0, 0): 2, (1, 0, 0, 1): 2},
         {(0, 1, 0, 1): -2, (4, 0, 0, 0): 5, (2, 0, 1, 0): -9,
          (0, 0, 2, 0): 2},
         {(1, 1, 0, 0): 2, (0, 0, 1, 1): 2},
         {(0, 0, 0, 2): -1, (3, 0, 0, 0): -3, (1, 0, 1, 0): 4})),
}


def _series_deep(seed: int, root: Path, scratch: Path) -> Workload:
    from kovex.vfmodel import WeightCertificate, fields_from_problem
    from kovex.vfparse import parse_problem

    jobs, inputs = [], []
    for stem, (weights, gamma, hand_f, hand_g) in HAND_FIELDS.items():
        text = _read(root / "problems" / f"{stem}.kov").decode()
        golden = json.loads(_read(root / "tests" / "golden" / f"{stem}.json"))
        spec = parse_problem(text)
        f, g = fields_from_problem(spec)
        if tuple(spec.weights or ()) != weights:
            raise SetupError(f"{stem}: declared weights {spec.weights}, "
                             f"expected {weights}")
        cert = WeightCertificate(spec.weights, 1)
        inputs.append(text)
        for entry in golden["loci"]:
            if entry["exactness"] != "exact" or "series" not in entry:
                continue
            point = tuple(Fraction(x) for x in entry["point"])
            for n in TRUNCATIONS:
                name = f"{stem}@{','.join(entry['point'])}/N{n}"
                jobs.append(Job(
                    name,
                    lambda f=f, g=g, cert=cert, point=point, n=n:
                        _series_job(f, g, cert, point, n),
                    _series_check(name, f, cert, entry["series"], n,
                                  weights, gamma, hand_f, hand_g)))
    return Workload(jobs, _digest(*inputs))


def _series_job(f, g, cert, point, n):
    import kovex.degeneration
    import kovex.laurent
    sol = kovex.laurent.build_series(f, cert, point, truncation=n)
    return sol, kovex.degeneration.g_expansion(g, sol)


def _wire(poly, parameters) -> dict[str, str]:
    """A parameter polynomial in the golden reports' coefficient format."""
    position = {v: k for k, v in enumerate(parameters)}
    out = {}
    for exps, c in poly.terms.items():
        full = [0] * len(parameters)
        for v, e in zip(poly.vars, exps):
            full[position[v]] += e
        out[",".join(map(str, full))] = str(Fraction(c))
    return out


def _at(poly, values: dict[str, Fraction]) -> Fraction:
    """A parameter polynomial evaluated at rational parameter values."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = Fraction(c)
        for v, e in zip(poly.vars, exps):
            term *= values[v] ** e
        total += term
    return total


def _compose(poly: dict, series: list[list[Fraction]], n: int) -> list[Fraction]:
    """Coefficients T^0..T^n of sum_e c prod_l D_l(T)^e_l, truncated."""
    out = [Fraction(0)] * (n + 1)
    for exps, c in poly.items():
        acc = [Fraction(c)] + [Fraction(0)] * n
        for l, e in enumerate(exps):
            for _ in range(e):
                acc = [sum((acc[i] * series[l][k - i] for i in range(k + 1)),
                           Fraction(0)) for k in range(n + 1)]
        out = [a + b for a, b in zip(out, acc)]
    return out


def _series_check(name, f, cert, golden, n, weights, gamma, hand_f, hand_g):
    # residual_order is bound now, before any tracer is installed, so the
    # check adds no spans; it runs once per distinct output
    from kovex.laurent import residual_order
    verified: set[str] = set()
    rng_seed = zlib.crc32(name.encode())
    top = min(n, golden["truncation"])
    golden_coeffs = {(c["i"], c["j"]): c["polynomial"]
                     for c in golden["coefficients"] if c["j"] <= top}

    def check(output) -> Outcome:
        sol, expansion = output
        params = list(sol.parameters)
        wire = {(i + 1, j): _wire(p, params)
                for i, row in enumerate(sol.coefficients)
                for j, p in enumerate(row) if p.terms}
        wire_g = [[_wire(p, params) for p in vec] for vec in expansion.vectors]
        digest = _digest(sorted(wire.items()), wire_g)
        problems = []
        if sol.truncation != n or list(sol.obstructions) != golden["obstructions"]:
            problems.append(f"truncation {sol.truncation}, obstructions "
                            f"{list(sol.obstructions)}")
        if params != golden["parameters"]:
            problems.append(f"parameters {params}")
        prefix = {k: v for k, v in wire.items() if k[1] <= top}
        if prefix != golden_coeffs:
            problems.append(f"coefficients through order {top} differ from "
                            f"the golden")
        if expansion.gamma != gamma or expansion.count != n + 1:
            problems.append(f"expansion gamma {expansion.gamma}, "
                            f"{expansion.count} orders")
        if problems:
            return Outcome(False, "; ".join(problems), digest)
        if digest not in verified:
            problem = _identities(sol, expansion, rng_seed, n, weights,
                                  hand_f, hand_g)
            if problem is None and residual_order(f, cert, sol) is not None:
                problem = "residual_order is not None"
            if problem:
                return Outcome(False, problem, digest)
            verified.add(digest)
        return Outcome(True, "", digest)
    return check


def _identities(sol, expansion, rng_seed, n, weights, hand_f, hand_g):
    """Check the series and the expansion at random rational parameters.

    With y_i = T^-a_i D_i(T), the ODE says (j - a_i) D_ij = [F_i(D)]_j for
    every j <= n, and the expansion's order k of component i is [G_i(D)]_k.
    Both sides are computed here with the hand-written F and G.
    """
    rng = random.Random(rng_seed)
    values = {p: Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
              * rng.choice((1, -1)) for p in sol.parameters}
    series = [[_at(p, values) for p in row] for row in sol.coefficients]
    for i, (fi, gi) in enumerate(zip(hand_f, hand_g)):
        lhs = [(j - weights[i]) * series[i][j] for j in range(n + 1)]
        if lhs != _compose(fi, series, n):
            return f"series fails the ODE in component {i + 1}"
        got = [_at(vec[i], values) for vec in expansion.vectors]
        if got != _compose(gi, series, n):
            return f"expansion differs from G(y) in component {i + 1}"
    return None


# ---------------------------------------------------------------------------
# loci_scale: `kovex loci` on seeded generated problems

def _loci_scale(seed: int, root: Path, scratch: Path) -> Workload:
    jobs, inputs = [], []
    problems = gen.make_problems(seed)
    for problem in problems:
        path = scratch / f"{problem.name}.kov"
        out = scratch / f"{problem.name}.json"
        text = problem.text()
        path.write_text(text, encoding="utf-8")
        inputs.append(text)
        jobs.append(Job(problem.name,
                        lambda p=path, o=out: _cli(["loci", str(p),
                                                    "--json", str(o)]),
                        _loci_check(out, problem)))
    return Workload(jobs, _digest(*inputs),
                    {"expected_loci": {p.name: len(p.expected_loci())
                                       for p in problems}})


def _loci_check(out: Path, problem: gen.Problem):
    """Every reported locus must be a closed-form balance with the closed-
    form spectrum, re-verified in Fraction arithmetic; a numeric locus must
    lie on a balance the exact search missed.  Balances never reported are
    counted in ``loci_missing``: find_loci makes no completeness claim, so
    a miss is measured and reported, not failed."""
    expected = {point: tuple(Fraction(e) for e in spectrum)
                for point, spectrum in problem.expected_loci().items()}

    def check(code) -> Outcome:
        data = _report(out)
        if code != 0 or data is None:
            return Outcome(False, f"exit {code}")
        report = json.loads(data)
        problems = []
        source = "declared" if problem.declared else "inferred"
        if (report["weights"]["source"], report["weights"]["weights"]) != (
                source, list(problem.weights)):
            problems.append(f"weights {report['weights']['weights']}")
        if report["violations"]:
            problems.append(f"violations {report['violations']}")
        exact, numeric = set(), []
        for entry in report["loci"]:
            if entry["exactness"] == "exact":
                point = tuple(Fraction(x) for x in entry["point"])
                if point in exact or point not in expected:
                    problems.append(f"locus {entry['point']}")
                elif any(problem.indicial_residual(point)):
                    problems.append(f"residual at {entry['point']}")
                elif _spectrum(entry) != expected[point]:
                    problems.append(f"spectrum at {entry['point']}")
                exact.add(point)
            else:
                numeric.append([complex(*z) for z in entry["point"]])
        missed = [p for p in expected if p not in exact]
        for z in numeric:
            near = [p for p in missed
                    if max(abs(complex(c) - w) for c, w in zip(p, z))
                    <= 1e-6 * max(1.0, max(abs(w) for w in z))]
            if not near:
                problems.append(f"numeric locus {z} is no balance")
        return Outcome(not problems, "; ".join(problems), _digest(data),
                       len(data), len(missed))
    return check
