"""The pipeline, ``analyze``, and the command-line front end around it.

Five subcommands slice the same pipeline at different depths: ``check``
stops after assumption verification, ``loci`` after the balance search,
``series`` after the Laurent construction, ``flow`` and ``analyze`` run
the commuting-field machinery too (``analyze`` is ``flow`` plus the
assumption checks on one pass).

Two output layers: a plain-text summary on standard output and, with
``--json``, a complete machine-readable report.  The JSON is
deterministic byte for byte given the same input and flags: keys are
sorted, every rational is a "num/den" string, complex numbers are
[re, im] pairs, and the only randomness (numeric root starts) is seeded.

Exit codes: 0 clean, 1 input error (nothing analyzable; message on
stderr, never a stack trace), 2 when any assumption violation or series
obstruction was detected.  A report is still written in the last case.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import degeneration
from .kovalevskaya import NoLocusFound, find_loci, k_exponents, numeric_exponents
from .laurent import (
    LaurentSolution,
    TruncationBelowResonance,
    build_series,
    classify,
    poly_json,
    series_json,
)
from .vfmodel import (
    WeightCertificate,
    check_zero_set,
    commutes,
    euler_identity_check,
    field_degree,
    fields_from_problem,
    infer_weights,
    verify_weight,
)
from .vfparse import ParseError, parse_problem

SCHEMA_VERSION = 1

_STAGES = {
    "check": ("assumptions",),
    "loci": ("loci",),
    "series": ("loci", "series"),
    "flow": ("assumptions", "loci", "series", "flow"),
    "analyze": ("assumptions", "loci", "series", "flow"),
}


class AnalysisError(Exception):
    """The input cannot be analyzed at all; the message says why."""


@dataclass(frozen=True)
class Analysis:
    """One run: the report ``--json`` writes, the text summary and the exact
    objects behind them.  loci pairs each locus of F with its KExponentReport
    or numeric exponents, series maps a locus index to its LaurentSolution,
    pool is F's lower_spectra (None when the locus stage did not run)."""

    report: dict
    lines: tuple[str, ...]
    certificate: WeightCertificate | None
    loci: tuple
    series: dict[int, LaurentSolution]
    pool: tuple | None


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, but 2 means "violation
    # detected" here, so bad usage is folded into the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kovex",
                     description="Exact Kovalevskaya-exponent analysis of "
                                 "quasi-homogeneous polynomial vector fields.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (.kov)")
    common.add_argument("--truncation", type=int, metavar="N", default=None,
                        help="series truncation order (default: twice the "
                             "top resonance)")
    common.add_argument("--seed", type=int, metavar="S", default=0,
                        help="RNG seed for the numeric locus search")
    common.add_argument("--tolerance", type=float, metavar="T", default=None,
                        help="numeric tolerance (default: per-stage)")
    common.add_argument("--json", metavar="OUT", default=None,
                        help="write the full JSON report to this path")
    common.add_argument("--max-weight", type=int, metavar="W", default=12,
                        help="weight-inference search bound (default 12)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("analyze", parents=[common],
                   help="full pipeline: assumptions, loci, series, flow")
    sub.add_parser("loci", parents=[common],
                   help="indicial loci and their exponents only")
    sub.add_parser("series", parents=[common],
                   help="loci plus the Laurent series construction")
    sub.add_parser("flow", parents=[common],
                   help="parameter flow of the commuting field and the "
                        "degeneration predictions")
    sub.add_parser("check", parents=[common],
                   help="assumption verification only")
    return parser


# ---------------------------------------------------------------------------
# serialization helpers


def _num(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _value(v):
    """One scalar for JSON: exact values stay strings, floats become pairs."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return _num(v)


def _point_json(point) -> list:
    return [_value(x) for x in point]


def _rootset_json(roots) -> dict:
    return {
        "rational": [{"value": str(r), "multiplicity": m}
                     for r, m in roots.rational_roots],
        "numeric": [{"value": _num(z), "multiplicity": m,
                     "backward_error": float(err)}
                    for z, m, err in roots.numeric_roots],
        "fully_rational": roots.is_fully_rational,
    }


def _diag_json(diag: dict) -> dict:
    out = {}
    for key, v in diag.items():
        if isinstance(v, tuple):
            out[key] = _point_json(v)
        else:
            out[key] = _value(v)
    return out


# ---------------------------------------------------------------------------
# text helpers


def _fmt_scalar(v) -> str:
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    z = complex(v)
    if abs(z.imag) < 1e-12:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _fmt_point(point) -> str:
    return "(" + ", ".join(_fmt_scalar(x) for x in point) + ")"


def _fmt_values(values) -> str:
    return ", ".join(_fmt_scalar(v) for v in values)


def _spectrum_text(roots) -> str:
    parts = [str(r) for r, m in roots.rational_roots for _ in range(m)]
    parts += [_fmt_scalar(z) for z, m, _ in roots.numeric_roots
              for _ in range(m)]
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# pipeline stages


def _resolve_weights(field, spec, max_weight: int):
    """Returns (certificate or None, weights section, violations, lines)."""
    violations: list[str] = []
    if spec.weights is not None:
        cert = WeightCertificate(spec.weights, 1)
        law = verify_weight(field, cert)
        euler = euler_identity_check(field, cert)
        section = {
            "source": "declared",
            "weights": list(spec.weights),
            "degree": 1,
            "monomial_law": "ok" if law.ok else [
                {"component": i, "exponents": list(e)}
                for i, e in law.violations],
            "euler_identity": "ok" if not euler else list(euler),
        }
        lines = [f"weights: {tuple(spec.weights)}  degree 1  [declared]"]
        if not law.ok:
            actual = field_degree(field, spec.weights)
            hint = (f"; the field is uniform of degree {actual} instead"
                    if actual is not None else "")
            bad = sorted({i for i, _ in law.violations})
            violations.append(
                f"declared weights {tuple(spec.weights)} fail the monomial "
                f"law in component(s) {', '.join(str(i) for i in bad)}{hint}")
            cert = None
        elif euler:
            violations.append(
                "Euler identity fails in component(s) "
                + ", ".join(str(i) for i in euler))
            cert = None
        return cert, section, violations, lines

    inference = infer_weights(field, max_weight=max_weight)
    if inference.degenerate:
        raise AnalysisError("the field is identically zero; every weight "
                            "vector fits and there is nothing to analyze")
    candidates = [member
                  for family in inference.families
                  for member in family.members if member.degree == 1]
    if not candidates:
        raise AnalysisError(
            f"weight inference failed: no weight vector with entries up to "
            f"{max_weight} makes the field quasi-homogeneous of degree 1; "
            f"declare weights in the problem file or raise --max-weight")
    cert = min(candidates, key=lambda c: (sum(c.weights), c.weights))
    section = {
        "source": "inferred",
        "weights": list(cert.weights),
        "degree": 1,
        "families": [{"primitive": list(f.primitive),
                      "degrees": sorted({m.degree for m in f.members})}
                     for f in inference.families],
        "monomial_law": "ok",
        "euler_identity": "ok",
    }
    lines = [f"weights: {cert.weights}  degree 1  [inferred]"]
    return cert, section, violations, lines


def _assumptions(field, g_field, cert):
    violations: list[str] = []
    lines: list[str] = []
    zero = check_zero_set(field)
    section: dict = {"zero_set": zero.status}
    lines.append(f"zero set: {zero.status}")
    if zero.status == "counterexample":
        section["zero_witness"] = _point_json(zero.witness)
        violations.append(
            f"the field vanishes at {_fmt_point(zero.witness)}, "
            f"away from the origin")
    gamma = None
    if g_field is None:
        section["commutation"] = "absent"
        section["commuting_degree"] = None
        lines.append("commuting field: none")
    else:
        ok = commutes(field, g_field)
        section["commutation"] = "ok" if ok else "violated"
        lines.append(f"commutation: {'ok' if ok else 'VIOLATED'}")
        if not ok:
            violations.append("the declared pair does not commute: [F, G] != 0")
        if cert is not None:
            gamma = field_degree(g_field, cert.weights)
            section["commuting_degree"] = gamma
            if gamma is None:
                violations.append(
                    f"the commuting field has no uniform degree for weights "
                    f"{cert.weights}")
                lines.append("commuting degree: none (not quasi-homogeneous)")
            else:
                lines.append(f"commuting degree: {gamma}")
        else:
            section["commuting_degree"] = None
    return section, gamma, violations, lines


def _locus_stage(field, cert, spec, search):
    violations: list[str] = []
    lines: list[str] = []
    try:
        loci = find_loci(field, cert, seeds=spec.seeds, **search).loci
    except NoLocusFound:
        loci = ()
    entries = []
    pairs = []
    for locus in loci:
        entry: dict = {
            "point": _point_json(locus.point),
            "exactness": locus.exactness,
            "source": locus.source,
        }
        if locus.is_exact:
            report = k_exponents(field, cert, locus.point)
            pairs.append((locus, report))
            entry["exponents"] = _rootset_json(report.exponents)
            entry["classification"] = report.classification
            entry["eigenpair_verified"] = report.eigenpair_verified
            entry["semisimple_at_resonances"] = report.semisimple_at_resonances
            entry["has_zero_exponent"] = report.has_zero_exponent
            lines.append(f"locus {_fmt_point(locus.point)}  "
                         f"[exact, {locus.source}]")
            lines.append(f"  exponents: {_spectrum_text(report.exponents)}")
            lines.append(f"  spectrum classification: {report.classification}")
            if not report.eigenpair_verified:
                violations.append(
                    f"universal eigenpair fails at {_fmt_point(locus.point)}")
        else:
            values = numeric_exponents(field, cert, locus.point)
            pairs.append((locus, values))
            entry["numeric_spectrum"] = [_num(v) for v in values]
            lines.append(f"locus {_fmt_point(locus.point)}  "
                         f"[numeric, {locus.source}]")
            lines.append(f"  exponents: {_fmt_values(values)}")
        entries.append(entry)
    if not entries:
        lines.append("no indicial loci found")
    return entries, tuple(pairs), violations, lines


def _series_stage(field, cert, loci, entries, truncation):
    violations: list[str] = []
    lines: list[str] = []
    solutions: dict[int, object] = {}
    for idx, (locus, _) in enumerate(loci):
        if not locus.is_exact:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = build_series(field, cert, locus.point, truncation=truncation)
        verdict = classify(sol)
        solutions[idx] = sol
        section = {
            "classification": str(verdict),
            "kind": verdict.kind,
            "truncation": sol.truncation,
            "authoritative_through": sol.authoritative_through,
            "parameters": list(sol.parameters),
            "resonances": [
                {"order": rec.order, "parameter": rec.parameter,
                 "anchor": rec.anchor + 1,
                 "direction": [_value(v) for v in rec.direction]}
                for rec in sol.resonances],
            "obstructions": list(sol.obstructions),
            "coefficients": series_json(sol),
        }
        notes = sorted({str(w.message) for w in caught
                        if isinstance(w.message, TruncationBelowResonance)})
        if notes:
            section["warnings"] = notes
        entries[idx]["series"] = section
        detail = f"parameters: {', '.join(sol.parameters) or 'none'}"
        lines.append(f"series at {_fmt_point(locus.point)}: {verdict}; "
                     f"{detail}; authoritative through "
                     f"{sol.authoritative_through}")
        if sol.obstructions:
            violations.append(
                f"series at {_fmt_point(locus.point)} obstructed at order "
                f"{sol.obstructions[0]}")
    return solutions, violations, lines


def _flow_locus_report(field, g_field, cert, sol, pool, search):
    """Flow section for one principal balance; returns (section, violations,
    lines).  pool is F's lower_spectra, shared by every principal balance;
    search holds the numeric search options."""
    violations: list[str] = []
    lines: list[str] = []
    point = sol.locus
    section: dict = {"locus": _point_json(point)}
    try:
        expansion = degeneration.g_expansion(g_field, sol)
    except (ValueError, degeneration.TruncationTooShort) as exc:
        section["error"] = str(exc)
        lines.append(f"flow at {_fmt_point(point)}: unavailable ({exc})")
        return section, violations, lines
    section["gamma"] = expansion.gamma
    section["expansion_orders"] = expansion.count
    lines.append(f"flow at locus {_fmt_point(point)}  [gamma {expansion.gamma}]")

    support = degeneration.expansion_support_check(expansion, sol)
    section["expansion_support"] = "ok" if not support else [
        {"component": i + 1, "order": k, "exponents": list(e)}
        for i, k, e in support]
    if support:
        violations.append(
            f"expansion support violation at {_fmt_point(point)}: component "
            f"{support[0][0] + 1}, order {support[0][1]}")
    lines.append(f"  expansion support: {'ok' if not support else 'FAIL'}")

    kernel = degeneration.kernel_identity_check(field, cert, point, expansion)
    section["kernel_identities"] = list(kernel)
    if not all(kernel):
        bad = [str(k) for k, ok in enumerate(kernel) if not ok]
        violations.append(
            f"kernel identity fails at {_fmt_point(point)} for order(s) "
            + ", ".join(bad))
    lines.append(f"  kernel identities: "
                 f"{' '.join('ok' if ok else 'FAIL' for ok in kernel)}")

    try:
        flow = degeneration.param_flow(expansion, sol)
    except (ValueError, degeneration.TruncationTooShort,
            degeneration.InconsistentG0) as exc:
        if isinstance(exc, degeneration.InconsistentG0):
            violations.append(
                f"leading expansion block at {_fmt_point(point)} is not a "
                f"multiple of the universal eigenvector: {exc}")
        section["error"] = str(exc)
        lines.append(f"  parameter flow unavailable: {exc}")
        return section, violations, lines

    position = {v: k for k, v in enumerate(flow.parameters)}
    section["shift_rate"] = {
        "text": str(flow.ghat0),
        "polynomial": poly_json(flow.ghat0, position),
    }
    section["velocities"] = [
        {"parameter": name, "kappa": kappa, "text": str(g),
         "polynomial": poly_json(g, position)}
        for name, kappa, g in zip(flow.parameters, flow.kappa, flow.ghat)]
    lines.append(f"  alpha0' = {flow.ghat0}")
    for name, g in zip(flow.parameters, flow.ghat):
        lines.append(f"  {name}' = {g}")

    ladder = degeneration.flow_ladder_check(expansion, sol, flow)
    section["ladder"] = "ok" if ladder is None else {
        "component": ladder[0] + 1, "order": ladder[1]}
    if ladder is not None:
        violations.append(
            f"flow ladder identity fails at {_fmt_point(point)}: component "
            f"{ladder[0] + 1}, order {ladder[1]}")
    lines.append(f"  ladder identity: "
                 f"{'ok' if ladder is None else 'FAIL'}")

    vsupport = degeneration.flow_support_check(flow)
    section["velocity_support"] = "ok" if not vsupport else [
        {"velocity": label, "exponents": list(e)} for label, e in vsupport]
    if vsupport:
        violations.append(
            f"velocity support violation at {_fmt_point(point)}")
    lines.append(f"  velocity support: {'ok' if not vsupport else 'FAIL'}")

    try:
        certificate = degeneration.g0_nonzero_certificate(g_field, sol, flow)
        section["shift_rate_certificate"] = certificate
        lines.append(f"  shift-rate certificate: {certificate}")
    except RuntimeError as exc:
        section["shift_rate_certificate"] = "contradiction"
        violations.append(
            f"shift-rate certificate contradiction at {_fmt_point(point)}: "
            f"{exc}")

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if flow.gamma == 1:
                report = degeneration.degenerate_gamma1(pool, flow, **search)
            else:
                report = degeneration.degenerate_gamma_ge2(
                    pool, flow, **search)
    except degeneration.G0IdenticallyZero as exc:
        section["degeneration"] = {"error": str(exc)}
        lines.append(f"  degeneration unavailable: {exc}")
        return section, violations, lines

    deg: dict = {"gamma": report.gamma, "entries": []}
    skipped = sorted({str(w.message) for w in caught
                      if isinstance(w.message, degeneration.UnrescalableLocus)})
    if skipped:
        deg["skipped_loci"] = skipped
    for k in range(len(report.routes)):
        deg["entries"].append({
            "route": report.routes[k],
            "locus": _point_json(report.flow_loci[k]),
            "exponents": [_value(v) for v in report.flow_exponents[k]],
            "predicted_lower_exponents": [
                _value(v) for v in report.predicted_lower_exponents[k]],
            "matched_lower_loci": [
                _point_json(p) for p in report.matched_lower_loci[k]],
            "diagnostics": _diag_json(report.diagnostics[k]),
        })
        matches = report.matched_lower_loci[k]
        tail = (" -> matches " + ", ".join(_fmt_point(p) for p in matches)
                if matches else " -> no matching lower locus")
        lines.append(
            f"  degeneration [{report.routes[k]}] locus "
            f"{_fmt_point(report.flow_loci[k])}: predicted "
            f"{_fmt_values(report.predicted_lower_exponents[k])}{tail}")
    deg["unmatched_indices"] = list(report.unmatched)
    deg["lower_spectra"] = [
        {"point": _point_json(p), "exponents": [_value(v) for v in ms]}
        for p, ms in report.lower_spectra]
    if report.unmatched:
        lines.append(
            f"  note: {len(report.unmatched)} prediction(s) without a "
            f"matching lower locus")
    section["degeneration"] = deg

    if flow.gamma == 1 and not any(flow.ghat):
        lines.append("  parameter flow is trivial; no lower predictions")

    if flow.gamma == 1:
        predicted = None
        if len(report.routes) == 1:
            predicted = report.predicted_lower_exponents[0]
        try:
            check = degeneration.deformed_field_check(
                field, g_field, cert, flow, predicted=predicted, **search)
        except ValueError as exc:
            section["deformation"] = {"error": str(exc)}
        else:
            deformation = {
                "epsilons": [str(e) for e in check.epsilons],
                "k1": _value(check.k1),
                "stable": check.stable,
                "realized": (None if check.realized is None
                             else list(check.realized)),
                "multisets": [
                    [[_value(v) for v in ms] for ms in collection]
                    for collection in check.multisets],
            }
            section["deformation"] = deformation
            lines.append(
                f"  deformation check: k1 = {_fmt_scalar(check.k1)}, "
                f"{'stable' if check.stable else 'UNSTABLE'}")
            if not check.stable:
                violations.append(
                    f"deformed-field exponents vary with epsilon at "
                    f"{_fmt_point(point)}")
            if check.realized is not None and not all(check.realized):
                violations.append(
                    f"deformed field does not realize the predicted "
                    f"exponents at {_fmt_point(point)}")
    return section, violations, lines


def analyze(text: str, name: str = "<input>", *, command: str = "analyze",
            truncation: int | None = None, seed: int = 0,
            tolerance: float | None = None, max_weight: int = 12) -> Analysis:
    """Run the pipeline on the text of a problem file, as far as command goes.

    name labels the input in the report and in error messages; the
    keywords are the CLI's flags.  Raises AnalysisError when there is
    nothing to analyze.
    """
    stages = _STAGES[command]
    try:
        spec = parse_problem(text)
    except ParseError as exc:
        raise AnalysisError(f"{name}: {exc}") from None
    field, g_field = fields_from_problem(spec)
    if command == "flow" and g_field is None:
        raise AnalysisError(
            f"{name}: no commuting field declared; 'flow' needs one")
    # numeric search options of F's search and the degeneration checks
    search = {"rng_seed": seed}
    if tolerance is not None:
        search["tolerance"] = tolerance

    violations: list[str] = []
    lines: list[str] = [f"problem: {Path(name).name}",
                        f"variables: {', '.join(spec.variables)}"]
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": {
            "file": Path(name).name,
            "text": text,
            "variables": list(spec.variables),
            "declared_weights": (list(spec.weights)
                                 if spec.weights is not None else None),
            "has_commuting_field": g_field is not None,
        },
        "options": {
            "truncation": truncation,
            "seed": seed,
            "tolerance": tolerance,
            "max_weight": max_weight,
        },
    }

    cert, weight_section, weight_violations, weight_lines = _resolve_weights(
        field, spec, max_weight)
    report["weights"] = weight_section
    violations += weight_violations
    lines += weight_lines

    gamma = None
    if "assumptions" in stages:
        section, gamma, found, more = _assumptions(field, g_field, cert)
        report["assumptions"] = section
        violations += found
        lines += more

    loci, solutions, pool = (), {}, None
    if cert is not None and "loci" in stages:
        entries, loci, found, more = _locus_stage(field, cert, spec, search)
        pool = degeneration.lower_spectra(
            [(locus.point, spectrum) for locus, spectrum in loci])
        report["loci"] = entries
        violations += found
        lines += more

        if "series" in stages:
            # truncation wins over the problem file's truncation = N
            solutions, found, more = _series_stage(
                field, cert, loci, entries,
                truncation if truncation is not None else spec.truncation)
            violations += found
            lines += more

        if "flow" in stages and g_field is not None:
            flow_ok = (report.get("assumptions", {}).get("commutation") == "ok"
                       and gamma is not None and gamma >= 1)
            if not flow_ok:
                report["flow"] = []
                lines.append("flow analysis skipped "
                             "(needs a commuting quasi-homogeneous field)")
            else:
                flow_sections = []
                for idx, sol in sorted(solutions.items()):
                    if classify(sol).kind != "principal":
                        continue
                    section, found, more = _flow_locus_report(
                        field, g_field, cert, sol, pool, search)
                    flow_sections.append(section)
                    violations += found
                    lines += more
                report["flow"] = flow_sections
                if not flow_sections:
                    lines.append("no principal balance; flow analysis skipped")
    elif cert is None:
        lines.append("analysis skipped: no usable weight certificate")

    report["violations"] = violations
    if violations:
        lines.append("violations detected:")
        lines += [f"  - {v}" for v in violations]
    else:
        lines.append("no violations detected")
    return Analysis(report, tuple(lines), cert, loci, solutions, pool)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.problem).read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot read {args.problem}: {exc.strerror or exc}")
    try:
        result = analyze(text, args.problem, command=args.command,
                         truncation=args.truncation, seed=args.seed,
                         tolerance=args.tolerance, max_weight=args.max_weight)
    except AnalysisError as exc:
        return _fail(str(exc))
    if args.json is not None:
        payload = json.dumps(result.report, indent=2, sort_keys=True) + "\n"
        try:
            Path(args.json).write_text(payload, encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {args.json}: {exc.strerror or exc}")
    print("\n".join(result.lines))
    return 2 if result.report["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
