"""The pipeline, ``analyze``, and the command-line front end around it.

Five subcommands slice the same pipeline at different depths: ``check``
stops after assumption verification, ``loci`` after the balance search,
``series`` after the Laurent construction, ``flow`` and ``analyze`` run
every stage, the commuting-field machinery included (``flow`` differs
only in requiring a commuting field).

``analyze`` builds the report in one pass: each stage returns its section
and appends to the run's violations.  ``_render`` then builds the text
summary from that report alone, so it shows nothing the report lacks.

Two output layers: a plain-text summary on standard output and, with
``--json``, a complete machine-readable report.  The JSON is
deterministic byte for byte given the same input and flags: keys are
sorted, every rational is a "num/den" string, complex numbers are
[re, im] pairs, and the only randomness (numeric root starts) is seeded.

Exit codes: 0 clean, 1 input error (nothing analyzable; message on
stderr, never a stack trace), 2 when any assumption violation or series
obstruction was detected.  A report is still written in the last case.
A reader that closes standard output early (``| head``) changes neither:
the rest of the summary is dropped without a message, after the
``--json`` report has been written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import degeneration
from .kovalevskaya import NoLocusFound, _ComponentTable, find_loci, spectra
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
    field_degree,
    fields_from_problem,
    infer_weights,
    verify_weight,
)
from .vfparse import ParseError, _ascii_int, parse_problem

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
    """One run: the report ``--json`` writes, the text summary rendered from
    it and the exact objects behind them.  loci pairs each locus of F with
    its spectrum (kovalevskaya's spectra(find_loci(F, certificate))), series
    maps a locus index to its LaurentSolution, pool is F's lower_spectra,
    indexed once for every flow (None when the locus stage did not run)."""

    report: dict
    lines: tuple[str, ...]
    certificate: WeightCertificate | None
    loci: tuple
    series: dict[int, LaurentSolution]
    pool: degeneration.LowerPool | None


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, but 2 means "violation
    # detected" here, so bad usage is folded into the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag_int(text: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag_float(text: str) -> float:
    """float(text) for ASCII text without underscores; float() alone also
    reads other scripts' digits and underscores."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


# built once per process: parse_args leaves the parser as it was, and
# building it cost about 1 ms per main call
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="kovex",
                     description="Exact Kovalevskaya-exponent analysis of "
                                 "quasi-homogeneous polynomial vector fields.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (.kov)")
    common.add_argument("--truncation", type=_flag_int, metavar="N",
                        default=None,
                        help="series truncation order (default: twice the "
                             "top resonance)")
    common.add_argument("--seed", type=_flag_int, metavar="S", default=0,
                        help="RNG seed for the numeric locus search")
    common.add_argument("--tolerance", type=_flag_float, metavar="T",
                        default=None,
                        help="numeric verification tolerance of every locus "
                             "search (default 1e-12)")
    common.add_argument("--json", metavar="OUT", default=None,
                        help="write the full JSON report to this path")
    common.add_argument("--max-weight", type=_flag_int, metavar="W",
                        default=12,
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
        return str(v)
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


def _dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    CPython's json module encodes in pure Python whenever indent is set
    (its C encoder takes no indent up to 3.13), through a chain of
    generators.  This writer makes one recursive pass and encodes every
    string with the C encode_basestring_ascii the module itself uses,
    which writes a report in about half the time.  Keys must be strings.
    """
    out: list[str] = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value, newline: str, emit) -> None:
    """Emit value's JSON, its nested lines indented past newline's."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        emit("NaN" if value != value else "Infinity" if value == math.inf
             else "-Infinity" if value == -math.inf else float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, item in sorted(value.items()):
            emit(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            sep = ","
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            emit(sep + inner)
            _write(item, inner, emit)
            sep = ","
        emit(newline + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# the text summary: a view of the report


def _text(value) -> str:
    """A report value as text: an exact value's string is its text; a float
    [re, im] pair prints to 6 significant digits, real if im is noise."""
    if isinstance(value, str):
        return value
    z = complex(*value)
    if abs(z.imag) < 1e-12 * max(1.0, abs(z)):
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _point_text(point) -> str:
    return "(" + ", ".join(map(_text, point)) + ")"


def _flow_ready(assumptions: dict) -> bool:
    """G commutes with F and has a degree of at least 1 under F's weights."""
    return (assumptions["commutation"] == "ok"
            and (assumptions["commuting_degree"] or 0) >= 1)


def _render(report: dict) -> list[str]:
    """The text summary, built from the report alone."""
    weights = report["weights"]
    lines = [f"problem: {report['input']['file']}",
             f"variables: {', '.join(report['input']['variables'])}",
             f"weights: {tuple(weights['weights'])}  degree "
             f"{weights['degree']}  [{weights['source']}]"]
    usable = weights["monomial_law"] == "ok"   # a certificate was issued
    assumptions = report.get("assumptions")
    if assumptions is not None:
        lines.append(f"zero set: {assumptions['zero_set']}")
        commutation = assumptions["commutation"]
        gamma = assumptions["commuting_degree"]
        if commutation == "absent":
            lines.append("commuting field: none")
        else:
            lines.append("commutation: "
                         + ("ok" if commutation == "ok" else "VIOLATED"))
        if commutation != "absent" and usable:
            lines.append(f"commuting degree: {gamma}" if gamma is not None
                         else "commuting degree: none (not quasi-homogeneous)")
    if not usable:
        lines.append("analysis skipped: no usable weight certificate")
    loci = report.get("loci")
    for entry in loci or ():
        lines.append(f"locus {_point_text(entry['point'])}  "
                     f"[{entry['exactness']}, {entry['source']}]")
        if "exponents" in entry:
            spectrum = [root["value"] for kind in ("rational", "numeric")
                        for root in entry["exponents"][kind]
                        for _ in range(root["multiplicity"])]
        else:
            spectrum = entry["numeric_spectrum"]
        lines.append(f"  exponents: {', '.join(map(_text, spectrum))}")
        if "classification" in entry:
            lines.append(f"  spectrum classification: "
                         f"{entry['classification']}")
    if loci == []:
        lines.append("no indicial loci found")
    for entry in loci or ():
        series = entry.get("series")
        if series is not None:
            lines.append(f"series at {_point_text(entry['point'])}: "
                         f"{series['classification']}; parameters: "
                         f"{', '.join(series['parameters']) or 'none'}; "
                         f"authoritative through "
                         f"{series['authoritative_through']}")
    flow = report.get("flow")
    if flow == []:
        lines.append("no principal balance; flow analysis skipped"
                     if _flow_ready(assumptions) else "flow analysis skipped "
                     "(needs a commuting quasi-homogeneous field)")
    for section in flow or ():
        lines.extend(_render_flow(section))

    if report["violations"]:
        lines.append("violations detected:")
        lines.extend(f"  - {v}" for v in report["violations"])
    else:
        lines.append("no violations detected")
    return lines


def _render_flow(section: dict) -> list[str]:
    """The text of one principal balance's flow section."""
    point = _point_text(section["locus"])
    if "gamma" not in section:
        return [f"flow at {point}: unavailable ({section['error']})"]
    kernel = ("ok" if ok else "FAIL" for ok in section["kernel_identities"])
    support = "ok" if section["expansion_support"] == "ok" else "FAIL"
    lines = [f"flow at locus {point}  [gamma {section['gamma']}]",
             f"  expansion support: {support}",
             f"  kernel identities: {' '.join(kernel)}"]
    if "error" in section:
        return lines + [f"  parameter flow unavailable: {section['error']}"]
    lines.append(f"  alpha0' = {section['shift_rate']['text']}")
    lines += [f"  {velocity['parameter']}' = {velocity['text']}"
              for velocity in section["velocities"]]
    for name, key in (("ladder identity", "ladder"),
                      ("velocity support", "velocity_support")):
        lines.append(f"  {name}: {'ok' if section[key] == 'ok' else 'FAIL'}")
    certificate = section["shift_rate_certificate"]
    if certificate != "contradiction":
        lines.append(f"  shift-rate certificate: {certificate}")
    deg = section["degeneration"]
    if "error" in deg:
        return lines + [f"  degeneration unavailable: {deg['error']}"]
    for entry in deg["entries"]:
        matches = ", ".join(map(_point_text, entry["matched_lower_loci"]))
        predicted = ", ".join(map(_text, entry["predicted_lower_exponents"]))
        lines.append(f"  degeneration [{entry['route']}] locus "
                     f"{_point_text(entry['locus'])}: predicted {predicted} -> "
                     + (f"matches {matches}" if matches
                        else "no matching lower locus"))
    if deg["unmatched_indices"]:
        lines.append(f"  note: {len(deg['unmatched_indices'])} prediction(s) "
                     f"without a matching lower locus")
    if deg["gamma"] == 1 and all(velocity["text"] == "0"
                                 for velocity in section["velocities"]):
        lines.append("  parameter flow is trivial; no lower predictions")

    deformation = section.get("deformation")
    if deformation is not None and "error" not in deformation:
        lines.append(f"  deformation check: k1 = {_text(deformation['k1'])}, "
                     f"{'stable' if deformation['stable'] else 'UNSTABLE'}")
    return lines


# ---------------------------------------------------------------------------
# pipeline stages


def _resolve_weights(field, spec, max_weight: int, violations):
    """Returns (certificate or None, weights section)."""
    if spec.weights is not None:
        cert = WeightCertificate(spec.weights, 1)
        off_law = verify_weight(field, cert).violations
        section: dict = {"source": "declared"}
    else:
        inference = infer_weights(field, max_weight=max_weight)
        if inference.degenerate:
            raise AnalysisError("the field is identically zero; every weight "
                                "vector fits and there is nothing to analyze")
        candidates = [member
                      for family in inference.families
                      for member in family.members if member.degree == 1]
        if not candidates:
            raise AnalysisError(
                f"weight inference failed: no weight vector with entries up "
                f"to {max_weight} makes the field quasi-homogeneous of "
                f"degree 1; declare weights in the problem file or raise "
                f"--max-weight")
        cert = min(candidates, key=lambda c: (sum(c.weights), c.weights))
        off_law = ()
        section = {
            "source": "inferred",
            "families": [{"primitive": list(f.primitive),
                          "degrees": sorted({m.degree for m in f.members})}
                         for f in inference.families],
        }
    # by Euler's theorem the differential form of the law fails in exactly
    # the components with a monomial off the law
    bad = sorted({i for i, _ in off_law})
    section.update(weights=list(cert.weights), degree=1,
                   monomial_law=[{"component": i, "exponents": list(e)}
                                 for i, e in off_law] or "ok",
                   euler_identity=bad or "ok")
    if not off_law:
        return cert, section
    actual = field_degree(field, cert.weights)
    hint = (f"; the field is uniform of degree {actual} instead"
            if actual is not None else "")
    violations.append(
        f"declared weights {tuple(cert.weights)} fail the monomial law in "
        f"component(s) {', '.join(str(i) for i in bad)}{hint}")
    return None, section   # declared weights off the law certify nothing


def _assumptions(field, g_field, cert, violations) -> dict:
    """Returns the assumptions section."""
    zero = check_zero_set(field)
    section: dict = {"zero_set": zero.status, "commuting_degree": None}
    if zero.status == "counterexample":
        section["zero_witness"] = _point_json(zero.witness)
        violations.append(
            f"the field vanishes at {_point_text(section['zero_witness'])}, "
            f"away from the origin")
    if g_field is None:
        section["commutation"] = "absent"
        return section
    ok = commutes(field, g_field)
    section["commutation"] = "ok" if ok else "violated"
    if not ok:
        violations.append("the declared pair does not commute: [F, G] != 0")
    if cert is not None:
        gamma = field_degree(g_field, cert.weights)
        section["commuting_degree"] = gamma
        if not any(g_field.components):
            # the zero field commutes with F and has every degree
            violations.append("the commuting field is identically zero; "
                              "there is no flow to analyze")
        elif gamma is None:
            violations.append(
                f"the commuting field has no uniform degree for weights "
                f"{cert.weights}")
    return section


def _locus_stage(field, cert, spec, search, violations):
    """Returns (loci entries of the report, (locus, spectrum) pairs, the
    LocusSearch or None)."""
    try:
        found = find_loci(field, cert, seeds=spec.seeds, **search)
    except NoLocusFound:
        found, pairs = None, ()
    else:
        pairs = spectra(found)
    entries = []
    for locus, spectrum in pairs:
        entry: dict = {"point": _point_json(locus.point),
                       "exactness": locus.exactness, "source": locus.source}
        if locus.is_exact:
            entry["exponents"] = _rootset_json(spectrum.exponents)
            entry["classification"] = spectrum.classification
            entry["eigenpair_verified"] = spectrum.eigenpair_verified
            entry["semisimple_at_resonances"] = spectrum.semisimple_at_resonances
            entry["has_zero_exponent"] = spectrum.has_zero_exponent
            if not spectrum.eigenpair_verified:
                violations.append(f"universal eigenpair fails at "
                                  f"{_point_text(entry['point'])}")
        else:
            entry["numeric_spectrum"] = [_num(v) for v in spectrum]
        entries.append(entry)
    return entries, pairs, found


def _series_stage(field, cert, found, entries, truncation, violations):
    """Adds each exact locus's series to its entry; returns them by index.
    Each series solves on the blocks of K(c) that the locus search found
    (a LocusSearch, its loci reported by spectra) has read."""
    solutions: dict[int, object] = {}
    for idx, locus in enumerate(found.loci if found else ()):
        if not locus.is_exact:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = build_series(field, cert, found._certified(locus),
                               truncation=truncation)
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
        if sol.obstructions:
            violations.append(
                f"series at {_point_text(entries[idx]['point'])} obstructed "
                f"at order {sol.obstructions[0]}")
    return solutions


def _flow_locus_report(field, g_field, cert, sol, pool, search, violations):
    """Returns the flow section for one principal balance.  pool is F's
    lower_spectra, shared by every principal balance; search holds the
    numeric search options and the run's component table."""
    section: dict = {"locus": _point_json(sol.locus)}
    point = _point_text(section["locus"])
    try:
        expansion = degeneration.g_expansion(g_field, sol)
    except ValueError as exc:
        section["error"] = str(exc)
        return section
    section.update(gamma=expansion.gamma, expansion_orders=expansion.count)

    support = degeneration.expansion_support_check(expansion, sol)
    section["expansion_support"] = "ok" if not support else [
        {"component": i + 1, "order": k, "exponents": list(e)}
        for i, k, e in support]
    if support:
        violations.append(
            f"expansion support violation at {point}: component "
            f"{support[0][0] + 1}, order {support[0][1]}")

    kernel = degeneration.kernel_identity_check(field, cert, sol.locus,
                                                expansion)
    section["kernel_identities"] = list(kernel)
    if not all(kernel):
        bad = [str(k) for k, ok in enumerate(kernel) if not ok]
        violations.append(
            f"kernel identity fails at {point} for order(s) " + ", ".join(bad))

    try:
        flow = degeneration.param_flow(expansion, sol)
    except ValueError as exc:
        if isinstance(exc, degeneration.InconsistentG0):
            violations.append(
                f"leading expansion block at {point} is not a multiple of "
                f"the universal eigenvector: {exc}")
        section["error"] = str(exc)
        return section

    position = {v: k for k, v in enumerate(flow.parameters)}
    section["shift_rate"] = {"text": str(flow.ghat0),
                             "polynomial": poly_json(flow.ghat0, position)}
    section["velocities"] = [
        {"parameter": name, "kappa": kappa, "text": str(g),
         "polynomial": poly_json(g, position)}
        for name, kappa, g in zip(flow.parameters, flow.kappa, flow.ghat)]

    ladder = degeneration.flow_ladder_check(expansion, sol, flow)
    section["ladder"] = "ok" if ladder is None else {
        "component": ladder[0] + 1, "order": ladder[1]}
    if ladder is not None:
        violations.append(
            f"flow ladder identity fails at {point}: component "
            f"{ladder[0] + 1}, order {ladder[1]}")

    vsupport = degeneration.flow_support_check(flow)
    section["velocity_support"] = "ok" if not vsupport else [
        {"velocity": label, "exponents": list(e)} for label, e in vsupport]
    if vsupport:
        violations.append(f"velocity support violation at {point}")

    try:
        section["shift_rate_certificate"] = (
            degeneration.g0_nonzero_certificate(g_field, sol, flow))
    except RuntimeError as exc:
        section["shift_rate_certificate"] = "contradiction"
        violations.append(
            f"shift-rate certificate contradiction at {point}: {exc}")

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degenerate = (degeneration.degenerate_gamma1 if flow.gamma == 1
                          else degeneration.degenerate_gamma_ge2)
            predictions = degenerate(pool, flow, **search)
    except degeneration.G0IdenticallyZero as exc:
        section["degeneration"] = {"error": str(exc)}
        return section

    deg: dict = {"gamma": flow.gamma, "entries": [{
        "route": pred.route,
        "locus": _point_json(pred.locus),
        "exponents": [_value(v) for v in pred.exponents],
        "predicted_lower_exponents": [_value(v) for v in pred.predicted],
        "matched_lower_loci": [_point_json(p) for p in pred.matches],
        "diagnostics": {key: _point_json(v) if isinstance(v, tuple)
                        else _value(v) for key, v in pred.diagnostics.items()},
    } for pred in predictions]}
    skipped = sorted({str(w.message) for w in caught
                      if isinstance(w.message, degeneration.UnrescalableLocus)})
    if skipped:
        deg["skipped_loci"] = skipped
    deg["unmatched_indices"] = [
        k for k, pred in enumerate(predictions) if not pred.matches]
    deg["lower_spectra"] = [
        {"point": _point_json(p), "exponents": [_value(v) for v in ms]}
        for p, ms in pool]
    section["degeneration"] = deg

    if flow.gamma == 1:
        predicted = predictions[0].predicted if len(predictions) == 1 else None
        try:
            check = degeneration.deformed_field_check(
                field, g_field, cert, flow, predicted=predicted, **search)
        except ValueError as exc:
            section["deformation"] = {"error": str(exc)}
        else:
            section["deformation"] = {
                "epsilons": [str(e) for e in check.epsilons],
                "k1": _value(check.k1),
                "stable": check.stable,
                "realized": (None if check.realized is None
                             else list(check.realized)),
                "multisets": [
                    [[_value(v) for v in ms] for ms in collection]
                    for collection in check.multisets],
            }
            if not check.stable:
                violations.append(
                    f"deformed-field exponents vary with epsilon at {point}")
            if check.realized is not None and not all(check.realized):
                violations.append(
                    f"deformed field does not realize the predicted "
                    f"exponents at {point}")
    return section


def analyze(text: str, name: str = "<input>", *, command: str = "analyze",
            truncation: int | None = None, seed: int = 0,
            tolerance: float | None = None, max_weight: int = 12) -> Analysis:
    """Run the pipeline on the text of a problem file, as far as command goes.

    name labels the input in the report and in error messages; the
    keywords are the CLI's flags.  Raises AnalysisError when there is
    nothing to analyze, or for an unknown command, a truncation or
    max_weight below 1, a negative seed or a tolerance that is not a
    positive finite number.
    """
    if command not in _STAGES:
        raise AnalysisError(f"command must be one of {', '.join(_STAGES)}, "
                            f"got {command!r}")
    stages = _STAGES[command]
    if truncation is not None and truncation < 1:
        raise AnalysisError(f"truncation must be positive, got {truncation}")
    if seed < 0:
        raise AnalysisError(f"seed must be nonnegative, got {seed}")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise AnalysisError(
            f"tolerance must be a positive finite number, got {tolerance}")
    if max_weight < 1:
        raise AnalysisError(f"max_weight must be positive, got {max_weight}")
    try:
        spec = parse_problem(text)
    except ParseError as exc:
        raise AnalysisError(f"{name}: {exc}") from None
    field, g_field = fields_from_problem(spec)
    if command == "flow" and g_field is None:
        raise AnalysisError(
            f"{name}: no commuting field declared; 'flow' needs one")
    # options of every locus search: F, flow subsystems, deformed fields;
    # they share one component table, which lives as long as this run
    search = {"rng_seed": seed, "table": _ComponentTable()}
    if tolerance is not None:
        search["tolerance"] = tolerance

    violations: list[str] = []
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

    cert, report["weights"] = _resolve_weights(field, spec, max_weight,
                                               violations)
    if "assumptions" in stages:
        report["assumptions"] = _assumptions(field, g_field, cert, violations)

    loci, solutions, pool = (), {}, None
    if cert is not None and "loci" in stages:
        report["loci"], loci, found = _locus_stage(field, cert, spec, search,
                                                   violations)
        pool = degeneration.lower_spectra(loci)

        if "series" in stages:
            # truncation wins over the problem file's truncation = N
            solutions = _series_stage(
                field, cert, found, report["loci"],
                truncation if truncation is not None else spec.truncation,
                violations)

        if "flow" in stages and g_field is not None:
            ready = _flow_ready(report["assumptions"])
            report["flow"] = [
                _flow_locus_report(field, g_field, cert, sol, pool, search,
                                   violations)
                for _, sol in sorted(solutions.items())
                if ready and classify(sol).kind == "principal"]
        # the flow stage has taken over every prefix tree it continues; the
        # rest would live as long as the result
        for sol in solutions.values():
            object.__setattr__(sol, "_prefixes", None)

    report["violations"] = violations
    return Analysis(report, tuple(_render(report)), cert, loci, solutions, pool)


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
        payload = _dumps(result.report) + "\n"
        try:
            Path(args.json).write_text(payload, encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {args.json}: {exc.strerror or exc}")
    try:
        print("\n".join(result.lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not fail on the same pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 2 if result.report["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
