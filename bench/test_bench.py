"""The benchmark's own tests: references catch corruption, the tracer is
transparent, and runs repeat.

    python3 -m pytest bench/test_bench.py
"""

import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _checkout(tmp_path: Path) -> Path:
    """The problems and goldens a workload reads, in a copy that a test may
    corrupt; kovex itself is imported from the repository."""
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "problems", root / "problems")
    shutil.copytree(ROOT / "tests" / "golden", root / "tests" / "golden")
    return root


def _one_pass(name, root, scratch, keep=lambda job: True):
    scratch.mkdir(exist_ok=True)
    workload = workloads.build(name, 1, root, scratch)
    workload.jobs = [job for job in workload.jobs if keep(job)]
    runner = run.Runner(workload)
    runner.run_pass()
    return runner


def _cheap_series(job):
    return job.name.endswith("/N16")


def _cheap_loci(job):
    return "_d4_" in job.name


def test_generated_balances_solve_the_indicial_system():
    for seed in range(5):
        for problem in gen.make_problems(seed):
            loci = problem.expected_loci()
            sizes = {"cubic": 2, "quartic": 3, "p4": 4}
            count = 1
            for block in problem.blocks:
                count *= sizes[block.kind]
            assert len(loci) == count - 1
            for point, spectrum in loci.items():
                assert not any(problem.indicial_residual(point))
                assert len(spectrum) == problem.dim
            nonzero = tuple(Fraction(1, 2) for _ in range(problem.dim))
            assert any(problem.indicial_residual(nonzero))


def test_generated_inputs_depend_on_the_seed_only():
    assert [p.text() for p in gen.make_problems(3)] == \
        [p.text() for p in gen.make_problems(3)]
    assert [p.text() for p in gen.make_problems(3)] != \
        [p.text() for p in gen.make_problems(4)]


@pytest.mark.parametrize("name, keep", [("corpus", lambda job: True),
                                        ("series_deep", _cheap_series),
                                        ("loci_scale", _cheap_loci)])
def test_clean_references_pass(name, keep, tmp_path):
    runner = _one_pass(name, _checkout(tmp_path), tmp_path / "s", keep)
    assert runner.attempted > 0
    assert runner.failures == []


def test_corrupted_golden_report_fails_corpus(tmp_path):
    root = _checkout(tmp_path)
    golden = root / "tests" / "golden" / "weierstrass.json"
    golden.write_text(golden.read_text().replace('"-2"', '"-3"', 1))
    runner = _one_pass("corpus", root, tmp_path / "s")
    assert {f["job"] for f in runner.failures} == {"weierstrass"}
    assert len(runner.failures) / runner.attempted > 0


def test_corrupted_hand_spectrum_fails_corpus(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.HAND, "painleve2_auto",
                        ((1, 2), {(1, -1): (-1, 4), (-1, 1): (-1, 5)}))
    runner = _one_pass("corpus", _checkout(tmp_path), tmp_path / "s")
    assert {f["job"] for f in runner.failures} == {"painleve2_auto"}


def test_corrupted_golden_series_fails_series_deep(tmp_path):
    root = _checkout(tmp_path)
    golden = root / "tests" / "golden" / "cubic_pair.json"
    text = golden.read_text()
    # the first coefficient of order 6 in the first locus's series
    at = text.index('"j": 6')
    start = text.rindex('": "', 0, at) + 4
    end = text.index('"', start)
    golden.write_text(text[:start] + "12345" + text[end:])
    runner = _one_pass("series_deep", root, tmp_path / "s", _cheap_series)
    assert runner.failures
    assert {f["job"].split("@")[0] for f in runner.failures} == {"cubic_pair"}


def test_corrupted_closed_form_fails_loci_scale(tmp_path, monkeypatch):
    monkeypatch.setitem(gen._NONZERO_EXPONENTS, "p4", (-1, 4))
    runner = _one_pass("loci_scale", _checkout(tmp_path), tmp_path / "s",
                          _cheap_loci)
    failed = {f["job"] for f in runner.failures}
    assert failed and all("p4" in _kinds(name) for name in failed)


def _kinds(name):
    index = int(name.split("_")[0][1:])
    return gen.SLOTS[index][0]


def test_tracer_leaves_exceptions_and_warnings_alone():
    import kovex.cli
    import kovex.kovalevskaya as kv
    import kovex.laurent
    from kovex.vfmodel import WeightCertificate, fields_from_problem
    from kovex.vfparse import parse_problem

    # x' = y, y' = 0: only the origin solves the indicial system
    spec = parse_problem("variables = [x:1, y:2]\nF.1 = \"y\"\nF.2 = \"0\"\n")
    field, _ = fields_from_problem(spec)
    cert = WeightCertificate(spec.weights, 1)
    original = kv.find_loci
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kv.find_loci is not original
        assert kovex.cli.find_loci is not kv.find_loci
        with pytest.raises(kv.NoLocusFound):
            kv.find_loci(field, cert, newton_starts=0)
        weier = parse_problem("variables = [x:2, y:3]\nF.1 = \"y\"\n"
                              "F.2 = \"6*x^2\"\n")
        wf, _ = fields_from_problem(weier)
        with pytest.warns(kovex.laurent.TruncationBelowResonance):
            kovex.laurent.build_series(wf, WeightCertificate((2, 3), 1),
                                       (1, -2), truncation=3)
    finally:
        tracer.uninstall()
    assert kv.find_loci is original
    names = [s[0] for s in tracer.spans]
    assert "kovalevskaya.find_loci" in names
    assert "laurent.build_series" in names


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    wrapped_child = tracer.wrap("m.child", "m", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()
        wrapped_child()

    tracer.wrap("m.parent", "m", parent)()
    stats = tracing.summarize(tracer.spans)
    assert stats["m.child"]["calls"] == 2
    assert stats["m.parent"]["total_s"] >= 0.05
    assert 0.01 <= stats["m.parent"]["self_s"] < 0.03
    assert stats["m"]["self_s"] == pytest.approx(stats["m.parent"]["total_s"])
    assert tracer.spans[1][4] == 0 and tracer.spans[0][4] == -1


def test_reference_relative_times_ignore_host_speed():
    # two jobs of 3 and 1 reference times; the host runs twice as slow in
    # the later passes, which the seconds show and the ratios do not
    passes = []
    for speed in (1.0, 1.0, 2.0, 2.0, 2.0):
        ref = 0.01 * speed
        passes.append({"job_s": [3 * ref, ref], "ref_s": [ref, ref]})
    assert run._per_job(passes, "job_s", True) == pytest.approx([3.0, 1.0])
    assert run._per_job(passes, "job_s", False) == pytest.approx([0.06, 0.02])
    metrics, seconds = run.end_to_end(
        [dict(p, job_cpu_s=p["job_s"]) for p in passes], [0.1], ["a", "b"])
    assert metrics["pass_rel"]["value"] == pytest.approx(4.0)
    assert metrics["job_rel_max"]["value"] == pytest.approx(3.0)
    assert seconds["job_s"] == pytest.approx({"a": 0.06, "b": 0.02})


def _traced_pass(name, seed, tmp_path, tag):
    tracer = tracing.Tracer(run._observers())
    scratch = tmp_path / f"{name}-{tag}"
    scratch.mkdir()
    workload = workloads.build(name, seed, ROOT, scratch)
    runner = run.Runner(workload, tracer)
    tracer.install()
    try:
        record = runner.run_pass()
    finally:
        tracer.uninstall()
    assert runner.failures == []
    layers = run._layer_metrics(tracer.spans[slice(*record["spans"])], record)
    return workload, {k: layers[k] for k in run.COUNTS}, record["digests"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_counts_and_digests(name, tmp_path):
    w1, counts1, digests1 = _traced_pass(name, 7, tmp_path, "a")
    w2, counts2, digests2 = _traced_pass(name, 7, tmp_path, "b")
    assert w1.inputs_digest == w2.inputs_digest
    assert counts1 == counts2
    assert digests1 == digests2


def test_second_seed_changes_only_loci_scale_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        digests = set()
        for seed in (1, 2):
            scratch = tmp_path / f"{name}-{seed}"
            scratch.mkdir()
            digests.add(workloads.build(name, seed, ROOT, scratch).inputs_digest)
        assert len(digests) == (2 if name == "loci_scale" else 1), name
