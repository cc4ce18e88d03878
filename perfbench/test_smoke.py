"""Smoke test of the benchmark itself: tiny instances, no timing bounds.

    python -m pytest perfbench/test_smoke.py -q
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
pb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pb)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "hot-sweep": dict(
        stream=300, digest_ops=300, min_ops=400, cap=1000, tail=99,
        setup_reps=1, probe_reps=1, span_ops=10,
    ),
    "fresh-lexicon": dict(
        copies=(1, 2), pairs_per_copy=5, digest_ops=3, min_ops=4, cap=100, tail=99,
        setup_reps=1, probe_reps=1, span_ops=2,
    ),
    "cli-query": dict(
        stream=40, digest_ops=3, min_ops=3, cap=100, tail=90,
        setup_reps=1, probe_reps=1, span_ops=3,
    ),
}


@pytest.fixture(autouse=True)
def _spans_elsewhere(tmp_path, monkeypatch):
    monkeypatch.setattr(pb, "OUT_DIR", tmp_path / "out")


def tiny(workload, seed=3, trace=0):
    return pb.run_benchmark(workload, seed, 0.01, trace, TINY[workload])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_runs_are_correct_and_repeatable(workload):
    first, details = tiny(workload)
    assert first["correct"], details["failures"]
    assert first["failed"] == 0 and first["attempted"] >= TINY[workload]["min_ops"]
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(first["metrics"]) == names
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert set(details["raw"]) == names - {"peak_rss_mb"}
    assert details["speed_reference"]["samples"] >= 2
    again, details_again = tiny(workload)
    assert details_again["digest"] == details["digest"]
    assert details_again["histogram"] == details["histogram"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_every_layer_metric(workload):
    result, details = tiny(workload, trace=1)
    assert result["correct"], details["failures"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def corrupt(text):
    """Swap one zone label so the trace breaks continuity or provenance."""
    return text.replace(" inside ", " distal ", 1)


def test_speed_reference_scales_to_its_nominal_time():
    for kind in ("kernel", "child"):
        ref = pb.SpeedReference(kind, None, None)
        nominal = ref.nominal_ns
        assert ref.scale(nominal, nominal) == pytest.approx(1.0)
        slow = ref.scale(1.5 * nominal, 2.5 * nominal)
        assert slow == pytest.approx(0.5 ** pb.REF_EXPONENT[kind])
    assert pb.SpeedReference("kernel", None, None).measure() > 0


def test_corrupted_traces_are_counted_as_failed(monkeypatch):
    real = pb.load_program

    def corrupted():
        api = real()
        render, explain = api.render_records, api.explain
        api.render_records = lambda trace: corrupt(render(trace))
        api.explain = lambda derivation: corrupt(explain(derivation))
        return api

    monkeypatch.setattr(pb, "load_program", corrupted)
    for workload in ("hot-sweep", "fresh-lexicon"):
        result, _ = tiny(workload)
        assert not result["correct"] and result["failed"] > 0


def test_check_records_rejects_a_discontinuous_trace():
    verb = ("CoL", "initial", "inside", "proximal")
    prep = ("pos", None, "inside", None)
    good = [
        "mobile mobile", "lref lref#sortir", "ground g",
        "g post inside interaction",
        "lref#sortir pre inside verb",
        "lref#sortir post proximal verb",
    ]
    assert pb.check_records(good, verb, prep, "sortir", "g") == []
    jump = good[:5] + ["lref#sortir during distal verb", "lref#sortir post proximal verb"]
    assert pb.check_records(jump, verb, prep, "sortir", "g")
    wrong_source = good[:3] + ["g post inside prep"] + good[4:]
    assert pb.check_records(wrong_source, verb, prep, "sortir", "g")


def test_wrong_exit_code_is_counted_as_failed(tmp_path, monkeypatch):
    api = pb.load_program()
    run = pb.Run(api, None, TINY["cli-query"])
    cli = pb.CliQuery(run, 3, pb.child_env(tmp_path / "pycache"), str(tmp_path))
    cli.ops = [("query", "fr", "voyager", "dans", "ville", "text")]
    cli.step(0)
    assert run.failed == 0, run.failures
    monkeypatch.setitem(pb.EXIT_CODES, "NotACoLVerb", 5)
    cli.step(1)
    assert run.failed == 1


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pb, "SRC", tmp_path / "src")
    code = pb.main(["--workload", "hot-sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
