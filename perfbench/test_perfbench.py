"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from symgen import dcenum, fpgroup, groupfile  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTERS = {"progenitor.rules_base", "symrep.canon_steps", "fpgroup.cosets",
            "dcenum.double_cosets.nodes"}


def test_self_time_subtracts_covered_child_time():
    tree = [
        spans.Span(0, None, "cli.main", 0.0, 10.0),
        spans.Span(1, 0, "dcenum.build_image", 1.0, 4.0),
        spans.Span(2, 1, "fpgroup.todd_coxeter", 1.5, 3.5),
        spans.Span(3, 0, "dcenum.double_cosets", 5.0, 6.0),
        # overlapping children of one parent count once
        spans.Span(4, 0, "perm.order", 5.5, 7.0),
        spans.Span(5, None, "cli.main", 20.0, 21.0),
    ]
    self_s, calls = spans.self_times(tree)
    assert self_s["cli.main"] == (10.0 - (3.0 + 2.0)) + 1.0
    assert self_s["dcenum.build_image"] == 1.0
    assert self_s["fpgroup.todd_coxeter"] == 2.0
    assert calls["cli.main"] == 2
    assert spans.top_level_time(tree) == 11.0


def test_metric_names_are_valid_and_derivable():
    traced = {t.name for t in spans.TARGETS}
    for metric in CONFIG["end_to_end"] + CONFIG["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    for metric in CONFIG["per_layer"]:
        name = metric["name"]
        assert (name.endswith("_s") and name[:-2] in traced
                or name.endswith(".calls") and name[:-6] in traced
                or name in COUNTERS or name.startswith("trace.")), name
    for w in workloads.WORKLOADS.values():
        assert all(NAME.fullmatch(n) for n in w.named)
    assert list(run.WORKLOAD_NAMES) == [w["name"] for w in CONFIG["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_recorder_wraps_every_lookup_name_and_restores_it():
    original = fpgroup.todd_coxeter
    assert dcenum.todd_coxeter is original
    recorder = spans.Recorder()
    with recorder:
        assert fpgroup.todd_coxeter is not original
        assert dcenum.todd_coxeter is fpgroup.todd_coxeter
        groupfile.load_bundled("5sq_d6").build_context(with_rules=False)
    assert fpgroup.todd_coxeter is original and dcenum.todd_coxeter is original
    names = {s.name for s in recorder.spans}
    assert {"groupfile.load", "groupfile.build_context", "dcenum.build_image",
            "fpgroup.todd_coxeter", "perm.contains"} <= names
    by_id = {s.id: s for s in recorder.spans}
    tc = next(s for s in recorder.spans if s.name == "fpgroup.todd_coxeter")
    assert by_id[tc.parent].name == "dcenum.build_image"
    assert recorder.counts["fpgroup.cosets"] == 50


def _small_long_words():
    return workloads.LongWords(setups=1, cold_passes=1, pairs=30, image_pairs=5,
                               conversions=5, centralizers=1, traced_passes=1)


def _small_enumerate():
    return workloads.Enumerate(setups=1, cold_passes=1, cli_repeats=1,
                               traced_passes=1)


def test_same_seed_gives_same_inputs():
    w = _small_long_words()
    state = w.setup()
    first = w.make_inputs(state, random.Random(7))
    assert w.make_inputs(state, random.Random(7)) == first
    assert w.make_inputs(state, random.Random(8)) != first
    e = _small_enumerate()
    estate = e.setup()
    first = e.make_inputs(estate, random.Random(7))
    assert e.make_inputs(estate, random.Random(7)) == first


def _traced_counts(workload, seed):
    recorder = spans.Recorder()
    raw = run.run_workload(workload, seed, 0, recorder)
    assert raw["gates"].failed == 0
    values = run.per_layer(raw, recorder)
    names = ("fpgroup.cosets", "symrep.canon_steps", "progenitor.rules_base",
             "dcenum.double_cosets.nodes", "perm.contains.calls",
             "symrep.canon.calls")
    return {n: values.get(n, 0) for n in names}


def test_same_seed_gives_same_counts():
    first = _traced_counts(_small_long_words(), 3)
    assert first["symrep.canon_steps"] > 0 and first["progenitor.rules_base"] > 0
    assert _traced_counts(_small_long_words(), 3) == first
    counts = _traced_counts(_small_enumerate(), 3)
    assert counts["dcenum.double_cosets.nodes"] > 0
    assert _traced_counts(_small_enumerate(), 3) == counts


def test_corrupted_results_are_counted_not_raised(capsys):
    gates = run.Gates()

    def boom():
        raise RuntimeError("engine failure")

    calls = [
        workloads.Call("k", lambda: 4, lambda r: r == 4, "right"),
        workloads.Call("k", lambda: 5, lambda r: r == 4, "corrupted value"),
        workloads.Call("k", lambda: None, lambda r: r.word == (), "corrupted type"),
        workloads.Call("k", boom, lambda r: True, "raising call"),
    ]
    samples = run.run_pass(calls, gates)
    assert (gates.attempted, gates.failed) == (4, 3)
    assert len(samples["k"].scaled) == 4 and samples["k"].units == 4
    assert "engine failure" in capsys.readouterr().err


def test_corrupted_product_fails_its_gate():
    w = _small_long_words()
    state = w.setup()
    inputs = w.make_inputs(state, random.Random(1))
    pairs, refs = inputs["l2_19"][:2]
    refs = list(refs)
    control, word = refs[0]
    refs[0] = (control, word + (1,))   # a wrong product
    calls = workloads._mult_calls(state["l2_19"], pairs[:2], refs[:2],
                                  "pure_mult", "pure", "l2_19")
    gates = run.Gates()
    run.run_pass(calls, gates)
    assert (gates.attempted, gates.failed) == (2, 1)
