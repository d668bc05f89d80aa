"""Benchmark for symgen: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload enumerate|rewrite_u3_3|long_words|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; symgen is imported from ``src`` there.
A run sets up the workload's contexts several times (the median is
``setup_s``), runs one cold pass of seeded calls on each of the last few
fresh set-ups, then repeats warm passes over the same calls for
``--seconds``.  Every result
is checked after its pass; a failed check is counted, never raised.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics, read from spans recorded around
symgen's public functions.  The lines before it list every metric of the
workload by name and unit.  ``--workload all`` runs each workload in its
own fresh process.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import symgen from this checkout's src, and nothing else."""
    if not (SRC / "symgen" / "__init__.py").is_file():
        sys.exit(f"error: no symgen sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import symgen
    if Path(symgen.__file__).resolve().parent != SRC / "symgen":
        sys.exit(f"error: imported symgen from {symgen.__file__}, not {SRC}")


class Failed:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


REPORTED_FAILURES = 10     # failed checks described on stderr, per run


class Gates:
    """Counts correctness checks; never lets one raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, check, result) -> None:
        self.attempted += 1
        if isinstance(result, Failed):
            ok, detail = False, result.text
        else:
            try:
                ok, detail = bool(check(result)), "wrong result"
            except Exception as exc:
                ok, detail = False, Failed(exc).text
        if not ok:
            self.failed += 1
            if self.failed <= REPORTED_FAILURES:
                print(f"check failed: {label}: {detail}", file=sys.stderr)


def _calibration_loop(rounds: int = 700, rows: int = 4000, steps: int = 6000) -> int:
    # the kinds of work symgen does: permutation products with tuple hashing
    # and dict updates, then building and walking a coset-table-like list
    images = tuple(range(1, 15))
    perm = images[1:] + images[:1]
    seen: dict[tuple, int] = {}
    acc = images
    for _ in range(rounds):
        acc = tuple(perm[k - 1] for k in acc)
        seen[acc] = seen.get(acc, 0) + 1
    table = [[(r * 7919 + c * 104729) % rows for c in range(6)] for r in range(rows)]
    x = 0
    for i in range(steps):
        x = table[x][i % 6]
    return len(seen) + x


CAL_REF_S = 0.005          # calibration loop time at the reference speed
CAL_EVERY_S = 0.05         # calls between two speed readings, in seconds


def machine_speed() -> float:
    """Reference time of the calibration loop over its time right now."""
    start = time.perf_counter()
    _calibration_loop()
    return CAL_REF_S / (time.perf_counter() - start)


@dataclass
class KindStats:
    """The calls of one kind in one pass."""

    scaled: array = field(default_factory=lambda: array("d"))  # per call
    wall: float = 0.0
    units: int = 0


def run_pass(calls, gates: Gates, recorder=None) -> dict[str, KindStats]:
    """Time each call, then check every result outside the timed region.

    Calls run in groups of about CAL_EVERY_S, or one long call, with a
    speed reading between groups.  Each call's wall time is scaled by the
    mean of the readings on either side of its group: wall seconds times
    that factor are reference-speed seconds."""
    gc.collect()
    results = []
    stats: dict[str, KindStats] = defaultdict(KindStats)
    group: list[tuple] = []

    def flush(before: float) -> float:
        after = machine_speed()
        factor = (before + after) / 2
        for call, wall in group:
            kind = stats[call.kind]
            kind.scaled.append(wall * factor)
            kind.wall += wall
            kind.units += call.units
        group.clear()
        return after

    reading = machine_speed()
    group_start = time.perf_counter()
    with recorder if recorder is not None else nullcontext():
        for call in calls:
            start = time.perf_counter()
            try:
                result = call.fn()
            except Exception as exc:
                result = Failed(exc)
            end = time.perf_counter()
            group.append((call, end - start))
            results.append(result)
            if end - group_start >= CAL_EVERY_S:
                reading = flush(reading)
                group_start = time.perf_counter()
        flush(reading)
    for call, result in zip(calls, results):
        gates.check(call.label, call.check, result)
    return stats


def pass_time(stats, scaled: bool = True) -> float:
    return sum(sum(k.scaled) if scaled else k.wall for k in stats.values())


def calls_per_s(stats, scaled: bool = True) -> float:
    return sum(len(k.scaled) for k in stats.values()) / pass_time(stats, scaled)


def kind_stat(passes, kind: str, stat: str) -> tuple[float, int]:
    """(value, sample count) of one call kind over several passes, in
    reference-speed time."""
    ks = [p[kind] for p in passes if kind in p]
    n = sum(len(k.scaled) for k in ks)
    if stat == "rate":
        return sum(k.units for k in ks) / sum(sum(k.scaled) for k in ks), n
    q = {"p50": 50, "p95": 95, "p99": 99}[stat]
    times = [t for k in ks for t in k.scaled]
    return statistics.quantiles(times, n=100)[q - 1] * 1e3, n


def run_workload(workload, seed: int, seconds: float, recorder=None) -> dict:
    """Set-ups, a cold pass after each of the last few, then warm passes;
    returns the raw measurements."""
    rng = random.Random(seed)
    gates = Gates()
    traced = recorder if recorder is not None else nullcontext()
    setup_s, cold, inputs, state = [], [], None, None
    for i in range(workload.setups):
        state = None
        gc.collect()
        with traced:
            start = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - start)
        if inputs is None:
            inputs = workload.make_inputs(state, rng)
        if i >= workload.setups - workload.cold_passes:
            cold.append(run_pass(workload.calls(state, inputs), gates, recorder))
    calls = workload.calls(state, inputs)
    warm, untraced = [], []
    if recorder is None:
        start = time.perf_counter()
        while len(warm) < 3 or time.perf_counter() - start < seconds:
            warm.append(run_pass(calls, gates))
    else:
        # fixed work, so every count repeats exactly at a fixed seed; the
        # untraced passes interleaved with the traced ones give the overhead
        for i in range(workload.traced_passes):
            order = (recorder, None) if i % 2 == 0 else (None, recorder)
            for rec in order:
                (warm if rec is recorder else untraced).append(
                    run_pass(calls, gates, rec))
    return {"setup_s": setup_s, "cold": cold, "warm": warm,
            "untraced": untraced, "gates": gates}


def end_to_end(raw) -> dict[str, float]:
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "cold_calls_per_s": statistics.median(calls_per_s(p) for p in raw["cold"]),
        "warm_calls_per_s": statistics.median(calls_per_s(p) for p in raw["warm"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(raw, recorder) -> dict[str, float]:
    """Values for the per-layer metric names, derived from the spans:
    ``<span>_s`` is total self time, ``<span>.calls`` the span count, other
    names are counts read from results; ``trace.*`` describe the tracing."""
    import spans
    self_s, calls = spans.self_times(recorder.spans)
    timed = (sum(raw["setup_s"])
             + sum(pass_time(p, scaled=False) for p in raw["cold"] + raw["warm"]))
    values = {f"{name}_s": t for name, t in self_s.items()}
    values.update({f"{name}.calls": n for name, n in calls.items()})
    values.update(recorder.counts)
    values["trace.overhead_s"] = (statistics.median(map(pass_time, raw["warm"]))
                                  - statistics.median(map(pass_time, raw["untraced"])))
    values["trace.top_span_coverage"] = spans.top_level_time(recorder.spans) / timed
    return values


def report_lines(workload, raw, e2e) -> list[str]:
    gates = raw["gates"]
    lines = [f"workload {workload.name}: {len(raw['setup_s'])} set-ups, "
             f"{len(raw['cold'])} cold passes, {len(raw['warm'])} warm passes"]
    lines.append(f"  setup_s {e2e['setup_s']:.6f} s (median of "
                 + ", ".join(f"{t:.4f}" for t in raw["setup_s"]) + ")")
    for name, phase in (("cold_calls_per_s", "cold"), ("warm_calls_per_s", "warm")):
        wall = statistics.median(calls_per_s(p, scaled=False) for p in raw[phase])
        lines.append(f"  {name} {e2e[name]:.3f} 1/s (wall {wall:.3f} 1/s)")
    lines.append(f"  peak_rss_mb {e2e['peak_rss_mb']:.3f} MB")
    for name, (phase, kind, stat) in workload.named.items():
        value, n = kind_stat(raw[phase], kind, stat)
        unit = "1/s" if stat == "rate" else "ms"
        lines.append(f"  {name} {value:.6g} {unit} (n={n})")
    lines.append(f"  ops_failed_ratio {gates.failed / max(gates.attempted, 1):.6g} "
                 f"ratio ({gates.failed} of {gates.attempted} checks)")
    return lines


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


WORKLOAD_NAMES = ("enumerate", "rewrite_u3_3", "long_words")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    recorder = spans.Recorder() if args.trace else None
    raw = run_workload(workload, args.seed, args.seconds, recorder)
    e2e = end_to_end(raw)
    for line in report_lines(workload, raw, e2e):
        print(line)
    if recorder is None:
        values, wanted = e2e, config["end_to_end"]
    else:
        wanted = config["per_layer"]
        values = dict.fromkeys((m["name"] for m in wanted), 0)
        values.update(per_layer(raw, recorder))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{args.seed}.json"
        recorder.write(path)
        print(f"  spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")
        for m in wanted:
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    gates = raw["gates"]
    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
