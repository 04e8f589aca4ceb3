"""Seeded end-to-end benchmark of the videosynopsis command line.

    python3 bench/run.py --workload crowded --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` under
``.bench_work/`` (removed afterwards) before any timing starts.

``--trace 0`` runs the CLI stages as subprocesses, as a user would, for
``--seconds`` seconds, and reports the end-to-end metrics.  ``--trace 1``
alternates an untraced and a traced in-process run of the same stages and
reports per-layer metrics from the traced one.  Every run's outputs are
checked; a failed check or a non-zero exit is a failed operation.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the environment, workload sizes, the output
fingerprint and every end-to-end metric that applies to the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from workloads import WORKLOADS, Workload, materialize  # noqa: E402

SETUP_RUNS = 5
# A stage process still running this long after the run started is killed,
# so a hung program cannot keep the run past its time limit.
RUN_DEADLINE_S = 170.0

# The end-to-end metrics of BENCHMARK.json: they apply to every workload,
# are never 0, and their run-to-run spread stays within their bounds.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Further end-to-end metrics, reported in the line before the result where
# the workload has them: single-stage times, whose spread on a shared host
# can exceed the largest bound allowed, throughput of the pixel stages, and
# synopsis quality.
WORKLOAD_METRICS = {
    "synopsize_s": "s",
    "score_s": "s",
    "extract_fps": "frames/s",
    "render_fps": "frames/s",
    "fr": "ratio",
    "collision_level": "ratio",
    "cdr": "ratio",
    "mor": "ratio",
}
PIXELOPS = ("channel_mean_absdiff", "binary_open", "binary_close", "component_slices", "largest_component")
STAGES = ("extract", "synopsize", "render", "score")
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.gate_calls": "count",
    "ingest.gate_ms_p50": "ms",
    "ingest.gate_ms_p90": "ms",
    "ingest.median_calls": "count",
    "ingest.median_s": "s",
    "ingest.extract_self_s": "s",
    "ingest.query_share": "ratio",
    "frames.reads": "count",
    "frames.read_s": "s",
    "frames.reads_per_box": "ratio",
    "frames.writes": "count",
    "frames.write_s": "s",
    "grouping.build_s": "s",
    "grouping.pairs_evaluated": "count",
    "grouping.concurrent_ratio": "ratio",
    "grouping.groups": "count",
    "scheduler.rearrange_s": "s",
    "scheduler.cost_evals": "count",
    "scheduler.shifts": "count",
    "scheduler.extends": "count",
    "scheduler.shift_share": "ratio",
    "scheduler.overlap_ratio": "ratio",
    "scheduler.final_violations": "count",
    "metrics.score_s": "s",
    "metrics.ca_s": "s",
    "metrics.cdr_s": "s",
    "metrics.stats_s": "s",
    "metrics.overlap_ratio": "ratio",
    "render.background_s": "s",
    "render.segments": "count",
    "render.segment_ms_p50": "ms",
    "render.segment_ms_p90": "ms",
    "render.stitch_ms": "ms",
    "render.self_s": "s",
    "render.fallback_share": "ratio",
    **{f"pixelops.{fn}_{kind}": unit for fn in PIXELOPS for kind, unit in (("calls", "count"), ("s", "s"))},
    **{f"cli.{stage}_self_s": "s" for stage in STAGES},
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- stage chain --------------------------------------------------------------


def render_threads() -> int:
    return min(2, os.cpu_count() or 1)


def stage_argv(wl: Workload, stage: str, out: Path) -> list[str]:
    """CLI arguments of one stage writing under ``out``."""
    cfg = str(wl.files["config"])
    tubes = str(out / "ext" / "tubes.csv") if "extract" in wl.chain else str(wl.files["tubes"])
    schedule = str(out / "syn" / "schedule.json")
    if stage == "extract":
        return ["extract", "--frames", str(wl.files["frames"]), "--detections", str(wl.files["detections"]),
                "--config", cfg, "--out-dir", str(out / "ext")]
    if stage == "synopsize":
        return ["synopsize", "--tubes", tubes, "--config", cfg, "--out-dir", str(out / "syn")]
    if stage == "render":
        return ["render", "--schedule", schedule, "--tubes", tubes, "--frames", str(wl.files["frames"]),
                "--config", cfg, "--out-dir", str(out / "ren"), "--threads", str(render_threads())]
    return ["score", "--schedule", schedule, "--tubes", tubes, "--config", cfg, "--out", str(out / "score.json")]


def _guarded(check) -> list[str]:
    try:
        return check()
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"{type(exc).__name__}: {exc}"]


def check_chain(wl: Workload, out: Path, codes: dict[str, int], outcome: Outcome, reference: dict) -> dict:
    """Check one chain's outputs, recording an operation per stage.

    Returns what the checks found: the schedule, the brute-force metrics,
    the fingerprint and the missed-object rate, as far as they got.
    """
    found: dict = {}

    def synopsize_checks() -> list[str]:
        schedule = json.loads((out / "syn" / "schedule.json").read_text())
        problems = checks.check_schedule(schedule, wl.tubes)
        if problems:
            return problems
        found["schedule"] = schedule
        found["expected"] = checks.brute_force_metrics(
            wl.tubes, checks.tube_starts(schedule), int(schedule["synopsis_length"]), wl.frame_count
        )
        report = json.loads((out / "syn" / "metrics.json").read_text())
        found["fingerprint"] = checks.fingerprint(out / "syn" / "schedule.json", report)
        problems = checks.check_metrics(report, found["expected"])
        reference.setdefault("fingerprint", found["fingerprint"])
        if found["fingerprint"] != reference["fingerprint"]:
            problems.append("outputs differ from the first run of the same inputs")
        return problems

    def extract_checks() -> list[str]:
        found["mor"] = checks.missed_object_rate(out / "ext", wl.tubes)
        return checks.check_extract(out / "ext", wl.tubes)

    per_stage = {
        "extract": extract_checks,
        "synopsize": synopsize_checks,
        "render": lambda: checks.check_render(out / "ren", found["schedule"], wl.tubes),
        "score": lambda: checks.check_metrics(json.loads((out / "score.json").read_text()), found["expected"]),
    }
    for stage in wl.chain:
        if codes[stage] != 0:
            outcome.record(stage, [f"exit code {codes[stage]}"])
        else:
            outcome.record(stage, _guarded(per_stage[stage]))
    return found


# -- untraced timed runs -------------------------------------------------------


def run_cli(argv: list[str], env: dict, err: Path, deadline: float) -> tuple[float, float, int]:
    """Run one CLI process; returns (wall seconds, peak RSS MB, exit code)."""
    with open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "videosynopsis.cli", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=err_fh,
        )
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def timed_run(wl: Workload, work: Path, src: Path, seconds: float, deadline: float) -> tuple[Outcome, dict, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    outcome = Outcome()
    probe = work / "setup"
    probe.mkdir()
    setup: list[float] = []

    def setup_probe() -> float:
        path = probe / f"{len(setup)}.json"
        wall, _, code = run_cli(["init", "--out", str(path)], env, probe / "init.err", deadline)
        outcome.record("init", [] if code == 0 and path.is_file() else [f"exit code {code}"])
        setup.append(wall)
        return wall

    run_cli(["init", "--out", str(probe / "warm.json")], env, probe / "warm.err", deadline)  # byte-compiles
    walls: dict[str, list[float]] = {stage: [] for stage in wl.chain}
    pipeline, rss = [], []
    reference: dict = {}
    found: dict = {}
    timed = 0.0
    while True:
        # one set-up probe per repetition spreads them over the whole run,
        # like the chain's own samples
        rep_timed = setup_probe()
        out = work / f"rep{len(pipeline)}"
        out.mkdir()
        codes, peak = {}, 0.0
        for stage in wl.chain:
            wall, mb, codes[stage] = run_cli(stage_argv(wl, stage, out), env, out / f"{stage}.err", deadline)
            walls[stage].append(wall)
            peak = max(peak, mb)
        pipeline.append(sum(walls[stage][-1] for stage in wl.chain))
        rss.append(peak)
        found = check_chain(wl, out, codes, outcome, reference)
        for stage in wl.chain:
            if codes[stage] != 0:
                sys.stderr.write((out / f"{stage}.err").read_text()[-2000:])
        shutil.rmtree(out)
        rep_timed += pipeline[-1]
        timed += rep_timed
        if timed + rep_timed > seconds or time.monotonic() > deadline - 60:
            break
    while len(setup) < SETUP_RUNS:
        setup_probe()

    metrics = {
        "setup_s": _median(setup),
        "pipeline_s": _median(pipeline),
        "peak_rss_mb": _median(rss),
    }
    extra: dict = {
        "samples": len(pipeline),
        "setup_samples": len(setup),
        "synopsize_s": _median(walls["synopsize"]),
        "score_s": _median(walls["score"]),
    }
    if "extract" in wl.chain:
        extra["extract_fps"] = _ratio(wl.frame_count, _median(walls["extract"]))
    if "render" in wl.chain and "schedule" in found:
        extra["render_fps"] = _ratio(found["schedule"]["synopsis_length"], _median(walls["render"]))
    if "expected" in found:
        extra.update({k: found["expected"][k] for k in ("fr", "collision_level", "cdr")})
    if "mor" in found:
        extra["mor"] = found["mor"]
    extra["fingerprint"] = reference.get("fingerprint")
    return outcome, metrics, extra


# -- traced in-process runs -----------------------------------------------------


def run_in_process(cli, wl: Workload, out: Path, tracer=None) -> tuple[float, dict[str, int]]:
    codes = {}
    start = time.perf_counter()
    for stage in wl.chain:
        argv = stage_argv(wl, stage, out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                codes[stage] = cli.main(argv)
            else:
                with tracer.stage_span(stage):
                    codes[stage] = cli.main(argv)
        if codes[stage] != 0:
            sys.stderr.write(sink.getvalue()[-2000:])
    return time.perf_counter() - start, codes


def install(tracer, vs) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from videosynopsis.scheduler import SchedulerTrace

    cli, ingest, frames, grouping, metrics, render = vs
    tracer.wrap(cli, "parse_annotations", "ingest.parse_annotations", keep=lambda r: r)
    tracer.wrap(cli, "run_extraction", "ingest.run_extraction",
                keep=lambda r: (r.detector_queries, len(r.log)))
    tracer.wrap(ingest, "is_frame_empty", "ingest.is_frame_empty")
    tracer.wrap(ingest, "median_background", "ingest.median_background")
    tracer.wrap(frames, "read_image", "frames.read_image")
    tracer.wrap(cli, "write_image", "frames.write_image")
    tracer.wrap(cli, "build_groups", "grouping.build_groups", keep=lambda r: r)
    tracer.count(grouping, "linked", "grouping.linked")
    tracer.wrap(cli, "rearrange", "scheduler.rearrange", keep=lambda r: r, trace=SchedulerTrace)
    tracer.wrap(cli, "score_schedule", "metrics.score_schedule")
    tracer.wrap(metrics, "collision_area", "metrics.collision_area")
    tracer.wrap(metrics, "chronological_disorder_ratio", "metrics.chronological_disorder_ratio")
    tracer.wrap(metrics, "dataset_stats", "metrics.dataset_stats")
    tracer.wrap(cli, "generate_background", "render.generate_background")
    tracer.wrap_generator(cli, "render_synopsis", "render.render_synopsis")
    tracer.wrap(render, "segment", "render.segment", keep=lambda m: m.is_fallback)
    tracer.wrap(render, "stitch_frame", "render.stitch_frame")
    for module in (ingest, render):
        for fn in PIXELOPS:
            if hasattr(module, fn):
                tracer.wrap(module, fn, f"pixelops.{fn}")


def scheduler_counts(trace, groups, tubes: dict) -> dict:
    """Counts from the public SchedulerTrace, plus the synopsis-time overlap
    of each (group, opponent) pair when it was first examined."""
    extent = [max(off + tubes[tid].length for tid, off in g.members) for g in groups]
    pos: dict[int, int] = {}
    accepted: dict[int, int] = {}
    seen = set()
    counts = {"cost": 0, "shift": 0, "extend": 0, "checks": 0, "overlapping": 0}
    for event in trace.events:
        kind = event[0]
        if kind in counts:
            counts[kind] += 1
        if kind in ("init", "shift"):
            pos[event[1]] = event[2]
        elif kind == "accept":
            accepted[event[1]] = event[2]
        elif kind == "cost" and event[1:3] not in seen:
            gi, oi = event[1], event[2]
            seen.add((gi, oi))
            counts["checks"] += 1
            if pos[gi] < accepted[oi] + extent[oi] and accepted[oi] < pos[gi] + extent[gi]:
                counts["overlapping"] += 1
    return counts


def final_violations(trace, groups, tubes: dict, gate: float) -> int:
    """Placed group pairs overlapping in synopsis time whose final cost,
    weighted by the later-placed group's final weight, exceeds the gate."""
    from videosynopsis.scheduler import PlacedGroup, group_collision

    placed = []
    for event in trace.events:
        if event[0] == "accept":
            _, gi, start, weight = event
            pg = PlacedGroup.place(groups[gi], tubes, start, index=gi)
            pg.weight = weight
            placed.append(pg)
    placed.sort(key=lambda pg: pg.synopsis_start)
    violations = 0
    for i, a in enumerate(placed):
        for b in placed[i + 1 :]:
            if b.synopsis_start >= a.end:
                break
            later = a if a.index > b.index else b
            if group_collision(a, b, tubes) * later.weight > gate:
                violations += 1
    return violations


def layer_metrics(tracer, wl: Workload, gate: float) -> dict[str, float]:
    selfs = tracer.self_times()

    def total(name: str, stage: str | None = None) -> float:
        return sum(tracer.durations(name, stage))

    def self_of(name: str) -> float:
        return sum(selfs[sid] for sid, n, *_ in tracer.spans if n == name)

    def calls(name: str, stage: str | None = None) -> int:
        return len(tracer.durations(name, stage))

    res = tracer.results
    gate_ms = [d * 1e3 for d in tracer.durations("ingest.is_frame_empty")]
    segment_ms = [d * 1e3 for d in tracer.durations("render.segment")]
    fallbacks = res.get("render.segment", [])
    queries, logged = res.get("ingest.run_extraction", [(0, 0)])[-1]
    pairs = tracer.counts["grouping.linked"]
    groups = res.get("grouping.build_groups", [[]])[-1]
    parsed = res.get("ingest.parse_annotations", [])
    m = {
        "ingest.parse_s": total("ingest.parse_annotations"),
        "ingest.rows": sum(t.length for tubes in parsed for t in tubes),
        "ingest.gate_calls": len(gate_ms),
        "ingest.gate_ms_p50": _median(gate_ms),
        "ingest.gate_ms_p90": _quantile(gate_ms, 0.9),
        "ingest.median_calls": calls("ingest.median_background", "extract"),
        "ingest.median_s": total("ingest.median_background", "extract"),
        "ingest.extract_self_s": self_of("ingest.run_extraction"),
        "ingest.query_share": _ratio(queries, logged),
        "frames.reads": calls("frames.read_image"),
        "frames.read_s": total("frames.read_image"),
        "frames.reads_per_box": _ratio(calls("frames.read_image", "render"), len(segment_ms)),
        "frames.writes": calls("frames.write_image"),
        "frames.write_s": total("frames.write_image"),
        "grouping.build_s": total("grouping.build_groups"),
        "grouping.pairs_evaluated": pairs,
        "grouping.concurrent_ratio": _ratio(checks.source_concurrent_pairs(wl.tubes), pairs),
        "grouping.groups": len(groups),
        "scheduler.rearrange_s": total("scheduler.rearrange"),
        "metrics.score_s": total("metrics.score_schedule"),
        "metrics.ca_s": total("metrics.collision_area"),
        "metrics.cdr_s": total("metrics.chronological_disorder_ratio"),
        "metrics.stats_s": total("metrics.dataset_stats"),
        "render.background_s": total("render.generate_background"),
        "render.segments": len(segment_ms),
        "render.segment_ms_p50": _median(segment_ms),
        "render.segment_ms_p90": _quantile(segment_ms, 0.9),
        "render.stitch_ms": _median([d * 1e3 for d in tracer.durations("render.stitch_frame")]),
        "render.self_s": self_of("render.render_synopsis"),
        "render.fallback_share": _ratio(sum(fallbacks), len(fallbacks)),
    }
    for fn in PIXELOPS:
        m[f"pixelops.{fn}_calls"] = calls(f"pixelops.{fn}")
        m[f"pixelops.{fn}_s"] = total(f"pixelops.{fn}")
    for stage in STAGES:
        m[f"cli.{stage}_self_s"] = self_of(f"cli.{stage}")

    sched_traces = res.get("scheduler.rearrange.trace", [])
    if sched_traces and parsed:
        tubes = {t.id: t for t in parsed[-1]}
        counts = scheduler_counts(sched_traces[-1], groups, tubes)
        m["scheduler.cost_evals"] = counts["cost"]
        m["scheduler.shifts"] = counts["shift"]
        m["scheduler.extends"] = counts["extend"]
        m["scheduler.shift_share"] = _ratio(counts["shift"], counts["cost"])
        m["scheduler.overlap_ratio"] = _ratio(counts["overlapping"], counts["checks"])
        m["scheduler.final_violations"] = final_violations(sched_traces[-1], groups, tubes, gate)
        schedule = res["scheduler.rearrange"][-1]
        starts = {}
        for group, s in schedule.placements:
            starts.update({tid: s + off for tid, off in group.members})
        m["metrics.overlap_ratio"] = checks.synopsis_overlap_ratio(wl.tubes, starts)
    return m


def write_spans(tracer, path: Path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = min((start for _, _, start, *_ in tracer.spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, name, start, end, parent, stage in sorted(tracer.spans, key=lambda sp: sp[2]):
            fh.write(json.dumps({"id": sid, "name": name, "start": start - origin, "end": end - origin,
                                 "parent": parent, "stage": stage}) + "\n")


def traced_run(wl: Workload, work: Path, src: Path, seconds: float, deadline: float) -> tuple[Outcome, dict, dict]:
    from tracing import Tracer

    sys.path.insert(0, str(src))
    import videosynopsis
    from videosynopsis import cli, frames, grouping, ingest, metrics, render

    if not Path(videosynopsis.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"videosynopsis imported from {videosynopsis.__file__}, not {src}")
    vs = (cli, ingest, frames, grouping, metrics, render)
    gate = cli.PipelineConfig.load(wl.files["config"]).scheduler.ladder[-1][0]

    outcome = Outcome()
    reference: dict = {}
    plain, traced, layers = [], [], []
    timed = 0.0
    while True:
        out = work / f"plain{len(plain)}"
        wall, codes = run_in_process(cli, wl, out)
        plain.append(wall)
        check_chain(wl, out, codes, outcome, reference)
        shutil.rmtree(out)

        tracer = Tracer()
        install(tracer, vs)
        out = work / f"traced{len(traced)}"
        try:
            wall, codes = run_in_process(cli, wl, out, tracer)
        finally:
            tracer.restore()
        traced.append(wall)
        check_chain(wl, out, codes, outcome, reference)
        shutil.rmtree(out)
        layers.append(layer_metrics(tracer, wl, gate))
        timed += plain[-1] + traced[-1]
        if timed + plain[-1] + traced[-1] > seconds or time.monotonic() > deadline - 60:
            break

    metrics_out = {}
    for name in PER_LAYER:
        metrics_out[name] = _median([layer.get(name, 0) for layer in layers])
    metrics_out["trace.overhead_ratio"] = _ratio(_median(traced), _median(plain))
    extra = {"samples": len(traced), "tracer": tracer, "untraced_in_process_s": _median(plain),
             "traced_in_process_s": _median(traced), "fingerprint": reference.get("fingerprint")}
    return outcome, metrics_out, extra


# -- entry point ------------------------------------------------------------------


def environment(root: Path, seed: int, wl: Workload) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": wl.name,
        "sizes": wl.sizes,
        "render_threads": render_threads() if "render" in wl.chain else None,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, factories=WORKLOADS) -> tuple[dict, dict]:
    """One benchmark run; returns (report line, result line)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    src = root / "src"
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = factories[name](seed)
        materialize(wl, work / "inputs")
        runner = traced_run if trace else timed_run
        outcome, metrics, extra = runner(wl, work, src, seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        spans = Path(".bench_spans") / f"{name}-{seed}.jsonl"
        write_spans(extra.pop("tracer"), root / spans)
        extra["spans"] = str(spans)
    units = PER_LAYER if trace else END_TO_END
    report = {
        "environment": environment(root, seed, wl),
        "fingerprint": extra.pop("fingerprint"),
        "problems": outcome.problems[:20],
    }
    if not trace:
        report["end_to_end"] = {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            **{k: {"value": extra.pop(k), "unit": u} for k, u in WORKLOAD_METRICS.items() if k in extra},
        }
    report.update(extra)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "videosynopsis" / "cli.py").is_file():
        print(f"error: no videosynopsis sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
