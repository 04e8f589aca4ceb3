"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py      # from the root of a source checkout

Checks that every metric is reported with its unit on the workloads where it
applies, that the names agree with BENCHMARK.json, and, as negative
controls, that the output checker rejects a schedule with one tube shifted,
a metrics file with a wrong collision area and a rendered frame with a
pixel changed outside every painted box.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
TINY = {
    "crowded": lambda seed: workloads.crowded(seed, count=24, frame_count=300),
    "sparse_long": lambda seed: workloads.sparse_long(seed, count=30, frame_count=2000),
    "clip_720p": lambda seed: workloads.clip_720p(seed, bursts=2, per_burst=2, quiet=3, life=(8, 10)),
}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the metrics run.py reports")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches the metrics run.py reports")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the generators")


def test_reports(name: str) -> None:
    applies = {"synopsize_s", "score_s", "fr", "collision_level", "cdr"}
    if name == "clip_720p":
        applies |= {"extract_fps", "render_fps", "mor"}
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        report, result = run.run(name, 3, 0, trace, ROOT, factories=TINY)
        label = f"{name} trace={int(trace)}"
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{label}: all operations pass ({result['attempted']} attempted, {report['problems']})")
        expect({k: v["unit"] for k, v in result["metrics"].items()} == units,
               f"{label}: every metric printed with its unit")
        expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
               f"{label}: every metric value is a number")
        if not trace:
            shown = {k: v["unit"] for k, v in report["end_to_end"].items()}
            expect(set(shown) == set(run.END_TO_END) | applies
                   and all(shown[k] == run.WORKLOAD_METRICS[k] for k in applies),
                   f"{label}: workload end-to-end metrics {sorted(applies)} reported with units")
            expect(report["fingerprint"] is not None, f"{label}: fingerprint reported")


def test_negative_controls() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from videosynopsis import cli

    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = TINY["clip_720p"](5)
        workloads.materialize(wl, work / "inputs")
        out = work / "out"
        _, codes = run.run_in_process(cli, wl, out)
        outcome = run.Outcome()
        run.check_chain(wl, out, codes, outcome, {})
        expect(outcome.failed == 0, f"uncorrupted outputs pass ({outcome.problems})")

        schedule = json.loads((out / "syn" / "schedule.json").read_text())
        expect(not checks.check_render(out / "ren", schedule, wl.tubes), "uncorrupted render passes")
        shifted = json.loads(json.dumps(schedule))
        per_tube = shifted["placements"][-1]["per_tube_starts"]
        tid = next(iter(per_tube))
        per_tube[tid] += 1
        expect(bool(checks.check_schedule(shifted, wl.tubes)), "schedule with one tube shifted is rejected")

        report = json.loads((out / "syn" / "metrics.json").read_text())
        expected = checks.brute_force_metrics(
            wl.tubes, checks.tube_starts(schedule), schedule["synopsis_length"], wl.frame_count
        )
        expect(not checks.check_metrics(report, expected), "metrics.json equals the brute force")
        report["ca"] += 1
        expect(bool(checks.check_metrics(report, expected)), "metrics.json with a wrong CA is rejected")

        frame_path = sorted((out / "ren").glob("frame_*.ppm"))[0]
        pixels = workloads.read_ppm(frame_path).copy()
        starts = checks.tube_starts(schedule)
        index = int(frame_path.stem.split("_")[1])
        painted = [
            boxes[index - starts[t]] for t, _, boxes in wl.tubes if 0 <= index - starts[t] < len(boxes)
        ]
        x, y = next(
            (x, y) for y in range(0, workloads.HEIGHT, 7) for x in range(0, workloads.WIDTH, 7)
            if not any(l <= x < l + w and t <= y < t + h for l, t, w, h in painted)
        )
        pixels[y, x] ^= 0xFF
        workloads.write_ppm(frame_path, pixels)
        expect(bool(checks.check_render(out / "ren", schedule, wl.tubes)),
               "rendered frame with a pixel changed outside every box is rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    test_metric_names()
    test_negative_controls()
    for name in TINY:
        test_reports(name)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
