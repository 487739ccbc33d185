"""The repository benchmark: one command, four workloads, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer metrics (see ``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw (unrescaled) values, every calibration sample, the set-up
repeats and the corpus digest, so every reported number can be recomputed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every file a run writes lives under here, removed at exit
SCRATCH = ROOT / ".perfbench-tmp"
#: traced runs leave their Chrome trace here
TRACE_DIR = ROOT / ".perfbench-traces"
#: set-up is repeated this many times; setup_s reports the median
SETUP_REPEATS = 3


def snapshot(path: Path) -> list:
    """Names, sizes and mtimes under ``path`` (empty if absent)."""
    if not path.exists():
        return []
    return sorted(
        (str(p.relative_to(path)), p.stat().st_size, p.stat().st_mtime_ns)
        for p in path.rglob("*")
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = SCRATCH / f"run-{os.getpid()}"
    # isolation: the seed-artifact store and the default user cache must
    # never carry state between runs, so both point into this run's scratch
    os.environ["MLFFI_SEED_DIR"] = str(scratch / "seeds-import")
    os.environ["HOME"] = str(scratch / "home")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]
    from repro import seeds
    from workloads import (
        REF_SECONDS,
        WORKLOADS,
        InsufficientSamples,
        Meter,
        end_to_end,
        run_plan,
        timed,
    )

    project_cache = Path.cwd() / ".mlffi-cache"
    before = snapshot(project_cache)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    workload = None
    try:
        if args.workload not in WORKLOADS:
            print(
                f"error: unknown workload {args.workload!r} "
                f"(known: {', '.join(sorted(WORKLOADS))})",
                file=sys.stderr,
            )
            return 2
        imports_s = time.perf_counter() - STARTED
        meter = Meter()
        import_factor = REF_SECONDS / meter.calibration[0]

        seeds_before = None
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            # every repeat starts seed-cold, so the repeats do equal work
            seeds.clear_seed_memos()
            os.environ["MLFFI_SEED_DIR"] = str(scratch / f"seeds{repeat}")
            seeds_before = seeds.seed_stats()
            workload = WORKLOADS[args.workload](args.seed)
            root = scratch / f"setup{repeat}"
            root.mkdir()
            meter.block(["setup"], lambda: [timed(lambda: workload.setup(root))[1]])
        setup_rescaled = meter.samples(True)["setup"]
        setup_s = imports_s * import_factor + statistics.median(setup_rescaled)

        extra: dict = {}
        if args.trace:
            from layers import CoverageError, traced_run

            try:
                metrics, extra = traced_run(
                    workload, meter, seeds_before, TRACE_DIR, args
                )
            except CoverageError as exc:
                print(f"error: traced-run coverage check failed: {exc}", file=sys.stderr)
                return 4
        else:
            first = run_plan(workload, meter, args.seconds)
            rescaled = end_to_end(workload, meter.samples(True, first))
            raw = end_to_end(workload, meter.samples(False, first))
            extra["raw"] = raw
            extra["blocks"] = meter.blocks[first:]
            extra["samples"] = {
                label: len(values)
                for label, values in meter.samples(True, first).items()
            }
            metrics = dict(rescaled)
        verdicts = workload.verdicts
        untouched = snapshot(project_cache) == before and not (
            scratch / "home" / ".cache" / "mlffi"
        ).exists()
        verdicts.check("user cache dirs", untouched, "a run wrote outside its scratch")
        if not args.trace:
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            metrics["correct_frac"] = verdicts.correct_frac
            metrics["success_frac"] = 1 - verdicts.failed / verdicts.attempted
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {
            m["name"]: m["unit"]
            for m in declared["per_layer" if args.trace else "end_to_end"]
        }
        if set(units) != set(metrics):
            print(
                "error: measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(units) ^ set(metrics))}",
                file=sys.stderr,
            )
            return 5
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "corpus_sha256": workload.digest(),
            "ref_seconds": REF_SECONDS,
            "calibration_s": meter.calibration,
            "imports_s_raw": imports_s,
            "setup_s_raw": [b["raw_s"][0] for b in meter.blocks[:SETUP_REPEATS]],
            "setup_s_rescaled": setup_rescaled,
            "verdicts_checked": verdicts.checked,
            "mismatches": verdicts.mismatches,
            **extra,
        }
        print(json.dumps(detail))
        result = {
            "correct": verdicts.correct == verdicts.checked and verdicts.failed == 0,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in sorted(metrics.items())
            },
        }
        print(json.dumps(result))
        return 0
    except InsufficientSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory


if __name__ == "__main__":
    sys.exit(main())
