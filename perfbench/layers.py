"""The traced run: per-layer metrics from wrappers around each layer's
public functions.

The wrappers live here, in the benchmark, not in the program.  Each one
records a span (name, start, end, parent span, request id) in memory; the
spans are written as Chrome ``trace_event`` JSON when the run ends.  A
layer's self time is its spans' duration minus the part their child spans
cover.  The checker's own phase spans (``seed``/``dataflow``/
``unify-constraints``, recorded by :mod:`repro.telemetry`) give the split
below ``Checker.run``, which has no public seam of its own.

Several callers import a layer's function by name (every dialect does
``from ..cfront.parser import parse_c``), so a wrapper is installed at
each name its callers resolve, or on the class that owns the method.  The
coverage check compares wrapper call counts with the work the benchmark
observed independently and fails the run on any difference, which is how
a wrapper missed at one by-name import shows up.

The run first executes the workload's minimum plan untraced, then the
same plan traced; ``trace.overhead_ratio`` is traced over untraced
rescaled time.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

import repro.cfront.parser as cparser
import repro.engine.cache as ecache
import repro.engine.incremental as eincremental
import repro.engine.jobs as ejobs
import repro.engine.scheduler as escheduler
import repro.engine.stream as estream
import repro.jni.dialect as jni_dialect
import repro.ocamlfront.dialect as ocaml_dialect
import repro.pyext.dialect as pyext_dialect
import repro.rustffi.dialect as rust_dialect
import repro.server.protocol as protocol
from repro import seeds, telemetry
from repro.core.checker import Checker
from repro.linker import Linker
from repro.server.service import AnalysisService

import workloads

#: dialect name -> (module whose by-name imports are rebound, dialect class)
DIALECTS = {
    "ocaml": (ocaml_dialect, ocaml_dialect.OCamlDialect),
    "pyext": (pyext_dialect, pyext_dialect.PyExtDialect),
    "jni": (jni_dialect, jni_dialect.JniDialect),
    "rust": (rust_dialect, rust_dialect.RustFfiDialect),
}

#: checker phase spans (repro.telemetry) -> metric
CHECKER_PHASES = {
    "seed": "core.seed_s",
    "dataflow": "core.dataflow_s",
    "unify-constraints": "core.unify_s",
}

SUMMARY_ROWS = ("exports", "externs", "registrations", "bindings", "host_exports")


class CoverageError(RuntimeError):
    """A wrapper's call count disagrees with the work observed."""


class Recorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.events: list[list] = []
        self._stack: list[int] = []
        self.request = 0
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, name: str, after=None, enter=None) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, (type, ModuleType)):
            restore = vars(owner).get(attr, original)
        else:
            restore = None  # an instance attribute shadows the method
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter()
            index = len(recorder.events)
            parent = recorder._stack[-1] if recorder._stack else -1
            event = [name, time.perf_counter(), 0.0, parent, recorder.request]
            recorder.events.append(event)
            recorder._stack.append(index)
            try:
                out = original(*args, **kwargs)
            finally:
                recorder._stack.pop()
                event[2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, out, event)
            return out

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, restore))

    def uninstall(self) -> None:
        for owner, attr, restore in reversed(self._installed):
            if restore is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, restore)
        self._installed.clear()

    def parent_name(self, event: list) -> str:
        return self.events[event[3]][0] if event[3] >= 0 else ""

    def totals(self) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _parent, _request in self.events:
            self_s[name] += end - start
            calls[name] += 1
        for name, start, end, parent, _request in self.events:
            if parent >= 0:
                self_s[self.events[parent][0]] -= end - start
        return self_s, calls

    def chrome_events(self) -> list[dict]:
        offset_us = time.time_ns() / 1000 - time.perf_counter() * 1e6
        pid = os.getpid()
        out = []
        for name, start, end, parent, request in self.events:
            out.append(
                {
                    "name": name,
                    "cat": "layer",
                    "ph": "X",
                    "ts": round(start * 1e6 + offset_us),
                    "dur": round((end - start) * 1e6),
                    "pid": pid,
                    "tid": 0,
                    "args": {"parent": parent, "request": request},
                }
            )
        return out


def install_wrappers(rec: Recorder, workload) -> None:
    """Put a span around every layer call the workloads reach."""
    counts = rec.counts

    def new_request() -> None:
        rec.request += 1

    for op in ("request", "sweep", "fig9_program"):
        rec.install(workload, op, f"bench.{op}", enter=new_request)

    # cfront: the Parser constructor is the lexer scan, the rest is parsing
    def lexed(args, kwargs, out, event):
        counts["tokens"] += len(args[0].tokens)

    rec.install(cparser.Parser, "__init__", "cfront.lex", after=lexed)
    rec.install(cparser.Parser, "parse_translation_unit", "cfront.parse")

    def checked(args, kwargs, out, event):
        counts["unify_steps"] += out.unification_steps

    rec.install(Checker, "run", "core.check", after=checked)

    def summarized(args, kwargs, out, event):
        counts["summary_rows"] += sum(len(getattr(out, g)) for g in SUMMARY_ROWS)

    for name, (module, cls) in DIALECTS.items():
        rec.install(module, "lower_unit", "cfront.lower")
        rec.install(cls, "analyze", f"{name}.analyze")
        rec.install(cls, "summarize", "linker.summarize", after=summarized)
        if hasattr(module, "repository_fingerprint"):
            rec.install(module, "repository_fingerprint", "jobs.fingerprint")

    def phi(args, kwargs, out, event):
        counts["phi_calls"] += len(args[0].externals)

    rec.install(ocaml_dialect.OCamlDialect, "repository_for", "ocamlfront.repo")
    rec.install(ocaml_dialect, "build_initial_env", "ocamlfront.phi", after=phi)

    rec.install(ejobs, "repository_fingerprint", "jobs.fingerprint")
    rec.install(ejobs.CheckRequest, "cache_key", "jobs.cache_key")
    rec.install(ejobs.CheckResult, "from_dict", "jobs.from_dict")
    rec.install(ejobs.CheckResult, "to_dict", "jobs.to_dict")

    def shipped(args, kwargs, out, event):
        # what a worker process would receive for this unit
        counts["ipc_bytes"] += len(pickle.dumps(args[0]))

    for module in (escheduler, estream):
        rec.install(module, "run_request", "jobs.run_request", after=shipped)

    rec.install(Linker, "add_dict", "linker.fold")
    rec.install(Linker, "report", "linker.report")

    def probed(args, kwargs, out, event):
        if rec.parent_name(event) != "cache.load":  # the outermost tier
            counts["cache_hits" if out is not None else "cache_misses"] += 1

    for cls in (ecache.ResultCache, ecache.MemoryCache, ecache.TieredCache):
        rec.install(cls, "load", "cache.load", after=probed)
        rec.install(cls, "store", "cache.store")

    def batched(args, kwargs, out, event):
        counts["coalesced"] += out.coalesced
        if kwargs.get("cache") is not None:
            counts["probes"] += len(args[0])

    rec.install(workloads, "run_batch", "scheduler.run_batch", after=batched)
    rec.install(eincremental, "run_batch", "scheduler.run_batch", after=batched)
    rec.install(workloads, "stream_batch", "scheduler.stream_batch")

    last_tally: dict[str, dict] = {}

    def invalidated(args, kwargs, out, event):
        counts["invalidations"] += 1

    def rechecked(args, kwargs, out, event):
        ran = set(out.ran)
        for result in out.results:
            tally = result.tally()
            if result.name in ran:
                counts["reran"] += 1
                counts["useful_reruns"] += int(
                    last_tally.get(result.name, tally) != tally
                )
            last_tally[result.name] = tally

    engine = eincremental.IncrementalEngine
    rec.install(engine, "invalidate", "incremental.invalidate", after=invalidated)
    rec.install(engine, "check", "incremental.check", after=rechecked)

    rec.install(AnalysisService, "handle_line", "server.handle")
    rec.install(protocol, "decode_line", "server.decode")
    for encoder in ("encode", "encode_fragment", "splice_result"):
        rec.install(protocol, encoder, "server.encode")


def coverage(rec: Recorder, calls: Counter, analysed: int, folded: int) -> dict:
    """Wrapper counts against the work the benchmark observed."""
    checks = {
        "cfront.parse == C sources analysed": (calls["cfront.parse"], analysed),
        "core.check == units analysed": (calls["core.check"], analysed),
        "linker.fold == summaries folded": (calls["linker.fold"], folded),
        "cache.load == probes": (
            rec.counts["cache_hits"] + rec.counts["cache_misses"],
            rec.counts["probes"],
        ),
    }
    failed = {k: v for k, v in checks.items() if v[0] != v[1]}
    if failed:
        raise CoverageError(
            "; ".join(f"{k}: wrappers saw {a}, work was {b}" for k, (a, b) in failed.items())
        )
    return {k: v[0] for k, v in checks.items()}


def traced_run(workload, meter, seeds_before: dict, trace_dir: Path, args):
    """Untraced plan, then the same plan traced; per-layer metrics."""
    first = workloads.run_plan(workload, meter, 0)
    untraced = sum(sum(v) for v in meter.samples(True, first).values())

    analysed_before = workload.verdicts.analysed
    folded_before = workload.folded
    rec = Recorder()
    tracer = telemetry.Tracer()
    install_wrappers(rec, workload)
    telemetry.install(tracer)
    try:
        first = workloads.run_plan(workload, meter, 0)
    finally:
        telemetry.uninstall()
        rec.uninstall()
    traced = sum(sum(v) for v in meter.samples(True, first).values())
    factors = [meter.factor(block) for block in meter.blocks[first:]]
    scale = sum(factors) / len(factors)

    self_s, calls = rec.totals()
    checks = coverage(
        rec,
        calls,
        workload.verdicts.analysed - analysed_before,
        workload.folded - folded_before,
    )
    phases: Counter = Counter()
    for event in tracer.export():
        if event.get("name") in CHECKER_PHASES:
            phases[CHECKER_PHASES[event["name"]]] += event.get("dur", 0) / 1e6

    c = rec.counts
    seconds = lambda name: self_s[name] * scale  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    units = calls["core.check"]
    ocaml_units = calls["ocaml.analyze"]
    dedup = 0.0
    if hasattr(workload, "status"):
        dedup = workload.status()["coalescing"]["dedup_ratio"]
    seeds_now = seeds.seed_stats()
    metrics = {
        "cfront.lex_s": seconds("cfront.lex"),
        "cfront.parse_s": seconds("cfront.parse"),
        "cfront.lower_s": seconds("cfront.lower"),
        "cfront.tokens": c["tokens"],
        "cfront.tokens_per_s": ratio(
            c["tokens"], seconds("cfront.lex") + seconds("cfront.parse")
        ),
        "core.check_s": seconds("core.check"),
        "core.unify_steps": c["unify_steps"],
        **{name: phases[name] * scale for name in CHECKER_PHASES.values()},
        **{f"{d}.self_s": seconds(f"{d}.analyze") for d in DIALECTS},
        "ocamlfront.repo_parse_s": seconds("ocamlfront.repo"),
        "ocamlfront.phi_s": seconds("ocamlfront.phi"),
        "ocamlfront.phi_calls": c["phi_calls"],
        "ocamlfront.externals_per_unit": ratio(c["phi_calls"], ocaml_units),
        "jobs.fingerprint_s": seconds("jobs.fingerprint"),
        "jobs.fingerprint_calls": calls["jobs.fingerprint"],
        "jobs.ipc_bytes_per_unit": ratio(c["ipc_bytes"], calls["jobs.run_request"]),
        "jobs.cache_key_s": seconds("jobs.cache_key"),
        "jobs.from_dict_s": seconds("jobs.from_dict"),
        "jobs.to_dict_s": seconds("jobs.to_dict"),
        "linker.summarize_s": seconds("linker.summarize"),
        "linker.rows_per_unit": ratio(c["summary_rows"], calls["linker.summarize"]),
        "linker.fold_s": seconds("linker.fold"),
        "linker.report_s": seconds("linker.report"),
        "cache.load_s": seconds("cache.load"),
        "cache.store_s": seconds("cache.store"),
        "cache.hits": c["cache_hits"],
        "cache.misses": c["cache_misses"],
        "cache.hit_ratio": ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "incremental.invalidate_s": seconds("incremental.invalidate"),
        "incremental.check_s": seconds("incremental.check"),
        "incremental.rerun_per_edit": ratio(c["reran"], c["invalidations"]),
        "incremental.useful_rerun_ratio": ratio(c["useful_reruns"], c["reran"]),
        "server.handle_s": seconds("server.handle"),
        "server.decode_s": seconds("server.decode"),
        "server.encode_s": seconds("server.encode"),
        "server.dedup_ratio": dedup,
        "scheduler.run_batch_s": seconds("scheduler.run_batch"),
        "scheduler.stream_batch_s": seconds("scheduler.stream_batch"),
        "scheduler.coalesced": c["coalesced"],
        **{
            f"seeds.{key}": seeds_now[key] - seeds_before[key]
            for key in ("table_builds", "host_builds", "artifact_loads", "artifact_rejects")
        },
        "trace.overhead_ratio": traced / untraced,
        "trace.spans": len(rec.events),
    }
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    telemetry.write_trace(trace_path, rec.chrome_events() + tracer.export())
    extra = {
        "coverage": checks,
        "units_analysed": units,
        "span_calls": dict(calls),
        "trace_file": str(trace_path.relative_to(trace_dir.parent)),
        "rescale_factor": scale,
        "untraced_s": untraced,
        "traced_s": traced,
    }
    return metrics, extra
