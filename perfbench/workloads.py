"""The four workloads and the measurement loop they share.

Every workload answers the same three kinds of work through its own path
into the checker, so every end-to-end metric has a measured value on every
workload:

* the Figure 9 suite (``fig9_s``);
* sweeps over a scaled corpus at N and 2N units (``units_per_s``,
  ``scale_exp``);
* a closed loop, one client, of single-unit requests: 60% reads, 30% C
  edits (a new revision; on the shared-host projects also a toggle between
  the clean and planted-defect variant), 10% host edits (toggle one
  external's declared type spelling) -- ``req_per_s`` and the latency
  percentiles.

The path is what differs, and it is what each workload exists to isolate:

=============  ===========================================================
cold-mixed     ``run_batch(jobs=1, cache=None)``: every verdict is a full
               analysis (cfront, core, dialect passes); no cache, no link,
               private hosts.
link-sweep     ``stream_batch(jobs=1, cache=None)`` folded into a
               ``Linker``: one OCaml project whose units share every host;
               a request re-links the resident summaries, a host edit
               re-sweeps the whole project.
serve-edits    ``AnalysisService.handle_line`` over a ``Session`` with a
               disk tier: framing, invalidation, memory tier, cache writes.
warm-rerun     ``run_batch(jobs=1, cache=ResultCache)`` after set-up filled
               the cache: reads and sweeps are disk hits; edits miss.
=============  ===========================================================

Timing discipline: each timed block is followed by a run of
``bench_cold._calibration_run`` and every timing is rescaled by
``REF_SECONDS / calibration`` (see :meth:`Meter.factor`), so a host that
runs slower for a while does not read as a slower program.  Calibration
never runs inside a timed interval.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from bench_cold import _calibration_run

from repro import seeds
from repro.api import Session
from repro.boundary import get_dialect
from repro.corpus import iter_tree
from repro.engine import CheckRequest, ResultCache, run_batch, stream_batch
from repro.linker import Linker

from corpus import (
    Project,
    Unit,
    corpus_digest,
    figure9_units,
    mixed_units,
    shared_project,
)

#: pinned reference duration of one ``_calibration_run`` (seconds); every
#: reported timing is ``raw * REF_SECONDS / calibration_now``
REF_SECONDS = 0.05

#: one request block: (kind, count); shuffled per block by the seed.
#: Host edits are 10%, not fewer, so their p50 rests on 40+ samples a run.
REQUEST_MIX = (("read", 12), ("edit", 6), ("host", 2))
#: floors that give every percentile >= 10 samples beyond it:
#: 20 blocks -> 240 reads (p90), 120 edits (p90), 40 host edits (p50)
MIN_REQUEST_BLOCKS = 20
MIN_FIG9_PASSES = 2
MIN_SWEEP_BLOCKS = 4
#: the repeating plan; the run ends at the first boundary after the floors
#: are met and ``--seconds`` have passed.  Host speed drifts within a run,
#: so many short calibrated blocks rescale better than a few long ones:
#: a Figure 9 pass is one block per program.
CYCLE = ("requests",) * 5 + ("sweeps",) + ("requests",) * 5 + ("sweeps", "fig9")


class InsufficientSamples(RuntimeError):
    """A percentile was asked of too few samples; it is not reported."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile that insists on >= 10 samples beyond it."""
    rank = math.ceil(q * len(values))
    if rank < 1 or len(values) - rank < 10:
        raise InsufficientSamples(
            f"p{round(q * 100)} needs 10 samples beyond it, "
            f"have {len(values)} samples"
        )
    return sorted(values)[rank - 1]


class Meter:
    """Calibrated timing: every block is bracketed by calibration runs."""

    def __init__(self) -> None:
        self.calibration: list[float] = []
        self.blocks: list[dict] = []
        self.calibrate()

    def calibrate(self) -> float:
        started = time.perf_counter()
        _calibration_run()
        sample = time.perf_counter() - started
        self.calibration.append(sample)
        return sample

    def block(self, labels: list[str], run: Callable[[], list[float]]) -> None:
        """Run one block of timed ops, one raw duration per label."""
        raw = run()
        self.calibrate()
        self.blocks.append(
            {"labels": labels, "raw_s": raw, "after": len(self.calibration) - 1}
        )

    def factor(self, block: dict) -> float:
        """``REF_SECONDS / calibration_now`` for one block.

        ``calibration_now`` is the median of the two samples on either
        side of the block: one sample can be hit by a neighbour's burst,
        the median of four tracks the host's speed without that noise.
        """
        after = block["after"]
        window = self.calibration[max(0, after - 2) : after + 2]
        return REF_SECONDS / statistics.median(window)

    def samples(self, rescaled: bool = True, first_block: int = 0) -> dict:
        """Seconds per label over the blocks since ``first_block``."""
        out: dict[str, list[float]] = defaultdict(list)
        for block in self.blocks[first_block:]:
            factor = self.factor(block) if rescaled else 1.0
            for label, value in zip(block["labels"], block["raw_s"]):
                out[label].append(value * factor)
        return out


def timed(call: Callable[[], object]) -> tuple[object, float]:
    started = time.perf_counter()
    out = call()
    return out, time.perf_counter() - started


class Verdicts:
    """Ground-truth bookkeeping: verdicts checked, ops attempted/failed."""

    def __init__(self) -> None:
        self.checked = 0
        self.correct = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: units the program analysed (not served from a cache tier), as
        #: the replies report it -- the traced run's coverage reference
        self.analysed = 0

    def op(self, failed: bool) -> None:
        self.attempted += 1
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checked += 1
        self.correct += int(ok)
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(f"{name}: {detail}")
        return ok

    def result(self, unit: Unit, result) -> bool:
        """Check one ``CheckResult`` against its unit; True on failure."""
        if not result.from_cache and result.cache_tier != "coalesced":
            self.analysed += 1
        if result.failure is not None:
            self.check(unit.name, False, f"engine failure {result.failure}")
            return True
        diags = [{"rule_id": d.rule_id} for d in result.diagnostics]
        self.check(
            unit.name,
            unit.expect().matches(diags, result.tally()),
            f"got {dict(Counter(d['rule_id'] for d in diags))}",
        )
        return False

    def unit_dict(self, unit: Unit, data: dict) -> bool:
        """Same, for a unit as the service serializes it."""
        if data.get("failure"):
            self.check(unit.name, False, f"engine failure {data['failure']}")
            return True
        diags = data.get("diagnostics", [])
        self.check(
            unit.name,
            unit.expect().matches(diags, data.get("tally", {})),
            f"got {dict(Counter(d['rule_id'] for d in diags))}",
        )
        return False

    def link(self, name: str, report, expected: Counter) -> None:
        seen = Counter(d.kind.name for d in report.diagnostics)
        self.check(name, +seen == +expected, f"link {dict(seen)}")

    @property
    def correct_frac(self) -> float:
        return self.correct / self.checked if self.checked else 0.0


def warm_hosts(units: list[Unit]) -> None:
    """The seed warm-up ``mlffi-check warmup`` does: static tables plus
    the parsed host side of every distinct host set, so no timed window
    pays a first parse."""
    seeds.warmup_static()
    for unit in units:
        seeds.warmup_hosts(unit.dialect, unit.request().ocaml_sources)


class Workload:
    """One path into the checker; subclasses fill in the timed operations."""

    name = ""
    n_units = 0
    #: N/2N sweep pairs per sweep block, and passes per Figure 9 program
    #: block: a block of a few milliseconds is mostly timer and host noise.
    #: The floors give at least 4 sweep blocks, so >= 20 pairs for medians.
    sweep_repeat = 5
    fig9_repeat = 1

    def __init__(self, seed: int) -> None:
        self.inputs = random.Random(seed)
        self.choices = random.Random(seed * 7919 + 1)
        self.verdicts = Verdicts()
        self.units: list[Unit] = []
        self.fig9: list[Unit] = []
        #: interface summaries this benchmark folded into a ``Linker``
        self.folded = 0
        self._queues: dict[str, list[Unit]] = {}

    # -- set-up --------------------------------------------------------------

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        return corpus_digest(self.fig9 + self.units)

    def close(self) -> None:
        """Release resident state (sessions) before the next set-up."""

    # -- timed operations (each returns raw seconds of program time) ----------

    def fig9_program(self, index: int) -> float:
        raise NotImplementedError

    def sweep(self, large: bool) -> float:
        raise NotImplementedError

    def request(self, kind: str) -> float:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def sweep_units(self, large: bool) -> int:
        return self.n_units * (2 if large else 1)

    def pick(self, units: list[Unit], kind: str) -> Unit:
        """The next target for ``kind``: seeded rounds over every eligible
        unit, so each family gets its exact share of every kind of op."""
        queue = self._queues.setdefault(kind, [])
        if not queue:
            queue.extend(
                u for u in units if kind != "host" or len(u.host_variants) > 1
            )
            self.choices.shuffle(queue)
        return queue.pop()

    def batch(self, units: list[Unit], cache) -> float:
        requests = [unit.request() for unit in units]
        report, seconds = timed(
            lambda: run_batch(requests, jobs=1, cache=cache)
        )
        failed = False
        for unit, result in zip(units, report.results):
            failed |= self.verdicts.result(unit, result)
        self.verdicts.op(failed)
        return seconds


class BatchWorkload(Workload):
    """cold-mixed and warm-rerun: the batch scheduler, one cache choice."""

    cached = False

    def setup(self, root: Path) -> None:
        self.fig9 = figure9_units(self.inputs)
        self.units = mixed_units(2 * self.n_units, self.inputs)
        self.cache = None
        if self.cached:
            self.cache = ResultCache(root / "cache")
            self.batch(self.fig9, self.cache)
        else:
            warm_hosts(self.fig9)
        self.batch(self.units, self.cache)
        for kind, _count in REQUEST_MIX:
            self.request(kind)

    def fig9_program(self, index: int) -> float:
        return self.batch(self.fig9[index : index + 1], self.cache)

    def sweep(self, large: bool) -> float:
        return self.batch(self.units[: self.sweep_units(large)], self.cache)

    def request(self, kind: str) -> float:
        unit = self.pick(self.units, kind)
        if kind == "edit":
            # a new revision, same variant: toggling here would let the
            # clean/seeded mix drift with the seed, and the percentiles of
            # a mixed-cost corpus with it
            unit.revision += 1
        elif kind == "host":
            unit.edit_host()
        return self.batch([unit], self.cache)


class ColdMixed(BatchWorkload):
    name = "cold-mixed"
    n_units = 18


class WarmRerun(BatchWorkload):
    name = "warm-rerun"
    n_units = 45
    cached = True
    sweep_repeat = 40
    fig9_repeat = 10


class LinkSweep(Workload):
    """Shared-host OCaml projects at N and 2N units, swept and linked."""

    name = "link-sweep"
    n_units = 16
    trios = 2

    def setup(self, root: Path) -> None:
        base = self.inputs.randrange(100, 900) * 10
        self.small = shared_project(
            root / "small", self.n_units, self.trios, self.inputs, base
        )
        self.large = shared_project(
            root / "large", 2 * self.n_units, self.trios, self.inputs, base
        )
        self.units = self.large.all_units
        self.fig9 = figure9_units(self.inputs)
        #: unit path -> resident summary of the small project's last sweep
        self.summaries: dict[str, dict] = {}
        self.small_hosts = self.small.host_sources()
        warm_hosts(self.fig9)
        for project in (self.small, self.large):
            seeds.warmup_hosts("ocaml", project.host_sources())
        self.sweep(False)
        for kind, _count in REQUEST_MIX:
            self.request(kind)

    def _link_sweep(self, project: Project) -> float:
        """The ``link`` command's path: lazy tree walk, streamed, folded."""
        by_path = {str(project.root / u.c_file): u for u in project.all_units}
        results = []
        linker = Linker()

        def on_result(result) -> None:
            results.append(result)
            if result.failure is None:
                linker.add_dict(result.summary)
                self.folded += 1

        def run():
            scan = iter_tree(project.root, get_dialect("ocaml"))
            hosts = tuple(scan.hosts)
            stream_batch(
                (
                    CheckRequest(
                        name=source.filename,
                        c_sources=(source,),
                        ocaml_sources=hosts,
                        dialect="ocaml",
                    )
                    for source in scan.iter_units()
                ),
                jobs=1,
                cache=None,
                on_result=on_result,
            )
            return linker.report(), hosts

        (report, hosts), seconds = timed(run)
        failed = False
        summaries = {}
        for result in results:
            failed |= self.verdicts.result(by_path[result.name], result)
            summaries[result.name] = result.summary
        self.verdicts.link(project.root.name, report, project.expected_link())
        self.verdicts.op(failed)
        if project is self.small:
            self.summaries = summaries
            self.small_hosts = hosts
        return seconds

    def _relink(self):
        linker = Linker()
        for name in sorted(self.summaries):
            linker.add_dict(self.summaries[name])
        self.folded += len(self.summaries)
        return linker.report()

    def sweep(self, large: bool) -> float:
        return self._link_sweep(self.large if large else self.small)

    def fig9_program(self, index: int) -> float:
        """One Figure 9 program streamed through the same scheduler."""
        unit = self.fig9[index]
        results = []
        seconds = timed(
            lambda: stream_batch(
                [unit.request()], jobs=1, cache=None, on_result=results.append
            )
        )[1]
        self.verdicts.op(self.verdicts.result(unit, results[0]))
        return seconds

    def request(self, kind: str) -> float:
        project = self.small
        if kind == "host":
            unit = self.pick(project.units, kind)
            unit.edit_host()
            project.write_host(unit)
            return self._link_sweep(project)
        failed = False
        if kind == "read":
            report, seconds = timed(self._relink)
        else:
            unit = self.pick(project.units, kind)
            unit.edit_c()
            project.write_unit(unit)
            request = project.request(unit, self.small_hosts)
            results = []

            def run():
                stream_batch(
                    [request], jobs=1, cache=None, on_result=results.append
                )
                self.summaries[request.name] = results[0].summary
                return self._relink()

            report, seconds = timed(run)
            failed = self.verdicts.result(unit, results[0])
        self.verdicts.link("small", report, project.expected_link())
        self.verdicts.op(failed)
        return seconds


class ServeEdits(Workload):
    """A closed loop of JSON-RPC frames into one in-process service."""

    name = "serve-edits"
    n_units = 8  # bulk-edit sweeps touch N and 2N (= every) units
    sweep_repeat = 6

    def setup(self, root: Path) -> None:
        self.project = shared_project(
            root / "tree", 2 * self.n_units, 0, self.inputs
        )
        self.units = self.project.units
        self.sessions = [
            Session(self.project.root, cache_dir=root / "serve-cache")
        ]
        self.service = self.sessions[0].service()
        self.fig9 = figure9_units(self.inputs)
        self.fig9_services = []
        for unit in self.fig9:
            folder = root / "fig9" / unit.name
            folder.mkdir(parents=True)
            (folder / unit.c_file).write_text(unit.c_text())
            (folder / unit.host_name).write_text(unit.host_text())
            session = Session(folder, cache_dir=root / "serve-cache")
            self.sessions.append(session)
            self.fig9_services.append((unit, folder, session.service()))
        self._ids = 0
        self._frames(self.service, [("check", {})], self.units)
        for unit, folder, service in self.fig9_services:
            self._frames(service, [("check", {})], [unit])
        for kind, _count in REQUEST_MIX:
            self.request(kind)

    def close(self) -> None:
        for session in self.sessions:
            session.close()

    def _frames(self, service, calls, verify: list[Unit]) -> float:
        """Send frames in order, time them, check the last reply."""
        lines = []
        for method, params in calls:
            self._ids += 1
            lines.append(
                json.dumps({"id": self._ids, "method": method, "params": params})
            )
        replies, seconds = timed(
            lambda: [service.handle_line(line) for line in lines]
        )
        failed = False
        for reply in replies:
            data = json.loads(reply)
            failed |= "error" in data
            ran = data.get("result", {}).get("incremental", {}).get("ran", ())
            self.verdicts.analysed += len(ran)
        if not failed:
            units = {
                Path(entry["name"]).name: entry
                for entry in json.loads(replies[-1])["result"]["units"]
            }
            for unit in verify:
                entry = units.get(unit.c_file)
                if entry is None:
                    self.verdicts.check(unit.name, False, "missing from reply")
                else:
                    failed |= self.verdicts.unit_dict(unit, entry)
        self.verdicts.op(failed)
        return seconds

    def request(self, kind: str) -> float:
        unit = self.pick(self.units, kind)
        path = str(self.project.root / unit.c_file)
        if kind == "read":
            return self._frames(self.service, [("check", {"units": [path]})], [unit])
        if kind == "edit":
            unit.edit_c()
            self.project.write_unit(unit)
            calls = [
                ("invalidate", {"paths": [path]}),
                ("check", {"units": [path]}),
            ]
            return self._frames(self.service, calls, [unit])
        unit.edit_host()
        host = str(self.project.write_host(unit))
        calls = [("invalidate", {"paths": [host]}), ("check", {})]
        return self._frames(self.service, calls, self.units)

    def sweep(self, large: bool) -> float:
        """A bulk edit (every touched unit gets a new revision, same
        variant) of N or 2N units, then one check."""
        touched = self.units[: self.sweep_units(large)]
        paths = []
        for unit in touched:
            unit.revision += 1
            paths.append(str(self.project.write_unit(unit)))
        calls = [("invalidate", {"paths": paths}), ("check", {})]
        return self._frames(self.service, calls, touched)

    def fig9_program(self, index: int) -> float:
        """One Figure 9 program edited (new revision), then re-checked
        through its own service."""
        unit, folder, service = self.fig9_services[index]
        unit.revision += 1
        path = folder / unit.c_file
        path.write_text(unit.c_text())
        calls = [("invalidate", {"paths": [str(path)]}), ("check", {})]
        return self._frames(service, calls, [unit])

    def status(self) -> dict:
        self._ids += 1
        line = json.dumps({"id": self._ids, "method": "status", "params": {}})
        return json.loads(self.service.handle_line(line))["result"]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdMixed, LinkSweep, ServeEdits, WarmRerun)
}


def run_plan(workload: Workload, meter: Meter, seconds: float) -> int:
    """Cycle through the plan until the floors are met and time is up.

    Returns the index of the first block this plan recorded."""
    first = len(meter.blocks)
    done = Counter()
    started = time.perf_counter()
    step = 0
    while True:
        element = CYCLE[step % len(CYCLE)]
        step += 1
        if element == "requests":
            kinds = [k for k, n in REQUEST_MIX for _ in range(n)]
            workload.choices.shuffle(kinds)
            meter.block(kinds, lambda: [workload.request(k) for k in kinds])
        elif element == "fig9":
            repeat = workload.fig9_repeat
            for index in range(len(workload.fig9)):
                meter.block(
                    [f"fig9.{index}"] * repeat,
                    lambda: [workload.fig9_program(index) for _ in range(repeat)],
                )
        else:
            # N and 2N share a block, hence a calibration factor, which
            # cancels in scale_exp; the order alternates to cancel drift
            order = [False, True] if done["sweeps"] % 2 == 0 else [True, False]
            order = order * workload.sweep_repeat
            meter.block(
                ["sweep_2n" if large else "sweep_n" for large in order],
                lambda: [workload.sweep(large) for large in order],
            )
        done[element] += 1
        if (
            done["requests"] >= MIN_REQUEST_BLOCKS
            and done["fig9"] >= MIN_FIG9_PASSES
            and done["sweeps"] >= MIN_SWEEP_BLOCKS
            and time.perf_counter() - started >= seconds
        ):
            return first


def end_to_end(workload: Workload, s: dict) -> dict[str, float]:
    """The timing metrics of one run, from (rescaled or raw) samples."""
    requests = s["read"] + s["edit"] + s["host"]
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    # sweeps report medians: a sweep that a full garbage collection lands
    # in takes twice as long, and how many do varies from run to run
    sweep_n = percentile(s["sweep_n"], 0.5)
    sweep_2n = percentile(s["sweep_2n"], 0.5)
    return {
        "units_per_s": workload.sweep_units(True) / sweep_2n,
        "scale_exp": math.log2(sweep_2n / sweep_n),
        # each program's mean verdict time, summed over the suite
        "fig9_s": sum(mean(v) for k, v in s.items() if k.startswith("fig9.")),
        "req_per_s": len(requests) / sum(requests),
        "read_p50_ms": 1000 * percentile(s["read"], 0.5),
        "read_p90_ms": 1000 * percentile(s["read"], 0.9),
        "edit_p50_ms": 1000 * percentile(s["edit"], 0.5),
        "edit_p90_ms": 1000 * percentile(s["edit"], 0.9),
        "host_edit_p50_ms": 1000 * percentile(s["host"], 0.5),
    }
