"""Seeded input generation and ground truth for the repository benchmark.

Every input the checker sees is generated here from the workload seed, and
every generated unit carries the verdict it must receive.  The expected
verdicts come from the generators, never from the checker:

* Figure 9 programs: the category counts of :mod:`repro.bench.specs`
  (carried by :func:`repro.bench.synth.synthesize`);
* scaled example units: the seeded defects documented in each example's
  own header comment (``examples/pyext``, ``examples/jni``,
  ``examples/rust``, ``examples/glue``), as rule-ID counts;
* the counter unit's planted-defect variant: the ``int_val_swap`` pattern
  of :mod:`repro.bench.defects` (one error);
* planted link trios: one ``LINK_CONFLICTING_DECL`` and one
  ``LINK_DUPLICATE_DEFINITION`` each (the shape ``bench_link`` plants).

The seed changes names, positions and edit targets, never the amount of
work: family counts and sizes are fixed, so runs with different seeds
measure the same load.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from bench_cold import _rename
from bench_link import _PLANT_A, _PLANT_B, _PLANT_C

from repro.bench.specs import SUITE
from repro.bench.synth import synthesize
from repro.engine import CheckRequest
from repro.source import SourceFile

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: category counts of a verdict, in ``CheckResult.tally()`` form
CATEGORIES = ("errors", "warnings", "false_positives", "imprecision")


@dataclass(frozen=True)
class Expected:
    """A unit's ground truth: rule-ID counts or Figure 9 category counts.

    ``by`` says which tally of the verdict the counts are compared with;
    templates that document their defects by rule use ``"rule"``,
    Figure 9 rows and :mod:`repro.bench.defects` templates (which carry
    categories only) use ``"category"``.
    """

    by: str
    counts: tuple[tuple[str, int], ...]

    @classmethod
    def rules(cls, **counts: int) -> "Expected":
        return cls("rule", tuple(sorted(counts.items())))

    @classmethod
    def categories(cls, counts: dict[str, int]) -> "Expected":
        return cls(
            "category",
            tuple(sorted((k, v) for k, v in counts.items() if v)),
        )

    def matches(self, diagnostics: list[dict], tally: dict[str, int]) -> bool:
        """Compare with a verdict given as diagnostic dicts + category tally."""
        if self.by == "rule":
            seen = Counter(d["rule_id"] for d in diagnostics)
        else:
            seen = Counter({k: tally.get(k, 0) for k in CATEGORIES})
        return +seen == Counter(dict(self.counts))


CLEAN = Expected.rules()

# the int_val_swap pattern of repro.bench.defects: Int_val applied to a C
# integer on the return path -- exactly one error
_COUNTER_BAD = ("return Val_int(count + step);", "return Int_val(count + step);")
# a second spelling of the same declared type: the host text (and so every
# dependent unit's key) changes, the verdict does not
_COUNTER_HOST = ("int -> counter", "(int) -> counter")
_RUST_HOST = ("data: *const u8", "data: * const u8")


def _read(relative: str) -> str:
    return (EXAMPLES / relative).read_text()


@dataclass
class Unit:
    """One generated translation unit plus its private or shared host side.

    ``c_variants``/``host_variants`` hold the texts an edit toggles
    between; ``revision``/``host_revision`` make every edit's content new,
    so no content-addressed tier can serve an edited unit from an earlier
    state.
    """

    name: str
    dialect: str
    family: str
    c_variants: tuple[str, ...]
    expected: tuple[Expected, ...]
    host_name: str = ""
    host_variants: tuple[str, ...] = ()
    variant: int = 0
    host_variant: int = 0
    revision: int = 0
    host_revision: int = 0

    @property
    def c_file(self) -> str:
        return f"{self.name}.c"

    def c_text(self) -> str:
        text = self.c_variants[self.variant]
        if self.revision:
            text += f"/* revision {self.revision} */\n"
        return text

    def host_text(self) -> str:
        text = self.host_variants[self.host_variant]
        if self.host_revision:
            comment = "//" if self.host_name.endswith(".rs") else "(*"
            close = "" if comment == "//" else " *)"
            text += f"{comment} host revision {self.host_revision}{close}\n"
        return text

    def request(self) -> CheckRequest:
        hosts: tuple[SourceFile, ...] = ()
        if self.host_variants:
            hosts = (SourceFile(self.host_name, self.host_text()),)
        return CheckRequest(
            name=self.c_file,
            c_sources=(SourceFile(self.c_file, self.c_text()),),
            ocaml_sources=hosts,
            dialect=self.dialect,
        )

    def expect(self) -> Expected:
        return self.expected[self.variant]

    def edit_c(self) -> None:
        """A C edit: toggle to the other variant (if any), new revision."""
        self.variant = (self.variant + 1) % len(self.c_variants)
        self.revision += 1

    def edit_host(self) -> None:
        """A host edit: toggle one external's declared type spelling."""
        self.host_variant = (self.host_variant + 1) % len(self.host_variants)
        self.host_revision += 1


def _toggle(text: str, pair: tuple[str, str]) -> tuple[str, str]:
    if pair[0] not in text:
        raise ValueError(f"template lost its edit anchor `{pair[0]}`")
    return text, text.replace(pair[0], pair[1], 1)


# ---------------------------------------------------------------------------
# scaled example units (cold-mixed, warm-rerun)
# ---------------------------------------------------------------------------

#: one block of the scaled corpus.  The families' analysis costs fall in
#: three bands -- fast (OCaml, seeded Rust), middle (pyext, clean Rust) and
#: slow (JNI) -- sized 3/4/2 so that p50 lands inside the middle band and
#: p90 inside the slow one, never on a band edge where a seed's draw of
#: targets could flip it
MIX = (
    "ocaml-counter",
    "ocaml-shapes",
    "rust-bad",
    "pyext",
    "pyext",
    "pyext",
    "rust-clean",
    "jni",
    "jni",
)


def _example_unit(family: str, index: int, start_bad: bool) -> Unit:
    name = f"m{index:05d}"
    if family == "ocaml-counter":
        c = _rename(_read("glue/counter_stubs.c"), ("counter",), index)
        ml = _rename(_read("glue/counter.ml"), ("counter",), index)
        return Unit(
            name, "ocaml", family, _toggle(c, _COUNTER_BAD),
            (CLEAN, Expected.categories({"errors": 1})),
            host_name=f"{name}.ml", host_variants=_toggle(ml, _COUNTER_HOST),
            variant=int(start_bad),
        )
    if family == "ocaml-shapes":
        c = _rename(_read("glue/shapes_stubs.c"), ("shape",), index)
        ml = _rename(_read("glue/shapes.ml"), ("shape",), index)
        return Unit(
            name, "ocaml", family, (c,),
            (Expected.rules(TAG_OUT_OF_RANGE=1),),
            host_name=f"{name}.ml",
            host_variants=_toggle(
                ml, (f"shape{index:03d} -> int", f"(shape{index:03d}) -> int")
            ),
        )
    if family == "pyext":
        roots = ("spam", "Spam")
        return Unit(
            name, "pyext", family,
            (
                _rename(_read("pyext/clean_module.c"), roots, index),
                _rename(_read("pyext/bad_stubs.c"), roots, index),
            ),
            (
                CLEAN,
                Expected.rules(
                    PY_FORMAT_MISMATCH=2,
                    PY_REF_LEAK=1,
                    PY_USE_AFTER_DECREF=1,
                    PY_BORROWED_ESCAPE=1,
                ),
            ),
            variant=int(start_bad),
        )
    if family == "jni":
        roots = ("_Native_",)
        return Unit(
            name, "jni", family,
            (
                _rename(_read("jni/clean_native.c"), roots, index),
                _rename(_read("jni/bad_native.c"), roots, index),
            ),
            (
                # the cached-class global is a documented imprecision note
                Expected.rules(GLOBAL_VALUE=1),
                Expected.rules(
                    GLOBAL_VALUE=1,
                    JNI_BAD_DESCRIPTOR=3,
                    JNI_DESCRIPTOR_MISMATCH=2,
                    JNI_LOCAL_REF_LEAK=1,
                    JNI_USE_AFTER_DELETE=1,
                    JNI_GLOBAL_REF_LEAK=1,
                    JNI_LOCAL_ESCAPE=1,
                ),
            ),
            variant=int(start_bad),
        )
    kind = family.split("-", 1)[1]
    folder = f"rust/{kind}_bindings"
    expected = CLEAN
    if kind == "bad":
        expected = Expected.rules(
            RUST_DECL_MISMATCH=2,
            RUST_PLATFORM_WIDTH=1,
            RUST_PTR_INT_CONFUSION=1,
            RUST_ENUM_REPR=1,
            RUST_STR_PASSING=1,
        )
    c = _read(f"{folder}/glue.c")
    rs = f"// unit {index}\n" + _read(f"{folder}/lib.rs")
    host = (rs, rs + f"// host revision of unit {index}\n")
    if _RUST_HOST[0] in rs:
        host = _toggle(rs, _RUST_HOST)
    return Unit(
        name, "rust", family, (c,), (expected,),
        host_name=f"{name}.rs", host_variants=host,
    )


def mixed_units(count: int, rng: random.Random) -> list[Unit]:
    """``count`` example-derived units in blocks of ``len(MIX)``.

    Each block holds every family of ``MIX`` once, in seeded order, so any
    prefix of whole blocks has the same make-up whatever the seed.  Within
    a family, starting variants alternate clean/seeded in creation order,
    so the seeded share is fixed too.
    """
    base = rng.randrange(100, 900) * 10
    started = Counter()
    units = []
    for block in range(0, count, len(MIX)):
        families = list(MIX)
        rng.shuffle(families)
        for offset, family in enumerate(families[: count - block]):
            index = base + block + offset
            unit = _example_unit(family, index, start_bad=started[family] % 2 == 1)
            started[family] += 1
            # not every template carries a rename root; the header keeps
            # every unit's text distinct, so no unit coalesces with another
            unit.c_variants = tuple(
                f"/* unit {index} */\n" + text for text in unit.c_variants
            )
            units.append(unit)
    return units


# ---------------------------------------------------------------------------
# Figure 9 programs
# ---------------------------------------------------------------------------


def figure9_units(rng: random.Random) -> list[Unit]:
    """The eleven Figure 9 rows, each a unit with its private ``.ml``."""
    prefix = rng.randrange(10, 80)
    units = []
    for row, spec in enumerate(SUITE):
        bench = synthesize(spec, unique_prefix=prefix * 20 + row)
        name = spec.name.replace(".", "_")
        units.append(
            Unit(
                name, "ocaml", "figure9", (bench.c_source,),
                (Expected.categories(bench.expected_tally()),),
                host_name=f"{name}.ml", host_variants=(bench.ocaml_source,),
            )
        )
    return units


# ---------------------------------------------------------------------------
# shared-host OCaml projects (link-sweep, serve-edits)
# ---------------------------------------------------------------------------


@dataclass
class Project:
    """An on-disk OCaml project: N counter units sharing N ``.ml`` hosts,
    plus planted link trios (the ``bench_link.materialize_corpus`` shape,
    with seeded names)."""

    root: Path
    units: list[Unit]
    plants: list[Unit] = field(default_factory=list)

    @property
    def all_units(self) -> list[Unit]:
        return self.units + self.plants

    def write_unit(self, unit: Unit) -> Path:
        path = self.root / unit.c_file
        path.write_text(unit.c_text())
        return path

    def write_host(self, unit: Unit) -> Path:
        path = self.root / unit.host_name
        path.write_text(unit.host_text())
        return path

    def host_sources(self) -> tuple[SourceFile, ...]:
        """The shared host side, in the order the corpus scanner gives."""
        hosts = sorted(
            (u for u in self.units if u.host_variants),
            key=lambda u: u.host_name,
        )
        return tuple(
            SourceFile(str(self.root / u.host_name), u.host_text())
            for u in hosts
        )

    def request(self, unit: Unit, hosts: tuple[SourceFile, ...]) -> CheckRequest:
        path = str(self.root / unit.c_file)
        return CheckRequest(
            name=path,
            c_sources=(SourceFile(path, unit.c_text()),),
            ocaml_sources=hosts,
            dialect="ocaml",
        )

    def expected_link(self) -> Counter:
        return Counter(
            {
                "LINK_CONFLICTING_DECL": len(self.plants) // 3,
                "LINK_DUPLICATE_DEFINITION": len(self.plants) // 3,
            }
        )


def shared_project(
    root: Path, units: int, trios: int, rng: random.Random, base: Optional[int] = None
) -> Project:
    """Write a shared-host project of ``units`` counter units + ``trios``."""
    root.mkdir(parents=True, exist_ok=True)
    if base is None:
        base = rng.randrange(100, 900) * 10
    c_text = _read("glue/counter_stubs.c")
    ml_text = _read("glue/counter.ml")
    made = []
    for i in range(units):
        index = base + i
        name = f"u{index:05d}"
        made.append(
            Unit(
                name, "ocaml", "ocaml-counter",
                _toggle(_rename(c_text, ("counter",), index), _COUNTER_BAD),
                (CLEAN, Expected.categories({"errors": 1})),
                host_name=f"{name}.ml",
                host_variants=_toggle(
                    _rename(ml_text, ("counter",), index), _COUNTER_HOST
                ),
            )
        )
    plants = []
    for j in range(trios):
        tag = base + j
        for part, template in (("a", _PLANT_A), ("b", _PLANT_B), ("c", _PLANT_C)):
            plants.append(
                Unit(
                    f"plant{tag:05d}_{part}", "ocaml", "plant",
                    (template.format(j=tag),), (CLEAN,),
                )
            )
    project = Project(root, made, plants)
    for unit in project.all_units:
        project.write_unit(unit)
        if unit.host_variants:
            project.write_host(unit)
    return project


def corpus_digest(units: list[Unit]) -> str:
    """Hash of the generated inputs (every variant of every unit, so edits
    made while measuring do not change it): same seed, same digest."""
    hasher = hashlib.sha256()
    for unit in sorted(units, key=lambda u: (u.family, u.name)):
        for text in (unit.name, unit.host_name, *unit.c_variants, *unit.host_variants):
            hasher.update(text.encode())
            hasher.update(b"\0")
    return hasher.hexdigest()
