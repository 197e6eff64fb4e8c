"""A prep option is declared once: :class:`PrepRecipe`'s ``knob(...)``
field list is the schema every front door is generated from.

* the four doors — ``PrepRecipe(**d)``, ``PrepRecipe.from_dict(d)``,
  the service's ``parse_job_spec`` and the CLI parser on the argv the
  F16 benchmark's ``prep_argv`` rule builds — accept and reject the same
  knob dicts and, when they accept, yield equal recipes (a property
  over dicts drawn from the schema);
* a bad CLI value is one ``error:`` line that names no private function;
* the Python doors (pipeline, machine spec, job) apply the recipe's
  rules at construction, the only place a pipeline takes a knob, and
  the pipeline's knobs are read-only after it;
* the cross-knob rules are :data:`RULES` rows: over the finite values
  they read, the defaults pass, every value is reachable, no row is
  shadowed, and every door refuses with the first matching row's reason;
* README's option and rule tables are the rendered schema.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import itertools
import re
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _recipe_from_args, build_parser, main
from repro.core.job import MachineJob
from repro.core.jobfile import MAGIC, JobFileError, dumps_job, loads_job
from repro.core.pipeline import PreparationPipeline
from repro.core.plan import _OVERLAP_POLICY
from repro.core.recipe import RULES, PrepRecipe, check_knobs, check_rules, flag_of
from repro.geometry.polygon import Polygon
from repro.layout import generators
from repro.layout.cell import Cell
from repro.machine.program import MachineProgramError, MachineSpec
from repro.machine.raster import RasterScanWriter
from repro.service.schemas import parse_job_spec

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's own knob → argv rule (frozen under benchmarks/e2e).
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
try:
    from workloads import prep_argv
finally:
    sys.path.pop(0)

SCHEMA = dataclasses.fields(PrepRecipe)
PARSER = build_parser()
DEFAULTS = PrepRecipe().to_dict()
NAN, INF = float("nan"), float("inf")

#: Wrong-type, non-finite, out-of-range and unknown-choice values.  No
#: string here reads as a number: text *is* the CLI's native type, so
#: ``"1.5"`` legitimately means 1.5 there and a type error elsewhere.
MUTANTS = [None, True, False, 0, 3, -1, 1.5, -2.0, NAN, INF, "abc", "10.0.0.1:9"]


def valid_values(f):
    """Values the schema says knob ``f`` accepts."""
    kind = f.metadata["kind"]
    pool = MUTANTS + list(kind.choices or ())
    good = st.sampled_from([v for v in pool if kind.rule(v) is None])
    if kind.rule(0.25) is None:  # a positive-number kind
        good |= st.floats(min_value=1e-3, max_value=1e3)
    return good


valid_dicts = st.fixed_dictionaries(
    {}, optional={f.name: valid_values(f) for f in SCHEMA}
)
mutations = st.one_of(
    st.tuples(st.sampled_from([f.name for f in SCHEMA]), st.sampled_from(MUTANTS)),
    st.just(("bogus_knob", 1)),
)


def cli_argv(knobs):
    """``knobs`` as the benchmark would spell them, or ``None`` when
    text cannot say them (a ``None``/``False`` that is not the default)."""
    spoken = {}
    for name, value in knobs.items():
        if value is None or value is False:
            if DEFAULTS.get(name, 1) is not value:
                return None
            continue  # the default: said by saying nothing
        spoken[name] = value
    return prep_argv(SimpleNamespace(knobs=spoken), Path("in.gds"), Path("out.ebj"))


def recipes(knobs):
    """What each door makes of ``knobs``: a recipe, or ``None`` for a
    rejection."""

    def attempt(build):
        try:
            return build()
        except (ValueError, TypeError):  # TypeError: an unknown keyword
            return None
        except SystemExit as exc:
            assert exc.code == 2
            return None

    made = {
        "init": attempt(lambda: PrepRecipe(**knobs)),
        "from_dict": attempt(lambda: PrepRecipe.from_dict(knobs)),
        "service": attempt(
            lambda: parse_job_spec({"workload": "grating", **knobs}).recipe
        ),
    }
    argv = cli_argv(knobs)
    if argv is not None:
        made["cli"] = attempt(lambda: _recipe_from_args(PARSER.parse_args(argv)))
    return made


def assert_doors_agree(knobs):
    made = recipes(knobs)
    first = made["init"]
    for door, recipe in made.items():
        assert (recipe is None) == (first is None), (door, knobs, made)
        if first is not None:
            assert recipe == first and hash(recipe) == hash(first), (door, knobs)
    return first


class TestFrontDoorConformance:
    @settings(max_examples=150, deadline=None)
    @given(valid_dicts)
    def test_valid_dicts_mean_one_recipe_at_every_door(self, knobs):
        recipe = assert_doors_agree(knobs)
        if recipe is not None:
            assert {**PrepRecipe().to_dict(), **knobs} == recipe.to_dict()
        else:  # the per-knob loop passed, so a cross-knob rule says no
            said = {**DEFAULTS, **knobs}
            assert any(refused.items() <= said.items() for refused, _ in RULES)

    @settings(max_examples=150, deadline=None)
    @given(valid_dicts, mutations)
    def test_a_mutant_gets_one_verdict_at_every_door(self, knobs, mutation):
        name, value = mutation
        assert_doors_agree({**knobs, name: value})

    @pytest.mark.parametrize("command", [["prep", "in.gds"], ["demo"]])
    def test_no_flags_is_the_default_recipe(self, command):
        assert _recipe_from_args(PARSER.parse_args(command)) == PrepRecipe()

    def test_every_field_is_one_option_and_vice_versa(self):
        own = {"command", "func", "gdsii", "output", "machine_output",
               "cache_dir", "no_cache"}
        parsed = vars(PARSER.parse_args(["prep", "in.gds"]))
        assert sorted(set(parsed) - own) == sorted(f.name for f in SCHEMA)
        for f in SCHEMA:  # the benchmark's rule, with its one exception
            expected = "--" + f.name.replace("_", "-")
            assert flag_of(f) == ("--stream" if f.name == "streaming" else expected)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


BAD_CLI = [
    ["demo", flag_of(f), text]
    for f in SCHEMA
    if f.metadata["kind"].parse is not None
    for text in ("abc", "-1", "nan")
] + [
    ["demo", "--tiles", "x"],
    ["demo", "--tiles", "0"],
    ["demo", "--workload", "nope"],
    ["work", "--connect", "10.0.0.1:9", "--idle-exit", "abc"],
    ["work", "--connect", "10.0.0.1:9", "--idle-exit", "-1"],
    ["serve", "--port", "99999"],
    ["serve", "--port", "-5"],
    ["serve", "--concurrency", "0"],
    ["serve", "--concurrency", "two"],
]


class TestCliErrorsAreOneCleanLine:
    @pytest.mark.parametrize("argv", BAD_CLI, ids=" ".join)
    def test_bad_value(self, argv, capsys):
        code, err = run_cli(argv, capsys)
        assert code == 2
        lines = err.splitlines()
        assert [line for line in lines if "error: " in line] == lines[-1:]
        assert "Traceback" not in err
        # No private name (``_positive_float``) leaks into the message.
        assert not re.search(r"(?<!\w)_[A-Za-z]", err)

    def test_an_unknown_workload_keeps_the_error_prefix(self, capsys):
        code, err = run_cli(["demo", "--workload", "nope"], capsys)
        assert code == 2
        assert err.startswith("error: unknown workload 'nope'; choose from [")
        assert "'full_reticle'" in err and err.count("\n") == 1


SQUARES = [Polygon.rectangle(3.0 * i, 0.0, 3.0 * i + 2.0, 2.0) for i in range(4)]


class TestThePythonDoorAppliesTheRule:
    @pytest.mark.parametrize(
        "knob, value, complaint",
        [
            ("base_dose", NAN, "base_dose must be finite"),
            ("base_dose", INF, "base_dose must be finite"),
            ("base_dose", "high", "base_dose must be a number"),
            ("address_unit", NAN, "address_unit must be finite"),
            ("address_unit", INF, "address_unit must be finite"),
            ("workers", 1.5, "workers must be an integer"),
            ("workers", True, "workers must be an integer"),
            ("workers", -3, "workers must be >= 1"),
            ("field_size", NAN, "field_size must be finite"),
            ("field_size", -1, "field_size must be positive"),
            ("overlap_policy", "bogus", "overlap_policy must be one of"),
            ("dispatch", "cloud", "dispatch must be one of"),
            ("hierarchy", "deep", "hierarchy must be one of"),
            ("machine", "ebes", "machine must be one of"),
            ("workers_endpoint", "abc", "workers_endpoint must be a host:port"),
            ("workers_endpoint", "h:99999", "workers_endpoint must be a host:port"),
            ("workers_endpoint", 9, "workers_endpoint must be a host:port"),
        ],
    )
    def test_at_construction(self, knob, value, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            PreparationPipeline(**{knob: value})

    @pytest.mark.parametrize("dispatch", ["local", "distributed"])
    def test_a_malformed_endpoint_gets_the_recipe_s_verdict(self, dispatch):
        # Refused when the pipeline is built, not when a run first leases
        # a shard, with the words the recipe and ``check_knobs`` use.
        knobs = dict(dispatch=dispatch, workers_endpoint="abc")
        complaints = []
        for door in (PrepRecipe, PreparationPipeline, check_knobs):
            with pytest.raises(ValueError) as refused:
                door(**knobs)
            complaints.append(str(refused.value))
        complaint = "workers_endpoint must be a host:port string, got 'abc'"
        assert complaints == [complaint] * 3

    def test_no_door_takes_a_constructor_knob(self):
        # A pipeline is one run's configuration: a knob a door also took
        # would be a second place to set it.
        knobs = set(inspect.signature(PreparationPipeline).parameters)
        for door in ("run", "run_streaming"):
            taken = knobs & set(
                inspect.signature(getattr(PreparationPipeline, door)).parameters
            )
            assert not taken, f"{door} also takes {sorted(taken)}"

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 1.5),
            ("workers", 2),
            ("field_size", NAN),
            ("field_size", 10.0),
            ("machine", "ebes"),
            ("machine", "raster"),
        ],
    )
    def test_a_knob_cannot_be_rebound(self, knob, value, tmp_path):
        # A knob is fixed at construction, valid value or not: the
        # assignment itself is refused, the pipeline — the knob's one
        # owner — still reads the value it was built with, and so does
        # the next run.
        pipe = PreparationPipeline(hierarchy="cells", program_dir=tmp_path)
        with pytest.raises(AttributeError, match="fixed at construction"):
            setattr(pipe, knob, value)
        assert (pipe.workers, pipe.field_size, pipe.machine) == (1, None, None)
        cell = Cell("SQUARES")
        for square in SQUARES:
            cell.add_polygon(square)
        stats = pipe.run(cell).execution
        assert (stats.workers, stats.field_size, stats.hierarchy) == (1, None, "cells")
        assert not list(tmp_path.iterdir())  # machine is still None

    def test_none_still_means_one_worker_per_core(self):
        assert PreparationPipeline(workers=None).run(SQUARES).job.shots

    @pytest.mark.parametrize("base_dose", [NAN, INF, 0.0, True])
    def test_a_job_needs_a_real_base_dose(self, base_dose):
        with pytest.raises(ValueError, match="base_dose must be"):
            MachineJob([], base_dose=base_dose)

    @pytest.mark.parametrize("base_dose", [NAN, INF, -INF, 0.0])
    def test_a_job_file_with_an_unreal_base_dose_is_malformed(self, base_dose):
        data = bytearray(dumps_job(PreparationPipeline().run(SQUARES).job))
        assert data[:4] == MAGIC
        struct.pack_into(">d", data, 12, base_dose)  # header: magic, unit, dose
        with pytest.raises(JobFileError, match="base dose must be"):
            loads_job(bytes(data))

    @pytest.mark.parametrize(
        "field", ["address_unit", "unit", "channel_rate"]
    )
    @pytest.mark.parametrize("value", [NAN, INF, 0.0, -1.0, "fast"])
    def test_a_machine_spec_needs_real_positive_numbers(self, field, value):
        with pytest.raises(MachineProgramError, match=f"{field} must be"):
            MachineSpec("raster", **{field: value})

    def test_a_failed_export_leaves_nothing_under_the_final_name(
        self, tmp_path, monkeypatch
    ):
        def broken(self, job):
            raise RuntimeError("write-time model failed")

        monkeypatch.setattr(RasterScanWriter, "write_time", broken)
        pipe = PreparationPipeline(machine="raster", program_dir=tmp_path)
        with pytest.raises(RuntimeError, match="write-time model failed"):
            pipe.run(SQUARES, name="squares")
        assert list(tmp_path.iterdir()) == []


def test_readme_option_table_is_the_rendered_schema():
    spec = importlib.util.spec_from_file_location(
        "knob_table", ROOT / "tools" / "knob_table.py"
    )
    knob_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(knob_table)
    table = knob_table.render()
    options, rules = table.split("\n\n")
    assert options.count("\n") == len(SCHEMA) + 1
    assert rules.count("\n") == len(RULES) + 1
    for _, reason in RULES:
        assert f" | {reason} |" in rules
    assert table in (ROOT / "README.md").read_text(encoding="utf-8")


# -- the cross-knob rules -----------------------------------------------------

#: The knobs the rows read, and each one's default as a door passes it:
#: the recipe's, else the pipeline constructor's (``corrector`` as
#: whether one is set).
RULE_KNOBS = sorted({name for refused, _ in RULES for name in refused})
CONSTRUCTOR = inspect.signature(PreparationPipeline).parameters
RULE_DEFAULTS = {
    name: DEFAULTS[name] if name in DEFAULTS else CONSTRUCTOR[name].default
    for name in RULE_KNOBS
}
RULE_DEFAULTS["corrector"] = CONSTRUCTOR["corrector"].default is not None
KINDS = {f.name: f.metadata["kind"] for f in SCHEMA}
KINDS["overlap_policy"] = _OVERLAP_POLICY


def rule_values(name):
    """The finite values a rule can tell apart of knob ``name``: a choice
    kind's choices, an optional knob unset (``None``) or set (``"set"``
    stands for any value), else a flag's two."""
    if name in KINDS and KINDS[name].choices:
        return KINDS[name].choices
    return (None, "set") if RULE_DEFAULTS[name] is None else (False, True)


#: (assignments, assignments each row refuses first, assignments passed).
PINNED_DENOTATION = (192, [48, 36, 27, 9, 9], 63)

ASSIGNMENTS = [
    dict(zip(RULE_KNOBS, values))
    for values in itertools.product(*map(rule_values, RULE_KNOBS))
]


def verdict(values):
    """The reason ``check_rules`` refuses ``values`` with, or ``None``."""
    try:
        check_rules(**values)
    except ValueError as exc:
        return str(exc)
    return None


class TestCrossKnobRules:
    def test_the_defaults_are_admitted(self):
        # The recipe's (with the constructor's for the rest), and
        # ``PreparationPipeline()``'s own (no corrector).
        pipeline = {k: CONSTRUCTOR[k].default for k in RULE_KNOBS if k in CONSTRUCTOR}
        assert verdict(RULE_DEFAULTS) is None
        assert verdict({**pipeline, "corrector": False}) is None

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in RULE_KNOBS for value in rule_values(name)],
    )
    def test_every_value_is_admitted_somewhere(self, name, value):
        assert any(a[name] == value and verdict(a) is None for a in ASSIGNMENTS)

    def test_every_row_is_the_first_match_somewhere(self):
        # One message per rule, and no row hidden behind an earlier one.
        reasons = [reason for _, reason in RULES]
        assert len(set(reasons)) == len(reasons)
        assert {verdict(a) for a in ASSIGNMENTS} == {None, *reasons}

    def test_the_table_s_denotation_is_pinned(self):
        # How many of the enumerated assignments each row refuses first,
        # and how many pass: a dropped, added or reordered row moves
        # these counts, so changing the rules is changing this line.
        firsts = [verdict(a) for a in ASSIGNMENTS]
        counts = [firsts.count(reason) for _, reason in RULES]
        assert (len(ASSIGNMENTS), counts, firsts.count(None)) == PINNED_DENOTATION


class TestEveryDoorGivesTheFirstRowsReason:
    """Each row's minimal assignment, and streaming + cells + ``union``
    (three rows at once), through every door.  A door sees only the
    knobs it knows: the recipe its fields, the constructor its arguments
    but not the source (which decides whether ``hierarchy`` applies: raw
    polygons run flat), a run door also its source and whether it
    streams."""

    LAYOUT = generators.grating(lines=2)

    @staticmethod
    def concrete(name, value):
        """An assignment's value as a door takes it."""
        from repro.pec.dose_iter import IterativeDoseCorrector
        from repro.physics.psf import psf_for

        if name == "corrector":
            return IterativeDoseCorrector() if value else None
        if value != "set":
            return value
        return psf_for(20.0) if name == "psf" else "127.0.0.1:1"

    @staticmethod
    def refusal(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "assignment",
        [refused for refused, _ in RULES]
        + [{"streaming": True, "hierarchy": "cells", "overlap_policy": "union"}],
        ids=lambda a: "+".join(f"{k}={v}" for k, v in a.items()),
    )
    def test_each_door(self, assignment):
        values = {**RULE_DEFAULTS, **assignment}
        given = {k: self.concrete(k, v) for k, v in values.items()}
        said = [k for k in values if k in DEFAULTS]
        recipe = self.refusal(lambda: PrepRecipe(**{k: given[k] for k in said}))
        assert recipe == verdict({k: values[k] for k in said})
        knobs = {k: v for k, v in given.items() if k != "streaming"}
        built = self.refusal(lambda: PreparationPipeline(**knobs))
        unknown = ("streaming", "hierarchy")  # the door's and the source's
        assert built == verdict({k: v for k, v in values.items() if k not in unknown})
        if built is not None:
            return
        pipe = PreparationPipeline(**knobs)
        for streams, door in ((False, pipe.run), (True, pipe.run_streaming)):
            for source, flat in ((self.LAYOUT, False), (SQUARES, True)):
                seen = {**values, "streaming": streams}
                if flat:
                    seen["hierarchy"] = "flat"
                got = self.refusal(lambda: door(list(source) if flat else source))
                assert got == verdict(seen), (door.__name__, flat)
