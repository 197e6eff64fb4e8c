"""Every numeric knob goes through one rule
(:func:`repro.core.recipe.number_complaint`): a real number, not a bool,
not NaN or ±inf, on the right side of zero.

The six front doors — CLI options, :class:`PrepRecipe`, the pipeline's
own constructor, the service's ``timeout``, :class:`RetryPolicy` and
:class:`DistPolicy` — used to hand-roll the test and shared its hole:
non-finite values passed.
(The HTTP 400 for a ``NaN`` timeout is pinned in ``tests/test_service``.)
The geometry doors (``boolean_trapezoids``' ``grid``, the trapezoid
fracturer's ``grid`` and ``max_height``) sit below ``repro.core`` and
cannot import the rule; they are held to its words here.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.cli import main
from repro.core.executor import RetryPolicy
from repro.core.pipeline import PreparationPipeline
from repro.core.recipe import (
    OPTIONAL_POSITIVE,
    POSITIVE,
    PrepRecipe,
    flag_of,
    number_complaint,
)
from repro.dist import DistPolicy
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.service.schemas import SchemaError, parse_job_spec

NON_FINITE = [float("nan"), float("inf"), float("-inf")]

# The recipe's numeric knobs and their flags, as the schema declares them.
NUMERIC = [
    f
    for f in fields(PrepRecipe)
    if f.metadata["kind"] in (POSITIVE, OPTIONAL_POSITIVE)
]
RECIPE_KNOBS = [f.name for f in NUMERIC]
CLI_FLAGS = [flag_of(f) for f in NUMERIC]
PIPELINE_KNOBS = ["base_dose", "address_unit", "field_size"]
RETRY_KNOBS = ["backoff_base", "backoff_cap", "shard_timeout"]
FRACTURER_KNOBS = ["grid", "max_height"]
KERNELS = ["fast", "exact"]
SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
DIST_KNOBS = [
    "heartbeat_interval",
    "heartbeat_timeout",
    "worker_grace",
    "speculate_after",
]


class TestTheRule:
    @pytest.mark.parametrize(
        "value, positive, complaint",
        [
            (1.5, True, None),
            (3, True, None),
            (0, False, None),
            (0.0, False, None),
            (-0.0, False, None),
            (0, True, "must be positive"),
            (-2.0, True, "must be positive"),
            (-2.0, False, "must be >= 0"),
            (True, True, "must be a number"),
            (False, False, "must be a number"),
            ("1", True, "must be a number"),
            (None, True, "must be a number"),
            (1 + 0j, True, "must be a number"),
            (float("nan"), True, "must be finite"),
            (float("nan"), False, "must be finite"),
            (float("inf"), True, "must be finite"),
            (float("-inf"), False, "must be finite"),
            (10**400, True, "must be finite"),  # no float can hold it
        ],
    )
    def test_complaints(self, value, positive, complaint):
        assert number_complaint(value, positive) == complaint


@pytest.mark.parametrize("value", NON_FINITE)
class TestNonFiniteIsRejectedAtEveryDoor:
    @pytest.mark.parametrize("knob", RECIPE_KNOBS)
    def test_recipe(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            PrepRecipe(**{knob: value})

    @pytest.mark.parametrize("flag", CLI_FLAGS)
    def test_cli(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "--workload", "grating", f"{flag}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("knob", PIPELINE_KNOBS)
    def test_pipeline(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            PreparationPipeline(**{knob: value})

    def test_service_timeout(self, value):
        with pytest.raises(SchemaError, match="'timeout' must be finite"):
            parse_job_spec({"workload": "grating", "timeout": value})

    @pytest.mark.parametrize("knob", RETRY_KNOBS)
    def test_retry_policy(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            RetryPolicy(**{knob: value})

    @pytest.mark.parametrize("knob", DIST_KNOBS)
    def test_dist_policy(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            DistPolicy(**{knob: value})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_boolean_grid(self, kernel, value):
        with pytest.raises(ValueError, match="grid must be finite"):
            boolean_trapezoids([SQUARE], [], "or", grid=value, kernel=kernel)

    @pytest.mark.parametrize("knob", FRACTURER_KNOBS)
    def test_fracturer(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            TrapezoidFracturer(**{knob: value})


class TestGeometryDoorsSayWhatTheRuleSays:
    """A zero grid used to be a ``ZeroDivisionError`` and a negative one
    an empty figure list, from both kernels."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("value", [0, 0.0, -0.001])
    def test_boolean_grid(self, value, kernel):
        with pytest.raises(ValueError) as excinfo:
            boolean_trapezoids([SQUARE], [], "or", grid=value, kernel=kernel)
        assert str(excinfo.value) == f"grid {number_complaint(value)}"

    @pytest.mark.parametrize("knob", FRACTURER_KNOBS)
    @pytest.mark.parametrize("value", [0, -0.001])
    def test_fracturer(self, value, knob):
        with pytest.raises(ValueError) as excinfo:
            TrapezoidFracturer(**{knob: value})
        assert str(excinfo.value) == f"{knob} {number_complaint(value)}"

    def test_good_values_pass(self):
        fracturer = TrapezoidFracturer(grid=0.5, max_height=0.25)
        assert len(fracturer.fracture([SQUARE])) == 4
        assert TrapezoidFracturer(max_height=None).max_height is None


class TestOrdinaryMessagesAreUnchanged:
    """What each door said about an ordinary bad value before the rule
    was shared, word for word."""

    def raised(self, call, *args, **kwargs):
        with pytest.raises(ValueError) as excinfo:
            call(*args, **kwargs)
        return str(excinfo.value)

    def test_recipe(self):
        assert self.raised(PrepRecipe, dose=-1.0) == (
            "dose must be positive, got -1.0"
        )
        assert self.raised(PrepRecipe, dose="high") == (
            "dose must be a number, got 'high'"
        )
        assert self.raised(PrepRecipe, field_size=0) == (
            "field_size must be positive, got 0"
        )
        assert self.raised(PrepRecipe, shard_timeout=True) == (
            "shard_timeout must be a number, got True"
        )

    def test_cli(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--workload", "grating", "--field-size", "0"])
        assert capsys.readouterr().err.endswith(
            "error: argument --field-size: must be positive\n"
        )

    def test_service_timeout(self):
        assert self.raised(
            parse_job_spec, {"workload": "grating", "timeout": 0}
        ) == "'timeout' must be positive, got 0"
        assert self.raised(
            parse_job_spec, {"workload": "grating", "timeout": "soon"}
        ) == "'timeout' must be a number, got 'soon'"

    def test_retry_policy(self):
        assert self.raised(RetryPolicy, backoff_cap=-0.5) == (
            "backoff_cap must be >= 0, got -0.5"
        )
        assert self.raised(RetryPolicy, shard_timeout=0) == (
            "shard_timeout must be positive or None, got 0"
        )
        assert RetryPolicy(backoff_base=0, shard_timeout=None).backoff(1) == 0

    def test_dist_policy(self):
        assert self.raised(DistPolicy, heartbeat_timeout=-1.0) == (
            "heartbeat_timeout must be >= 0, got -1.0"
        )
        assert DistPolicy(speculate_after=0).speculate_after == 0
