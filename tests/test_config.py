"""Every shipped config loads and builds the objects it states, a
boolean at any of its leaves is refused, and any other value at one leaf,
or its deletion, either loads or is refused without a warning."""

import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from waverom.config import Run, load_config, run_from_dict
from waverom.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "configs").glob("*.json"))


def test_four_configs_shipped():
    assert [p.stem for p in SHIPPED] == [
        "camembert_desk", "camembert_paper", "topography_paper", "topography_sweep",
    ]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_builds(path):
    run = load_config(path)
    stated, truth, acq = run.stated, run.truth, run.acquisition
    assert acq.array.m == stated["acquisition"]["layout"]["m"]
    assert acq.n == stated["sampling"]["n"]
    # each shipped config states the sections of one job, invert or sweep
    if "schedule" in stated:
        assert run.search.background.grid == truth.grid
        assert run.schedule.k[-1] == acq.n
        assert run.sweep is None
    else:
        ax1, ax2 = run.sweep
        candidates = list(run.candidates())
        assert len(candidates) == ax1.count * ax2.count
        assert all(c.grid == truth.grid for c in candidates)
        assert run.search is None and run.schedule is None


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_builders_give_back_what_load_built(path):
    """The Run's builders, which load builds through, rebuild its objects."""
    run = load_config(path)
    model = run.build_model()
    assert model.grid == run.truth.grid
    assert np.array_equal(model.c, run.truth.c)
    acq = run.build_acquisition(run.truth.grid)
    for f in fields(acq):
        if f.name == "array":
            assert np.array_equal(acq.array.positions, run.acquisition.array.positions)
            assert acq.array.theta_width == run.acquisition.array.theta_width
        else:
            assert getattr(acq, f.name) == getattr(run.acquisition, f.name), f.name
    if run.sweep is not None:
        assert run.sweep_axes() == run.sweep


def test_reference_model_refines_the_true_grid():
    run = load_config(REPO / "configs" / "camembert_desk.json")
    truth = run.truth
    assert run.reference is truth
    fine = Run({**run.stated, "reference": {"refine": 2}}, run.base_dir).reference
    g, f = truth.grid, fine.grid
    assert (f.nx, f.nz) == (2 * g.nx + 1, 2 * g.nz + 1)
    assert f.extent == pytest.approx(g.extent)


@pytest.mark.parametrize("change, message", [
    ({"foo": {}}, r"config has unknown sections \['foo'\]"),
    ({"grid": None}, "section grid must be an object, not NoneType"),
    ({"method": True}, "key 'method' at method is true"),
    ({"schema": "waverom-config-v0"}, "unsupported config schema 'waverom-config-v0'"),
], ids=["unknown-section", "section-not-an-object", "boolean", "schema"])
def test_run_built_directly_is_checked_like_a_load(change, message):
    run = load_config(REPO / "configs" / "camembert_desk.json")
    with pytest.raises(ConfigError, match=message):
        Run({**run.stated, **change}, run.base_dir)


def test_run_built_directly_refuses_a_missing_section():
    run = load_config(REPO / "configs" / "camembert_desk.json")
    stated = {k: v for k, v in run.stated.items() if k != "sampling"}
    with pytest.raises(ConfigError, match=r"config missing sections \['sampling'\]"):
        Run(stated, run.base_dir)


def leaf_paths(value, path=()):
    """The path, a tuple of keys and list indices, of every leaf of `value`."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else None)
    if items is None:
        yield path
        return
    for key, item in items:
        yield from leaf_paths(item, path + (key,))


SHIPPED_LEAVES = [
    pytest.param(p, leaf, id=f"{p.stem}:{'.'.join(map(str, leaf))}")
    for p in SHIPPED
    for leaf in leaf_paths(json.loads(p.read_text()))
]


#: Stands for a leaf that `with_leaf` deletes instead of setting.
DELETED = object()


def with_leaf(path, leaf, value) -> dict:
    """The config at `path` with its leaf at `leaf` set to `value`, or
    deleted when `value` is DELETED (a list leaf leaves its list shorter)."""
    raw = json.loads(path.read_text())
    *head, last = leaf
    section = raw
    for key in head:
        section = section[key]
    if value is DELETED:
        del section[last]
    else:
        section[last] = value
    return raw


@pytest.mark.parametrize("path, leaf", SHIPPED_LEAVES)
def test_a_boolean_leaf_is_refused(path, leaf):
    dotted = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in leaf)[1:]
    key = next(k for k in reversed(leaf) if isinstance(k, str))
    with pytest.raises(ConfigError) as err:
        run_from_dict(with_leaf(path, leaf, True), path.parent)
    assert str(err.value) == f"key {key!r} at {dotted} is true, and no config value is a boolean"


BAD_VALUES = [
    pytest.param(value, id=name)
    for name, value in [
        ("null", None), ("x", "x"), ("list", []), ("object", {}), ("-1", -1), ("0", 0),
        ("1e-300", 1e-300), ("1e308", 1e308), ("-1e308", -1e308), ("nan", math.nan),
        ("inf", math.inf), ("-inf", -math.inf), ("deleted", DELETED),
    ]
]


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("path, leaf", SHIPPED_LEAVES)
def test_any_leaf_value_loads_or_is_refused(path, leaf, value):
    """Load returns a Run or raises ConfigError, silently, whatever one leaf
    holds, and when it is deleted."""
    raw = with_leaf(path, leaf, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run = run_from_dict(raw, path.parent)
        except ConfigError:
            return
    assert isinstance(run, Run)
