"""Every shipped config loads and builds the objects it states, a
boolean at any of its leaves is refused, and any other value at one leaf,
or its deletion, either loads or is refused without a warning."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from waverom.config import Run, _build_sections, load_run, run_from_dict
from waverom.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "configs").glob("*.json"))


def test_four_configs_shipped():
    assert [p.stem for p in SHIPPED] == [
        "camembert_desk", "camembert_paper", "topography_paper", "topography_sweep",
    ]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_builds(path):
    run = load_run(path)
    cfg, truth, acq = run.config, run.truth, run.acquisition
    assert acq.array.m == cfg.acquisition["layout"]["m"]
    assert acq.n == cfg.sampling["n"]
    # each shipped config states the sections of one job, invert or sweep
    if cfg.schedule:
        assert run.search.background.grid == truth.grid
        assert run.schedule.k[-1] == acq.n
        assert run.sweep is None
    else:
        ax1, ax2 = run.sweep
        candidates = list(run.candidates())
        assert len(candidates) == ax1.count * ax2.count
        assert all(c.grid == truth.grid for c in candidates)
        assert run.search is None and run.schedule is None


def test_reference_model_refines_the_true_grid():
    run = load_run(REPO / "configs" / "camembert_desk.json")
    truth = run.truth
    assert run.reference is truth
    fine = _build_sections(replace(run.config, reference={"refine": 2}), run.stated).reference
    g, f = truth.grid, fine.grid
    assert (f.nx, f.nz) == (2 * g.nx + 1, 2 * g.nz + 1)
    assert f.extent == pytest.approx(g.extent)


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
