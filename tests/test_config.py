"""Every shipped config loads and builds the objects its command needs."""

from dataclasses import replace
from pathlib import Path

import pytest

from waverom.config import _build_sections, load_config, load_run

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "configs").glob("*.json"))


def test_four_configs_shipped():
    assert [p.stem for p in SHIPPED] == [
        "camembert_desk", "camembert_paper", "topography_paper", "topography_sweep",
    ]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_builds(path):
    cfg = load_config(path)
    command = "invert" if cfg.schedule else "sweep"
    run = load_run(path, command)
    truth, acq = run.truth, run.acquisition
    assert acq.array.m == cfg.acquisition["layout"]["m"]
    assert acq.n == cfg.sampling["n"]
    if command == "invert":
        assert run.search.background.grid == truth.grid
        assert run.schedule.k[-1] == acq.n
    else:
        ax1, ax2 = run.sweep
        candidates = list(run.candidates())
        assert len(candidates) == ax1.count * ax2.count
        assert all(c.grid == truth.grid for c in candidates)
        assert run.search is None


def test_reference_model_refines_the_true_grid():
    run = load_run(REPO / "configs" / "camembert_desk.json")
    truth = run.truth
    assert run.reference is truth
    fine = _build_sections(replace(run.config, reference={"refine": 2}), None, run.stated).reference
    g, f = truth.grid, fine.grid
    assert (f.nx, f.nz) == (2 * g.nx + 1, 2 * g.nz + 1)
    assert f.extent == pytest.approx(g.extent)
