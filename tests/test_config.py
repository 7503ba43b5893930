"""Every shipped config loads and builds the objects its command needs."""

from dataclasses import replace
from pathlib import Path

import pytest

from waverom.config import load_config

REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted((REPO / "configs").glob("*.json"))


def test_four_configs_shipped():
    assert [p.stem for p in SHIPPED] == [
        "camembert_desk", "camembert_paper", "topography_paper", "topography_sweep",
    ]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_builds(path):
    cfg = load_config(path)
    truth = cfg.build_model()
    acq = cfg.build_acquisition(truth.grid)
    assert acq.array.m == cfg.acquisition["layout"]["m"]
    assert acq.n == cfg.sampling["n"]
    assert cfg.build_search(truth).background.grid == truth.grid
    if cfg.schedule:
        assert cfg.build_schedule().k[-1] == acq.n
    else:
        ax1, ax2 = cfg.sweep_axes()
        candidates = list(cfg.sweep_candidates())
        assert len(candidates) == ax1.count * ax2.count
        assert all(c.grid == truth.grid for c in candidates)


def test_reference_model_refines_the_true_grid():
    cfg = load_config(REPO / "configs" / "camembert_desk.json")
    truth = cfg.build_model()
    assert cfg.reference_model(truth) is truth
    fine = replace(cfg, reference={"refine": 2}).reference_model(truth)
    g, f = truth.grid, fine.grid
    assert (f.nx, f.nz) == (2 * g.nx + 1, 2 * g.nz + 1)
    assert (f.x0, f.z0, f.x_max, f.z_max) == pytest.approx((g.x0, g.z0, g.x_max, g.z_max))
