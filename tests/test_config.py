"""Every shipped config loads and builds the objects its command needs."""

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
    assert cfg.build_search(truth.grid).background.grid == truth.grid
    if cfg.schedule:
        assert cfg.build_schedule().k[-1] == acq.n
    else:
        ax1, ax2 = cfg.sweep_axes()
        assert cfg.sweep_band() == (acq.n, acq.n)
        candidates = list(cfg.sweep_candidates())
        assert len(candidates) == ax1.count * ax2.count
        assert all(c.grid == truth.grid for c in candidates)
