import numpy as np
import pytest

from waverom.forward import Pulse, SensorArray, line_array, synthesize_dataset
from waverom.model import Grid2D, make_camembert_model, make_constant_model
from waverom.objective import (
    Acquisition,
    fwi_objective,
    fwi_residual,
    residual_length,
    rom_objective,
    rom_residual,
)
from waverom.rom import build_rom, restrict

from oracles import truncate


def triu(x):
    """Upper triangle (diagonal included) stacked row-major, through a mask
    rather than the `np.triu_indices` that `fwi_residual` uses."""
    i, j = np.indices(x.shape)
    return x[j >= i]


@pytest.fixture(scope="module")
def bundle():
    g = Grid2D(19, 24, 100.0, 100.0)
    truth = make_camembert_model(g)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(g, 4, depth=200.0)
    acq = Acquisition(arr, pulse, pulse.default_tau(), 5, method="spectral")
    ref_ds = acq.dataset(truth)
    ref_rom = build_rom(ref_ds)
    return g, truth, acq, ref_ds, ref_rom


class TestRomObjective:
    def test_zero_at_truth(self, bundle):
        g, truth, acq, ref_ds, ref_rom = bundle
        r = rom_objective(truth, ref_rom, acq.n, acq.n, acq)
        scale = float(triu(ref_rom.a_rom) @ triu(ref_rom.a_rom))
        assert r @ r < 1e-10 * scale
        band = acq.n * acq.array.m
        assert r.size == band * acq.n * acq.array.m - band * (band - 1) // 2

    def test_full_band_reduces_to_triu_of_difference(self, bundle):
        g, truth, acq, ref_ds, ref_rom = bundle
        cand = make_constant_model(3000.0, g)
        r = rom_objective(cand, ref_rom, acq.n, acq.n, acq)
        cand_rom = build_rom(acq.dataset(cand))
        direct = triu(cand_rom.a_rom - ref_rom.a_rom)
        np.testing.assert_allclose(r, direct, rtol=1e-12, atol=1e-14)
        assert r @ r == pytest.approx(float(direct @ direct), rel=1e-12)

    def test_monotone_in_band_depth(self, bundle):
        # the banded residual is a sub-vector of the deeper-band residual
        g, truth, acq, ref_ds, ref_rom = bundle
        cand = make_constant_model(3000.0, g)
        k = 4
        residuals = [rom_objective(cand, ref_rom, d, k, acq) for d in range(1, k + 1)]
        values = [r @ r for r in residuals]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_restricted_equals_truncated_reference(self, bundle):
        # candidate synthesis stops at 2k-1 samples; the residual must
        # match the one computed from a full-length candidate dataset
        g, truth, acq, ref_ds, ref_rom = bundle
        cand = make_constant_model(3000.0, g)
        k, d = 3, 2
        r_short = rom_objective(cand, ref_rom, d, k, acq)
        full_rom = build_rom(acq.dataset(cand))
        from waverom.rom import rest_dk

        r_full = rest_dk(restrict(full_rom, k) - restrict(ref_rom, k), d, acq.array.m)
        np.testing.assert_allclose(r_short, r_full, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d, k", [(3, 2), (0, 2), (2, None)], ids=["d>k", "d=0", "k>n"])
    def test_residual_refuses_out_of_range(self, bundle, d, k):
        # k > n: a candidate of the reference's size n against a reference of size n - 1
        *_, ref_ds, ref_rom = bundle
        if k is None:
            candidate, reference = ref_rom, build_rom(truncate(ref_ds, ref_rom.n - 1))
        else:
            candidate, reference = build_rom(truncate(ref_ds, k)), ref_rom
        with pytest.raises(ValueError):
            rom_residual(candidate, reference, d)


class TestFwiObjective:
    def test_zero_at_truth(self, bundle):
        g, truth, acq, ref_ds, _ = bundle
        r = fwi_objective(truth, ref_ds, acq)
        scale = sum(
            float(triu(ref_ds.d[j]) @ triu(ref_ds.d[j]))
            for j in range(len(ref_ds.d))
        )
        assert r @ r < 1e-10 * scale
        m = acq.array.m
        assert r.size == len(ref_ds.d) * m * (m + 1) // 2

    def test_smooth_under_small_shift(self, bundle):
        g, truth, acq, ref_ds, _ = bundle
        vals = []
        for eps in (0.0, 0.005, 0.01):
            cand = make_constant_model(3000.0 * (1 + eps), g)
            r = fwi_objective(cand, ref_ds, acq)
            vals.append(r @ r)
        d1 = (vals[1] - vals[0]) / 0.005
        d2 = (vals[2] - vals[1]) / 0.005
        assert d2 == pytest.approx(d1, rel=0.5)  # no wild jump at this scale

    @pytest.mark.parametrize("k", [1, 3], ids=["one-sample", "five-samples"])
    def test_residual_refuses_a_candidate_of_another_shape(self, bundle, k):
        # one sample would broadcast against the reference's nine silently
        g, truth, acq, ref_ds, _ = bundle
        with pytest.raises(ValueError, match=r"candidate samples \(\d+, 4, 4\) differ"):
            fwi_residual(truncate(ref_ds, k), ref_ds)

    def test_residual_matches_triu_vec_loop(self, bundle):
        g, truth, acq, ref_ds, _ = bundle
        cand_ds = acq.dataset(make_constant_model(3100.0, g))
        loop = np.concatenate(
            [triu(cand_ds.d[j] - ref_ds.d[j]) for j in range(len(ref_ds.d))]
        )
        np.testing.assert_array_equal(fwi_residual(cand_ds, ref_ds), loop)


class TestRelabeling:
    def test_fwi_invariant_under_sensor_permutation(self):
        g = Grid2D(19, 24, 100.0, 100.0)
        truth = make_camembert_model(g)
        cand = make_constant_model(3000.0, g)
        pulse = Pulse(6.0, 4.0)
        pos = np.array([[300.0, 200.0], [800.0, 200.0], [1300.0, 200.0], [1700.0, 300.0]])
        perm = [2, 0, 3, 1]
        values = []
        for p in (pos, pos[perm]):
            acq = Acquisition(
                SensorArray(p, theta_width=g.hx), pulse, pulse.default_tau(), 4, method="spectral"
            )
            ref = acq.dataset(truth)
            r = fwi_objective(cand, ref, acq)
            values.append(r @ r)
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_data_covariant_under_sensor_permutation(self):
        # permuting sensor labels conjugates every sample by the permutation
        g = Grid2D(16, 16, 100.0, 100.0)
        v = make_constant_model(2500.0, g)
        pulse = Pulse(6.0, 4.0)
        pos = np.array([[300.0, 300.0], [900.0, 400.0], [1400.0, 300.0]])
        perm = np.array([1, 2, 0])
        tau = pulse.default_tau()
        a = synthesize_dataset(v, SensorArray(pos, 100.0), pulse, tau, 3, method="spectral")
        b = synthesize_dataset(v, SensorArray(pos[perm], 100.0), pulse, tau, 3, method="spectral")
        for j in range(len(a.d)):
            np.testing.assert_allclose(
                b.d[j], a.d[j][np.ix_(perm, perm)], rtol=1e-11, atol=1e-20
            )


def test_residual_length_is_the_size_of_each_residual(bundle):
    *_, acq, ref_ds, ref_rom = bundle
    m, n = acq.array.m, acq.n
    for k in range(1, n + 1):
        candidate = build_rom(truncate(ref_ds, k))
        for d in range(1, k + 1):
            r = rom_residual(candidate, ref_rom, d)
            assert residual_length("rom", m, n, d, k) == r.size
            assert residual_length("fwi", m, n, d, k) == fwi_residual(ref_ds, ref_ds).size
    # the command-line tests' invert config: m = 3, n = 4, d = k = 4
    assert residual_length("rom", 3, 4, 4, 4) == 78
    assert residual_length("fwi", 3, 4, 4, 4) == 42
