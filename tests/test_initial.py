import numpy as np
import pytest

from moduliflow.flow import write_snapshot
from moduliflow.initial import KIND_DEFAULTS, build_initial_state, smooth_random_field
from moduliflow.mesh import DomainGrid

TWO_PI = 2.0 * np.pi


class TestConstant:
    def test_defaults(self, grid64):
        state = build_initial_state(grid64, {"kind": "constant"})
        assert np.all(state.u == 0.0) and np.all(state.v == 1.0)
        assert state.t == 0.0

    def test_v0_must_be_positive(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "constant", "v0": 0.0})


class TestSinusoidal:
    def test_sampled_values(self):
        grid = DomainGrid(8, 8)
        state = build_initial_state(
            grid, {"kind": "sinusoidal", "u0": 0.2, "v0": 1.5,
                   "amp_u": 0.1, "amp_v": 0.2, "mode_u": [2, 1],
                   "mode_v": [1, 3]},
        )
        i, j = 3, 5
        x1, x2 = i * grid.h1, j * grid.h2
        u_want = 0.2 + 0.1 * np.sin(TWO_PI * 2 * x1) * np.cos(TWO_PI * x2)
        v_want = 1.5 + 0.2 * np.cos(TWO_PI * x1) * np.sin(TWO_PI * 3 * x2)
        assert state.u[i, j] == pytest.approx(u_want, rel=1e-15)
        assert state.v[i, j] == pytest.approx(v_want, rel=1e-15)

    def test_amplitude_bound(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(
                grid64, {"kind": "sinusoidal", "v0": 0.5, "amp_v": 0.5}
            )


class TestWinding:
    def test_u_winds_and_v_is_x2_only(self):
        grid = DomainGrid(16, 16)
        state = build_initial_state(
            grid, {"kind": "winding", "amp": 0.2, "k": 2, "b": 0.3, "m": 1}
        )
        # u depends only on x1, v only on x2.
        assert np.all(state.u == state.u[:, :1])
        assert np.all(state.v == state.v[:1, :])
        assert float(state.v.min()) > 0.0
        assert state.v[0, 0] == pytest.approx(np.exp(0.3), rel=1e-15)


class TestRandom:
    def test_requires_generator(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "random"})

    def test_seed_determinism(self, grid64):
        a = build_initial_state(grid64, {"kind": "random"},
                                rng=np.random.default_rng(7))
        b = build_initial_state(grid64, {"kind": "random"},
                                rng=np.random.default_rng(7))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_field_hits_requested_amplitude_exactly(self, grid64, rng):
        f = smooth_random_field(grid64, rng, max_mode=3, amplitude=0.25)
        assert float(np.abs(f).max()) == 0.25

    def test_field_is_band_limited(self, grid64, rng):
        f = smooth_random_field(grid64, rng, max_mode=2, amplitude=0.3)
        spec = np.fft.fft2(f)
        k1 = np.fft.fftfreq(grid64.n1, d=grid64.h1)
        k2 = np.fft.fftfreq(grid64.n2, d=grid64.h2)
        high = (np.abs(k1[:, None]) > 2.5) | (np.abs(k2[None, :]) > 2.5)
        assert float(np.abs(spec[high]).max()) <= 1e-10 * float(np.abs(spec).max())

    @pytest.mark.parametrize("shape, max_mode, ok", [
        ((8, 8), 4, True), ((8, 8), 5, False), ((16, 6), 3, True),
        ((16, 6), 4, False), ((6, 16), 4, False), ((4, 4), 3, False),
        ((5, 5), 3, False), ((64, 64), 1000, False),
    ])
    def test_max_mode_is_at_most_half_the_smaller_side(self, shape, max_mode, ok):
        spec = {"kind": "random", "max_mode": max_mode}
        grid, rng = DomainGrid(*shape), np.random.default_rng(0)
        if ok:
            assert build_initial_state(grid, spec, rng).u.shape == shape
        else:
            with pytest.raises(ValueError, match=f"max_mode {max_mode} exceeds"):
                build_initial_state(grid, spec, rng)

    def test_v_stays_positive_for_large_draws(self, grid64):
        state = build_initial_state(
            grid64, {"kind": "random", "amp_v": 3.0},
            rng=np.random.default_rng(0),
        )
        assert float(state.v.min()) > 0.0


class TestFile:
    def test_round_trip_resets_time(self, grid64, rng, tmp_path):
        state = build_initial_state(grid64, {"kind": "random"}, rng=rng)
        state.t = 0.7
        path = tmp_path / "state.csv"
        write_snapshot(state, path)
        back = build_initial_state(grid64, {"kind": "file", "path": str(path)})
        assert back.t == 0.0
        assert np.array_equal(back.u, state.u)
        assert np.array_equal(back.v, state.v)

    def test_grid_mismatch(self, grid64, tmp_path):
        small = DomainGrid(8, 8)
        state = build_initial_state(small, {"kind": "constant"})
        path = tmp_path / "state.csv"
        write_snapshot(state, path)
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "file", "path": str(path)})

    def test_missing_path(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "file"})


class TestSpecHygiene:
    def test_unknown_kind(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "mystery"})

    def test_unknown_field(self, grid64):
        with pytest.raises(ValueError):
            build_initial_state(grid64, {"kind": "constant", "volume": 2.0})

    def test_every_kind_has_defaults(self):
        assert set(KIND_DEFAULTS) == {"constant", "sinusoidal", "winding",
                                      "random", "file"}
