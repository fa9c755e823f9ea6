import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibank import (
    ConfigError,
    RngStreams,
    ScenarioConfig,
    TriangularParams,
    draw_period_rates,
    get_preset,
    keyed_threshold_draw,
    random_row_stochastic,
    sample_triangular,
    uniform_matrix,
)


def _rng(seed=1, label="rates", period=0):
    return RngStreams(seed).stream(label, period)


class TestTriangular:
    def test_ordering_validated(self):
        # ScenarioConfig.validate owns the rule, so a law built in Python names its key
        for law in ((1.0, 0.5, 2.0), (0.0, 2.0, 1.0), (1, 0.5, 0)):
            with pytest.raises(ConfigError, match="^psi: triangular parameters must satisfy"):
                get_preset("baseline_perfect", seed=1, psi=TriangularParams(*law))

    def test_point_mass(self):
        law = TriangularParams.point(0.0)
        assert sample_triangular(law, _rng(), size=1).tolist() == [0.0]
        assert np.all(sample_triangular(law, _rng(), size=10) == 0.0)

    def test_point_mass_consumes_no_draws(self):
        a = _rng(7)
        b = _rng(7)
        sample_triangular(TriangularParams.point(0.3), a, size=100)
        assert a.random() == b.random()

    @given(st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)))
    @settings(max_examples=100, deadline=None)
    def test_samples_within_support(self, values):
        lower, peak, upper = sorted(values)
        law = TriangularParams(lower, peak, upper)
        draws = sample_triangular(law, _rng(3), size=200)
        assert np.all(draws >= lower - 1e-12)
        assert np.all(draws <= upper + 1e-12)

    def test_mean_symmetric(self):
        # mean of Triangular(0, 0.5, 1) is 0.5
        draws = sample_triangular(TriangularParams(0.0, 0.5, 1.0), _rng(11), size=1_000_000)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_mean_skewed(self):
        # mean of Triangular(0, 0.3, 1) is (0 + 0.3 + 1) / 3
        draws = sample_triangular(TriangularParams(0.0, 0.3, 1.0), _rng(12), size=1_000_000)
        assert abs(draws.mean() - (0.0 + 0.3 + 1.0) / 3.0) < 0.002


def _stacked(n, rng):
    """The drawn matrix whole, from copies: the blocks share one buffer."""
    return np.concatenate([block.copy() for block in random_row_stochastic(n, rng)])


class TestRowStochastic:
    def test_single_row(self):
        assert np.array_equal(_stacked(1, _rng()), np.array([[1.0]]))

    def test_rows_sum_to_one(self):
        matrix = _stacked(5, _rng(2))
        assert np.all(matrix >= 0)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-12


class TestRowStochasticStream:
    """The draw consumes exactly n * n uniforms in row order, one block of
    at most 64 rows after another, so the blocks stacked must be the bytes
    of one serial (n, n) fill and leave the generator where that fill does."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 1000, 1001])
    def test_bytes_and_next_draw_match_serial_fill(self, n):
        drawn, serial = _rng(4, "cash_matrix", 2), _rng(4, "cash_matrix", 2)
        blocks = [block.copy() for block in random_row_stochastic(n, drawn)]
        assert [len(block) for block in blocks] == [64] * (n // 64) + [n % 64] * (n % 64 > 0)
        expected = serial.random((n, n))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.concatenate(blocks).tobytes() == expected.tobytes()
        assert drawn.random() == serial.random()

    def test_nothing_is_drawn_until_a_block_is_read(self):
        drawn, untouched = _rng(4, "cash_matrix", 2), _rng(4, "cash_matrix", 2)
        random_row_stochastic(100, drawn)
        assert drawn.random() == untouched.random()


class TestUniformMatrix:
    def test_reproducible_and_in_range(self):
        a = uniform_matrix(2, 2, _rng(5, "matching", 1))
        b = uniform_matrix(2, 2, _rng(5, "matching", 1))
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_mean(self):
        draws = uniform_matrix(1000, 1000, _rng(6))
        assert abs(draws.mean() - 0.5) < 0.002

    def test_never_exceeds_one(self):
        assert uniform_matrix(1000, 1000, _rng(7)).max() <= 1.0


MASK64 = (1 << 64) - 1


def _reference_mix64(z):
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _reference_draw(subseed, *fields):
    """SplitMix64 keyed draw in Python integers, which never wrap."""
    state = _reference_mix64(subseed)
    for field in fields:
        state = _reference_mix64(state ^ field)
    return 1.0 - state / 2.0**64


class TestKeyedDraws:
    def test_deterministic(self):
        draw = keyed_threshold_draw(123, 4, 5, 6)
        assert draw.shape == (1,)
        assert np.array_equal(draw, keyed_threshold_draw(123, 4, 5, 6))

    def test_distinct_keys_differ(self):
        draws = keyed_threshold_draw(123, np.arange(100), 1, 2)
        assert np.unique(draws).size == 100

    def test_support_and_mean(self):
        draws = keyed_threshold_draw(9, np.arange(100_000))
        assert draws.min() > 0.0
        assert draws.max() <= 1.0
        assert abs(draws.mean() - 0.5) < 0.005

    @given(st.integers(0, MASK64),
           st.lists(st.tuples(st.integers(0, MASK64), st.integers(0, MASK64)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_arrays_match_python_int_reference(self, subseed, keys):
        first, second = (np.array(column, dtype=np.uint64) for column in zip(*keys))
        draws = keyed_threshold_draw(subseed, 7, first, second)
        assert draws.tolist() == [_reference_draw(subseed, 7, a, b) for a, b in keys]
        scalars = keyed_threshold_draw(subseed, 7, *keys[0])
        assert scalars.tolist() == draws[:1].tolist()

    def test_full_range_batch_matches_reference(self):
        fields = np.random.default_rng(5).integers(0, MASK64, size=(3, 20_000),
                                                    dtype=np.uint64, endpoint=True)
        draws = keyed_threshold_draw(MASK64 - 2, *fields)
        assert draws.tolist() == [_reference_draw(MASK64 - 2, *map(int, key))
                                  for key in fields.T]


BASELINE_LAWS = ScenarioConfig(
    seed=1,
    r_A1=TriangularParams(0.005, 0.01, 0.015),
    r_A2=TriangularParams(0.02, 0.03, 0.04),
    r_interbank=TriangularParams(0.005, 0.015, 0.025),
    r_L1=TriangularParams(0.005, 0.01, 0.015),
    r_L2=TriangularParams(0.005, 0.01, 0.015),
    l5_spread=0.03,
)


class TestRates:
    def test_guarantee_fee_spread(self):
        laws = ScenarioConfig(
            seed=1,
            r_A1=TriangularParams.point(0.01),
            r_A2=TriangularParams.point(0.03),
            r_interbank=TriangularParams.point(0.015),
            r_L1=TriangularParams.point(0.01),
            r_L2=TriangularParams.point(0.01),
            l5_spread=0.03,
        )
        rates = draw_period_rates(laws, _rng())
        assert rates.r_interbank == 0.015
        assert rates.r_l5 == pytest.approx(0.045)
        assert np.all(rates.r_a2 == 0.03)

    def test_interbank_rate_shared_by_both_sides(self):
        # one scalar per period, where the per-bank rates are arrays
        rates = draw_period_rates(BASELINE_LAWS, _rng(4))
        assert isinstance(rates.r_interbank, float)
        assert rates.r_l5 == pytest.approx(rates.r_interbank + 0.03)

    def test_retail_rate_mean(self):
        # many periods of per-bank draws; mean of Triangular(0.02, 0.03, 0.04) is 0.03
        rng = _rng(13)
        draws = [draw_period_rates(BASELINE_LAWS, rng).r_a2 for _ in range(10_000)]
        assert abs(np.concatenate(draws).mean() - 0.03) < 0.001


class TestStreams:
    def test_same_key_same_draws(self):
        a = RngStreams(41).stream("absorption", 7).random(16)
        b = RngStreams(41).stream("absorption", 7).random(16)
        assert np.array_equal(a, b)

    def test_periods_differ(self):
        a = RngStreams(41).stream("absorption", 7).random(16)
        b = RngStreams(41).stream("absorption", 8).random(16)
        assert not np.array_equal(a, b)

    def test_substream_independence(self):
        one = RngStreams(17)
        other = RngStreams(17)
        one.stream("matching", 3).random(1000)  # heavy use of one consumer
        assert np.array_equal(one.stream("rates", 3).random(8),
                              other.stream("rates", 3).random(8))

    def test_unknown_label_rejected(self):
        # labels are the engine's own, so a wrong one is a programming error
        with pytest.raises(KeyError):
            RngStreams(1).stream("nope")
        with pytest.raises(KeyError):
            RngStreams(1).subseed("nope")
