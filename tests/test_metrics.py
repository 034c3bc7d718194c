import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import AcceptanceRecord, aggregate, compression_rate, ctar
from selfspec.errors import MetricsDomainError, ShapeError
from selfspec.metrics import to_csv

from oracles import naive_compression_rate, naive_ctar

s_lists = st.lists(st.integers(1, 9), min_size=1, max_size=20)


class TestCompressionRate:
    def test_example(self):
        assert compression_rate(AcceptanceRecord([3, 1, 2])) == 2.0

    def test_vanilla_case(self):
        assert compression_rate(AcceptanceRecord([1, 1, 1, 1])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsDomainError):
            compression_rate(AcceptanceRecord([]))

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(MetricsDomainError):
            AcceptanceRecord([2, 0, 1])

    @given(s_lists)
    @settings(max_examples=100, deadline=None)
    def test_integer_identity_and_oracle(self, s):
        rec = AcceptanceRecord(s)
        cr = compression_rate(rec)
        assert cr * rec.rounds == pytest.approx(rec.n_tokens, abs=1e-9)
        assert cr >= 1.0
        assert cr == naive_compression_rate(s)


class TestCtar:
    def test_example(self):
        assert ctar(AcceptanceRecord([3, 1, 2]), 1) == pytest.approx(2 / 3)

    def test_window_zero_is_one(self):
        assert ctar(AcceptanceRecord([4, 1, 2, 9]), 0) == 1.0

    def test_window_beyond_max(self):
        assert ctar(AcceptanceRecord([3, 1, 2]), 3) == 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(MetricsDomainError):
            ctar(AcceptanceRecord([2]), -1)

    def test_empty_rejected(self):
        with pytest.raises(MetricsDomainError):
            ctar(AcceptanceRecord([]), 1)

    @given(s_lists)
    @settings(max_examples=100, deadline=None)
    def test_oracle_and_monotonicity(self, s):
        rec = AcceptanceRecord(s)
        assert ctar(rec, 0) == 1.0
        previous = 1.0
        for w in range(0, max(s) + 2):
            value = ctar(rec, w)
            assert value == naive_ctar(s, w)
            assert value <= previous + 1e-12
            previous = value
        assert ctar(rec, max(s)) == 0.0


class TestAggregate:
    def test_single_record_matches_pointwise(self):
        rec = AcceptanceRecord([3, 1, 2])
        report = aggregate([rec])
        assert report.pooled_cr == compression_rate(rec)
        assert report.macro_cr == compression_rate(rec)
        for w in range(1, 7):
            assert report.ctar_pooled[w] == ctar(rec, w)

    def test_pooled_cr_micro_average(self):
        report = aggregate([AcceptanceRecord([2]), AcceptanceRecord([4])])
        assert report.pooled_cr == 3.0  # 6 tokens over 2 rounds
        assert report.macro_cr == 3.0

    def test_ctar_curve_non_increasing(self):
        report = aggregate([AcceptanceRecord([5, 2, 1]), AcceptanceRecord([1, 7])])
        curve = [report.ctar_pooled[w] for w in range(1, 7)]
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_speedup_pooled_over_walltimes(self):
        report = aggregate(
            [AcceptanceRecord([2, 2]), AcceptanceRecord([4])],
            vanilla_seconds=[2.0, 2.0],
            spec_seconds=[1.0, 1.0],
        )
        assert report.speedup == 2.0
        assert report.tokens_per_sec == 4.0

    def test_walltime_length_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate([AcceptanceRecord([2])], vanilla_seconds=[1.0], spec_seconds=[1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(MetricsDomainError):
            aggregate([])

    def test_csv_columns(self):
        report = aggregate([AcceptanceRecord([3, 1])], subtask="demo")
        header, row = to_csv([report]).splitlines()
        assert header.split(",") == (
            ["eta", "gamma", "CR"]
            + [f"CTAR_{w}" for w in range(1, 7)]
            + ["simulated_speedup", "measured_speedup", "tokens_per_sec"]
            + ["nonfinite_confidences", "drafting_rounds", "deferred_rounds", "subtask"]
        )
        # fields a bare aggregate lacks are empty cells
        assert row.split(",") == (
            ["", "", "2.000000"] + ["0.500000"] * 2 + ["0.000000"] * 4 + [""] * 6 + ["demo"]
        )

    def test_json_round_trip(self):
        import json

        report = aggregate([AcceptanceRecord([3, 1])], subtask="demo")
        payload = json.loads(report.to_json())
        assert payload["subtask"] == "demo"
        assert payload["pooled_cr"] == 2.0
        assert payload["ctar"]["ctar_1"] == 0.5
