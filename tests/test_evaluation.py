import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advalstm.errors import ContractError
from advalstm.evaluation import (
    HistogramReport,
    accuracy,
    confidence_histogram,
    confusion_counts,
    mcc,
    mcc_from_counts,
    rpd,
    summarize_runs,
)


class TestConfusion:
    def test_counts(self):
        y = [1, 1, -1, -1, 1]
        p = [1, -1, -1, 1, 1]
        assert confusion_counts(y, p) == (2, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(ContractError):
            confusion_counts([], [])
        with pytest.raises(ContractError):
            confusion_counts([1, -1], [1])
        with pytest.raises(ContractError):
            confusion_counts([1, 0], [1, 1])

    @pytest.mark.parametrize("bad", [0.0, 2.0, np.nan])
    @pytest.mark.parametrize("side", ["labels", "predictions"])
    def test_non_sign_value_rejected(self, bad, side):
        good = np.array([1.0, -1.0, 1.0])
        wrong = np.array([1.0, bad, 1.0])
        args = (wrong, good) if side == "labels" else (good, wrong)
        with pytest.raises(ContractError, match="must be \\+1 or -1"):
            confusion_counts(*args)


class TestAccuracy:
    def test_two_thirds(self):
        assert accuracy([1, 1, -1], [1, 1, 1]) == pytest.approx(200.0 / 3.0)

    def test_perfect_and_worst(self):
        assert accuracy([1, -1], [1, -1]) == 100.0
        assert accuracy([1, -1], [-1, 1]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=40), st.randoms())
    def test_permutation_invariance(self, labels, rnd):
        preds = [rnd.choice([-1, 1]) for _ in labels]
        pairs = list(zip(labels, preds))
        rnd.shuffle(pairs)
        shuffled_y, shuffled_p = zip(*pairs)
        assert accuracy(labels, preds) == pytest.approx(accuracy(shuffled_y, shuffled_p))
        assert mcc(labels, preds) == pytest.approx(mcc(shuffled_y, shuffled_p))


class TestMcc:
    def test_perfect_is_one(self):
        assert mcc([1, -1, 1], [1, -1, 1]) == 1.0

    def test_five_twelfths_fixture(self):
        # tp=2 tn=3 fp=1 fn=1: numerator 2*3-1*1=5, denominator sqrt(3*3*4*4)=12.
        assert mcc_from_counts(2, 3, 1, 1) == pytest.approx(5.0 / 12.0, abs=1e-15)
        y = [1, 1, 1, -1, -1, -1, -1]
        p = [1, 1, -1, 1, -1, -1, -1]
        assert mcc(y, p) == pytest.approx(5.0 / 12.0, abs=1e-15)

    def test_zero_denominator_convention(self):
        # degenerate predictor: everything +1
        assert mcc([1, -1, 1], [1, 1, 1]) == 0.0
        # degenerate labels
        assert mcc([1, 1, 1], [1, -1, 1]) == 0.0

    def test_bounds_and_flip(self):
        y = [1, 1, -1, -1, 1, -1, 1]
        p = [1, -1, -1, 1, 1, -1, -1]
        value = mcc(y, p)
        assert -1.0 <= value <= 1.0
        flipped = [-v for v in p]
        assert mcc(y, flipped) == pytest.approx(-value, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
                    min_size=2, max_size=40))
    def test_flip_negates_property(self, pairs):
        y = [a for a, _ in pairs]
        p = [b for _, b in pairs]
        tp, tn, fp, fn = confusion_counts(y, p)
        if (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) == 0:
            return
        flipped = [-v for v in p]
        t2, n2, f2, g2 = confusion_counts(y, flipped)
        if (t2 + f2) * (t2 + g2) * (n2 + f2) * (n2 + g2) == 0:
            return
        assert mcc(y, flipped) == pytest.approx(-mcc(y, p), abs=1e-12)


class TestRecords:
    def test_report_from_records(self):
        records = [
            ("A", "2020-01-01", 1, 0.5, 1),
            ("A", "2020-01-02", -1, 0.2, 1),
            ("B", "2020-01-01", -1, -0.7, -1),
        ]
        _, _, labels, _, preds = zip(*records)
        assert len(records) == 3
        assert accuracy(labels, preds) == pytest.approx(200.0 / 3.0)

    def test_record_validation(self):
        with pytest.raises(ContractError):
            accuracy([0], [1])
        with pytest.raises(ContractError):
            accuracy([1], [2])


class TestRpd:
    def test_fixture(self):
        assert rpd(50.0, 45.0) == pytest.approx(-0.1)
        assert rpd(50.0, 50.0) == 0.0

    def test_zero_clean_is_missing(self):
        assert rpd(0.0, 10.0) is None


class TestHistogram:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(500)
        hist = confidence_histogram(c, bins=17)
        assert hist.counts.sum() == 500
        assert hist.edges.shape == (18,)
        assert np.all(np.diff(hist.edges) > 0)
        assert (hist.edges[0], hist.edges[-1]) == (c.min(), c.max())

    def test_rows_shape(self):
        hist = confidence_histogram([0.0, 1.0, 2.0], bins=2)
        rows = hist.rows()
        assert len(rows) == 2
        assert sum(r[2] for r in rows) == 3

    def test_constant_input(self):
        hist = confidence_histogram([1.5, 1.5, 1.5], bins=4)
        assert hist.counts.sum() == 3

    def test_validation(self):
        with pytest.raises(ContractError):
            confidence_histogram([1.0], bins=1)
        with pytest.raises(ContractError):
            confidence_histogram([], bins=4)
        with pytest.raises(ContractError):
            confidence_histogram([np.inf], bins=4)


class TestSummary:
    def test_mean_and_sample_std(self):
        s = summarize_runs([50.0, 60.0])
        assert s.mean == 55.0
        assert s.std == pytest.approx(np.sqrt(50.0))  # ddof=1
        assert str(s) == "55.00±7.07"

    def test_single_run_std_zero(self):
        s = summarize_runs([57.2])
        assert s.std == 0.0
        assert str(s) == "57.20±0.00"

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            summarize_runs([])

    def test_multi_metric(self):
        acc, mcc_runs = summarize_runs([50.0, 60.0]), summarize_runs([0.1, 0.2, 0.3])
        assert acc.n_runs == 2
        assert mcc_runs.n_runs == 3
        assert mcc_runs.mean == pytest.approx(0.2)
