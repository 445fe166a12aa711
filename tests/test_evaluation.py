import math

import pytest

from aranlp.errors import AranlpError, EmptyInput, InvalidWeightedScore
from aranlp.evaluation import CategoryResult, EvalReport, format_percent, micro_average


class TestMicroAverage:
    def test_three_category_weighting(self):
        value = micro_average([(0.8531, 4389), (0.8892, 2100), (0.8173, 27764)])
        assert value == pytest.approx(0.8263, abs=0.0001)

    def test_single_category(self):
        assert micro_average([(0.42, 17)]) == 0.42

    def test_constancy(self):
        assert micro_average([(0.5, 1), (0.5, 99), (0.5, 3)]) == pytest.approx(0.5)

    def test_bounded_by_inputs(self):
        scores = [(0.2, 5), (0.9, 1), (0.4, 10)]
        value = micro_average(scores)
        assert min(s for s, _ in scores) <= value <= max(s for s, _ in scores)

    def test_permutation_invariance(self):
        scores = [(0.11, 3), (0.87, 7), (0.53, 11), (0.29, 2)]
        forward = micro_average(scores)
        assert micro_average(list(reversed(scores))) == pytest.approx(forward, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            micro_average([])

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            micro_average([(0.5, 0)])
        with pytest.raises(ValueError):
            micro_average([(0.5, -2)])

    @pytest.mark.parametrize("pair", [
        (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf), (0.5, 0), (0.5, -1.0),
        (math.nan, 1), (math.inf, 1), (-math.inf, 1),
    ])
    def test_non_finite_or_nonpositive_pair_is_a_typed_error(self, pair):
        with pytest.raises(InvalidWeightedScore) as err:
            micro_average([(0.25, 3), pair])
        assert isinstance(err.value, AranlpError) and isinstance(err.value, ValueError)
        assert str(err.value).startswith("pair 2: ")


class TestRendering:
    def test_percent_format(self):
        assert format_percent(0.8263) == "82.63%"
        assert format_percent(1.0) == "100.00%"

    def test_report_text_and_records(self):
        report = EvalReport(
            "demo",
            "accuracy",
            (CategoryResult("ner", 10, 9, 8, 0.8, 40),),
            overall=0.8,
        )
        text = report.render_text()
        assert "80.00%" in text and "ner" in text and "overall" in text
        records = report.render_records().splitlines()
        assert len(records) == 2
        assert '"category": "ner"' in records[0]
