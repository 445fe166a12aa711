import math
import random
import sys
from fractions import Fraction

import pytest

from aranlp.errors import AranlpError, EmptyInput, InvalidWeightedScore
from aranlp.evaluation import (
    CategoryResult, EvalReport, format_percent, format_score, json_line, micro_average,
    read_weighted_scores,
)
from aranlp.ner import EntitySpan


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4,300 digits on int -> str conversion,
    set for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length to str")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


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

    @pytest.mark.parametrize("scores, message", [
        ([(0.5, 1e308), (0.5, 1e308)],
         "the weights sum to inf and the weighted scores to 1e+308; both sums must be finite"),
        ([(1e300, 1e300)],
         "the weights sum to 1e+300 and the weighted scores to inf; both sums must be finite"),
    ], ids=["weights", "weighted-scores"])
    def test_sum_past_the_float_range_is_a_typed_error(self, scores, message):
        with pytest.raises(InvalidWeightedScore) as err:
            micro_average(scores)
        assert str(err.value) == message

    @pytest.mark.parametrize("pair", [(0.5, 10**400), (10**400, 1)], ids=["weight", "score"])
    def test_integer_beyond_the_float_range_is_a_typed_error(self, pair):
        with pytest.raises(InvalidWeightedScore) as err:
            micro_average([(0.25, 3), pair])
        assert str(err.value) == (
            "pair 2: scores must be finite and weights positive and finite, "
            f"got ({pair[0]}, {pair[1]})"
        )

    @pytest.mark.parametrize("pair, shown", [
        ((0.5, 10**5000), "(0.5, <int of 5001 digits>)"),
        ((10**5000, 1), "(<int of 5001 digits>, 1)"),
        ((-(10**4300), 1), "(-<int of 4301 digits>, 1)"),
        ((Fraction(10**5000, 3), 1), "(<int of 5001 digits>/3, 1)"),
        ((0.5, 10**4299), f"(0.5, 1{'0' * 4299})"),
    ], ids=["weight", "score", "negative-score", "fraction-score", "longest-that-prints"])
    def test_integer_past_the_digit_limit_is_a_typed_error(self, pair, shown, default_digit_limit):
        with pytest.raises(InvalidWeightedScore) as err:
            micro_average([(0.25, 3), pair])
        assert str(err.value) == (
            f"pair 2: scores must be finite and weights positive and finite, got {shown}"
        )

    def test_digit_count_of_an_integer_past_the_limit(self, default_digit_limit):
        rng = random.Random(19)
        values = [10**k + d for k in (4300, 4301, 5000) for d in (0, 1)]
        values += [10**k - 1 for k in (4302, 5000)]
        values += [2**k for k in range(14290, 14330)]
        values += [rng.randrange(10**4300, 10**6000) for _ in range(50)]
        for value in values:
            sys.set_int_max_str_digits(0)
            digits = len(str(value))
            sys.set_int_max_str_digits(4300)
            with pytest.raises(InvalidWeightedScore) as err:
                micro_average([(value, 1)])
            assert str(err.value).endswith(f"got (<int of {digits} digits>, 1)")

    def test_integer_weights_summing_past_the_float_range_are_a_typed_error(self):
        weight = int(1.5e308)
        with pytest.raises(InvalidWeightedScore, match="^the weights sum to 3"):
            micro_average([(0.5, weight), (0.5, weight)])

    def test_finite_sums_give_the_plain_weighted_mean(self):
        rng = random.Random(17)
        for _ in range(500):
            scores = [
                (rng.uniform(-2.0, 2.0), rng.choice((rng.uniform(1e-9, 1e9), rng.randint(1, 50))))
                for _ in range(rng.randint(1, 8))
            ]
            expected = sum(s * w for s, w in scores) / sum(w for _, w in scores)
            assert micro_average(scores) == expected


class TestReadWeightedScores:
    def test_percent_and_plain_rows(self):
        lines = ["# header", "85.31%\t4389", " 0.5 \t 10 ", "", "100%\t1", "0%\t2"]
        assert read_weighted_scores(lines) == [
            (85.31 / 100.0, 4389.0), (0.5, 10.0), (1.0, 1.0), (0.0, 2.0),
        ]

    def test_no_rows_is_empty_input(self):
        with pytest.raises(EmptyInput) as err:
            read_weighted_scores(["# no rows", ""])
        assert str(err.value) == "no (score, weight) rows given"

    def test_a_nan_percent_is_left_to_micro_average(self):
        # a plain nan is a MalformedRow of its line (test_resources)
        rows = read_weighted_scores(["85.31%\t4389", "nan%\t1"])
        assert math.isnan(rows[1][0])
        with pytest.raises(InvalidWeightedScore) as err:
            micro_average(rows)
        assert str(err.value) == (
            "pair 2: scores must be finite and weights positive and finite, got (nan, 1.0)"
        )


class TestRendering:
    def test_percent_format(self):
        assert format_percent(0.8263) == "82.63%"
        assert format_percent(1.0) == "100.00%"

    def test_score_format_is_four_decimals(self):
        assert format_score(0.85324691) == "0.8532"
        assert format_score(1.0) == "1.0000"
        assert format_score(-0.288675) == "-0.2887"

    def test_json_line_keeps_text_and_opens_a_dataclass_one_level_deep(self):
        line = json_line({"tokens": ["مصر"], "spans": [EntitySpan(0, 1, "GPE")], "x": 0.5})
        assert line == (
            '{"tokens": ["مصر"], "spans": [{"start": 0, "end": 1, "type": "GPE"}], "x": 0.5}'
        )
        assert "\n" not in json_line({"text": "a\nb"})

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
