import math
import random

import pytest
from scipy import stats

from aranlp.errors import (
    DegenerateConstantInput,
    DimensionMismatch,
    EmptyInput,
    EmptySentence,
    LengthMismatch,
    MalformedRow,
    ZeroVector,
)
from aranlp.relatedness import (
    HashedTrigramProvider,
    SentencePair,
    cosine,
    load_pairs,
    mean_pool,
    relatedness,
    spearman,
    to_unit_interval,
)

from _oracles import oracle_spearman, reference_mean_pool


class TestMeanPool:
    def test_singleton(self):
        assert mean_pool([[1.0, 2.0, 3.0]]) == [1.0, 2.0, 3.0]

    def test_two_unit_vectors(self):
        assert mean_pool([[1.0, 0.0], [0.0, 1.0]]) == [0.5, 0.5]

    def test_against_summation_oracle(self):
        rng = random.Random(3)
        vectors = [[rng.uniform(-5, 5) for _ in range(16)] for _ in range(3)]
        pooled = mean_pool(vectors)
        for i, value in enumerate(pooled):
            expected = math.fsum(v[i] for v in vectors) / len(vectors)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean_pool([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mean_pool([[1.0], [1.0, 2.0]])

    def test_equals_per_index_reference(self):
        rng = random.Random(4242)
        provider = HashedTrigramProvider(dimension=32)
        order_sensitive = 0
        for _ in range(300):
            count, dimension = rng.randint(1, 12), rng.randint(0, 24)
            vectors = [
                [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(dimension)]
                for _ in range(count)
            ]
            assert mean_pool(vectors) == reference_mean_pool(vectors)
            order_sensitive += any(sum(c) != sum(reversed(c)) for c in zip(*vectors))
        for sentence in ("كتاب", "كتاب جديد على الطاولة", "نص نص نص"):
            vectors = provider.embed(sentence)
            assert mean_pool(vectors) == reference_mean_pool(vectors)
        # the inputs are ones where a different summation order would show
        assert order_sensitive > 0


class TestCosine:
    def test_self_similarity(self):
        v = [0.3, -0.7, 2.0]
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0], [1.0, 2.0])

    def test_scale_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            a = [rng.uniform(-1, 1) for _ in range(8)]
            b = [rng.uniform(-1, 1) for _ in range(8)]
            if not any(a) or not any(b):
                continue
            factor = rng.uniform(0.1, 9.0)
            scaled = [x * factor for x in a]
            assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-9)

    def test_clamped(self):
        v = [1e-8, 1.0]
        assert -1.0 <= cosine(v, v) <= 1.0


class TestProvider:
    def test_deterministic_across_instances(self):
        one = HashedTrigramProvider().embed("جملة قصيرة للاختبار")
        two = HashedTrigramProvider().embed("جملة قصيرة للاختبار")
        assert one == two

    def test_dimension(self):
        provider = HashedTrigramProvider()
        vectors = provider.embed("كلمة")
        assert len(vectors) == 1
        assert len(vectors[0]) == provider.dimension == 256

    def test_one_vector_per_token(self):
        assert len(HashedTrigramProvider().embed("ثلاث كلمات هنا")) == 3

    def test_empty_sentence(self):
        with pytest.raises(EmptySentence):
            HashedTrigramProvider().embed("   ")

    def test_invalid_dimension_rejected_at_construction(self):
        for bad in (0, -3, 2.5, 256.0, "8", None):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                HashedTrigramProvider(bad)

    def test_known_fingerprint_is_stable(self):
        # "^a$" is a single trigram: exactly one signed unit lands in the
        # vector; any change to the hashing scheme must be deliberate
        vector = HashedTrigramProvider(dimension=8)._token_vector("a")
        assert len(vector) == 8
        assert sum(abs(x) for x in vector) == 1.0


class TestRelatedness:
    def test_identical_sentences(self):
        provider = HashedTrigramProvider()
        pair = SentencePair("نص متطابق تماما", "نص متطابق تماما")
        assert relatedness(pair, provider) == pytest.approx(1.0)

    def test_symmetry(self):
        provider = HashedTrigramProvider()
        s1, s2 = "الولد يقرأ كتابا", "البنت تكتب رسالة"
        assert relatedness(SentencePair(s1, s2), provider) == pytest.approx(
            relatedness(SentencePair(s2, s1), provider)
        )

    def test_recomputation_oracle(self):
        provider = HashedTrigramProvider()
        s1, s2 = "كتاب جديد", "كتاب قديم"
        score = relatedness(SentencePair(s1, s2), provider)

        def pooled(sentence):
            vectors = provider.embed(sentence)
            return [math.fsum(v[i] for v in vectors) / len(vectors) for i in range(256)]

        a, b = pooled(s1), pooled(s2)
        dot = math.fsum(x * y for x, y in zip(a, b))
        expected = dot / math.sqrt(
            math.fsum(x * x for x in a) * math.fsum(y * y for y in b)
        )
        assert score == pytest.approx(expected, abs=1e-12)

    def test_score_in_range(self):
        rng = random.Random(7)
        provider = HashedTrigramProvider()
        vocabulary = ["كتب", "قرأ", "ولد", "بنت", "شمس", "قمر"]
        for _ in range(50):
            s1 = " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
            s2 = " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
            assert -1.0 <= relatedness(SentencePair(s1, s2), provider) <= 1.0

    def test_rescale(self):
        assert to_unit_interval(-1.0) == 0.0
        assert to_unit_interval(1.0) == 1.0
        assert to_unit_interval(0.0) == 0.5

    def test_gold_range_validated(self):
        with pytest.raises(ValueError):
            SentencePair("a", "b", 1.5)

    def test_load_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("جملة أولى\tجملة ثانية\t0.75\nبلا ذهب\tذهب\n", encoding="utf-8")
        pairs = load_pairs(path)
        assert pairs[0].gold == 0.75
        assert pairs[1].gold is None
        bad = tmp_path / "bad.tsv"
        bad.write_text("واحد\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_pairs(bad)


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_fixed_example(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            spearman([1, 2], [1, 2, 3])

    def test_degenerate_constant(self):
        with pytest.raises(DegenerateConstantInput):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateConstantInput):
            spearman([1], [2])

    def test_matches_oracles_with_and_without_ties(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 40)
            with_ties = rng.random() < 0.5
            def draw():
                if with_ties:
                    values = [float(rng.randint(0, 5)) for _ in range(n)]
                else:
                    values = rng.sample(range(1000), n)
                return [float(v) for v in values]
            gold, pred = draw(), draw()
            if len(set(gold)) == 1 or len(set(pred)) == 1:
                continue
            mine = spearman(gold, pred)
            assert mine == pytest.approx(oracle_spearman(gold, pred), abs=1e-9)
            assert mine == pytest.approx(stats.spearmanr(gold, pred).statistic, abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(3, 20)
            gold = [rng.uniform(0, 1) for _ in range(n)]
            pred = [rng.uniform(0, 1) for _ in range(n)]
            if len(set(gold)) == 1 or len(set(pred)) == 1:
                continue
            transformed = [math.exp(3 * v) for v in pred]
            assert spearman(gold, pred) == pytest.approx(spearman(gold, transformed), abs=1e-12)
