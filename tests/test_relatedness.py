import math
import random
import types
import unicodedata

import pytest
from scipy import stats

from aranlp.errors import (
    AranlpError,
    DegenerateConstantInput,
    DimensionMismatch,
    EmptyInput,
    EmptySentence,
    LengthMismatch,
    MalformedRow,
    NonFiniteValue,
    ZeroVector,
)
from aranlp.relatedness import (
    _CHAR_MEMO_LIMIT,
    _MASK64,
    _PREFIX_MEMO_LIMIT,
    HashedTrigramProvider,
    PairScore,
    SentencePair,
    _char_entry,
    _head_entry,
    cosine,
    evaluate_pairs,
    load_pairs,
    mean_pool,
    relatedness,
    spearman,
    to_unit_interval,
)

from _oracles import (
    ReferenceTrigramProvider,
    _fnv1a,
    oracle_spearman,
    random_embedding_sentence,
    reference_cosine,
    reference_mean_pool,
)


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
        for zero in ([0.0, -0.0], [], [0, 0]):
            with pytest.raises(ZeroVector, match="^cosine similarity is undefined for a zero vector$"):
                cosine(zero, [1.0] * len(zero))
            with pytest.raises(ZeroVector):
                cosine([1.0] * len(zero), zero)

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

    def test_ordinary_inputs_keep_the_first_expression(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 40)
            scale = 10.0 ** rng.randint(-100, 100)
            a = [rng.uniform(-1, 1) * scale for _ in range(n)]
            b = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-100, 100) for _ in range(n)]
            assert cosine(a, b) == reference_cosine(a, b)

    def test_squares_beyond_the_float_range(self):
        assert cosine([1e200, 1e200], [-1e200, -1e200]) == -1.0
        assert cosine([1e200, 1e200], [1e200, 1e200]) == 1.0
        assert cosine([3e200, 4e200], [4e200, 3e200]) == pytest.approx(0.96, abs=1e-15)
        # one vector out of range, the other ordinary
        assert cosine([1e300, 0.0], [1.0, 1.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        # int components whose squares no float holds
        for big in (10**200, 10**400):
            assert cosine([big, 1], [1, 1]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
            assert cosine([big, big], [-big, -big]) == -1.0
        assert cosine([3 * 10**400, 4 * 10**400], [4, 3]) == pytest.approx(0.96, abs=1e-15)
        # a float beside an int whose square no float holds
        for a in ([10**200, 1.0], [10**400, 1.0], [1.0, 10**400]):
            assert cosine(a, [1, 1]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
            assert cosine([1, 1], a) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_squares_below_the_normal_range(self):
        assert cosine([1e-200], [1e-200]) == 1.0
        assert cosine([1e-200], [-3.0]) == -1.0
        assert cosine([3e-170, 4e-170], [4e-170, 3e-170]) == pytest.approx(0.96, abs=1e-15)
        assert cosine([5e-324, 0.0], [0.0, 5e-324]) == 0.0

    def test_non_finite_components_raise_a_typed_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            for a, b in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])):
                with pytest.raises(NonFiniteValue, match="NaN or infinite"):
                    cosine(a, b)
        assert issubclass(NonFiniteValue, AranlpError)
        assert issubclass(NonFiniteValue, ValueError)


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
        # recorded vectors over ASCII, Arabic, diacritized and astral tokens
        # ("ab𝒜" ends a trigram in a 4-byte character); a cancelled index
        # reads 0.0 as an untouched one does
        sentence = "a كتاب كَتَبَ 𝒜 ab𝒜"
        assert HashedTrigramProvider(dimension=8).embed(sentence) == [
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0, -1.0, 0.0, -1.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -1.0],
        ]
        nonzero = [
            {204: 1.0},
            {62: -1.0, 115: 1.0, 158: 1.0, 204: 1.0},
            {66: 1.0, 104: 1.0, 198: -1.0, 231: 1.0, 241: 1.0, 252: -1.0},
            {152: 1.0},
            {38: 1.0, 135: -1.0, 220: 1.0},
        ]
        expected = [[row.get(i, 0.0) for i in range(256)] for row in nonzero]
        vectors = HashedTrigramProvider(dimension=256).embed(sentence)
        assert vectors == expected
        assert all(math.copysign(1.0, x) == 1.0 for v in vectors for x in v if x == 0.0)


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

    def test_pair_score_renders_four_decimals_and_a_six_decimal_record(self):
        score = PairScore("جبل", "سماء", -0.28867513459481287)
        assert score.render_text() == "-0.2887"
        assert score.render_records() == '{"s1": "جبل", "s2": "سماء", "score": -0.288675}'

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


class TestEvaluatePairs:
    def test_spearman_of_gold_against_relatedness(self):
        provider = HashedTrigramProvider()
        pairs = [
            SentencePair("كتاب جديد", "كتاب جديد", 0.9),
            SentencePair("شمس مشرقة", "قطار سريع", 0.1),
            SentencePair("ولد صغير", "ولد يافع", 0.6),
        ]
        expected = spearman([p.gold for p in pairs], [relatedness(p, provider) for p in pairs])
        assert evaluate_pairs(pairs, provider) == expected

    def test_names_the_first_pair_without_gold(self):
        pairs = [SentencePair("أ", "ب", 0.5), SentencePair("ج", "د"), SentencePair("ه", "و")]
        with pytest.raises(AranlpError, match="^pair 2: relatedness eval requires a gold score"):
            evaluate_pairs(pairs, HashedTrigramProvider())


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

    def test_non_finite_values_raise_a_typed_error(self):
        with pytest.raises(NonFiniteValue, match="NaN or infinite"):
            spearman([1.0, 2.0, math.nan, 4.0], [4.0, 3.0, 2.0, 1.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteValue):
                spearman([1.0, 2.0, 3.0], [1.0, bad, 3.0])
            with pytest.raises(NonFiniteValue):
                spearman([bad, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_integers_beyond_the_float_range_still_rank(self):
        assert spearman([10**400, 1, 2], [3.0, 1.0, 2.0]) == 1.0

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


class _Forwarding:
    """An attribute-forwarding proxy like a tracer's: it counts calls to
    embed and reads every other attribute from the target."""

    def __init__(self, target):
        self._target = target
        self.embed_calls = 0

    def embed(self, sentence):
        self.embed_calls += 1
        return self._target.embed(sentence)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class _SizeWatch(dict):
    """A dict that records its largest size and how often it was cleared."""

    largest = 0
    clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def _cancelling_sentence(dimension):
    """Two one-character tokens whose single trigrams land on the same index
    with opposite signs, so the pooled vector is all zero."""
    oracle = ReferenceTrigramProvider(dimension)
    seen = {}
    for code in range(0x21, 0x3000):
        char = chr(code)
        if char.isspace() or unicodedata.normalize("NFC", char) != char:
            continue
        (vector,) = oracle.embed(char)
        key = tuple(vector)
        opposite = seen.get(tuple(-x for x in vector))
        if opposite is not None:
            return f"{opposite} {char}"
        seen.setdefault(key, char)
    raise AssertionError("no cancelling pair found")


class TestPooledPath:
    DIMENSIONS = (1, 7, 256, 1000)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_embed_and_pooled_equal_the_oracle(self, dimension):
        rng = random.Random(dimension)
        provider = HashedTrigramProvider(dimension)
        oracle = ReferenceTrigramProvider(dimension)
        for _ in range(150):
            sentence = random_embedding_sentence(rng)
            expected = oracle.embed(sentence)
            assert provider.embed(sentence) == expected
            pooled = provider.pool(sentence)
            assert pooled == mean_pool(provider.embed(sentence))
            assert pooled == reference_mean_pool(expected)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_relatedness_equals_the_first_formula(self, dimension):
        rng = random.Random(100 + dimension)
        provider = HashedTrigramProvider(dimension)
        oracle = ReferenceTrigramProvider(dimension)
        compared = 0
        for _ in range(150):
            s1, s2 = random_embedding_sentence(rng), random_embedding_sentence(rng)
            a = reference_mean_pool(oracle.embed(s1))
            b = reference_mean_pool(oracle.embed(s2))
            if not any(a) or not any(b):
                with pytest.raises(ZeroVector):
                    relatedness(SentencePair(s1, s2), provider)
                continue
            assert relatedness(SentencePair(s1, s2), provider) == reference_cosine(a, b)
            compared += 1
        assert compared > 100

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_a_lone_surrogate_embeds_as_the_oracle_does(self, dimension):
        sentence, other = "ا\ud800ب", "كتب \udfffا"
        provider = HashedTrigramProvider(dimension)
        oracle = ReferenceTrigramProvider(dimension)
        expected = oracle.embed(sentence)
        assert provider.embed(sentence) == expected
        assert provider.pool(sentence) == reference_mean_pool(expected)
        a, b = reference_mean_pool(expected), reference_mean_pool(oracle.embed(other))
        assert relatedness(SentencePair(sentence, other), provider) == reference_cosine(a, b)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_cancelling_sentence_is_a_zero_vector(self, dimension):
        sentence = _cancelling_sentence(dimension)
        provider = HashedTrigramProvider(dimension)
        zero = [0.0] * dimension
        assert provider.pool(sentence) == zero
        assert reference_mean_pool(ReferenceTrigramProvider(dimension).embed(sentence)) == zero
        assert all(math.copysign(1.0, x) == 1.0 for x in provider.pool(sentence))
        with pytest.raises(ZeroVector):
            relatedness(SentencePair(sentence, "كتاب"), provider)
        with pytest.raises(ZeroVector):
            relatedness(SentencePair("كتاب", sentence), provider)

    def test_proxy_runs_the_pooled_path(self):
        provider = HashedTrigramProvider()
        proxy = _Forwarding(provider)
        rng = random.Random(21)
        for _ in range(30):
            pair = SentencePair(random_embedding_sentence(rng), random_embedding_sentence(rng))
            try:
                direct = relatedness(pair, provider)
            except ZeroVector:
                continue
            assert relatedness(pair, proxy) == direct
        assert proxy.embed_calls == 0

    def test_a_provider_with_only_pool_is_enough(self):
        trigram = HashedTrigramProvider(16)

        class PoolOnly:
            def __init__(self):
                self.calls = []

            def pool(self, sentence):
                self.calls.append(sentence)
                return trigram.pool(sentence)

        provider = PoolOnly()
        s1, s2 = "كتاب جديد على الطاولة", "كتاب قديم"
        expected = cosine(trigram.pool(s1), trigram.pool(s2))
        assert relatedness(SentencePair(s1, s2), provider) == expected
        assert provider.calls == [s1, s2]
        provider.calls.clear()
        pairs = [SentencePair(s1, s2, 0.2), SentencePair(s2, s2, 0.9), SentencePair(s2, s1, 0.5)]
        assert evaluate_pairs(pairs, provider) == evaluate_pairs(pairs, trigram)
        assert provider.calls == [s1, s2, s2, s2, s2, s1]

    def test_empty_sentence_message_is_unchanged(self):
        provider = HashedTrigramProvider()
        for call in (provider.embed, provider.pool,
                     lambda s: relatedness(SentencePair(s, "كتاب"), provider),
                     lambda s: relatedness(SentencePair("كتاب", s), provider)):
            with pytest.raises(EmptySentence, match="^sentence has no tokens to embed$"):
                call(" \t\n ")

    def test_prefix_memo_stays_within_its_bound(self):
        provider = HashedTrigramProvider(64)
        oracle = ReferenceTrigramProvider(64)
        watch = provider._prefix_states = _SizeWatch()
        # 300 x 300 distinct two-character tokens: each is the head of one
        # trigram, so more than the limit of distinct heads stream through
        chars = [chr(0x4E00 + i) for i in range(300)]
        tokens = [x + y for x in chars for y in chars]
        assert len(tokens) > _PREFIX_MEMO_LIMIT
        for start in range(0, len(tokens), 150):
            sentence = " ".join(tokens[start:start + 150])
            assert provider.pool(sentence) == reference_mean_pool(oracle.embed(sentence))
        assert watch.clears >= 1
        assert watch.largest == _PREFIX_MEMO_LIMIT
        assert len(watch) <= _PREFIX_MEMO_LIMIT

    def test_char_memo_stays_within_its_bound(self):
        provider = HashedTrigramProvider(64)
        oracle = ReferenceTrigramProvider(64)
        watch = provider._char_tables = _SizeWatch()
        # tokens "a" + one of more distinct CJK ideographs than the limit:
        # each ideograph is the third character of its token's first trigram
        tokens = ["a" + chr(0x4E00 + i) for i in range(_CHAR_MEMO_LIMIT + 200)]
        for start in range(0, len(tokens), 100):
            sentence = " ".join(tokens[start:start + 100])
            assert provider.pool(sentence) == reference_mean_pool(oracle.embed(sentence))
        assert watch.clears >= 1
        assert watch.largest == _CHAR_MEMO_LIMIT
        assert len(watch) <= _CHAR_MEMO_LIMIT


class TestTrigramKernel:
    """The per-character table identity: after the k UTF-8 bytes of a
    character c, FNV-1a from a state h reads h * P**k + D(h & 0xFF, c)."""

    # 1-, 2-, 3- and 4-byte UTF-8 characters
    RANGES = ((0x21, 0x7F), (0x80, 0x800), (0x800, 0xD800), (0x10000, 0x110000))

    def test_table_terms_equal_full_fnv1a(self):
        rng = random.Random(23)
        for width, (low, high) in enumerate(self.RANGES, start=1):
            for _ in range(3):
                char = chr(rng.randrange(low, high))
                k, table = _char_entry(char)
                assert k == width == len(char.encode("utf-8"))
                assert len(table) == 256
                # random heads until every low byte of the head state is seen
                unseen = set(range(256))
                while unseen:
                    head = "".join(chr(rng.randrange(*rng.choice(self.RANGES))) for _ in range(2))
                    entry = _head_entry(head)
                    state = _fnv1a(head.encode("utf-8"))
                    assert entry[0] == state & 0xFF
                    full = _fnv1a((head + char).encode("utf-8"))
                    assert table[entry[0]] == (full - state * 0x100000001B3 ** k) & _MASK64
                    assert (entry[k] + table[entry[0]]) & _MASK64 == full
                    unseen.discard(entry[0])


class TestPackageSurface:
    def test_the_package_attribute_is_the_module(self):
        import aranlp
        import aranlp.relatedness as r

        assert isinstance(r, types.ModuleType)
        assert aranlp.relatedness is r
        assert r.HashedTrigramProvider is HashedTrigramProvider
        assert r.relatedness is relatedness
        assert "relatedness" not in aranlp.__all__
