import dataclasses
import inspect
import random

import pytest

from aranlp._record import record
from aranlp.morphology import TASKS, MorphSolution, TaggedToken
from aranlp.ner import EntitySpan
from aranlp.wsd import KINDS, AnnotatedSpan, Gloss, VerificationPair

from _oracles import plain_dataclass_twin, random_token


def _values(obj) -> tuple:
    """An instance's field values, one level deep."""
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _span_ends(rng):
    return rng.randint(-2, 6), rng.randint(-2, 8)


def _solution(rng):
    return MorphSolution(random_token(rng, 4), rng.choice(["noun", "verb"]),
                         random_token(rng, 3), rng.choice([0, 7, 70_000, -1]))


def _probabilities(rng):
    positive = rng.choice([rng.random(), 0.0, 1.0, -rng.random(), 1.0 + rng.random()])
    negative = 1.0 - positive if rng.random() < 0.7 else rng.random()
    return positive, negative


# class -> a draw of its field values, valid or not
DRAWS = {
    MorphSolution: lambda rng: _values(_solution(rng)),
    TaggedToken: lambda rng: (
        random_token(rng),
        _solution(rng) if rng.random() < 0.7 else None,
        rng.choice(["exact", "stripped", "oov"]),
        rng.choice(TASKS),
    ),
    VerificationPair: lambda rng: (
        " ".join(random_token(rng) for _ in range(3)),
        Gloss(random_token(rng, 2), random_token(rng)),
        *_probabilities(rng),
    ),
    AnnotatedSpan: lambda rng: (
        *_span_ends(rng), rng.choice([*KINDS, "bogus"]), random_token(rng, 3),
    ),
    EntitySpan: lambda rng: (*_span_ends(rng), rng.choice(["PERS", "ORG", "LOC"])),
}


def _outcome(make, *args, **kwargs):
    """(instance, None) or (None, (exception type, message))."""
    try:
        return make(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _agree(cls, twin, *args, **kwargs):
    """Build both; they must fail alike or agree on fields, repr and hash."""
    made, error = _outcome(cls, *args, **kwargs)
    twin_made, twin_error = _outcome(twin, *args, **kwargs)
    assert error == twin_error
    if made is None:
        return None
    assert _values(made) == _values(twin_made)
    assert repr(made) == repr(twin_made)
    assert hash(made) == hash(twin_made)
    return made, twin_made


@pytest.mark.parametrize("cls", list(DRAWS), ids=lambda cls: cls.__name__)
class TestAgainstPlainDataclass:
    def test_declaration(self, cls):
        twin = plain_dataclass_twin(cls)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__match_args__ == twin.__match_args__
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == [
            (f.name, f.default) for f in dataclasses.fields(twin)
        ]

    def test_random_values(self, cls):
        rng = random.Random(2111)
        twin = plain_dataclass_twin(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        defaulted = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
        built, seen = [], {"built": 0, "raised": 0}
        for _ in range(400):
            values = DRAWS[cls](rng)
            pair = _agree(cls, twin, *values)
            seen["built" if pair else "raised"] += 1
            assert _agree(cls, twin, **dict(zip(names, values))) == pair
            for f in defaulted:  # a defaulted field left out
                kwargs = {n: v for n, v in zip(names, values) if n != f.name}
                _agree(cls, twin, **kwargs)
            _agree(cls, twin, *values, "one too many")
            _agree(cls, twin, *values[:-1 - len(defaulted)])
            _agree(cls, twin, **dict(zip(names, values)), unknown=1)
            if pair:
                built.append(pair)
        assert seen["built"] > 50
        if cls in (VerificationPair, AnnotatedSpan, EntitySpan):
            assert seen["raised"] > 50
        # equal values compare and hash equal; the pairs agree on ==
        rng.shuffle(built)
        for (a, twin_a), (b, twin_b) in zip(built, built[1:] + built[:1]):
            assert (a == b) is (twin_a == twin_b)
            copy = cls(*_values(a))
            assert copy == a and hash(copy) == hash(a) and copy is not a
            assert a != twin_a

    def test_frozen_and_slotted(self, cls):
        rng = random.Random(2112)
        twin = plain_dataclass_twin(cls)
        made = None
        while made is None:
            made, _ = _outcome(cls, *DRAWS[cls](rng))
        twin_made = twin(*_values(made))
        assert not hasattr(made, "__dict__") and hasattr(twin_made, "__dict__")
        with pytest.raises(TypeError):
            vars(made)
        for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
            for change, args in [(setattr, (name, None)), (delattr, (name,))]:
                _, error = _outcome(change, made, *args)
                assert error[0] is dataclasses.FrozenInstanceError
                assert error == _outcome(change, twin_made, *args)[1]
        assert _values(made) == _values(twin_made)
        assert dataclasses.replace(made) == made


class TestRecord:
    def test_defaults_and_post_init(self):
        calls = []

        @record
        class Pair:
            left: int
            right: str = "r"

            def __post_init__(self):
                calls.append((self.left, self.right))

        assert Pair(1) == Pair(1, "r") == Pair(left=1, right="r")
        assert calls == [(1, "r")] * 3
        assert repr(Pair(2, "x")).endswith(".Pair(left=2, right='x')")
        assert Pair.__init__.__qualname__.endswith("Pair.__init__")

    def test_no_fields(self):
        @record
        class Empty:
            pass

        assert Empty() == Empty() and not hasattr(Empty(), "__dict__")

    @pytest.mark.parametrize("spec", [
        dataclasses.field(default_factory=list),
        dataclasses.field(default=0, init=False),
        dataclasses.field(default=0, kw_only=True),
    ], ids=["default_factory", "init_false", "kw_only"])
    def test_rejects_fields_it_cannot_set_positionally(self, spec):
        with pytest.raises(TypeError, match="record fields"):
            @record
            class Bad:
                value: object = spec

    def test_rejects_kw_only_marker(self):
        with pytest.raises(TypeError, match="record fields"):
            @record
            class Bad:
                first: int
                _: dataclasses.KW_ONLY
                second: int = 0
