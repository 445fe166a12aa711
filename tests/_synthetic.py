"""Deterministic synthetic corpus with planted entities, multi-word
expressions, and single-word senses, plus the matching fixture resources.

Token pools are disjoint and every multi-token name/expression uses its
own tokens, so the planted annotation is the unique one the pipeline can
produce; that makes the generated gold a trustworthy target for
end-to-end checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from aranlp.morphology import MorphDictionary, load_dictionary
from aranlp.wsd import (
    KIND_ENTITY,
    KIND_MULTIWORD,
    KIND_SINGLEWORD,
    AnnotatedSentence,
    AnnotatedSpan,
    Gloss,
    SenseInventory,
)

ENTITY_TYPES = ("PERS", "ORG", "LOC", "GPE")


@dataclass
class SyntheticCorpus:
    sentences: list[str]
    gold: list[AnnotatedSentence]
    dictionary: MorphDictionary
    inventory: SenseInventory
    gazetteer: dict[str, str]
    gold_gloss_ids: set[str]

    @property
    def token_count(self) -> int:
        return sum(len(s.tokens) for s in self.gold)


def build_corpus(seed: int = 2024, sentence_count: int = 25) -> SyntheticCorpus:
    rng = random.Random(seed)

    entities = []
    for i in range(8):
        width = rng.randint(1, 3)
        tokens = tuple(f"ent{i}p{k}" for k in range(width))
        entities.append((tokens, ENTITY_TYPES[i % len(ENTITY_TYPES)]))
    gazetteer = {" ".join(tokens): type_name for tokens, type_name in entities}

    expressions = []
    multiword: dict[str, tuple[Gloss, ...]] = {}
    dict_rows = []
    for i in range(8):
        width = rng.randint(2, 3)
        surfaces = tuple(f"mw{i}x{k}" for k in range(width))
        lemmas = tuple(f"MW{i}X{k}" for k in range(width))
        for surface, lemma in zip(surfaces, lemmas):
            dict_rows.append(f"{surface}\t{lemma}\tnoun\tr{surface}\t{rng.randint(1, 999)}")
        key = " ".join(lemmas)
        gold_id = f"gm{i}b"
        multiword[key] = (Gloss(f"gm{i}a", f"decoy gloss {i}"), Gloss(gold_id, f"gold gloss {i}"))
        expressions.append((surfaces, key, gold_id))

    words = []
    singleword: dict[str, tuple[Gloss, ...]] = {}
    for i in range(12):
        surface, lemma = f"sw{i}", f"SW{i}"
        dict_rows.append(f"{surface}\t{lemma}\tverb\tr{surface}\t{rng.randint(1, 999)}")
        gold_id = f"gs{i}b"
        glosses = [Gloss(f"gs{i}a", f"first sense {i}"), Gloss(gold_id, f"second sense {i}")]
        if rng.random() < 0.5:
            glosses.append(Gloss(f"gs{i}c", f"third sense {i}"))
        singleword[lemma] = tuple(glosses)
        words.append((surface, gold_id))

    fillers = [f"fill{i}" for i in range(10)]
    # half the fillers are in-dictionary with lemmas outside the inventory
    for surface in fillers[:5]:
        dict_rows.append(f"{surface}\tL{surface}\tpart\tr{surface}\t{rng.randint(1, 999)}")

    dictionary = load_dictionary(dict_rows)

    sentences: list[str] = []
    gold: list[AnnotatedSentence] = []
    for _ in range(sentence_count):
        tokens: list[str] = []
        spans: list[AnnotatedSpan] = []
        for _ in range(rng.randint(3, 6)):
            segment = rng.choice(("entity", "multiword", "singleword", "filler", "filler"))
            if segment == "entity":
                name_tokens, type_name = rng.choice(entities)
                spans.append(AnnotatedSpan(
                    len(tokens), len(tokens) + len(name_tokens), KIND_ENTITY, type_name
                ))
                tokens.extend(name_tokens)
            elif segment == "multiword":
                surfaces, _, gold_id = rng.choice(expressions)
                spans.append(AnnotatedSpan(
                    len(tokens), len(tokens) + len(surfaces), KIND_MULTIWORD, gold_id
                ))
                tokens.extend(surfaces)
            elif segment == "singleword":
                surface, gold_id = rng.choice(words)
                spans.append(AnnotatedSpan(
                    len(tokens), len(tokens) + 1, KIND_SINGLEWORD, gold_id
                ))
                tokens.append(surface)
            else:
                tokens.append(rng.choice(fillers))
        spans.sort(key=lambda s: (s.start, s.end, s.kind))
        sentences.append(" ".join(tokens))
        gold.append(AnnotatedSentence(tuple(tokens), tuple(spans)))

    gold_ids = {e[2] for e in expressions} | {w[1] for w in words}
    return SyntheticCorpus(
        sentences,
        gold,
        dictionary,
        SenseInventory(multiword, singleword),
        gazetteer,
        gold_ids,
    )
