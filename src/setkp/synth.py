"""Deterministic synthetic patent-style corpus.

Each document draws a topic; 2-3 topic phrases are planted verbatim as
present keyphrases (one per level, each exactly once), and 1-2
topic-specific abstract phrases become absent keyphrases. Absent phrases
are built from reserved words that never enter document text, but they map
one-to-one to the topic whose phrase words fill the text, so a model can
learn to produce them. The label is the topic key, i.e. a deterministic
function of the planted absent keyphrases.

Sentences are filler soup around the plants: content words never appear
outside a planted phrase, so the keyword spans of a segment are exactly its
content-word runs and no unplanted phrase ever occurs anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import MultiLevelDocument, build_segments, contains_run, tokenize


@dataclass(frozen=True)
class Topic:
    key: str
    phrases: tuple[tuple[str, ...], ...]
    absent: tuple[tuple[str, ...], ...]


def _topic(key, pairs, absent):
    phrases = tuple(tuple(p.split()) for p in pairs)
    return Topic(key, phrases, tuple(tuple(a.split()) for a in absent))


TOPICS = (
    _topic(
        "polymer",
        ("polymer coating", "epoxy resin", "adhesive laminate", "curing monomer", "polymer adhesive"),
        ("thermoset chemistry", "crosslink synthesis"),
    ),
    _topic(
        "battery",
        ("lithium battery", "battery cell", "electrolyte separator", "cathode charge", "lithium anode"),
        ("energy storage", "electrochemical density"),
    ),
    _topic(
        "antenna",
        ("antenna array", "radio signal", "waveguide beam", "frequency transceiver", "signal beam"),
        ("wireless propagation", "spectrum modulation"),
    ),
    _topic(
        "turbine",
        ("turbine blade", "rotor shaft", "cooling nozzle", "compressor stator", "turbine rotor"),
        ("aerodynamic efficiency", "thermal margin"),
    ),
    _topic(
        "imaging",
        ("imaging sensor", "pixel detector", "optical lens", "aperture focus", "sensor lens"),
        ("photonic resolution", "light capture"),
    ),
    _topic(
        "catalyst",
        ("zeolite catalyst", "hydrogen reactor", "oxide substrate", "conversion reagent", "catalyst substrate"),
        ("catalytic kinetics", "reaction selectivity"),
    ),
    _topic(
        "implant",
        ("bone implant", "tissue scaffold", "fixation suture", "graft prosthesis", "implant scaffold"),
        ("biocompatible integration", "surgical anchoring"),
    ),
    _topic(
        "encryption",
        ("cipher protocol", "authentication token", "hash signature", "encryption nonce", "token signature"),
        ("cryptographic hardening", "secure handshake"),
    ),
)

FILLER = (
    "the a of for with and in to is an by on or wherein said claim method "
    "system device apparatus comprising configured having first second "
    "plurality portion member surface layer unit assembly element module "
    "using based provided disposed coupled formed includes further body "
    "means arranged within through between against each least one"
).split()


def _words(rng: random.Random, pool, n: int) -> list[str]:
    return [rng.choice(pool) for _ in range(n)]


def _sentence(rng, plants, budget) -> list[str]:
    """Filler soup with each planted phrase kept contiguous.

    Content words appear only inside plants, so the extraction target is
    exactly the set of content-word runs and nothing else in the sentence
    ever looks like a keyword.
    """
    toks: list[str] = []
    toks += _words(rng, FILLER, rng.randint(2, 4))
    for p in plants:
        toks += list(p)
        toks += _words(rng, FILLER, rng.randint(1, 2))
    while len(toks) < budget:
        toks.append(rng.choice(FILLER))
    return toks


def _gen_doc(rng: random.Random, idx: int) -> MultiLevelDocument:
    topic = TOPICS[idx % len(TOPICS)]
    n_claims = rng.randint(1, 2)
    # one phrase per level, planted exactly once: phrase i is contained only
    # in segment i+1, so every segment carries a single present keyphrase and
    # its absent pool (other segments' phrases + true absents) never exceeds
    # the default group size of 4
    n_present = n_claims + 1
    phrases = rng.sample(list(topic.phrases), n_present)
    absents = rng.sample(list(topic.absent), rng.randint(1, 2))

    # the title is pure filler — the level-1 plant lives in the abstract only
    title = " ".join(
        [rng.choice(["method", "system", "apparatus"])] + _words(rng, FILLER, rng.randint(2, 3))
    )
    abstract = " ".join(_sentence(rng, [phrases[0]], rng.randint(14, 18))) + "."

    claim_sents = []
    for c in range(1, n_claims + 1):
        # body 17-24 tokens: one claim sentence (with its 2-token prefix) fits
        # a segment, two never do, so each claim lands on its own level
        body = _sentence(rng, [phrases[c]], rng.randint(17, 24))
        claim_sents.append(" ".join(["claim", str(c)] + body) + rng.choice([".", ";"]))
    claims = " ".join(claim_sents)

    doc = MultiLevelDocument(
        doc_id=f"doc-{idx:04d}",
        title=title,
        abstract=abstract,
        claims=claims,
        present_keyphrases=[" ".join(p) for p in phrases],
        absent_keyphrases=[" ".join(a) for a in absents],
        label=topic.key,
    )
    build_segments(doc)

    all_toks = doc.all_tokens()
    for i, p in enumerate(phrases):
        for seg in doc.segments:
            at_home = seg.level == i + 1
            assert contains_run(seg.tokens, list(p)) == at_home, (
                f"phrase {p} misplaced in {doc.doc_id} level {seg.level}"
            )
    for a in absents:
        assert not contains_run(all_toks, list(a)), f"absent {a} leaked into {doc.doc_id}"
    assert len(doc.segments) == n_claims + 1
    return doc


def synth_corpus(seed: int, n_docs: int) -> list[MultiLevelDocument]:
    """Deterministic corpus; same (seed, n_docs) -> same documents."""
    rng = random.Random(seed)
    return [_gen_doc(rng, i) for i in range(n_docs)]


def distinct_word_count(docs: list[MultiLevelDocument]) -> int:
    words: set[str] = set()
    for d in docs:
        words.update(d.all_tokens())
        for kp in d.present_keyphrases + d.absent_keyphrases:
            words.update(tokenize(kp))
    return len(words)
