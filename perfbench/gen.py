"""Seeded input generators owned by the benchmark.

Nothing here imports the package under test, so a change to the
package (its own ``sources.docgen`` included) cannot change the inputs.

Names come from a seeded syllable vocabulary (thousands of first and
last names), entities are (first, last) pairs, and documents per entity
follow a Zipf-like law: a few hot entities give hot LSH buckets and
deletion blocks, while most entities are small, so clusters stay
entity-sized and pairwise F1 sees recall as well as precision.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

_ONSET = list("bcdfghjklmnprstvwz") + ["br", "ch", "dr", "gr", "kl", "sh", "st", "tr"]
_VOWEL = list("aeiou") + ["ai", "ea", "ou"]
_CODA = ["", "", "", "n", "r", "s", "l", "m", "th"]
_ALPHA = "abcdefghijklmnopqrstuvwxyz"
_FILLER = (
    "records ledger entry filed under archive note copy scan page item "
    "reference summary index volume letter memo report draft"
).split()


def _words(rng: np.random.Generator, n: int, syl_lo: int, syl_hi: int) -> list[str]:
    """``n`` distinct capitalised pseudo-names of syl_lo..syl_hi syllables."""
    out: set[str] = set()
    while len(out) < n:
        k = int(rng.integers(syl_lo, syl_hi + 1))
        w = "".join(
            _ONSET[rng.integers(len(_ONSET))] + _VOWEL[rng.integers(len(_VOWEL))]
            for _ in range(k)
        ) + _CODA[rng.integers(len(_CODA))]
        out.add(w.capitalize())
    return sorted(out)


def mutate(name: str, rng: np.random.Generator, edits: int) -> str:
    s = list(name)
    for _ in range(edits):
        op = int(rng.integers(3))
        pos = int(rng.integers(len(s)))
        if op == 0:
            s[pos] = _ALPHA[rng.integers(26)]
        elif op == 1:
            s.insert(pos, _ALPHA[rng.integers(26)])
        elif len(s) > 1:
            del s[pos]
    return "".join(s)


def entity_names(seed: int, n_entities: int) -> list[str]:
    """Distinct 'First Last' names drawn from a seeded vocabulary."""
    rng = np.random.default_rng([seed, 1])
    first = _words(rng, 3000, 2, 3)
    last = _words(rng, 6000, 2, 3)
    names: set[str] = set()
    while len(names) < n_entities:
        names.add(f"{first[rng.integers(len(first))]} {last[rng.integers(len(last))]}")
    return sorted(names)


def _zipf_entities(rng: np.random.Generator, n_docs: int, n_entities: int, s: float) -> np.ndarray:
    """Entity per doc. Rank r gets a fixed share 1/r^s of the docs, so
    every seed has the same count profile (and about the same amount of
    work); the seed picks which entity holds each rank and the doc order."""
    w = 1.0 / np.arange(1, n_entities + 1) ** s
    exact = n_docs * w / w.sum()
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact)[: n_docs - counts.sum()]] += 1  # largest remainders
    ranks = rng.permutation(np.repeat(np.arange(n_entities), counts))
    return rng.permutation(n_entities)[ranks]


def documents(seed: int, n_docs: int, *, docs_per_entity: float = 2.5,
              zipf_s: float = 0.9) -> pa.Table:
    """Spans-shaped corpus (doc_id, spans), ids in generation order.
    Any two slices draw from the same entities, so a later slice is a
    delta that shares entities with an earlier one.

    The key (first text span) is the entity name with 0-2 edits. About
    a fifth of the docs open with a media span, and 1 % have no text
    span at all (null key, a singleton cluster)."""
    n_entities = max(1, int(n_docs / docs_per_entity))
    names = entity_names(seed, n_entities)
    rng = np.random.default_rng([seed, 2])
    ents = _zipf_entities(rng, n_docs, n_entities, zipf_s)
    edits = rng.choice(3, size=n_docs, p=[0.45, 0.4, 0.15])
    lead_media = rng.random(n_docs) < 0.2
    no_text = rng.random(n_docs) < 0.01
    n_tail = rng.integers(0, 3, size=n_docs)
    spans_col = []
    for i in range(n_docs):
        spans = []
        if lead_media[i] or no_text[i]:
            spans.append({"kind": "media", "text": "", "media_ref": f"m://{seed:x}/{i:x}",
                          "offset": 0})
        if not no_text[i]:
            key = mutate(names[ents[i]], rng, int(edits[i]))
            spans.append({"kind": "text", "text": key, "media_ref": "", "offset": len(spans)})
            for _ in range(n_tail[i]):
                words = " ".join(_FILLER[j] for j in rng.integers(len(_FILLER), size=4))
                spans.append({"kind": "text", "text": words, "media_ref": "", "offset": len(spans)})
        spans_col.append(spans)
    ids = [f"d{i:010d}" for i in range(n_docs)]
    return pa.table(
        {"doc_id": pa.array(ids, pa.string()), "spans": pa.array(spans_col, pa.list_(SPAN_TYPE))}
    )


def first_text_keys(docs: pa.Table) -> tuple[list[str], list[str | None]]:
    """(doc_ids, key) by the spans contract: the first non-empty text
    span's text, else null. Plain Python, independent of the program."""
    keys = []
    for spans in docs.column("spans").to_pylist():
        keys.append(next((s["text"] for s in spans if s["kind"] == "text" and s["text"]), None))
    return docs.column("doc_id").to_pylist(), keys


def name_tables(seed: int, n_left: int, n_right: int) -> tuple[pa.Table, pa.Table]:
    """Two name tables for the string join: each row is an entity name
    with 0-1 edits (so lv <= 1 matches exist across sides), drawn with
    a skew so some values repeat, plus a payload column."""
    n_entities = max(1, (n_left + n_right) // 3)
    names = entity_names(seed, n_entities)
    rng = np.random.default_rng([seed, 4])

    def side(n: int, tag: str, id_base: int) -> pa.Table:
        ents = _zipf_entities(rng, n, n_entities, 0.7)
        edits = rng.choice(2, size=n, p=[0.6, 0.4])
        vals = [mutate(names[e], rng, int(k)) for e, k in zip(ents, edits)]
        return pa.table(
            {
                f"{tag}_id": pa.array(np.arange(id_base, id_base + n), pa.int64()),
                "name": pa.array(vals, pa.string()),
                f"{tag}_w": pa.array(rng.integers(0, 1000, size=n), pa.int64()),
            }
        )

    return side(n_left, "l", 0), side(n_right, "r", 10_000_000)
