"""Curation operators for training-data pipelines: deterministic
stratified sampling, PII scrubbing, repetition scoring, and benchmark
decontamination.

No reference analog — these extend the engine for LLM-data curation
(the survey's extension inventory). The first three are stateless
per-batch ``map_batches`` transforms: zero shuffles, scale-free, and
every formula is SQL-replicable so the driver oracle verifies them
exactly. ``decontaminate`` broadcasts the benchmark's n-gram set once
(``ray.put``, read by every batch's task) and stays a per-batch map
over the corpus side.

- ``stratified_sample`` shares the polynomial-hash bucket space with
  :mod:`fozziejoin_ray.pipelines.split` (same ``_bucket_of``), so a
  row's sampling fate is a pure function of its key + salt — stable
  across reruns, partitionings, cluster sizes and engines.
- ``pii_scrub`` applies an ordered list of RE2 patterns (Arrow's
  ``replace_substring_regex`` and DuckDB's ``regexp_replace`` are both
  RE2, so engine and oracle agree byte-for-byte).
- ``repetition_score`` computes Gopher-style repetition signals
  (duplicate-word / top-word / duplicate-bigram fractions) from one
  flat token stream per batch — numpy run-length math, no per-row
  Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange
from .split import _BUCKETS, _bucket_of, bucket_sql_expr

# (name, RE2 pattern, replacement) — applied IN ORDER; order matters
# (emails contain dots that would otherwise feed the IPv4 pattern, SSNs
# must be consumed before the looser phone shape sees the text).
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ssn", r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
    ("phone", r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b", "<PHONE>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
]

_TOKEN_SPLIT = r"[^0-9a-z_]+"  # ASCII word class shared with text.py/oracles


def stratified_sample(
    ds: rd.Dataset,
    key_col: str,
    group_col: str,
    fractions: dict,
    *,
    default: float = 0.0,
    salt: str = "",
) -> rd.Dataset:
    """Deterministic per-group sampling: keep a row iff
    ``bucket(key, salt) < round(fractions[group] * 10000)``.

    Groups absent from ``fractions`` use ``default``. The assignment is
    a pure function of (key, salt), so samples are reproducible and
    consistent across engines — downsample the over-represented strata
    of a 100 TB corpus without a shuffle or a global count.
    """
    for g, f in fractions.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fraction for group {g!r} must be in [0, 1], got {f}")
    if not 0.0 <= default <= 1.0:
        raise ValueError(f"default fraction must be in [0, 1], got {default}")
    thr = {g: int(round(f * _BUCKETS)) for g, f in fractions.items()}
    thr_default = int(round(default * _BUCKETS))

    def fn(t: pa.Table) -> pa.Table:
        import pandas as pd

        b = _bucket_of(t.column(key_col), salt)
        lim = (
            pd.Series(t.column(group_col).to_pylist())
            .map(thr)
            .fillna(thr_default)
            .to_numpy(dtype=np.int64)
        )
        return t.filter(pa.array(b < lim))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample_sql_where(
    key_expr: str, group_expr: str, fractions: dict, *, default: float = 0.0, salt: str = ""
) -> str:
    """DuckDB WHERE-clause predicate selecting the SAME rows as
    :func:`stratified_sample` — used by the driver oracle."""
    bucket = bucket_sql_expr(key_expr, salt=salt)
    case = f"CASE {group_expr} "
    for g, f in fractions.items():
        lit = f"'{g}'" if isinstance(g, str) else str(g)
        case += f"WHEN {lit} THEN {int(round(f * _BUCKETS))} "
    case += f"ELSE {int(round(default * _BUCKETS))} END"
    return f"{bucket} < ({case})"


def pii_scrub(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    out_col: str = "text_scrubbed",
    count_col: str = "n_pii",
    patterns: list[tuple[str, str, str]] | None = None,
) -> rd.Dataset:
    """Replace PII-shaped spans (emails, SSNs, phone numbers, IPv4
    addresses) with typed placeholders and count the replacements.

    Appends ``out_col`` (scrubbed text) and ``count_col`` (total spans
    replaced). Fully vectorized: one ``count_substring_regex`` + one
    ``replace_substring_regex`` per pattern per batch, RE2 throughout.
    Null text stays null with a count of 0.
    """
    pats = PII_PATTERNS if patterns is None else patterns

    def fn(t: pa.Table) -> pa.Table:
        cur = t.column(text_col)
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        total = pa.array(np.zeros(t.num_rows, dtype=np.int64))
        for _, pat, repl in pats:
            total = pc.add(total, pc.fill_null(pc.count_substring_regex(cur, pat), 0))
            cur = pc.replace_substring_regex(cur, pat, repl)
        return t.append_column(out_col, cur).append_column(count_col, pc.cast(total, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def pii_scrub_sql(text_expr: str, *, patterns: list[tuple[str, str, str]] | None = None) -> tuple[str, str]:
    """(scrubbed_expr, count_expr) — DuckDB expressions computing the
    SAME scrubbed text and replacement count as :func:`pii_scrub` over
    ``text_expr`` (patterns applied in the same order; counts taken on
    the progressively-scrubbed text, exactly like the engine)."""
    pats = PII_PATTERNS if patterns is None else patterns
    cur = text_expr
    counts = []
    for _, pat, repl in pats:
        counts.append(f"len(regexp_extract_all({cur}, '{pat}'))")
        cur = f"regexp_replace({cur}, '{pat}', '{repl}', 'g')"
    count = "COALESCE(" + " + ".join(counts) + ", 0)"
    return cur, count


def repetition_score(
    ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """Gopher-style repetition signals per document:

    - ``n_words``: token count (lowercase ASCII ``[0-9a-z_]+`` class,
      the same tokenizer as lang_id/tfidf and the SQL oracle);
    - ``dup_word_frac``: ``1 - distinct_words / n_words`` (0 if empty);
    - ``top_word_frac``: most-frequent-word share of all tokens;
    - ``dup_bigram_frac``: ``1 - distinct_bigrams / n_bigrams``.

    High values flag boilerplate / spam / degenerate generations. One
    flat token stream per batch (Arrow regex split), then factorize +
    composite-key run-length counts in numpy — no per-row Python.
    """
    import pandas as pd

    def _per_parent_distinct(comp: np.ndarray, width: int, n: int):
        """comp = parent * width + code, unsorted. Returns (distinct
        count per parent, max run length per parent) via one sort."""
        comp = np.sort(comp)
        new = np.r_[True, comp[1:] != comp[:-1]]
        idx = np.nonzero(new)[0]
        runlen = np.diff(np.r_[idx, len(comp)])
        run_parent = (comp[idx] // width).astype(np.int64)
        distinct = np.bincount(run_parent, minlength=n)
        top = np.zeros(n, dtype=np.int64)
        np.maximum.at(top, run_parent, runlen)
        return distinct, top

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        txt = pc.fill_null(t.column(text_col), "")
        toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), _TOKEN_SPLIT)
        if isinstance(toks_list, pa.ChunkedArray):
            toks_list = toks_list.combine_chunks()
        flat = toks_list.flatten()
        parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)[keep]
        parents = parents[keep].astype(np.int64)

        total = np.bincount(parents, minlength=n).astype(np.float64)
        dup_w = np.zeros(n)
        top_w = np.zeros(n)
        dup_b = np.zeros(n)
        if len(toks):
            codes, uniq = pd.factorize(toks)
            u = max(len(uniq), 1)
            distinct, top = _per_parent_distinct(parents * u + codes, u, n)
            nz = total > 0
            dup_w[nz] = 1.0 - distinct[nz] / total[nz]
            top_w[nz] = top[nz] / total[nz]
            # bigrams: adjacent token pairs within the same document
            same = parents[1:] == parents[:-1]
            if same.any():
                bp = parents[:-1][same]
                bcodes, buniq = pd.factorize(codes[:-1][same].astype(np.int64) * u + codes[1:][same])
                bu = max(len(buniq), 1)
                bdist, _ = _per_parent_distinct(bp * bu + bcodes, bu, n)
                btot = np.bincount(bp, minlength=n).astype(np.float64)
                bz = btot > 0
                dup_b[bz] = 1.0 - bdist[bz] / btot[bz]
        def _r6(v: np.ndarray) -> pa.Array:
            # round to 6 decimals with the same convention as the SQL
            # oracle (bm25.py:97 / colloc.py:145) so value hashes agree
            return pc.round(
                pa.array(v, pa.float64()), ndigits=6, round_mode="half_towards_infinity"
            )

        return pa.table(
            {
                id_col: idc,
                "n_words": pa.array(total.astype(np.int64)),
                "dup_word_frac": _r6(dup_w),
                "top_word_frac": _r6(top_w),
                "dup_bigram_frac": _r6(dup_b),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# benchmark decontamination


def _doc_grams(t: pa.Table, text_col: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent_row, gram) flat arrays: every word n-gram of every row,
    space-joined, over the shared lowercase ASCII tokenizer. Vectorized:
    one Arrow regex split, then ``np.char.add`` chains over the flat
    token stream — no per-row Python."""
    txt = pc.fill_null(t.column(text_col), "")
    toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), _TOKEN_SPLIT)
    if isinstance(toks_list, pa.ChunkedArray):
        toks_list = toks_list.combine_chunks()
    flat = toks_list.flatten()
    parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    toks = flat.to_numpy(zero_copy_only=False)[keep]
    parents = parents[keep].astype(np.int64)
    if len(toks) < n:
        return np.empty(0, np.int64), np.empty(0, dtype=object)
    # a window is a gram iff its first and last token share a row
    valid = parents[: len(parents) - n + 1] == parents[n - 1 :]
    U = toks.astype("U")
    g = U[: len(U) - n + 1]
    for i in range(1, n):
        g = np.char.add(np.char.add(g, " "), U[i : len(U) - n + 1 + i])
    return parents[: len(parents) - n + 1][valid], g[valid].astype(object)


def _distinct_parent_grams(parents: np.ndarray, grams: np.ndarray):
    """Distinct (parent, gram) pairs via factorize + composite unique."""
    import pandas as pd

    codes, uniq = pd.factorize(grams)
    u = max(len(uniq), 1)
    comp = np.unique(parents * u + codes)
    return (comp // u).astype(np.int64), np.asarray(uniq, dtype=object)[comp % u]


def _gram_hashes(grams: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash per gram string (pandas siphash with
    its fixed key — stable across processes and machines)."""
    import pandas as pd

    return pd.util.hash_array(np.asarray(grams, dtype=object), categorize=False)


def _decontaminate_batch(
    bench: np.ndarray, t: pa.Table, text_col: str, n: int, mode: str, hash_grams: bool
) -> pa.Table:
    """The per-batch task of :func:`decontaminate`: one gram extraction
    and one membership probe of ``bench``, the benchmark's distinct gram
    strings (a hashed-string index) or, with ``hash_grams``, its sorted
    gram hashes (a binary search)."""
    import pandas as pd

    parents, grams = _doc_grams(t, text_col, n)
    n_hits = np.zeros(t.num_rows, dtype=np.int64)
    if len(grams):
        dp, dg = _distinct_parent_grams(parents, grams)
        if hash_grams:
            h = _gram_hashes(dg)
            pos = np.searchsorted(bench, h)
            pos[pos == len(bench)] = 0
            hit = bench[pos] == h if len(bench) else np.zeros(len(h), bool)
        else:
            hit = pd.Index(bench).get_indexer(dg) >= 0
        if hit.any():
            n_hits += np.bincount(dp[hit], minlength=t.num_rows)
    if mode == "drop":
        return t.filter(pa.array(n_hits == 0))
    return t.append_column("n_hits", pa.array(n_hits)).append_column(
        "contaminated", pa.array(n_hits > 0)
    )


def decontaminate(
    docs: rd.Dataset,
    benchmark: rd.Dataset,
    *,
    text_col: str = "text",
    bench_text_col: str | None = None,
    n: int = 13,
    mode: str = "flag",
    hash_grams: bool = False,
) -> rd.Dataset:
    """Benchmark decontamination by word n-gram overlap (the GPT-3 /
    Pile recipe: a training document that shares any length-``n`` word
    gram with an evaluation benchmark is contaminated).

    ``mode="flag"`` appends ``n_hits`` (count of DISTINCT contaminated
    grams in the document) and ``contaminated``; ``mode="drop"`` filters
    contaminated documents out, keeping the input schema.

    Scale shape: the benchmark side is reduced to its DISTINCT gram set
    by a distributed ``map_batches`` pass (only gram strings reach the
    driver) and broadcast once with ``ray.put``; the corpus side streams
    through a plain per-batch ``map_batches`` that reads it, with no
    shuffle. ``hash_grams=True`` broadcasts sorted 64-bit gram hashes
    instead of the strings (~10x smaller for 13-grams; a false flag
    needs a siphash collision, probability ~G^2/2^64) — use it when the
    benchmark gram set strains the object store. A benchmark too large
    even for that would swap the probe for a hash-partitioned semi-join
    on the gram column; benchmarks are eval sets, so broadcast is the
    100 TB case.
    """
    if mode not in ("flag", "drop"):
        raise ValueError(f"mode must be 'flag' or 'drop', got {mode!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bcol = text_col if bench_text_col is None else bench_text_col

    def bench_grams(t: pa.Table) -> pa.Table:
        _, g = _doc_grams(t, bcol, n)
        return pa.table({"g": pa.array(np.unique(g), pa.string())})

    parts = [
        b["g"].to_numpy(zero_copy_only=False)
        for b in benchmark.select_columns([bcol]).map_batches(
            bench_grams, batch_format="pyarrow"
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    bench = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=object)
    if hash_grams:
        bench = np.unique(_gram_hashes(bench)) if len(bench) else np.empty(0, np.uint64)
    else:
        bench = bench.astype(object)

    import ray

    bref = ray.put(bench)

    def probe(t: pa.Table) -> pa.Table:
        return _decontaminate_batch(ray.get(bref), t, text_col, n, mode, hash_grams)

    return docs.map_batches(probe, batch_format="pyarrow")


def _annotate_batch(hits: pa.Table, t: pa.Table, id_col: str, mode: str) -> pa.Table:
    """The per-batch task of :func:`decontaminate_shuffle`'s broadcast
    join-back: each doc's ``n_hits`` from ``hits``, the contaminated
    (id, n_hits) rows."""
    import pandas as pd

    nh_all = hits["n_hits"].to_numpy(zero_copy_only=False)
    if len(nh_all) == 0:
        nh = np.zeros(t.num_rows, np.int64)
    else:
        idx = pd.Index(hits[id_col].to_numpy(zero_copy_only=False))
        loc = idx.get_indexer(t[id_col].to_numpy(zero_copy_only=False))
        nh = np.where(loc >= 0, nh_all[np.maximum(loc, 0)], 0).astype(np.int64)
    if mode == "drop":
        return t.filter(pa.array(nh == 0))
    return t.append_column("n_hits", pa.array(nh)).append_column(
        "contaminated", pa.array(nh > 0)
    )


def decontaminate_shuffle(
    docs: rd.Dataset,
    benchmark: rd.Dataset,
    *,
    text_col: str = "text",
    bench_text_col: str | None = None,
    n: int = 13,
    mode: str = "flag",
    id_col: str = "doc_id",
    num_partitions: int = 64,
    join_back: str = "broadcast",
) -> rd.Dataset:
    """Benchmark decontamination WITHOUT broadcasting the benchmark —
    the hash-partitioned semi-join tier :func:`decontaminate`'s
    docstring reserves for benchmark gram sets that strain the object
    store. Same semantics and output schema as
    ``decontaminate(hash_grams=True)``: ``n_hits`` counts a document's
    DISTINCT word ``n``-grams whose 64-bit siphash also occurs in the
    benchmark (a false flag needs a hash collision, ~G^2/2^64).

    Scale shape: both sides reduce per batch to distinct gram hashes
    ((id, hash) pairs on the corpus side), then ONE grace semi-join
    partitioned by gram hash matches each shard of the corpus against
    only its shard of the benchmark — no full benchmark copy exists on
    any node — and a combiner groupby counts hits per document.
    ``join_back="broadcast"`` re-attaches flags via one ``ray.put`` of
    the contaminated (id, n_hits) rows — bounded by the contaminated
    subset, the usual case; ``join_back="shuffle"`` uses the grace
    outer/anti join instead and never routes flags through the driver
    (for when contamination itself is web-scale)."""
    import ray

    from ..joins.hashjoin import hash_join
    from .stats import group_aggregate

    if mode not in ("flag", "drop"):
        raise ValueError(f"mode must be 'flag' or 'drop', got {mode!r}")
    if join_back not in ("broadcast", "shuffle"):
        raise ValueError(f"join_back must be 'broadcast' or 'shuffle', got {join_back!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bcol = text_col if bench_text_col is None else bench_text_col

    def doc_pairs(t: pa.Table) -> pa.Table:
        parents, grams = _doc_grams(t, text_col, n)
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        if len(grams):
            dp, dg = _distinct_parent_grams(parents, grams)
            gh = _gram_hashes(dg).view(np.int64)
            ids = idc.take(pa.array(dp))
        else:
            gh = np.empty(0, np.int64)
            ids = idc.slice(0, 0)
        return pa.table({id_col: ids, "__gh": pa.array(gh)})

    def bench_hashes(t: pa.Table) -> pa.Table:
        _, g = _doc_grams(t, bcol, n)
        gh = (
            np.unique(_gram_hashes(np.unique(g))).view(np.int64)
            if len(g)
            else np.empty(0, np.int64)
        )
        return pa.table({"__bh": pa.array(gh)})

    dsch = docs.schema()
    if dsch is None:
        raise ValueError("docs has no observable schema (empty dataset)")
    idt = dict(zip(dsch.names, dsch.types))[id_col]

    pairs = docs.select_columns([id_col, text_col]).map_batches(
        doc_pairs, batch_format="pyarrow"
    )
    bench = benchmark.select_columns([bcol]).map_batches(
        bench_hashes, batch_format="pyarrow"
    )
    # explicit schemas: a clean corpus / empty benchmark leaves a side
    # with only empty blocks, whose schema Ray cannot observe
    hit_pairs = hash_join(
        pairs, bench, "__gh", "__bh", how="left_semi", num_partitions=num_partitions,
        left_schema=pa.schema([(id_col, idt), ("__gh", pa.int64())]),
        right_schema=pa.schema([("__bh", pa.int64())]),
    )
    hits = group_aggregate(
        hit_pairs, [id_col], {"n_hits": ("count", "*")}, num_partitions=num_partitions
    )

    if join_back == "shuffle":
        # hits can be all-empty-blocks (clean corpus): give the join an
        # explicit right schema so it never depends on observing one
        hschema = pa.schema([(id_col, idt), ("n_hits", pa.int64())])
        if mode == "drop":
            return hash_join(
                docs, hits, id_col, id_col, how="left_anti",
                num_partitions=num_partitions, right_schema=hschema,
            )
        joined = hash_join(
            docs, hits, id_col, id_col, how="left_outer",
            num_partitions=num_partitions, right_schema=hschema,
        )

        def finish(t: pa.Table) -> pa.Table:
            nh = pc.fill_null(t["n_hits"], 0)
            i = t.column_names.index("n_hits")
            return t.set_column(i, "n_hits", nh).append_column(
                "contaminated", pc.greater(nh, 0)
            )

        return joined.map_batches(finish, batch_format="pyarrow")

    # broadcast join-back: only contaminated (id, n_hits) rows cross the
    # driver — document the bound, mirroring remove_dup_spans' pattern
    parts = list(hits.iter_batches(batch_size=None, batch_format="pyarrow"))
    ht = (
        pa.concat_tables(parts)
        if parts
        else pa.table({id_col: pa.array([], idt), "n_hits": pa.array([], pa.int64())})
    )
    href = ray.put(ht)

    def annotate(t: pa.Table) -> pa.Table:
        return _annotate_batch(ray.get(href), t, id_col, mode)

    return docs.map_batches(annotate, batch_format="pyarrow")


def dup_ngram_frac(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Cross-document duplicate n-gram fraction (the corpus-level
    near-duplication signal of Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better"): for each document, the fraction
    of its DISTINCT word ``n``-grams that also occur in at least one
    OTHER document. Output: ``(id_col, n_grams, n_dup_grams,
    dup_gram_frac)`` — one row per input document (zero-gram documents
    emit ``(0, 0, 0.0)``).

    Unlike :func:`decontaminate` (corpus vs a broadcastable benchmark),
    both sides here are the full corpus, so the gram set cannot be
    broadcast — the signal inherently needs a gram-keyed exchange.

    Scale shape (two bounded shuffles, no driver state):

    1. per batch: distinct ``(id, gram)`` pairs from one flat token
       stream (each row is a whole document, so per-batch distinct is
       global distinct); zero-gram documents emit one sentinel row
       (``gram=""`` — unreachable as a real gram since tokens are
       non-empty) so they survive to the output;
    2. gram-hash shuffle: within each gram partition every gram's full
       document set is co-located (a gram lives in exactly one
       partition), so ``ndocs >= 2`` is exact; the partition immediately
       re-aggregates to one ``(id, n_grams_part, n_dup_part)`` row per
       document it saw — the second shuffle moves at most
       ``num_partitions`` rows per document, not one row per gram;
    3. id-hash shuffle: sum the partials, ``dup_gram_frac =
       n_dup_grams / max(n_grams, 1)``.

    Skew: a stop-gram ("of the and") fans into one partition but only as
    distinct-per-doc rows — bounded by corpus doc count, and reduced to
    doc partials before the second exchange. Requires unique ``id_col``
    values (one row per document), like every per-document operator
    here.
    """
    import pandas as pd

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def pairs(t: pa.Table) -> pa.Table:
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        parents, grams = _doc_grams(t, text_col, n)
        if len(grams):
            dp, dg = _distinct_parent_grams(parents, grams)
        else:
            dp, dg = np.empty(0, np.int64), np.empty(0, dtype=object)
        # sentinel row per document with no grams at all
        seen = np.zeros(t.num_rows, dtype=bool)
        seen[dp] = True
        empty = np.nonzero(~seen)[0]
        rows = np.concatenate([dp, empty])
        gstr = np.concatenate([dg, np.full(len(empty), "", dtype=object)])
        return pa.table({id_col: idc.take(pa.array(rows)), "gram": pa.array(gstr, pa.string())})

    def per_gram_partition(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame({id_col: [], "n_grams_part": [], "n_dup_part": []})
        real = df["gram"].to_numpy() != ""
        codes, uniq = pd.factorize(df["gram"].to_numpy()[real])
        ndocs = np.bincount(codes, minlength=len(uniq))
        dup = np.zeros(len(df), dtype=np.int64)
        cnt = np.zeros(len(df), dtype=np.int64)
        dup[real] = (ndocs[codes] >= 2).astype(np.int64)
        cnt[real] = 1
        return (
            pd.DataFrame({id_col: df[id_col].to_numpy(), "n_grams_part": cnt, "n_dup_part": dup})
            .groupby(id_col, sort=False)
            .sum()
            .reset_index()
        )

    def per_doc(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame(
                {id_col: [], "n_grams": [], "n_dup_grams": [], "dup_gram_frac": []}
            )
        g = df.groupby(id_col, sort=False).sum().reset_index()
        ng = g["n_grams_part"].to_numpy(np.int64)
        nd = g["n_dup_part"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                id_col: g[id_col],
                "n_grams": ng,
                "n_dup_grams": nd,
                "dup_gram_frac": nd / np.maximum(ng, 1),
            }
        )

    doc_partials = exchange(
        ds.map_batches(pairs, batch_format="pyarrow"), "gram", num_partitions,
        per_gram_partition, batch_format="pandas",
    )
    return exchange(doc_partials, id_col, num_partitions, per_doc, batch_format="pandas")


def curate_corpus(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    gopher: dict | None = None,
    max_dup_word_frac: float = 0.3,
    ratios: dict[str, float] | None = None,
    salt: str = "",
    num_partitions: int = 64,
) -> rd.Dataset:
    """The composed curation pipeline a training-data run actually
    executes, as ONE streaming plan: Gopher rule filter -> repetition
    filter -> exact dedup among the survivors -> deterministic split.
    Output: one row per input document with ``(id_col, keep,
    drop_reason, split)`` — ``drop_reason`` in ``('quality',
    'repetition', 'duplicate', NULL)``, first failing stage wins;
    ``split`` is assigned only to kept documents.

    Stage order is the cheap-first production order: the two quality
    filters are shuffle-free per-batch maps that run BEFORE the dedup
    exchange, so only quality survivors participate in duplicate
    resolution (the standard recipe — and it shrinks the shuffle).
    The whole thing is one lazy Dataset plan: nothing materializes
    between stages, and the only all-to-all is the content-hash
    exchange exact dedup needs anyway.

    ``gopher``: kwargs forwarded to :func:`~.text.gopher_rules`
    (thresholds); ``ratios``: split fractions (default
    train/val/test = 0.9/0.05/0.05) assigned by the shared
    :func:`~.split.hash_split` bucket formula on ``id_col`` with
    ``salt``. Duplicate groups resolve to the smallest id. Null text
    fails the quality stage (no text, no pass).
    """
    import pandas as pd

    from .split import label_bounds
    from .text import gopher_rules

    if ratios is None:
        ratios = {"train": 0.9, "val": 0.05, "test": 0.05}
    labels, bounds = label_bounds(ratios)
    label_arr = np.array(labels, dtype=object)

    g = gopher_rules(ds, text_col, **(gopher or {}))

    def triage(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ok_g = pc.fill_null(t["gopher_pass"], False).to_numpy(zero_copy_only=False)
        # dup_word_frac = 1 - distinct/total (0 if no tokens), the
        # repetition_score formula inlined on the same token stream
        txt = pc.fill_null(t.column(text_col), "")
        toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), _TOKEN_SPLIT)
        if isinstance(toks_list, pa.ChunkedArray):
            toks_list = toks_list.combine_chunks()
        flat = toks_list.flatten()
        parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
        keep_tok = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)[keep_tok]
        parents = parents[keep_tok].astype(np.int64)
        dup_w = np.zeros(n)
        if len(toks):
            codes, uniq = pd.factorize(toks)
            u = max(len(uniq), 1)
            comp = np.sort(parents * u + codes)
            new = np.r_[True, comp[1:] != comp[:-1]]
            distinct = np.bincount((comp[np.nonzero(new)[0]] // u).astype(np.int64), minlength=n)
            total = np.bincount(parents, minlength=n).astype(np.float64)
            nz = total > 0
            dup_w[nz] = 1.0 - distinct[nz] / total[nz]
        reason = np.full(n, None, dtype=object)
        reason[~ok_g] = "quality"
        reason[ok_g & (dup_w > max_dup_word_frac)] = "repetition"
        return pa.table(
            {id_col: t[id_col], text_col: txt, "drop_reason": pa.array(reason, pa.string())}
        )

    def resolve(df: "pd.DataFrame") -> pa.Table:
        reason = df["drop_reason"].to_numpy(object)
        alive = pd.isna(df["drop_reason"]).to_numpy()
        if alive.any():
            cand = df.loc[alive, [text_col, id_col]]
            winner = cand.groupby(text_col, sort=False)[id_col].transform("min")
            dup = (cand[id_col] != winner).to_numpy()
            reason[np.nonzero(alive)[0][dup]] = "duplicate"
        keep = pd.isna(pd.Series(reason)).to_numpy()
        # split assigned inline on the shared hash_split bucket formula;
        # numpy object assembly (label where kept, None where dropped)
        # keeps every null-slot offset spec-clean — a pc.if_else(keep,
        # label, null) here produced string chunks whose null-slot
        # offsets trip Ray's arrow-block serializer ("buffer slice
        # would exceed buffer length")
        split = np.full(len(df), None, dtype=object)
        if keep.any():
            b = _bucket_of(pa.array(df[id_col].to_numpy()[keep]), salt)
            li = np.minimum(np.searchsorted(bounds, b, side="right"), len(labels) - 1)
            split[keep] = label_arr[li]
        # explicit Arrow types: an all-pass partition would otherwise
        # infer a null-typed drop_reason and clash with string partitions
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy(copy=True)),
                "keep": pa.array(keep),
                "drop_reason": pa.array(reason, pa.string()),
                "split": pa.array(split, pa.string()),
            }
        )

    return exchange(
        g.map_batches(triage, batch_format="pyarrow"), text_col, num_partitions, resolve,
        batch_format="pandas",
    )


def _ws_token_stream(t: pa.Table, text_col: str):
    """Whitespace tokenization preserving original case (the chunking
    convention, NOT the lowercase _TOKEN_SPLIT one — span removal must
    rebuild the document byte-for-byte from surviving tokens).
    Returns (parents, toks, ntok_per_row): flat non-empty tokens, their
    0-based row indices, and per-row token counts."""
    txt = pc.fill_null(t.column(text_col), "")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    toks_list = pc.split_pattern_regex(txt, r"\s+")
    flat = toks_list.flatten()
    parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    toks = flat.to_numpy(zero_copy_only=False)[keep]
    parents = parents[keep].astype(np.int64)
    ntok = np.bincount(parents, minlength=t.num_rows).astype(np.int64)
    return parents, toks, ntok


def _ws_grams(parents: np.ndarray, toks: np.ndarray, n: int):
    """(start_flat_idx, gram) for every n-token window that stays inside
    one row, over the flat whitespace-token stream."""
    if len(toks) < n:
        return np.empty(0, np.int64), np.empty(0, dtype=object)
    valid = parents[: len(parents) - n + 1] == parents[n - 1 :]
    U = toks.astype("U")
    g = U[: len(U) - n + 1]
    for i in range(1, n):
        g = np.char.add(np.char.add(g, " "), U[i : len(U) - n + 1 + i])
    return np.nonzero(valid)[0].astype(np.int64), g[valid].astype(object)


def _rebuild_from_coverage(
    t: pa.Table, idc, parents, toks, ntok, covered, id_col: str
) -> pa.Table:
    """Shared tail of both dup-span strategies: turn the +1/-1 coverage
    difference array into the kept-token rebuild."""
    keep = np.cumsum(covered[:-1]) == 0
    kept_per_doc = np.bincount(parents[keep], minlength=t.num_rows).astype(np.int64)
    values = pa.array(toks[keep], pa.string())
    offs = np.r_[0, np.cumsum(kept_per_doc)]
    la = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), values)
    texts = pc.binary_join(la, pa.scalar(" ", pa.string()))
    return pa.table(
        {
            id_col: idc,
            "text_dedup": texts,
            "n_kept": pa.array(kept_per_doc),
            "n_removed": pa.array(ntok - kept_per_doc),
        }
    )


def remove_dup_spans(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    min_count: int = 2,
    num_partitions: int = 32,
    strategy: str = "auto",
    max_broadcast_hashes: int = 32_000_000,
) -> rd.Dataset:
    """Lee et al. 2022-style duplicate-span REMOVAL: drop every token
    that lies inside any word ``n``-gram occurring at least
    ``min_count`` times across the whole corpus (cross-document AND
    within-document repeats both count — any repeated span is boilerplate).
    Output: ``(id_col, text_dedup, n_kept, n_removed)``, one row per
    input document; surviving tokens keep their original order and case,
    space-joined.

    Unlike :func:`dup_ngram_frac` (which only SCORES duplication), this
    rewrites the text, so it tokenizes case-preserving on whitespace —
    the same convention as pipelines/chunk.py — and rebuilds documents
    from the uncovered tokens.

    Scale shape: one materialize (two passes over the input) and ONE
    gram-keyed exchange of per-batch partial (gram, count) rows to get
    exact global occurrence counts, shared by every strategy. Then:

    - ``strategy="broadcast"``: the >= min_count gram set returns to
      the driver as 64-bit hashes and broadcasts via ``ray.put`` (the
      decontaminate pattern) into a shuffle-free rewrite pass. Bounded
      by the dup-set fitting the driver/object store.
    - ``strategy="shuffle"``: NOTHING data-sized touches the driver —
      gram occurrences ``(gh, id, doc-relative start)`` semi-join the
      (distributed) dup-hash set by gram hash (grace hash join, the
      decontaminate_shuffle tier), collapse to one span-start list per
      document, and join back onto the input for the rewrite. Costs
      two more exchanges (occurrences + the doc join-back) — the price
      of unbounded dup sets.
    - ``strategy="auto"`` (default): counts the dup-hash set (already
      materialized for both paths) and picks broadcast iff it is at
      most ``max_broadcast_hashes`` (8 bytes each; the default 32M =
      256 MB per node).

    Both strategies are value-identical by construction: they consume
    the same dup-hash set and mark the same spans (pytest forces both
    paths on the same corpus). Hash membership admits a false positive
    only on a 64-bit collision between a dup and a non-dup gram
    (~#grams^2 / 2^64; immaterial, and an error only ever REMOVES an
    extra span, never resurrects one) — identical in both strategies.
    """
    import pandas as pd
    import ray

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_count < 2:
        raise ValueError(f"min_count must be >= 2, got {min_count}")
    if strategy not in ("auto", "broadcast", "shuffle"):
        raise ValueError(
            f"strategy must be 'auto', 'broadcast' or 'shuffle', got {strategy!r}"
        )
    ds = ds.materialize()

    def partial_counts(t: pa.Table) -> pa.Table:
        parents, toks, _ = _ws_token_stream(t, text_col)
        _, grams = _ws_grams(parents, toks, n)
        codes, uniq = pd.factorize(grams)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        gram = pa.array(np.asarray(uniq, dtype=object), pa.string())
        return pa.table({"gram": gram, "c": pa.array(cnt)})

    def dup_hashes(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame({"gh": pd.Series([], dtype=np.int64)})
        tot = df.groupby("gram", sort=False)["c"].sum()
        dup = tot[tot >= min_count].index.to_numpy(dtype=object)
        return pd.DataFrame({"gh": _gram_hashes(dup).view(np.int64)})

    dup_h = exchange(
        ds.map_batches(partial_counts, batch_format="pyarrow"), "gram", num_partitions,
        dup_hashes, batch_format="pandas",
    )
    auto_selected = strategy == "auto"
    if auto_selected:
        strategy = "broadcast" if dup_h.count() <= max_broadcast_hashes else "shuffle"
    if strategy == "shuffle":
        try:
            return _remove_dup_spans_shuffle(
                ds, dup_h, text_col, id_col, n, num_partitions
            )
        except IdContractError:
            if not auto_selected:
                raise
            # auto mode: the id contract failed (null/duplicated ids) —
            # fall back to broadcast, which never touches ids, rather
            # than silently diverging. The driver-size bound applies.
            import warnings

            warnings.warn(
                f"remove_dup_spans: {id_col!r} violates the shuffle tier's "
                "unique-non-null id contract; falling back to broadcast "
                "despite the dup-set size",
                RuntimeWarning,
                stacklevel=2,
            )

    dup_set = np.sort(
        np.concatenate(
            [
                b["gh"].to_numpy(zero_copy_only=False).view(np.uint64)
                for b in dup_h.iter_batches(batch_size=None, batch_format="pyarrow")
            ]
            or [np.empty(0, np.uint64)]
        )
    )
    dup_ref = ray.put(dup_set)

    def rewrite(t: pa.Table) -> pa.Table:
        dset = ray.get(dup_ref)
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        parents, toks, ntok = _ws_token_stream(t, text_col)
        covered = np.zeros(len(toks) + 1, dtype=np.int64)
        starts, grams = _ws_grams(parents, toks, n)
        if len(grams) and len(dset):
            gh = _gram_hashes(grams)
            pos = np.searchsorted(dset, gh)
            pos[pos == len(dset)] = 0
            hit = dset[pos] == gh
            # difference-array coverage: +1 at span start, -1 past end;
            # spans never cross a document (enforced by _ws_grams)
            np.add.at(covered, starts[hit], 1)
            np.add.at(covered, starts[hit] + n, -1)
        return _rebuild_from_coverage(t, idc, parents, toks, ntok, covered, id_col)

    return ds.map_batches(rewrite, batch_format="pyarrow")


class IdContractError(ValueError):
    """``id_col`` is null or duplicated where the shuffle tier of
    :func:`remove_dup_spans` needs a unique non-null join-back key."""


def _validate_unique_ids(ds: rd.Dataset, id_col: str) -> None:
    """Raise IdContractError unless ``id_col`` is non-null and unique.

    Distributed check: per-batch (id, count) partials -> one id-keyed
    groupby (the bounded exchange the shuffle tier pays anyway) -> a
    per-block (sum, max) reduction, so the driver folds one row per
    BLOCK, never one per id."""
    from .stats import value_counts

    def chk(t: pa.Table) -> pa.Table:
        c = t.column("sum(count)")
        return pa.table(
            {
                "s": pa.array([pc.sum(c).as_py() or 0], pa.int64()),
                "m": pa.array([pc.max(c).as_py() or 0], pa.int64()),
            }
        )

    nonnull, maxc = 0, 0
    for b in (
        value_counts(ds, id_col)
        .map_batches(chk, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ):
        nonnull += int(pc.sum(b["s"]).as_py() or 0)
        maxc = max(maxc, int(pc.max(b["m"]).as_py() or 0))
    total = ds.count()
    if nonnull != total:
        raise IdContractError(
            f"remove_dup_spans shuffle tier requires non-null {id_col!r} "
            f"({total - nonnull} null ids found) — the join-back key "
            "would silently drop those documents' span lists"
        )
    if maxc > 1:
        raise IdContractError(
            f"remove_dup_spans shuffle tier requires unique {id_col!r} "
            f"(an id occurs {maxc} times) — duplicated ids would merge "
            "documents' span lists in the join-back"
        )


def _remove_dup_spans_shuffle(
    ds: rd.Dataset,
    dup_h: rd.Dataset,
    text_col: str,
    id_col: str,
    n: int,
    num_partitions: int,
) -> rd.Dataset:
    """Join-back tier of :func:`remove_dup_spans` for dup sets beyond
    broadcast: occurrences semi-join the distributed dup-hash set by
    gram hash, collapse to per-document span-start lists, and join back
    onto the input — the driver never holds anything data-sized.

    Contract: ``id_col`` must be non-null and unique (it is the
    join-back key; a null id would never re-match its own span list
    under NA-never-matches semantics, and a duplicated id would merge
    two documents' span lists). Validated up front by
    :func:`_validate_unique_ids` — ``remove_dup_spans(strategy="auto")``
    falls back to broadcast when the contract fails."""
    from ..joins.hashjoin import hash_join

    _validate_unique_ids(ds, id_col)

    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types))[id_col]
    if not isinstance(id_type, pa.DataType):
        raise TypeError(
            f"{id_col} must be an Arrow-typed column for the shuffle tier, "
            f"got {id_type!r} (pandas-backed blocks)"
        )

    def occ_rows(t: pa.Table) -> pa.Table:
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        parents, toks, ntok = _ws_token_stream(t, text_col)
        starts, grams = _ws_grams(parents, toks, n)
        if not len(starts):
            return pa.table(
                {
                    "gh": pa.array([], pa.int64()),
                    id_col: pa.array([], id_type),
                    "__rds_start": pa.array([], pa.int64()),
                }
            )
        # doc-RELATIVE start positions: stable across batch layouts, so
        # the rewrite pass can reconstruct flat positions from its own
        # tokenization of the same materialized input
        doc_first = np.r_[np.int64(0), np.cumsum(ntok)][:-1]
        sp = parents[starts]
        return pa.table(
            {
                "gh": pa.array(_gram_hashes(grams).view(np.int64)),
                id_col: idc.take(pa.array(sp)),
                "__rds_start": pa.array(starts - doc_first[sp]),
            }
        )

    occ_schema = pa.schema(
        [("gh", pa.int64()), (id_col, id_type), ("__rds_start", pa.int64())]
    )
    dup_occ = hash_join(
        ds.map_batches(occ_rows, batch_format="pyarrow"),
        dup_h,
        "gh",
        "gh",
        how="left_semi",
        num_partitions=num_partitions,
        left_schema=occ_schema,
        right_schema=pa.schema([("gh", pa.int64())]),
    )

    def collect(t: pa.Table) -> pa.Table:
        import pandas as pd

        srt = t.sort_by([(id_col, "ascending"), ("__rds_start", "ascending")])
        ids = srt.column(id_col).to_numpy(zero_copy_only=False)
        codes = pd.factorize(ids)[0]  # runs are contiguous after the sort
        new = np.r_[True, codes[1:] != codes[:-1]]
        starts_idx = np.flatnonzero(new)
        offs = np.r_[starts_idx, np.int64(len(codes))]
        la = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), srt.column("__rds_start").combine_chunks()
        )
        return pa.table(
            {id_col: srt.column(id_col).take(pa.array(starts_idx)), "__rds_starts": la}
        )

    spans = exchange(dup_occ, id_col, num_partitions, collect, batch_format="pyarrow")

    joined = hash_join(
        ds,
        spans,
        id_col,
        id_col,
        how="left_outer",
        num_partitions=num_partitions,
        left_schema=pa.schema(list(zip(sch.names, sch.types))),
        right_schema=pa.schema(
            [(id_col, id_type), ("__rds_starts", pa.list_(pa.int64()))]
        ),
    )

    def rewrite_joined(t: pa.Table) -> pa.Table:
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        parents, toks, ntok = _ws_token_stream(t, text_col)
        covered = np.zeros(len(toks) + 1, dtype=np.int64)
        sl = t["__rds_starts"].combine_chunks()
        flat = sl.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat):
            span_parent = pc.list_parent_indices(sl).to_numpy(zero_copy_only=False)
            doc_first = np.r_[np.int64(0), np.cumsum(ntok)][:-1]
            gstart = flat + doc_first[span_parent]
            np.add.at(covered, gstart, 1)
            np.add.at(covered, gstart + n, -1)
        out = _rebuild_from_coverage(t, idc, parents, toks, ntok, covered, id_col)
        return out

    return joined.map_batches(rewrite_joined, batch_format="pyarrow")
