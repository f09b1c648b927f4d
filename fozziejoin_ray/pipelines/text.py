"""Text-analysis operators for training-data pipelines: language ID,
quality scoring, token counting, document fingerprinting.

All are stateless per-batch ``map_batches`` tasks."""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..exchange import exchange

# small built-in stopword profiles (public common-word lists)
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that", "for", "on", "with", "as"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "es", "por", "con", "para", "los", "las"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "est", "dans", "pour", "que", "sur"},
    "de": {"der", "die", "das", "und", "ist", "in", "den", "von", "zu", "mit", "sich", "des", "auf"},
}

_WORD_RE = r"\w+"
# BPE-ish pre-tokenizer: word pieces, numbers, punctuation runs
_BPE_RE = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"


def _lang_id_batch(t: pa.Table, text_col: str) -> pa.Table:
    """The per-batch task of :func:`lang_id`: stopword-overlap language
    ID. Emits (lang_pred, lang_score): per-doc best stopword-hit ratio,
    ``STOPWORDS`` order breaking ties (strict-greater updates), zero hits
    -> "und".

    Vectorized: one Arrow regex split tokenizes the whole batch into a
    flat lowercase token stream with parent indices; per-language hit
    counts are one ``np.isin`` + ``np.bincount`` over that stream (no
    per-row Python). Tokenization is RE2 ``\\w`` (ASCII word chars, the
    same class the DuckDB oracle's ``regexp_extract_all('\\w+')`` uses).

    Unicode caveat (deliberate): the ASCII ``[0-9a-z_]`` word class
    treats accented characters as separators, so non-ASCII words split
    into ASCII fragments ("café" -> "caf"), inflating token counts and
    shifting lang_score for non-ASCII documents relative to a Unicode
    ``\\w+`` tokenizer. This matches the SQL oracle exactly and is the
    documented engine behavior; all STOPWORDS are ASCII so lang_pred on
    the supported languages is unaffected."""
    import pandas as pd

    n = t.num_rows
    txt = pc.fill_null(t.column(text_col), "")
    toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), r"[^0-9a-z_]+")
    if isinstance(toks_list, pa.ChunkedArray):
        toks_list = toks_list.combine_chunks()
    flat = toks_list.flatten()
    parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    toks = flat.to_numpy(zero_copy_only=False)[keep]
    parents = parents[keep]

    tok_s = pd.Series(toks)
    n_toks = np.bincount(parents, minlength=n).astype(np.float64)
    denom = np.maximum(n_toks, 1.0)
    best = np.zeros(n, dtype=np.float64)
    best_lang = np.full(n, "und", dtype=object)
    for lang, sw in STOPWORDS.items():
        hits = np.bincount(parents[tok_s.isin(sw).to_numpy()], minlength=n) / denom
        upd = hits > best
        best[upd] = hits[upd]
        best_lang[upd] = lang
    return t.append_column("lang_pred", pa.array(best_lang, pa.string())).append_column(
        "lang_score", pa.array(best, pa.float64())
    )


def lang_id(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(lambda t: _lang_id_batch(t, text_col), batch_format="pyarrow")


def token_count(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Append whitespace token count and BPE-ish piece count — both
    fully vectorized with Arrow kernels."""

    def fn(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        ws = pc.list_value_length(pc.split_pattern_regex(txt, r"\s+"))
        # empty string splits to [''] -> count 1; fix to 0
        empty = pc.equal(pc.utf8_length(pc.utf8_trim_whitespace(txt)), 0)
        ws = pc.if_else(empty, pa.scalar(0, pa.int32()), ws)
        bpe = pc.count_substring_regex(txt, _BPE_RE)
        return t.append_column("n_tokens_ws", ws.cast(pa.int64())).append_column(
            "n_tokens_bpe", bpe.cast(pa.int64())
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_score(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Length / punctuation / digit / stopword heuristics + a composite
    quality score in [0,1]; vectorized Arrow kernels throughout."""

    def fn(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        n_chars = pc.utf8_length(txt).cast(pa.float64())
        n_alpha = pc.count_substring_regex(txt, r"[A-Za-z]").cast(pa.float64())
        n_digit = pc.count_substring_regex(txt, r"[0-9]").cast(pa.float64())
        n_punct = pc.count_substring_regex(txt, r"[^\w\s]").cast(pa.float64())
        n_words = pc.count_substring_regex(txt, _WORD_RE).cast(pa.float64())
        denom = pc.max_element_wise(n_chars, pa.scalar(1.0))
        alpha_ratio = pc.divide(n_alpha, denom)
        digit_ratio = pc.divide(n_digit, denom)
        punct_ratio = pc.divide(n_punct, denom)
        mean_word_len = pc.divide(n_alpha, pc.max_element_wise(n_words, pa.scalar(1.0)))
        # composite: alphabetic-heavy, some words, not digit/punct spam
        score = pc.multiply(
            alpha_ratio,
            pc.subtract(
                pa.scalar(1.0), pc.min_element_wise(pc.add(digit_ratio, punct_ratio), pa.scalar(1.0))
            ),
        )
        out = t
        for name, arr in [
            ("n_chars", n_chars),
            ("n_words", n_words),
            ("alpha_ratio", alpha_ratio),
            ("digit_ratio", digit_ratio),
            ("punct_ratio", punct_ratio),
            ("mean_word_len", mean_word_len),
            ("quality", score),
        ]:
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


# Gopher (Rae et al. 2021, MassiveText) required-stopword list — a doc
# must contain >= 2 of these to pass the rule filter.
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_symbol_word_ratio: float = 0.1,
    max_bullet_line_frac: float = 0.9,
    max_ellipsis_line_frac: float = 0.3,
    min_alpha_word_frac: float = 0.8,
    min_stop_kinds: int = 2,
) -> rd.Dataset:
    """Gopher-style document quality RULES (the MassiveText filter set,
    Rae et al. 2021 §A1.1) — the signals :func:`repetition_score` does
    not cover, plus the composite pass flag:

    - ``n_words``: whitespace-token count (``\\S+``);
    - ``mean_word_len``: non-whitespace chars / words (bounds 3..10);
    - ``symbol_word_ratio``: (``#`` + ``...`` occurrences) / words;
    - ``bullet_line_frac`` / ``ellipsis_line_frac``: fraction of lines
      starting with a bullet (``- * •``) / ending with ``...``;
    - ``alpha_word_frac``: fraction of words containing an ASCII letter;
    - ``n_stop_kinds``: how many DISTINCT :data:`GOPHER_STOPWORDS`
      appear (``\\b``-delimited);
    - ``gopher_pass``: all thresholds hold (word-count and mean-length
      windows inclusive, ratio caps strict ``<``, floors strict ``>``
      except ``n_stop_kinds >= min_stop_kinds``).

    Fully vectorized: a fixed set of RE2 ``count_substring_regex``
    kernels per batch, no Python per row. Every signal is replicated
    verbatim by the driver's DuckDB oracle (same RE2 syntax). Zero
    shuffles — a pure per-batch map. Null text yields null signals and
    a null pass flag (no text, no verdict)."""

    def fn(t: pa.Table) -> pa.Table:
        txt = t.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        f64 = pa.float64()
        n_words = pc.count_substring_regex(txt, r"\S+").cast(pa.int64())
        wdenom = pc.max_element_wise(n_words.cast(f64), pa.scalar(1.0))
        n_wchars = pc.subtract(
            pc.utf8_length(txt).cast(pa.int64()),
            pc.count_substring_regex(txt, r"\s").cast(pa.int64()),
        )
        mean_word_len = pc.divide(n_wchars.cast(f64), wdenom)
        n_symbols = pc.add(
            pc.count_substring(txt, "#").cast(pa.int64()),
            pc.count_substring(txt, "...").cast(pa.int64()),
        )
        symbol_word_ratio = pc.divide(n_symbols.cast(f64), wdenom)
        n_lines = pc.add(pc.count_substring(txt, "\n").cast(pa.int64()), pa.scalar(1, pa.int64()))
        ldenom = n_lines.cast(f64)
        bullet_line_frac = pc.divide(
            pc.count_substring_regex(txt, r"(?m)^[ \t]*[-*•]").cast(f64), ldenom
        )
        ellipsis_line_frac = pc.divide(
            pc.count_substring_regex(txt, r"(?m)\.\.\.$").cast(f64), ldenom
        )
        n_alpha_words = pc.count_substring_regex(txt, r"\S*[A-Za-z]\S*").cast(pa.int64())
        alpha_word_frac = pc.divide(n_alpha_words.cast(f64), wdenom)
        stop_kinds = pa.array(np.zeros(len(txt), dtype=np.int64))
        for w in GOPHER_STOPWORDS:
            hit = pc.greater(pc.count_substring_regex(txt, rf"\b{w}\b"), 0)
            stop_kinds = pc.add(stop_kinds, hit.cast(pa.int64()))
        ok = pc.and_(
            pc.and_(
                pc.and_(pc.greater_equal(n_words, min_words), pc.less_equal(n_words, max_words)),
                pc.and_(
                    pc.greater_equal(mean_word_len, min_mean_word_len),
                    pc.less_equal(mean_word_len, max_mean_word_len),
                ),
            ),
            pc.and_(
                pc.and_(
                    pc.less(symbol_word_ratio, max_symbol_word_ratio),
                    pc.less(bullet_line_frac, max_bullet_line_frac),
                ),
                pc.and_(
                    pc.and_(
                        pc.less(ellipsis_line_frac, max_ellipsis_line_frac),
                        pc.greater(alpha_word_frac, min_alpha_word_frac),
                    ),
                    pc.greater_equal(stop_kinds, min_stop_kinds),
                ),
            ),
        )
        out = t
        for name, arr in [
            ("n_words", n_words),
            ("mean_word_len", mean_word_len),
            ("symbol_word_ratio", symbol_word_ratio),
            ("bullet_line_frac", bullet_line_frac),
            ("ellipsis_line_frac", ellipsis_line_frac),
            ("alpha_word_frac", alpha_word_frac),
            ("n_stop_kinds", stop_kinds),
            ("gopher_pass", ok),
        ]:
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


_FP_M = np.uint64(2147483647)  # 2^31 - 1 (Mersenne)
_FP_BASES = (31, 131)


def _fp_powers(base: int, n: int) -> np.ndarray:
    """base^j mod (2^31-1) for j in [0, n) — uint64, products stay < 2^52."""
    w = np.empty(n, dtype=np.uint64)
    acc = 1
    for j in range(n):
        w[j] = acc
        acc = (acc * base) % 2147483647
    return w


def fingerprint_docs(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Deterministic 62-bit order-sensitive document fingerprint: two
    polynomial rolling hashes (Horner, bases 31 and 131, mod 2^31-1)
    over the codepoints of the whitespace-normalized lowercase text,
    packed as ``h31 * 2^31 + h131``. Empty/null text fingerprints to 0.

    The per-batch compute is fully vectorized: all normalized texts are
    concatenated to one codepoint stream, per-char terms ``c * B^(pos
    from end) mod M`` are computed in uint64 (values < 2^52, no
    overflow), and per-doc sums come from one ``np.add.reduceat`` (term
    sums < 2^31 * stream_len stay < 2^63 for docs up to 4 GB). The exact
    formula is SQL-replicable (DuckDB ``list_reduce`` Horner), which the
    driver oracle exploits."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        norms = [" ".join((txt or "").lower().split()) for txt in texts]
        lens = np.array([len(s) for s in norms], dtype=np.int64)
        total = int(lens.sum())
        out = np.zeros(len(norms), dtype=np.uint64)
        if total:
            codes = np.frombuffer("".join(norms).encode("utf-32-le"), dtype=np.uint32).astype(
                np.uint64
            )
            ends = np.cumsum(lens)
            starts = ends - lens
            # position from the END of each doc: rev = (end-1) - global_pos
            rev = np.repeat(ends - 1, lens) - np.arange(total, dtype=np.int64)
            nonempty = np.nonzero(lens > 0)[0]
            seg_starts = starts[nonempty]
            hs = []
            for base in _FP_BASES:
                w = _fp_powers(base, int(lens.max()))
                terms = (codes * w[rev]) % _FP_M
                sums = np.add.reduceat(terms, seg_starts) % _FP_M
                h = np.zeros(len(norms), dtype=np.uint64)
                h[nonempty] = sums
                hs.append(h)
            out = (hs[0] << np.uint64(31)) | hs[1]
            out[lens == 0] = 0
        return t.append_column("fingerprint", pa.array(out.astype(np.int64), pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def _doc_term_counts(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """(id, term, tf) — one row per distinct (doc, term), fully
    vectorized: one Arrow regex split into a flat token stream, then a
    (parent, term-code) composite sort + run-length count per batch."""
    import pandas as pd
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        idc = t[id_col].combine_chunks() if isinstance(t[id_col], pa.ChunkedArray) else t[id_col]
        txt = pc.fill_null(t.column(text_col), "")
        toks_list = pc.split_pattern_regex(pc.utf8_lower(txt), r"[^0-9a-z_]+")
        if isinstance(toks_list, pa.ChunkedArray):
            toks_list = toks_list.combine_chunks()
        flat = toks_list.flatten()
        parents = pc.list_parent_indices(toks_list).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)[keep]
        parents = parents[keep]
        if not len(toks):
            return pa.table(
                {
                    id_col: pa.array([], idc.type),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                }
            )
        codes, uniq = pd.factorize(toks)
        comp = parents.astype(np.int64) * len(uniq) + codes
        comp.sort()
        new = np.r_[True, comp[1:] != comp[:-1]]
        idx = np.nonzero(new)[0]
        tf = np.diff(np.r_[idx, len(comp)])
        pr = (comp[idx] // len(uniq)).astype(np.int64)
        tc = (comp[idx] % len(uniq)).astype(np.int64)
        return pa.table(
            {
                id_col: idc.take(pa.array(pr)),
                "term": pa.array(np.asarray(uniq, object)[tc], pa.string()),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def tfidf_top_terms(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    k: int = 5,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-document top-k TF-IDF terms: (id, term, tf, df, score, rank).

    Tokenizer: lowercase ASCII ``[0-9a-z_]+`` (the same class as
    :func:`lang_id` and the SQL oracle). ``idf = ln((N+1)/(df+1)) + 1``
    (smoothed, SQL-expressible); ``score = tf * idf``; ties break on the
    smaller term. Documents with no tokens emit no rows.

    Scale shape: one flat (doc, term, tf) stream (one row per distinct
    doc-term — the per-batch count IS the partial aggregate), a
    term-keyed groupby for document frequency, a term-keyed hash join to
    attach df (vocab can exceed any broadcast), and one doc-keyed
    shuffle for the per-doc top-k. No driver-side state at any size.
    """
    from ..joins.hashjoin import hash_join
    from .topk import top_k_per_group

    # one upstream execution: the projection is materialized, then the
    # token stream once more (df pass + join pass both read it)
    ds = ds.map_batches(
        lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
    ).materialize()
    n_docs = ds.count()
    flat = _doc_term_counts(ds, text_col, id_col).materialize()
    df = flat.groupby("term").count()
    df = df.map_batches(
        lambda t: pa.table({"__t2": t["term"], "df": t["count()"]}),
        batch_format="pyarrow",
    )
    joined = hash_join(flat, df, "term", "__t2", num_partitions=num_partitions)

    def score(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        idf = np.log((n_docs + 1.0) / (dfv + 1.0)) + 1.0
        return t.append_column("score", pa.array(tf * idf, pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow")
    return top_k_per_group(
        scored, id_col, "score", k,
        descending=True, tie_cols="term", num_partitions=num_partitions,
    )


def normalize_text(
    ds: rd.Dataset,
    text_col: str = "text",
    *,
    nfc: bool = True,
    lowercase: bool = True,
    collapse_ws: bool = True,
    strip: bool = True,
    out_col: str | None = None,
) -> rd.Dataset:
    """CCNet-style text normalization as one shuffle-free per-batch map:
    Unicode NFC composition, lowercasing, whitespace collapsing (any
    ``\\s+`` run -> one space) and edge trimming — each step optional
    and applied in that order. Writes ``out_col`` (default: replace
    ``text_col`` in place). Nulls stay null.

    Every step maps 1:1 onto a DuckDB expression (``nfc_normalize``,
    ``lower``, ``regexp_replace(..., '\\s+', ' ', 'g')``, ``trim``), so
    the driver oracle replicates the output byte-for-byte.

    NFC is a hybrid: ASCII rows (identically NFC by definition) pass
    through untouched via one vectorized non-ASCII probe; only the
    non-ASCII subset goes through ``unicodedata.normalize`` row-wise.
    (This environment's pyarrow ``utf8_normalize`` is a silent no-op —
    built without unicode tables — so it cannot be used: it would
    diverge from any real NFC implementation on decomposed input.)"""
    import unicodedata

    def _nfc(s: pa.StringArray) -> pa.StringArray:
        hit = pc.fill_null(pc.match_substring_regex(s, r"[^\x00-\x7F]"), False)
        idx = np.nonzero(hit.to_numpy(zero_copy_only=False))[0]
        if not len(idx):
            return s
        vals = s.take(pa.array(idx)).to_pylist()
        fixed = pa.array([unicodedata.normalize("NFC", v) for v in vals], pa.string())
        out = s.to_numpy(zero_copy_only=False).copy()
        out[idx] = fixed.to_numpy(zero_copy_only=False)
        return pa.array(out, pa.string())

    def fn(t: pa.Table) -> pa.Table:
        s = t.column(text_col)
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        if nfc:
            s = _nfc(s)
        if lowercase:
            s = pc.utf8_lower(s)
        if collapse_ws:
            s = pc.replace_substring_regex(s, r"\s+", " ")
        if strip:
            s = pc.utf8_trim_whitespace(s)
        name = out_col or text_col
        if name in t.column_names:
            return t.set_column(t.schema.get_field_index(name), name, s)
        return t.append_column(name, s)

    return ds.map_batches(fn, batch_format="pyarrow")


def build_inverted_index(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    max_df: int | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Build a search-style inverted index over the shared lowercase
    ASCII tokenizer: one row per term with ``df`` (document frequency)
    and ``postings`` — the sorted document ids joined with ``,`` (a
    string, not a list column, so the result is directly comparable
    across engines and writable to any sink).

    ``max_df`` drops stop-terms with more than that many documents —
    the standard index-size/skew control: a term in every document
    otherwise produces one posting row per document and a giant output
    row. Scale shape: the distinct (doc, term) pair stream re-uses
    :func:`_doc_term_counts` (per-batch partial, one row per distinct
    doc-term), then ONE term-keyed exchange builds each term's posting
    list with a composite sort + run-length boundaries — no per-term
    Python dispatch, no driver state."""
    import pandas as pd

    flat = _doc_term_counts(ds, text_col, id_col)

    def per_term(df: "pd.DataFrame") -> pa.Table:
        df = df.sort_values(["term", id_col], kind="stable")
        terms = df["term"].to_numpy(object)
        first = np.r_[True, terms[1:] != terms[:-1]]
        starts = np.nonzero(first)[0]
        df_counts = np.diff(np.r_[starts, len(df)])
        ids = df[id_col].to_numpy()
        keep = np.ones(len(starts), bool) if max_df is None else df_counts <= max_df
        postings = [
            ",".join(map(str, ids[s : s + n]))
            for s, n, k in zip(starts, df_counts, keep)
            if k
        ]
        return pa.table(
            {
                "term": pa.array(terms[starts][keep], pa.string()),
                "df": pa.array(df_counts[keep].astype(np.int64)),
                "postings": pa.array(postings, pa.string()),
            }
        )

    return exchange(flat, "term", num_partitions, per_term, batch_format="pandas")
