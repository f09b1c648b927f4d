"""Dtype-stable VALUE hashing on pandas blocks.

Hashes of VALUES (the HyperLogLog register hashes in
`pipelines/sketch.py`) must be the SAME for the same logical value in
every block, but a pandas block's
physical dtype is not stable: an int64 column degrades to float64 in
any block that holds a null, a bool column to object, and
`pd.util.hash_array` hashes the PHYSICAL representation (hash(7) !=
hash(7.0)). Partition ids are not computed here: every exchange takes
them from `fozziejoin_ray/exchange.py`, the Arrow-side partition
function with the same whole-number rule. These helpers are guarded by
the hypothesis fuzz in tests/test_stablehash.py.

Canonicalization is PER-ELEMENT, a pure function of (logical value,
validity) — never of the block's dtype or of neighboring values:

- whole numbers with -2^63 <= v < 2^63 (ints, bools, integral floats,
  numeric objects) hash via their exact int64 representation — so int64
  ids of arbitrary magnitude hash exactly from typed int blocks, and a
  null-degraded float64 block still agrees wherever float64 represents
  the id exactly;
- all other numerics hash as float64 (-0.0 canonicalized to 0.0);
- datetimes (naive or tz-aware) hash their int64 UTC epoch-nanos;
- everything else hashes as str.

A per-row validity hash is folded in so NULL stays distinct from 0 / ''
and from the string "None".

Known limit (pandas-side, not fixable here): an int64 id above 2^53 in
a block that pandas ALREADY degraded to float64 (null present in that
block) was corrupted before this kernel sees it.  Callers with
beyond-2^53 ids and nullable columns should hash from Arrow data or
pre-cast the column to string.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_VALID = np.uint64(0x9E3779B97F4A7C15)
_NULL = np.uint64(0x2545F4914F6CDD1D)
_I63 = float(2**63)


def _hash_i64(i: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(np.ascontiguousarray(i, dtype=np.int64), categorize=False)


def _hash_f64(f: np.ndarray) -> np.ndarray:
    # canonicalize -0.0 -> 0.0 (hash_array distinguishes the bit
    # patterns; SQL equality does not)
    return pd.util.hash_array(np.ascontiguousarray(f, dtype=np.float64) + 0.0, categorize=False)


def _hash_float_block(f: np.ndarray) -> np.ndarray:
    """Per-element whole-number rule over a float64 array: integral
    values in int64 range take the int64 hash, the rest the float64
    hash. NaN/inf fail the whole-test and take the float path (NaN
    positions are invalid and get overwritten by the caller)."""
    with np.errstate(invalid="ignore"):
        whole = (f == np.floor(f)) & (f >= -_I63) & (f < _I63)
    if whole.all():
        return _hash_i64(f.astype(np.int64))
    if not whole.any():
        return _hash_f64(f)
    h = _hash_f64(f)
    iv = np.where(whole, f, 0.0).astype(np.int64)
    h[whole] = _hash_i64(iv)[whole]
    return h


def stable_col_hash(s: "pd.Series") -> np.ndarray:
    """uint64 hash per element, a pure function of (logical value,
    validity) — invariant to the block's physical dtype and to which
    other values share the block."""
    valid = s.notna().to_numpy()
    if pd.api.types.is_bool_dtype(s):
        h = _hash_i64(s.to_numpy(dtype=np.int64, na_value=0))
    elif pd.api.types.is_unsigned_integer_dtype(s):
        u = s.to_numpy(dtype=np.uint64, na_value=0)
        small = u < np.uint64(2**63)
        h = _hash_i64(np.where(small, u, 0).astype(np.int64))
        if not small.all():
            h[~small] = _hash_f64(u.astype(np.float64))[~small]
    elif pd.api.types.is_integer_dtype(s):
        h = _hash_i64(s.to_numpy(dtype=np.int64, na_value=0))
    elif pd.api.types.is_numeric_dtype(s):
        h = _hash_float_block(s.to_numpy(dtype=np.float64, na_value=0.0))
    elif pd.api.types.is_datetime64_any_dtype(s):
        # asi8 is UTC epoch-nanos for both naive and tz-aware columns
        # (pandas 2.x forbids astype tz-aware -> naive, so never astype)
        h = _hash_i64(pd.DatetimeIndex(s).asi8)
    else:
        obj = s.to_numpy(dtype=object, copy=True)
        h = np.empty(len(obj), dtype=np.uint64)
        int_idx, int_vals = [], []
        flt_idx, flt_vals = [], []
        str_idx, str_vals = [], []
        for i, v in enumerate(obj):
            if not valid[i]:
                str_idx.append(i)  # placeholder; overwritten by _NULL
                str_vals.append("")
            elif isinstance(v, (bool, np.bool_)):
                int_idx.append(i)
                int_vals.append(int(v))
            elif isinstance(v, (int, np.integer)):
                iv = int(v)
                if -(2**63) <= iv < 2**63:
                    int_idx.append(i)
                    int_vals.append(iv)
                else:
                    flt_idx.append(i)
                    flt_vals.append(float(iv))
            elif isinstance(v, (float, np.floating)):
                fv = float(v)
                if fv == fv and -_I63 <= fv < _I63 and fv == int(fv):
                    int_idx.append(i)
                    int_vals.append(int(fv))
                else:
                    flt_idx.append(i)
                    flt_vals.append(fv)
            else:
                str_idx.append(i)
                str_vals.append(str(v))
        if int_idx:
            h[np.asarray(int_idx)] = _hash_i64(np.asarray(int_vals, dtype=np.int64))
        if flt_idx:
            h[np.asarray(flt_idx)] = _hash_f64(np.asarray(flt_vals, dtype=np.float64))
        if str_idx:
            h[np.asarray(str_idx)] = pd.util.hash_array(
                np.asarray(str_vals, dtype=object), categorize=False
            )
    # nulls hash to one BRANCH-INDEPENDENT constant: an all-null block
    # may take a different dtype branch than a mixed block, so the
    # fill-value's hash must never leak into a null position
    return np.where(valid, h ^ _VALID, _NULL)


def stable_row_hash(df: "pd.DataFrame", cols: list[str] | None = None) -> np.ndarray:
    """Fold per-column stable hashes into one uint64 per row (the
    1000003-multiplier fold of exchange.partition_ids)."""
    use = list(df.columns) if cols is None else list(cols)
    if not use:
        raise ValueError("stable_row_hash needs at least one column")
    h = None
    for c in use:
        hc = stable_col_hash(df[c])
        h = hc if h is None else (h * np.uint64(1000003)) ^ hc
    return h
