"""Multimodal stages: media columns as opaque binary + typed metadata.

The execution plumbing (schemas, batch sizing, output layout) is real
and tested; the codec kernels themselves are STUBS because no
image/audio libraries exist in this environment —
each decode stage either raises ``NotImplementedError`` (strict mode)
or produces a deterministic fake derived from the payload bytes
(``fake=True``), so pipelines exercise the full Ray path end-to-end.

Design notes for 100 TB media:
- media payloads are ``binary`` columns; batches stay small
  (payload_bytes x batch rows x concurrent tasks must fit worker heap)
  and raise ``DataContext.target_max_block_size`` so wide rows don't
  split into absurdly small blocks;
- decode/resize/feature stages are plain per-batch tasks: the stubs
  hold no state, and a real codec's expensive context would be one
  ``ray.put`` object each batch reads;
- outputs store derived features + (kind, media_ref) lineage, never
  re-encode the payload unless asked.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

# rows per batch: payload bytes, not row count, bound a batch's memory
_IMAGE_BATCH = 256
_FRAME_BATCH = 128

MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


def synth_media_table(n: int, *, seed: int = 5, kind: str = "image") -> pa.Table:
    """Deterministic fake media rows (payload = seeded bytes)."""
    rng = np.random.RandomState(seed)
    refs, payloads, w, h, dur = [], [], [], [], []
    for i in range(n):
        refs.append("m://%016x" % rng.randint(0, 2**31))
        payloads.append(rng.bytes(rng.randint(64, 256)))
        w.append(int(rng.randint(16, 512)))
        h.append(int(rng.randint(16, 512)))
        dur.append(int(rng.randint(0, 60000)) if kind != "image" else 0)
    return pa.table(
        {
            "media_ref": pa.array(refs),
            "kind": pa.array([kind] * n),
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(w, pa.int32()),
            "height": pa.array(h, pa.int32()),
            "duration_ms": pa.array(dur, pa.int32()),
        }
    )


def media_from_documents(
    docs: rd.Dataset,
    *,
    kind: str = "image",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Deterministic MEDIA_SCHEMA rows derived from a text corpus — the
    SQL-mirrorable stand-in for a real (media_ref -> object-store
    payload) read: ``payload`` is the utf8 bytes of the text and the
    dimensions/duration are fixed arithmetic over the byte length, so a
    DuckDB oracle can reproduce every derived value."""

    def fn(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t.column(text_col), "")
        ln = pc.binary_length(txt).cast(pa.int64()).to_numpy(zero_copy_only=False)
        refs = pc.binary_join_element_wise("m://", t.column(id_col).cast(pa.string()), "")
        dur = (ln * 131) % 60000 if kind != "image" else np.zeros(len(ln), np.int64)
        return pa.table(
            {
                "media_ref": refs,
                "kind": pa.array([kind] * t.num_rows, pa.string()),
                "payload": txt.cast(pa.binary()),
                "width": pa.array((16 + ln % 497).astype(np.int32)),
                "height": pa.array((16 + (ln * 7) % 497).astype(np.int32)),
                "duration_ms": pa.array(dur.astype(np.int32)),
            }
        )

    return docs.map_batches(fn, batch_format="pyarrow")


FEATURE_DIM = 32


def _image_features(t: pa.Table, fake: bool) -> pa.Table:
    """The per-batch task of :func:`extract_image_features`: payload ->
    fixed-size feature vector.

    Real deployment: decode and embed the batch with a codec and model
    (float32 model embeddings). Here the decode is stubbed: the fake
    path derives ``feature[j] = ((crc32(payload) * (j+1)) % 1000003) /
    1000003.0`` (float64 so the arithmetic is bit-identical to a SQL
    oracle's)."""
    if not fake:
        raise NotImplementedError(
            "image decode requires an image codec library, not present in this environment"
        )
    j = np.arange(1, FEATURE_DIM + 1, dtype=np.int64)
    # deterministic fake: exact integer arithmetic over the payload crc
    feats = [
        ((np.int64(zlib.crc32(p)) * j) % 1000003) / 1000003.0
        for p in t.column("payload").to_pylist()
    ]
    arr = pa.array([f.tolist() for f in feats], pa.list_(pa.float64(), FEATURE_DIM))
    return pa.table(
        {
            "media_ref": t["media_ref"],
            "kind": t["kind"],
            "features": arr,
        }
    )


def _sample_frames_batch(t: pa.Table, k: int, fake: bool) -> pa.Table:
    """The per-batch task of :func:`sample_frames`: video payload -> k
    sampled frame references. Decode stubbed; emits deterministic frame
    offsets, fully vectorized (repeat/tile expansion, integer
    frame-timestamp math)."""
    if not fake:
        raise NotImplementedError("video decode not available in this environment")
    n = t.num_rows
    refs = t.column("media_ref")
    if isinstance(refs, pa.ChunkedArray):
        refs = refs.combine_chunks()
    dur = t.column("duration_ms").to_numpy(zero_copy_only=False).astype(np.int64)
    frame = np.tile(np.arange(k, dtype=np.int64), n)
    ts = np.repeat(dur, k) * frame // max(1, k)
    return pa.table(
        {
            "media_ref": refs.take(pa.array(np.repeat(np.arange(n), k))),
            "frame": pa.array(frame.astype(np.int32)),
            "ts_ms": pa.array(ts.astype(np.int32)),
        }
    )


def extract_image_features(media: rd.Dataset, *, fake: bool = True) -> rd.Dataset:
    """Small batches: payload bytes dominate memory, not row count."""
    return media.map_batches(
        lambda t: _image_features(t, fake), batch_format="pyarrow", batch_size=_IMAGE_BATCH
    )


def sample_frames(media: rd.Dataset, *, k: int = 4, fake: bool = True) -> rd.Dataset:
    return media.map_batches(
        lambda t: _sample_frames_batch(t, k, fake),
        batch_format="pyarrow",
        batch_size=_FRAME_BATCH,
    )
