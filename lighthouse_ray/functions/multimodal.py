"""Multimodal column handling: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as ``large_binary`` columns with
typed metadata alongside.  The decode stage is a REAL decoder built
from the public container specs — no external imaging library needed:

- **PNG**  (RFC 2083 / W3C spec): signature + IHDR parse for
  width/height/bit-depth/color-type, and a full zlib decompression of
  the concatenated IDAT stream with a length check against
  ``height x (1 + channels x width)`` — i.e. the pixel payload is
  genuinely decoded, not just sniffed.
- **BMP**  (BITMAPINFOHEADER): biWidth / biHeight / biBitCount.
- **GIF**  (87a/89a): logical screen descriptor.
- **JPEG** (ISO/IEC 10918-1): marker walk to the first SOF0/1/2
  frame header for precision / height / width / component count.

One stateless stage serves every media kind: each ``extract_*(ds)``
maps batches of ``(media_id, payload)`` rows through a per-kind
``decode`` that yields the payload's metadata rows, typed by the kind's
schema.  Decoders raise only ``ValueError`` on input they cannot read,
and the stage catches nothing, so a malformed payload fails the job.

Batch-size note: binary payloads are large — the stage's batches are
small (64 payloads, 32 animations) so a batch fits the worker heap at
~MB-scale payloads.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa

MEDIA_META_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("n_bytes", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("channels", pa.int32()),
        ("format", pa.string()),
    ]
)

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# PNG color type -> samples per pixel (spec §6.1)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
# PNG color type -> allowed bit depths (spec §11.2.2)
_PNG_DEPTHS = {0: (1, 2, 4, 8, 16), 2: (8, 16), 3: (1, 2, 4, 8), 4: (8, 16), 6: (8, 16)}
# Adam7 passes: (x0, y0, dx, dy) (spec §8.2)
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _png_raw_size(w: int, h: int, bits_per_px: int, interlaced: bool) -> int:
    """Decompressed IDAT size: one filter byte plus the packed samples per
    scanline, summed over the 7 reduced images when Adam7-interlaced."""
    if not interlaced:
        return h * (1 + (bits_per_px * w + 7) // 8)
    total = 0
    for x0, y0, dx, dy in _ADAM7:
        pw, ph = (w - x0 + dx - 1) // dx, (h - y0 + dy - 1) // dy
        if pw > 0 and ph > 0:
            total += ph * (1 + (bits_per_px * pw + 7) // 8)
    return total


def decode_png(payload: bytes, verify_pixels: bool = True) -> tuple[int, int, int]:
    """Parse IHDR and (optionally) fully decompress the IDAT stream,
    checking the raw scanline byte count — a true decode of the pixel
    payload, not a header sniff.  Returns (width, height, channels)."""
    if payload[:8] != _PNG_SIG or payload[12:16] != b"IHDR":
        raise ValueError("not a PNG")
    if len(payload) < 29:
        raise ValueError("truncated PNG IHDR chunk")
    w, h = struct.unpack(">II", payload[16:24])
    bit_depth, color_type, interlace = payload[24], payload[25], payload[28]
    if color_type not in _PNG_CHANNELS:
        raise ValueError(f"bad PNG color type {color_type}")
    if bit_depth not in _PNG_DEPTHS[color_type]:
        raise ValueError(f"bad PNG bit depth {bit_depth} for color type {color_type}")
    if interlace not in (0, 1):
        raise ValueError(f"bad PNG interlace method {interlace}")
    channels = _PNG_CHANNELS[color_type]
    if verify_pixels:
        # walk chunks, concatenate IDAT, decompress, check scanline bytes
        idat = bytearray()
        pos = 8
        while pos + 8 <= len(payload):
            (clen,) = struct.unpack(">I", payload[pos : pos + 4])
            ctype = payload[pos + 4 : pos + 8]
            if ctype == b"IDAT":
                idat += payload[pos + 8 : pos + 8 + clen]
            if ctype == b"IEND":
                break
            pos += 12 + clen  # len + type + data + crc
        expect = _png_raw_size(w, h, bit_depth * channels, interlace == 1)
        # decompression-bomb guard: the header fixes the exact raw size,
        # so never inflate past it — a malicious 1 KB IDAT expanding to
        # GBs must fail fast instead of filling an ingest worker's heap
        try:
            raw = zlib.decompressobj().decompress(bytes(idat), expect + 1)
        except zlib.error as e:
            raise ValueError(f"corrupt PNG IDAT stream: {e}") from e
        if len(raw) != expect:
            raise ValueError(f"PNG pixel payload {len(raw)} != expected {expect}")
    return int(w), int(h), channels


def decode_bmp(payload: bytes) -> tuple[int, int, int]:
    if payload[:2] != b"BM":
        raise ValueError("not a BMP")
    if len(payload) < 30:
        raise ValueError("truncated BMP info header")
    w, h = struct.unpack("<ii", payload[18:26])
    (bpp,) = struct.unpack("<H", payload[28:30])
    return int(w), abs(int(h)), max(1, bpp // 8)


def decode_gif(payload: bytes) -> tuple[int, int, int]:
    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    if len(payload) < 13:
        raise ValueError("truncated GIF logical screen descriptor")
    w, h = struct.unpack("<HH", payload[6:10])
    return int(w), int(h), 1  # palette-indexed


def decode_jpeg(payload: bytes) -> tuple[int, int, int]:
    """Marker walk from SOI through the first SOF0/1/2 frame header and
    every scan to EOI.  A scan's entropy-coded bytes are skipped, not
    decoded: in them ``FF00`` is a stuffed byte and ``FFD0``-``FFD7``
    are restart markers, and any other marker ends the scan.  A file cut
    short anywhere before its EOI raises ValueError."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG")
    n = len(payload)
    dims, scans, pos = None, 0, 2
    while True:
        pos = payload.find(b"\xff", pos)  # stray bytes before a marker are skipped
        while 0 <= pos < n and payload[pos] == 0xFF:  # fill bytes
            pos += 1
        if not 0 <= pos < n:
            raise ValueError("JPEG ends before its EOI")
        marker = payload[pos]
        pos += 1
        if marker == 0xD9:  # EOI
            break
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:  # no length field
            continue
        seglen = int.from_bytes(payload[pos : pos + 2], "big")
        if seglen < 2 or pos + seglen > n:
            raise ValueError(f"JPEG segment length {seglen} at {pos} runs past the payload")
        if marker in (0xC0, 0xC1, 0xC2) and dims is None:  # SOF0/1/2
            if seglen < 8:
                raise ValueError(f"JPEG SOF segment too short ({seglen} bytes)")
            h, w = struct.unpack(">HH", payload[pos + 3 : pos + 7])
            dims = (int(w), int(h), int(payload[pos + 7]))
        pos += seglen
        if marker == 0xDA:  # SOS: skip the scan's entropy-coded bytes
            if dims is None:
                raise ValueError("JPEG scan before its frame header")
            scans += 1
            while (pos := payload.find(b"\xff", pos)) != -1 and pos + 1 < n and (
                payload[pos + 1] == 0 or 0xD0 <= payload[pos + 1] <= 0xD7
            ):
                pos += 2
            if pos == -1 or pos + 1 >= n:
                raise ValueError("JPEG scan runs past the payload")
    if dims is None:
        raise ValueError("JPEG SOF marker not found")
    if not scans:
        raise ValueError("JPEG has no scan")
    return dims


def decode_image(payload: bytes, verify_pixels: bool = True) -> tuple[int, int, int, str]:
    """Real struct decode: (width, height, channels, format).
    Raises ValueError for payloads that are none of PNG/BMP/GIF/JPEG."""
    if payload[:8] == _PNG_SIG:
        return (*decode_png(payload, verify_pixels=verify_pixels), "png")
    if payload[:2] == b"BM":
        return (*decode_bmp(payload), "bmp")
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return (*decode_gif(payload), "gif")
    if payload[:2] == b"\xff\xd8":
        return (*decode_jpeg(payload), "jpeg")
    raise ValueError("unrecognized image container")


# -- deterministic synthesis of REAL images ------------------------------

def _pixel_bytes(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-pixels (no RNG state): an affine sequence
    mod 256, full 0..255 range."""
    a = (seed % 251) + 1
    return ((np.arange(n, dtype=np.int64) * a + seed) % 256).astype(np.uint8)


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def synth_png(width: int, height: int, channels: int = 3, seed: int = 0) -> bytes:
    """A genuinely valid PNG (decodable by any conformant reader):
    8-bit RGB (channels=3) or RGBA (channels=4), filter-0 scanlines,
    zlib level 0 (stored deflate) so the byte size is a CLOSED FORM —
    the oracle mirrors it in SQL:

        raw  = height * (1 + channels*width)
        zlen = 2 + 5*ceil(raw/65535) + raw + 4
        size = 8 + 25 + (12 + zlen) + 12
    """
    color_type = {3: 2, 4: 6}[channels]
    raw = np.zeros((height, 1 + channels * width), dtype=np.uint8)
    raw[:, 1:] = _pixel_bytes(height * channels * width, seed).reshape(height, -1)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    idat = zlib.compress(raw.tobytes(), 0)  # stored blocks: size is closed-form
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def synth_bmp(width: int, height: int, seed: int = 0) -> bytes:
    """A genuinely valid 24-bit BMP; rows padded to 4 bytes, so
    ``size = 54 + height * ((3*width + 3) // 4 * 4)`` (SQL-mirrorable)."""
    stride = (3 * width + 3) // 4 * 4
    img_size = height * stride
    header = struct.pack(
        "<2sIHHI", b"BM", 54 + img_size, 0, 0, 54
    ) + struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    rows = np.zeros((height, stride), dtype=np.uint8)
    rows[:, : 3 * width] = _pixel_bytes(height * 3 * width, seed).reshape(height, -1)
    return header + rows.tobytes()


# payloads are large: small batches keep a task's heap bounded
_BATCH_SIZE = 64
_FRAME_BATCH_SIZE = 32
# frame sampling keeps every 3rd decoded frame, at most 8 per animation
_EVERY_N = 3
_MAX_FRAMES = 8


def _decode_stage(ds, decode, schema: pa.Schema, batch_size: int):
    """Map ``(media_id, payload)`` batches to ``schema`` rows.
    ``decode(payload)`` returns that payload's rows without ``media_id``
    and raises ValueError on a payload it cannot read, which fails the
    job: the stage catches nothing."""

    def stage(batch: pa.Table) -> pa.Table:
        rows = [
            {"media_id": str(mid), **row}
            for mid, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist())
            for row in decode(p)
        ]
        return pa.Table.from_pylist(rows, schema=schema)

    return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)


def _image_rows(payload: bytes) -> list[dict]:
    w, h, ch, fmt = decode_image(payload)
    return [{"n_bytes": len(payload), "width": w, "height": h, "channels": ch, "format": fmt}]


def extract_media_meta(ds):
    """Image payloads -> ``MEDIA_META_SCHEMA`` rows, decoded by the
    container parsers above (PNG pixel payload included)."""
    return _decode_stage(ds, _image_rows, MEDIA_META_SCHEMA, _BATCH_SIZE)


# -- audio: WAV/RIFF (real decode, public spec) --------------------------

AUDIO_META_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("n_bytes", pa.int64()),
        ("channels", pa.int32()),
        ("sample_rate", pa.int32()),
        ("bits_per_sample", pa.int32()),
        ("n_frames", pa.int64()),
        ("duration_ms", pa.int64()),
    ]
)


def decode_wav(payload: bytes) -> dict:
    """Real RIFF/WAVE parse (public spec): walk chunks to fmt
    (channels / sample rate / bits) and data (frame count); PCM only.
    Raises ValueError on anything that is not a well-formed WAV."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a WAV")
    pos, fmt, data_len = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        (clen,) = struct.unpack("<I", payload[pos + 4 : pos + 8])
        if cid == b"fmt ":
            if len(payload) < pos + 24:
                raise ValueError("truncated WAV fmt chunk")
            audio_fmt, ch, sr = struct.unpack("<HHI", payload[pos + 8 : pos + 16])
            (bits,) = struct.unpack("<H", payload[pos + 22 : pos + 24])
            if audio_fmt != 1:
                raise ValueError(f"non-PCM WAV (format {audio_fmt})")
            fmt = (ch, sr, bits)
        elif cid == b"data":
            data_len = clen
        pos += 8 + clen + (clen & 1)  # chunks are word-aligned
    if fmt is None or data_len is None:
        raise ValueError("WAV missing fmt/data chunk")
    ch, sr, bits = fmt
    frame_bytes = max(1, ch * bits // 8)
    n_frames = data_len // frame_bytes
    return {
        "channels": ch, "sample_rate": sr, "bits_per_sample": bits,
        "n_frames": n_frames, "duration_ms": n_frames * 1000 // max(sr, 1),
    }


def synth_wav(n_frames: int, channels: int = 1, sample_rate: int = 16000,
              bits: int = 16, seed: int = 0) -> bytes:
    """A genuinely valid PCM WAV with deterministic samples; byte size
    is the closed form ``44 + n_frames * channels * bits/8`` (+1 pad if
    the data chunk is odd — never with 16-bit) — SQL-mirrorable."""
    frame_bytes = channels * bits // 8
    data = _pixel_bytes(n_frames * frame_bytes, seed).tobytes()
    hdr = (
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                sample_rate * frame_bytes, frame_bytes, bits)
        + b"data" + struct.pack("<I", len(data))
    )
    return hdr + data


def extract_audio_meta(ds):
    """WAV payloads -> ``AUDIO_META_SCHEMA`` rows via the RIFF chunk walk."""
    return _decode_stage(ds, lambda p: [{"n_bytes": len(p), **decode_wav(p)}],
                         AUDIO_META_SCHEMA, _BATCH_SIZE)


# -- video: MP4 / ISO-BMFF (real container parse, public spec) -----------

VIDEO_META_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("n_bytes", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int64()),
        ("n_tracks", pa.int32()),
        ("brand", pa.string()),
    ]
)


def _walk_boxes(buf: bytes, start: int, end: int):
    pos = start
    while pos + 8 <= end:
        (size,) = struct.unpack(">I", buf[pos : pos + 4])
        btype = buf[pos + 4 : pos + 8]
        hdr = 8
        if size == 1:  # 64-bit largesize: 16-byte header
            if pos + 16 > end:
                raise ValueError(f"truncated largesize box {btype!r} at {pos}")
            (size,) = struct.unpack(">Q", buf[pos + 8 : pos + 16])
            hdr = 16
        if size < hdr or pos + size > end:
            raise ValueError(f"malformed box {btype!r} at {pos}")
        yield btype, pos + hdr, pos + size
        pos += size


def decode_mp4(payload: bytes) -> dict:
    """Real ISO-BMFF (MP4) box walk, public spec (ISO/IEC 14496-12):
    ftyp major brand, moov/mvhd timescale+duration, per-trak tkhd
    width/height (16.16 fixed point).  Metadata only — sample decode
    needs codecs this container honestly does not have."""
    brand, mvhd, n_tracks, w, h = None, None, 0, 0, 0
    for btype, s, e in _walk_boxes(payload, 0, len(payload)):
        if btype == b"ftyp":
            brand = payload[s : s + 4].decode("ascii", "replace")
        elif btype == b"moov":
            for ityp, is_, ie in _walk_boxes(payload, s, e):
                if ityp == b"mvhd":
                    # (timescale, duration) at offset 12 in version 0;
                    # version 1 has 64-bit times, so offset 20 and a
                    # 64-bit duration
                    body = payload[is_:ie]
                    fmt, off = (">IQ", 20) if body[:1] == b"\x01" else (">II", 12)
                    if len(body) < off + struct.calcsize(fmt):
                        raise ValueError(f"truncated mvhd box at {is_}")
                    mvhd = struct.unpack_from(fmt, body, off)
                elif ityp == b"trak":
                    n_tracks += 1
                    for ttyp, ts_, te in _walk_boxes(payload, is_, ie):
                        if ttyp == b"tkhd":
                            # tkhd width/height are the LAST 8 bytes of
                            # the box, 16.16 fixed point (same offset
                            # for version 0 and 1)
                            if te - ts_ < 8:
                                raise ValueError(f"truncated tkhd box at {ts_}")
                            tw, th = struct.unpack(
                                ">II", payload[te - 8 : te])
                            w = max(w, tw >> 16)
                            h = max(h, th >> 16)
    if brand is None or mvhd is None:
        raise ValueError("MP4 missing ftyp/mvhd")
    ts, dur = mvhd
    return {
        "width": w, "height": h, "n_tracks": n_tracks, "brand": brand,
        "duration_ms": int(dur) * 1000 // max(int(ts), 1),
    }


def synth_mp4(width: int, height: int, duration_ms: int,
              timescale: int = 1000) -> bytes:
    """A structurally valid metadata-only MP4 (ftyp + mdat stub + moov
    with mvhd and one video trak/tkhd) — every box length/offset real,
    sizes a closed form: 24 (ftyp) + 16 (mdat) + moov(8+116+100)."""
    def box(btype: bytes, body: bytes) -> bytes:
        return struct.pack(">I", 8 + len(body)) + btype + body

    ftyp = box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2")
    mdat = box(b"mdat", b"\x00" * 8)
    dur = duration_ms * timescale // 1000
    mvhd = box(b"mvhd",
               struct.pack(">B3x", 0) + struct.pack(">II", 0, 0)
               + struct.pack(">II", timescale, dur)
               + struct.pack(">I", 0x00010000) + struct.pack(">H2x", 0x0100)
               + b"\x00" * 8
               + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)
               + b"\x00" * 24 + struct.pack(">I", 2))
    tkhd = box(b"tkhd",
               struct.pack(">B3x", 0) + struct.pack(">II", 0, 0)
               + struct.pack(">I4x", 1) + struct.pack(">I", dur)
               + b"\x00" * 8 + struct.pack(">hh", 0, 0) + struct.pack(">H2x", 0)
               + struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0, 0, 0, 0x40000000)
               + struct.pack(">II", width << 16, height << 16))
    trak = box(b"trak", tkhd)
    moov = box(b"moov", mvhd + trak)
    return ftyp + mdat + moov


def extract_video_meta(ds):
    """MP4 payloads -> ``VIDEO_META_SCHEMA`` rows via the ISO-BMFF box walk."""
    return _decode_stage(ds, lambda p: [{"n_bytes": len(p), **decode_mp4(p)}],
                         VIDEO_META_SCHEMA, _BATCH_SIZE)


# -- animated GIF: REAL frame decode via from-scratch LZW ----------------
#
# GIF's image data is LZW-compressed (GIF89a spec appendix F) — a codec
# simple enough to implement exactly, which makes frame SAMPLING a real
# decode path in this container (MP4/AVC sample decode stays honestly
# out of scope; the GIF path proves the plumbing end-to-end on genuinely
# compressed frames).

def _lzw_decode(min_code_size: int, data: bytes, expected: int) -> np.ndarray:
    """GIF-variant LZW: variable code width starting min+1, CLEAR/END
    codes, dictionary capped at 4096; output bounded by ``expected``
    (the frame's pixel count — the decompression-bomb guard)."""
    clear = 1 << min_code_size
    end = clear + 1
    width = min_code_size + 1
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    out = bytearray()
    prev: bytes | None = None
    acc = nbits = 0
    for byte in data:
        acc |= byte << nbits
        nbits += 8
        while nbits >= width:
            code = acc & ((1 << width) - 1)
            acc >>= width
            nbits -= width
            if code == clear:
                table = [bytes([i]) for i in range(clear)] + [b"", b""]
                width = min_code_size + 1
                prev = None
                continue
            if code == end:
                if len(out) != expected:
                    raise ValueError(
                        f"GIF frame decoded {len(out)} px, expected {expected}")
                return np.frombuffer(bytes(out), dtype=np.uint8)
            if prev is None:
                if code >= len(table):
                    raise ValueError(f"bad LZW code {code}")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                if len(table) < 4096:
                    table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise ValueError(f"bad LZW code {code}")
            out += entry
            if len(out) > expected:
                raise ValueError("GIF frame overruns its descriptor size")
            # GIF widens once the table REACHES 2^width (no TIFF-style
            # early change); a full table keeps 12-bit codes until CLEAR
            if len(table) == (1 << width) and width < 12:
                width += 1
            prev = entry
    raise ValueError("GIF LZW stream ended without END code")


def _lzw_encode(min_code_size: int, pixels: np.ndarray) -> bytes:
    """Real GIF LZW encoder (dictionary + growing code width) —
    roundtrips against :func:`_lzw_decode`."""
    clear = 1 << min_code_size
    end = clear + 1
    width = min_code_size + 1
    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = end + 1
    out = bytearray()
    acc = nbits = 0

    def emit(code: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    def emit_data(code: int):
        # after reading a data code the decoder's table holds next_code
        # entries (it adds one per code, from the second on); it widens
        # once that count reaches 2^width, so the next code must too
        nonlocal width
        emit(code)
        if next_code >= (1 << width) and width < 12:
            width += 1

    emit(clear)
    prev = b""
    for px in pixels.tobytes():
        cur = prev + bytes([px])
        if cur in table:
            prev = cur
            continue
        emit_data(table[prev])
        table[cur] = next_code
        next_code += 1
        if next_code >= 4096:
            emit(clear)
            table = {bytes([i]): i for i in range(clear)}
            next_code = end + 1
            width = min_code_size + 1
        prev = bytes([px])
    if prev:
        emit_data(table[prev])
    emit(end)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _gif_sub_blocks(payload: bytes, pos: int) -> tuple[bytes, int]:
    """The data of the sub-block chain at ``pos`` and the position after
    its terminator; ValueError if the chain runs past the payload."""
    data = bytearray()
    while True:
        if pos >= len(payload):
            raise ValueError("truncated GIF sub-block chain")
        n = payload[pos]
        if n == 0:
            return bytes(data), pos + 1
        if pos + 1 + n > len(payload):
            raise ValueError("truncated GIF sub-block")
        data += payload[pos + 1 : pos + 1 + n]
        pos += 1 + n


def decode_gif_frames(payload: bytes) -> list[np.ndarray]:
    """Decode EVERY frame of a (possibly animated) GIF to (h, w) uint8
    palette-index arrays — a true pixel decode via the LZW codec above.
    Interlaced frames are put back in row order.  Malformed or truncated
    input raises ValueError."""
    decode_gif(payload)  # signature + logical screen descriptor
    flags = payload[10]
    pos = 13
    if flags & 0x80:
        pos += 3 * (2 << (flags & 7))  # global color table
    frames: list[np.ndarray] = []
    while pos < len(payload):
        b0 = payload[pos]
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension: label + sub-blocks
            _data, pos = _gif_sub_blocks(payload, pos + 2)
        elif b0 == 0x2C:  # image descriptor
            if pos + 10 > len(payload):
                raise ValueError("truncated GIF image descriptor")
            _l, _t, fw, fh = struct.unpack("<HHHH", payload[pos + 1 : pos + 9])
            iflags = payload[pos + 9]
            pos += 10
            if iflags & 0x80:
                pos += 3 * (2 << (iflags & 7))  # local color table
            if pos >= len(payload):
                raise ValueError("truncated GIF image data")
            mcs = payload[pos]
            if not 1 <= mcs <= 8:
                raise ValueError(f"bad GIF LZW minimum code size {mcs}")
            data, pos = _gif_sub_blocks(payload, pos + 1)
            px = _lzw_decode(mcs, data, fw * fh).reshape(fh, fw)
            if iflags & 0x40:
                # interlaced: rows arrive in 4 passes (every 8th row from
                # 0, every 8th from 4, every 4th from 2, every 2nd from 1)
                rows = np.concatenate([np.arange(0, fh, 8), np.arange(4, fh, 8),
                                       np.arange(2, fh, 4), np.arange(1, fh, 2)])
                frame = np.empty_like(px)
                frame[rows] = px
                px = frame
            frames.append(px)
        else:
            raise ValueError(f"unknown GIF block 0x{b0:02x}")
    if not frames:
        raise ValueError("GIF has no image frames")
    return frames


def synth_gif_animation(width: int, height: int, n_frames: int,
                        seed: int = 0, palette_bits: int = 4) -> bytes:
    """A genuinely valid animated GIF89a: global color table, per-frame
    graphic-control extensions, REAL LZW-compressed frames."""
    ncol = 1 << palette_bits
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", width, height, 0x80 | (palette_bits - 1), 0, 0)
    pal = _pixel_bytes(3 * ncol, seed ^ 0x5A5A)
    out += pal.tobytes()
    for f in range(n_frames):
        out += b"\x21\xf9\x04\x00\x0a\x00\x00\x00"  # GCE: 10cs delay
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, width, height, 0)
        px = (_pixel_bytes(width * height, seed * 1000 + f) % ncol).astype(np.uint8)
        mcs = max(2, palette_bits)
        out.append(mcs)
        enc = _lzw_encode(mcs, px)
        for i in range(0, len(enc), 255):
            chunk = enc[i : i + 255]
            out.append(len(chunk))
            out += chunk
        out.append(0)
    out.append(0x3B)
    return bytes(out)


FRAME_SAMPLE_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("frame_index", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("pixel_sha256", pa.string()),
        ("mean_index", pa.float64()),
    ]
)


def extract_frame_samples(ds):
    """Animated-GIF payloads -> one ``FRAME_SAMPLE_SCHEMA`` row per
    sampled frame (every 3rd decoded frame, at most 8)."""
    return _decode_stage(ds, lambda p: frame_sample(p, _EVERY_N, _MAX_FRAMES),
                         FRAME_SAMPLE_SCHEMA, _FRAME_BATCH_SIZE)


def frame_sample(payload: bytes, every_n: int = 30,
                 max_frames: int = 8) -> list[dict]:
    """REAL video frame sampling (animated GIF): decode the frames via
    the LZW codec, keep every ``every_n``-th up to ``max_frames``, and
    return per-frame metadata + a content digest of the DECODED pixels
    (not the compressed bytes — proves the decode ran)."""
    frames = decode_gif_frames(payload)
    out = []
    for i in range(0, len(frames), max(1, every_n)):
        if len(out) >= max_frames:
            break
        f = frames[i]
        out.append({
            "frame_index": i,
            "width": int(f.shape[1]),
            "height": int(f.shape[0]),
            "pixel_sha256": hashlib.sha256(f.tobytes()).hexdigest(),
            "mean_index": float(f.mean()),
        })
    return out
