"""Real image decode (VERDICT r4 item 1): from-scratch PNG/BMP/GIF/JPEG
container parsing, genuine PNG pixel decompression, closed-form sizes
matching the SQL oracle's arithmetic, corruption detection."""

import struct
import zlib

import pytest

from lighthouse_ray.functions.multimodal import (
    decode_bmp,
    decode_gif,
    decode_image,
    decode_jpeg,
    decode_png,
    synth_bmp,
    synth_png,
)

# a 1x1 GIF89a written by an independent encoder
_INDEPENDENT_GIF = (
    b"GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\xff\xff\xff!\xf9\x04"
    b"\x00\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00\x02\x02D\x01\x00;"
)


@pytest.mark.parametrize("w,h,ch", [(1, 1, 3), (17, 9, 3), (5, 40, 4),
                                    (64, 64, 4), (63, 2, 3)])
def test_png_roundtrip_and_closed_form_size(w, h, ch):
    p = synth_png(w, h, ch, seed=w * 1000 + h)
    gw, gh, gch, fmt = decode_image(p, verify_pixels=True)
    assert (gw, gh, gch, fmt) == (w, h, ch, "png")
    raw = h * (1 + ch * w)
    zlen = 2 + 5 * ((raw + 65534) // 65535) + raw + 4
    assert len(p) == 8 + 25 + 12 + zlen + 12  # the oracle's formula


@pytest.mark.parametrize("w,h", [(1, 1), (13, 7), (64, 64), (3, 5)])
def test_bmp_roundtrip_and_closed_form_size(w, h):
    p = synth_bmp(w, h, seed=9)
    gw, gh, gch, fmt = decode_image(p)
    assert (gw, gh, gch, fmt) == (w, h, 3, "bmp")
    assert len(p) == 54 + h * ((3 * w + 3) // 4 * 4)


def test_png_pixels_genuinely_decoded():
    """verify_pixels really decompresses the IDAT stream: truncating it
    (valid zlib prefix, wrong scanline count) must be caught."""
    p = synth_png(10, 10, 3, seed=4)
    w, h, ch = decode_png(p)
    assert (w, h, ch) == (10, 10, 3)
    # rebuild the PNG with the IDAT replaced by a compression of HALF
    # the scanlines — headers identical, pixel payload short
    raw = zlib.decompress(_idat(p))
    bad_idat = zlib.compress(raw[: len(raw) // 2], 0)
    bad = _replace_idat(p, bad_idat)
    with pytest.raises(ValueError, match="pixel payload"):
        decode_png(bad, verify_pixels=True)
    # header-only sniff still reads dimensions
    assert decode_png(bad, verify_pixels=False) == (10, 10, 3)


def _idat(p: bytes) -> bytes:
    pos, out = 8, bytearray()
    while pos + 8 <= len(p):
        (clen,) = struct.unpack(">I", p[pos:pos + 4])
        if p[pos + 4:pos + 8] == b"IDAT":
            out += p[pos + 8:pos + 8 + clen]
        pos += 12 + clen
    return bytes(out)


def _replace_idat(p: bytes, new_idat: bytes) -> bytes:
    from lighthouse_ray.functions.multimodal import _png_chunk

    pos, out = 8, bytearray(p[:8])
    while pos + 8 <= len(p):
        (clen,) = struct.unpack(">I", p[pos:pos + 4])
        ctype = p[pos + 4:pos + 8]
        if ctype == b"IDAT":
            out += _png_chunk(b"IDAT", new_idat)
        else:
            out += p[pos:pos + 12 + clen]
        pos += 12 + clen
    return bytes(out)


def test_gif_decode():
    assert decode_gif(_INDEPENDENT_GIF) == (1, 1, 1)
    assert decode_image(_INDEPENDENT_GIF)[3] == "gif"


# SOI, APP0, DQT (dummy), SOF0 with height=31 width=77 3 components
_JPEG_HEADER = (
    b"\xff\xd8"                                      # SOI
    b"\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"  # APP0
    b"\xff\xdb\x00\x05\x00\x01\x02\x03"              # DQT (dummy)
    b"\xff\xc0\x00\x11\x08" + struct.pack(">HH", 31, 77) + b"\x03"
    b"\x01\x22\x00\x02\x11\x01\x03\x11\x01"          # 3 components
)
# one scan: SOS, entropy-coded bytes with a stuffed FF00 and a restart
# marker, then fill bytes before EOI
_JPEG = _JPEG_HEADER + (
    b"\xff\xda\x00\x0c\x03\x01\x00\x02\x11\x03\x11\x00\x3f\x00"  # SOS
    b"\x12\x34\xff\x00\x56\xff\xd0\x78\xff\xff\xd9"      # scan data, RST0, EOI
)


def test_jpeg_sof_parse():
    """A full SOI...EOI stream decodes; one cut after its frame header,
    inside its scan or before its EOI raises ValueError."""
    assert decode_jpeg(_JPEG) == (77, 31, 3)
    assert decode_image(_JPEG) == (77, 31, 3, "jpeg")
    for cut in (_JPEG_HEADER, _JPEG[:-9], _JPEG[:-2], _JPEG[:-1]):
        with pytest.raises(ValueError):
            decode_jpeg(cut)


def test_bmp_negative_height_topdown():
    """Top-down BMPs carry negative biHeight; decode reports abs."""
    p = bytearray(synth_bmp(6, 4))
    struct.pack_into("<i", p, 22, -4)
    assert decode_bmp(bytes(p)) == (6, 4, 3)


def test_unrecognized_raises():
    with pytest.raises(ValueError):
        decode_image(b"PK\x03\x04 definitely a zip")
    with pytest.raises(ValueError):
        decode_image(b"")


def test_wav_roundtrip_and_closed_form_size():
    from lighthouse_ray.functions.multimodal import decode_wav, synth_wav

    for nf, ch, sr in [(1, 1, 8000), (441, 2, 44100), (999, 1, 16000)]:
        p = synth_wav(nf, channels=ch, sample_rate=sr, seed=nf)
        m = decode_wav(p)
        assert m == {"channels": ch, "sample_rate": sr, "bits_per_sample": 16,
                     "n_frames": nf, "duration_ms": nf * 1000 // sr}
        assert len(p) == 44 + nf * 2 * ch


def test_wav_rejects_malformed():
    import pytest as _pt

    from lighthouse_ray.functions.multimodal import decode_wav, synth_wav

    with _pt.raises(ValueError):
        decode_wav(b"RIFFxxxxNOPE")
    with _pt.raises(ValueError):
        decode_wav(b"not even riff")
    # truncated fmt/data: no data chunk found
    p = synth_wav(10)[:20]
    with _pt.raises(ValueError):
        decode_wav(p)


def test_audio_stage_distributed(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from lighthouse_ray.functions.multimodal import extract_audio_meta, synth_wav

    t = pa.table({
        "media_id": pa.array(["a", "b"], type=pa.string()),
        "payload": pa.array([synth_wav(100, 1, 8000), synth_wav(50, 2, 44100)],
                            type=pa.large_binary()),
    })
    out = extract_audio_meta(rd.from_arrow(t)).to_pandas().sort_values("media_id")
    assert out["n_frames"].tolist() == [100, 50]
    assert out["channels"].tolist() == [1, 2]
    assert out["sample_rate"].tolist() == [8000, 44100]


def test_mp4_roundtrip():
    from lighthouse_ray.functions.multimodal import decode_mp4, synth_mp4

    for w, h, d in [(320, 192, 500), (1920, 1024, 59999), (640, 360, 12500)]:
        p = synth_mp4(w, h, d)
        m = decode_mp4(p)
        assert m == {"width": w, "height": h, "n_tracks": 1,
                     "brand": "isom", "duration_ms": d}
        assert len(p) == 256  # the oracle's constant


def test_mp4_rejects_malformed():
    import pytest as _pt

    from lighthouse_ray.functions.multimodal import decode_mp4, synth_mp4

    with _pt.raises(ValueError):
        decode_mp4(b"\x00\x00\x00\x08free")  # no ftyp/moov
    with _pt.raises(ValueError):
        decode_mp4(synth_mp4(64, 64, 100)[:40])  # truncated moov
    with _pt.raises(ValueError):
        decode_mp4(b"garbage that is not boxes at all!")
    with _pt.raises(ValueError, match="largesize"):  # 12 of 16 header bytes
        decode_mp4(struct.pack(">I", 1) + b"mdat" + bytes(4))
    empty_mvhd = struct.pack(">I", 8) + b"mvhd"
    with _pt.raises(ValueError, match="mvhd"):
        decode_mp4(synth_mp4(64, 64, 100)[:40] + struct.pack(">I", 16) + b"moov" + empty_mvhd)
    # an empty tkhd has no width/height fields: reading its last 8 bytes
    # would take them from the box's own header
    p = synth_mp4(64, 32, 900)
    (mvhd_len,) = struct.unpack(">I", p[48:52])  # first box inside moov
    mvhd = p[48:48 + mvhd_len]
    trak = struct.pack(">I", 16) + b"trak" + struct.pack(">I", 8) + b"tkhd"
    with _pt.raises(ValueError, match="tkhd"):
        decode_mp4(p[:40] + struct.pack(">I", 8 + len(mvhd) + len(trak)) + b"moov" + mvhd + trak)


def test_mp4_64bit_largesize_and_v1_mvhd():
    """Spec coverage beyond the synthesizer: a box with size==1 uses the
    64-bit largesize field; mvhd version 1 uses 64-bit duration."""
    import struct

    from lighthouse_ray.functions.multimodal import decode_mp4, synth_mp4

    base = synth_mp4(128, 64, 2000)
    # wrap the mdat stub as a largesize box: size=1 + 64-bit size
    mdat_body = b"\x00" * 8
    big_mdat = struct.pack(">I", 1) + b"mdat" + struct.pack(">Q", 16 + len(mdat_body)) + mdat_body
    ftyp, rest = base[:24], base[24 + 16:]
    assert decode_mp4(ftyp + big_mdat + rest)["width"] == 128


def test_png_decompression_bomb_bounded():
    """A tiny IDAT inflating far past the header's raw size must fail
    fast without materializing the expansion (the ingest-actor DoS
    guard): 1x1 RGB header + an IDAT that decompresses to 50 MB."""
    from lighthouse_ray.functions.multimodal import _PNG_SIG, _png_chunk, decode_png

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)  # expects 4 raw bytes
    bomb = zlib.compress(b"\x00" * (50 * 1024 * 1024), 9)  # ~50 KB compressed
    p = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
         + _png_chunk(b"IDAT", bomb) + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="pixel payload"):
        decode_png(p)


def test_decoders_fuzz_raise_only_expected_types():
    """Random/garbled bytes through every decoder either decode or raise
    ValueError, the one error type the decode stage documents."""
    import random

    from lighthouse_ray.functions.multimodal import (
        decode_gif_frames,
        decode_image,
        decode_mp4,
        decode_wav,
        synth_bmp,
        synth_gif_animation,
        synth_mp4,
        synth_png,
        synth_wav,
    )

    rng = random.Random(99)
    seeds = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
             for _ in range(200)]
    # truncations/corruptions of valid payloads too
    for maker in (lambda: synth_png(9, 7, 3, 1), lambda: synth_bmp(5, 4, 2),
                  lambda: synth_wav(30), lambda: synth_mp4(64, 32, 900)):
        p = maker()
        for cut in (1, 9, len(p) // 2, len(p) - 3):
            seeds.append(p[:cut])
        b = bytearray(p)
        for i in range(0, len(b), max(1, len(b) // 17)):
            b[i] ^= 0xFF
        seeds.append(bytes(b))
    for payload in seeds:
        for fn in (decode_image, decode_wav, decode_mp4):
            try:
                fn(payload)
            except ValueError:
                pass

    # GIF: every truncation and a spread of byte corruptions of a valid
    # animation (extension, descriptor and image-data sub-blocks) raise
    # only the documented ValueError
    gif = synth_gif_animation(6, 5, 3, seed=4)
    gifs = [gif[:cut] for cut in range(len(gif))] + [b"GIF89a" + bytes(7)]
    for i in range(6, len(gif)):
        for v in (0x00, 0x01, 0xFF, gif[i] ^ 0x55):
            gifs.append(gif[:i] + bytes([v]) + gif[i + 1:])
    for payload in gifs:
        for fn in (decode_image, decode_gif_frames):
            try:
                fn(payload)
            except ValueError:
                pass


def _truncations_and_corruptions(p: bytes):
    """Every truncation of ``p``, then every single-byte corruption at
    every offset."""
    yield from (p[:cut] for cut in range(len(p)))
    for i in range(len(p)):
        for v in range(256):
            if v != p[i]:
                yield p[:i] + bytes([v]) + p[i + 1:]


@pytest.mark.parametrize("kind", ["png", "bmp", "wav", "mp4"])
def test_synth_sweep_raises_only_valueerror(kind):
    """Every truncation and single-byte corruption of a synthesized file
    either decodes or raises ValueError — never a ``zlib.error``,
    ``struct.error`` or ``IndexError`` from a short or garbled field."""
    from lighthouse_ray.functions.multimodal import (
        decode_mp4,
        decode_wav,
        synth_mp4,
        synth_wav,
    )

    payload, decode = {
        "png": (synth_png(9, 7, 3, 1), decode_image),
        "bmp": (synth_bmp(5, 4, 2), decode_image),
        "wav": (synth_wav(30), decode_wav),
        "mp4": (synth_mp4(64, 32, 900), decode_mp4),
    }[kind]
    decode(payload)
    for p in _truncations_and_corruptions(payload):
        try:
            decode(p)
        except ValueError:
            pass


def test_jpeg_fuzz_truncations_and_corruptions_raise_only_valueerror():
    """Every truncation and every single-byte corruption of a baseline
    SOI...EOI JPEG either decodes or raises ValueError — never a
    ``struct.error``/``IndexError`` from reading past the payload — and
    every truncation raises."""
    jpg = _JPEG
    assert decode_jpeg(jpg) == (77, 31, 3)
    for i in range(len(jpg)):
        with pytest.raises(ValueError):
            decode_jpeg(jpg[:i])
    for payload in (b"\xff\xd8\xff\xc0\x00\x11", b"\xff\xd8\xff\xc0\x00\x11\x08\x00"):
        with pytest.raises(ValueError):
            decode_jpeg(payload)
    for payload in _truncations_and_corruptions(jpg):
        for fn in (decode_jpeg, decode_image):
            try:
                fn(payload)
            except ValueError:
                pass


def test_gif_lzw_roundtrip_and_width_sync():
    """From-scratch GIF LZW codec: roundtrip across sizes/palettes incl.
    the 4096-entry dictionary reset, plus the width-sync case that
    desynced a naive decoder ([3,0,0] at min_code_size 2)."""
    import numpy as np

    from lighthouse_ray.functions.multimodal import _lzw_decode, _lzw_encode

    rng = np.random.RandomState(3)
    for n in (1, 2, 3, 5, 20, 5000, 60000):
        for bits in (2, 4, 8):
            px = rng.randint(0, 1 << bits, n).astype(np.uint8)
            assert np.array_equal(
                _lzw_decode(max(2, bits), _lzw_encode(max(2, bits), px), n), px)
    px = np.asarray([3, 0, 0], dtype=np.uint8)  # the early-change trigger
    assert np.array_equal(_lzw_decode(2, _lzw_encode(2, px), 3), px)
    rep = np.tile(np.arange(16, dtype=np.uint8), 40000)  # forces 4096 reset
    enc = _lzw_encode(4, rep)
    assert len(enc) < len(rep) // 10  # real compression happened
    assert np.array_equal(_lzw_decode(4, enc, len(rep)), rep)


def test_gif_probe_decodes_independent_encoder():
    """The 1x1 probe GIF was authored by an INDEPENDENT encoder — our
    decoder must read its pixel (external validation of the codec)."""
    import numpy as np

    from lighthouse_ray.functions.multimodal import decode_gif_frames

    fr = decode_gif_frames(_INDEPENDENT_GIF)
    assert len(fr) == 1 and fr[0].shape == (1, 1) and fr[0][0, 0] == 0


def test_frame_sampling_real_decode(ray_session):
    """Animated-GIF frame sampling end to end: synth -> LZW decode ->
    every-Nth sampling, distributed; digests are of DECODED pixels."""
    import hashlib as _h

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lighthouse_ray.functions.multimodal import (
        decode_gif_frames,
        extract_frame_samples,
        frame_sample,
        synth_gif_animation,
    )

    g = synth_gif_animation(31, 17, 9, seed=4)
    frames = decode_gif_frames(g)
    assert len(frames) == 9 and frames[0].shape == (17, 31)
    s = frame_sample(g, every_n=3)
    assert [x["frame_index"] for x in s] == [0, 3, 6]
    assert s[0]["pixel_sha256"] == _h.sha256(frames[0].tobytes()).hexdigest()

    t = pa.table({
        "media_id": pa.array(["a", "b"], type=pa.string()),
        "payload": pa.array([g, synth_gif_animation(8, 8, 2, seed=5)],
                            type=pa.large_binary()),
    })
    out = extract_frame_samples(rd.from_arrow(t)).to_pandas()
    assert sorted(out[out["media_id"] == "a"]["frame_index"]) == [0, 3, 6]
    assert sorted(out[out["media_id"] == "b"]["frame_index"]) == [0]
    with pytest.raises(ValueError):
        frame_sample(b"not a gif")
    # frame overrun / truncation caught
    with pytest.raises(ValueError):
        decode_gif_frames(g[:40])


def test_gif_lzw_constant_run_boundary_sweep():
    """Constant-run frames hit every code-width boundary INCLUDING the
    tail case (the decoder adds a table entry for the final data code
    and may widen before reading END).  Sweep every run length through
    several width transitions."""
    import numpy as np

    from lighthouse_ray.functions.multimodal import _lzw_decode, _lzw_encode

    for n in range(1, 1200):
        px = np.full(n, 8, dtype=np.uint8)
        assert np.array_equal(_lzw_decode(4, _lzw_encode(4, px), n), px), n


def _gif_descriptors(payload: bytes) -> list[tuple[int, int, bool, int]]:
    """(width, height, interlaced, color-table size) of every image
    descriptor, found by walking the GIF blocks."""
    flags = payload[10]
    gct = 2 << (flags & 7) if flags & 0x80 else 0
    pos = 13 + 3 * gct
    out = []
    while payload[pos] != 0x3B:
        if payload[pos] == 0x21:
            pos += 2
        else:
            w, h = struct.unpack("<HH", payload[pos + 5:pos + 9])
            iflags = payload[pos + 9]
            lct = 2 << (iflags & 7) if iflags & 0x80 else 0
            out.append((w, h, bool(iflags & 0x40), lct or gct))
            pos += 10 + 3 * lct + 1
        while payload[pos]:
            pos += 1 + payload[pos]
        pos += 1
    return out


def test_gif_decodes_stdlib_icons():
    """Every GIF shipped in the stdlib's idlelib/Icons (written by other
    encoders, two of them interlaced) decodes, one frame per descriptor
    with the descriptor's size and in-palette indices."""
    import glob
    import os

    import idlelib
    import numpy as np

    from lighthouse_ray.functions.multimodal import decode_gif_frames

    icons = os.path.join(os.path.dirname(idlelib.__file__), "Icons")
    paths = sorted(glob.glob(os.path.join(icons, "*.gif")))
    assert len(paths) == 9
    frames = {}
    n_interlaced = 0
    for path in paths:
        payload = open(path, "rb").read()
        descs = _gif_descriptors(payload)
        got = decode_gif_frames(payload)
        assert len(got) == len(descs), path
        for f, (w, h, interlaced, ncol) in zip(got, descs):
            assert f.shape == (h, w), path
            assert int(f.max()) < ncol, path
            n_interlaced += interlaced
        frames[os.path.basename(path)] = got[0]
    assert n_interlaced == 2
    # the plus and minus tree-node icons differ exactly in the plus
    # sign's vertical stroke: rows 3-7 but the shared centre, column 5
    plus, minus = frames["plusnode.gif"], frames["minusnode.gif"]
    assert plus.shape == minus.shape == (11, 11)
    assert [tuple(x) for x in np.argwhere(plus != minus)] == [
        (3, 5), (4, 5), (6, 5), (7, 5)]


def test_gif_interlaced_rows_reordered():
    """An interlaced frame stores rows in 4 passes (every 8th row from
    0, every 8th from 4, every 4th from 2, every 2nd from 1); the decoder
    returns them in display order."""
    import numpy as np

    from lighthouse_ray.functions.multimodal import _lzw_encode, decode_gif_frames

    for h in (1, 2, 3, 5, 8, 13, 20):
        w = 7
        img = (np.arange(h * w, dtype=np.int64).reshape(h, w) * 5 % 16).astype(np.uint8)
        stored = np.concatenate([img[0::8], img[4::8], img[2::4], img[1::2]])
        enc = _lzw_encode(4, stored)
        gif = bytearray(b"GIF89a" + struct.pack("<HHBBB", w, h, 0x83, 0, 0))
        gif += bytes(range(48))  # 16-entry global color table
        gif += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0x40) + b"\x04"
        for i in range(0, len(enc), 255):
            gif += bytes([len(enc[i:i + 255])]) + enc[i:i + 255]
        gif += b"\x00\x3b"
        (got,) = decode_gif_frames(bytes(gif))
        assert np.array_equal(got, img), h


_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _png_of(img, bit_depth: int, color_type: int, interlace: int = 0,
            trim: int = 0) -> bytes:
    """PNG whose scanlines are packed with np.packbits from ``img``
    ((h, w) or (h, w, channels) samples), Adam7 reduced images cut by
    slicing; ``trim`` drops bytes from the end of the raw stream."""
    import numpy as np

    from lighthouse_ray.functions.multimodal import _PNG_SIG, _png_chunk

    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape[:2]
    subs = ([img[y0::dy, x0::dx] for x0, y0, dx, dy in _ADAM7]
            if interlace else [img])
    shifts = np.arange(bit_depth - 1, -1, -1)
    raw = bytearray()
    for sub in subs:
        for row in sub:
            if row.size:
                bits = (row.reshape(-1)[:, None] >> shifts) & 1
                raw += b"\x00" + np.packbits(bits.astype(np.uint8)).tobytes()
    raw = bytes(raw[:len(raw) - trim])
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, interlace)
    plte = _png_chunk(b"PLTE", bytes(range(48))) if color_type == 3 else b""
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + plte
            + _png_chunk(b"IDAT", zlib.compress(raw)) + _png_chunk(b"IEND", b""))


@pytest.mark.parametrize("bit_depth,color_type,w,h", [
    (1, 0, 8, 4), (1, 0, 13, 3), (2, 0, 5, 6), (4, 0, 9, 2),
    (1, 3, 10, 3), (2, 3, 7, 7), (4, 3, 3, 5)])
def test_png_low_bit_depth(bit_depth, color_type, w, h):
    """Samples below 8 bits pack several pixels per byte; each scanline
    is one filter byte plus ceil(bits * width / 8) bytes."""
    import numpy as np

    img = np.arange(w * h).reshape(h, w) % (1 << bit_depth)
    assert decode_png(_png_of(img, bit_depth, color_type)) == (w, h, 1)
    with pytest.raises(ValueError, match="pixel payload"):
        decode_png(_png_of(img, bit_depth, color_type, trim=1))


@pytest.mark.parametrize("bit_depth,color_type,shape", [
    (8, 2, (3, 5, 3)), (8, 6, (9, 10, 4)), (1, 0, (1, 1)), (2, 0, (7, 3)),
    (4, 3, (17, 11)), (16, 0, (4, 6)), (8, 0, (2, 9))])
def test_png_adam7_interlaced(bit_depth, color_type, shape):
    """Adam7 stores 7 reduced images, each with its own scanlines; the
    raw size is the sum over the non-empty passes."""
    import numpy as np

    img = np.arange(int(np.prod(shape))).reshape(shape) % (1 << min(bit_depth, 8))
    p = _png_of(img, bit_depth, color_type, interlace=1)
    h, w = shape[:2]
    assert decode_png(p) == (w, h, shape[2] if len(shape) == 3 else 1)
    # the same samples stored without interlacing have a different
    # raw size, so the Adam7 flag is what makes the payload valid
    flat = _png_of(img, bit_depth, color_type, interlace=0)
    if len(zlib.decompress(_idat(flat))) != len(zlib.decompress(_idat(p))):
        with pytest.raises(ValueError, match="pixel payload"):
            decode_png(_replace_idat(p, _idat(flat)))
    with pytest.raises(ValueError, match="pixel payload"):
        decode_png(_png_of(img, bit_depth, color_type, interlace=1, trim=1))


def test_png_rejects_bad_header_fields():
    import numpy as np

    img = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="bit depth"):
        decode_png(_png_of(img, 4, 2))  # RGB must be 8 or 16 bits
    p = bytearray(_png_of(img, 8, 0))
    p[28] = 2  # interlace methods are 0 and 1 only
    with pytest.raises(ValueError, match="interlace"):
        decode_png(bytes(p))
