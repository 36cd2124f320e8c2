"""Wire-compression codec: round-trip, size bounds, scheme selection,
and byte-for-byte equality with the regex oracle (``codec_oracle``)."""

import hashlib

import codec_oracle
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import compress
from repro.mem.page import PAGE_SIZE


def _page(data=b"", fill=0):
    """A full page: ``data`` padded with ``fill`` bytes."""
    return bytes(data) + bytes([fill]) * (PAGE_SIZE - len(data))


def _rng_bytes(seed, n=PAGE_SIZE):
    """Deterministic pseudo-random bytes (no global RNG state)."""
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:n])


# -- scheme selection ------------------------------------------------------

def test_zero_page_suppressed():
    scheme, payload = compress.encode_page(_page())
    assert scheme == compress.SCHEME_ZERO
    assert payload == b""
    assert compress.wire_size(_page()) == 0


def test_sparse_page_rle_much_smaller():
    """A page holding 32 payload bytes (the md5 digest page shape)."""
    scheme, payload = compress.encode_page(_page(b"d" * 32))
    assert scheme == compress.SCHEME_RLE
    assert len(payload) < 100


def test_small_int32_array_compresses():
    """Little-endian int32 values < 256: one payload byte, three zero
    bytes — the shape of matmult's input matrices."""
    data = np.arange(1, 1025, dtype="<i4") % 99 + 1
    scheme, payload = compress.encode_page(data.tobytes())
    assert scheme == compress.SCHEME_RLE
    assert len(payload) <= 3 * PAGE_SIZE // 4


def test_random_page_falls_back_to_raw():
    data = _rng_bytes("entropy")
    scheme, payload = compress.encode_page(data)
    assert scheme == compress.SCHEME_RAW
    assert payload == data
    assert compress.wire_size(data) == PAGE_SIZE


# -- round-trip and oracle properties -------------------------------------

def _check_codec(data):
    """``data`` round-trips, never encodes above raw size, and matches
    the regex oracle byte for byte (``encode_page``) and length for
    length (``wire_size``) whichever buffer type carries it."""
    expected = codec_oracle.encode_page(data)
    for buf in (data, bytearray(data), memoryview(data)):
        assert compress.encode_page(buf) == expected
        assert compress.wire_size(buf) == len(expected[1])
    assert compress.decode_page(*expected) == data
    assert len(expected[1]) <= PAGE_SIZE


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.integers(0, 255))
def test_roundtrip_padded_pages(prefix, fill):
    """Constant-fill pages with an arbitrary prefix round-trip."""
    _check_codec(_page(prefix, fill))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, PAGE_SIZE - 1),
                          st.binary(min_size=1, max_size=200)),
                max_size=8))
def test_roundtrip_sparse_scatter(writes):
    """Pages with scattered literal islands in a zero sea round-trip,
    and never encode above raw size."""
    page = bytearray(PAGE_SIZE)
    for offset, blob in writes:
        blob = blob[:PAGE_SIZE - offset]
        page[offset:offset + len(blob)] = blob
    _check_codec(bytes(page))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_roundtrip_pseudorandom_pages(seed):
    _check_codec(_rng_bytes(seed))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([256, 2**24]), st.integers(0, 2**32))
def test_roundtrip_int32_arrays(bound, seed):
    """Little-endian int32 arrays of small values: the matmult shape,
    where every value leaves a 1-3 byte zero run (folded below
    MIN_ZERO_RUN, a token at or above it)."""
    values = np.random.default_rng(seed).integers(0, bound, PAGE_SIZE // 4)
    _check_codec(values.astype("<i4").tobytes())


def test_roundtrip_run_boundaries():
    """Runs straddling the 128-byte token limits, at the start, middle
    and end of the page, round-trip exactly and match the oracle.  A
    33-zero run at the start puts the RLE length at exactly PAGE_SIZE
    (ships raw); a 34-zero run one byte below it (ships RLE)."""
    for run in (1, 2, 3, 33, 34, 127, 128, 129, 256, 257, PAGE_SIZE - 66):
        _check_codec(_page(b"x" * 64 + b"\x00" * run + b"y", fill=7))
        _check_codec(b"\x00" * run + _page(b"y", fill=7)[run:])
        _check_codec(_page(b"", fill=7)[run:] + b"\x00" * run)


def test_zero_and_single_byte_pages():
    _check_codec(_page())
    for offset in (0, 1, 2, 3, 127, 128, 129, PAGE_SIZE // 2,
                   PAGE_SIZE - 2, PAGE_SIZE - 1):
        page = bytearray(PAGE_SIZE)
        page[offset] = 0xA5
        _check_codec(bytes(page))


def test_reject_bad_inputs():
    import pytest
    with pytest.raises(ValueError):
        compress.encode_page(b"short")
    for bad in (b"", b"short", bytes(PAGE_SIZE - 1), bytes(PAGE_SIZE + 1)):
        with pytest.raises(ValueError, match="must be 4096 bytes"):
            compress.wire_size(bad)
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_ZERO, b"x")
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_RAW, b"short")
    with pytest.raises(ValueError):
        compress.decode_page("gzip", b"")
    with pytest.raises(ValueError):
        compress.decode_page(compress.SCHEME_RLE, bytes([5]))  # truncated
