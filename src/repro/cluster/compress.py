"""Page-granularity wire compression: zero suppression + zero-run RLE.

Demand-paged and migrated frames dominate cluster wire bytes, and most
of them are nowhere near random: program images are sparse, freshly
zero-filled heaps are literally zero, and numeric workloads ship arrays
of small integers whose upper bytes are zero (a little-endian ``int32``
below 256 is one payload byte followed by three zero bytes).  Because
execution is deterministic, compressing a frame can never perturb
results — the payload is bit-identical on both sides regardless of how
it crossed the wire — so the transport is free to trade encode/decode
cycles for bandwidth.

Two schemes, chosen per frame:

``SCHEME_ZERO``
    The frame is entirely zero: nothing crosses the wire beyond the
    batch's per-page header (zero-page suppression).
``SCHEME_RLE``
    Zero-run run-length coding.  The stream is a sequence of tokens,
    each led by one control byte ``C``: ``C < 0x80`` introduces a
    literal run of ``C + 1`` bytes (which follow); ``C >= 0x80`` is a
    zero run of ``C - 0x7F`` bytes (1..128, longer runs repeat tokens).
    Zero runs shorter than :data:`MIN_ZERO_RUN` are folded into the
    surrounding literal — a 2-byte run costs the same either way and a
    token split would only add control bytes.
``SCHEME_RAW``
    Chosen whenever RLE fails to beat the raw frame (high-entropy
    pages): the original 4096 bytes ship unchanged.  Compression is
    therefore *never* a pessimization in wire bytes — the conservation
    invariant ``compressed <= raw`` holds per page, per link, always.

The codec is a real round-tripping implementation, not an estimate.
:func:`encode_page` and :func:`wire_size` start from the same zero-run
boundaries, found with numpy over the whole frame (no per-byte or
per-token Python loop).  ``encode_page`` builds the payload from them;
``wire_size``, which the transport charges wire bytes from (cached per
frame content tag), computes the payload's exact length from them
without building it.  The tests check both for equality, byte for byte
and length for length, against the original per-token regex encoder
kept as the oracle in ``tests/cluster/codec_oracle.py``;
:func:`decode_page` is property-tested as the inverse on random, zero,
sparse and small-integer frames.
"""

import numpy as np

from repro.mem.page import PAGE_SIZE

#: Scheme tags carried in the PAGE_BATCH per-page header.
SCHEME_ZERO = "zero"
SCHEME_RLE = "rle"
SCHEME_RAW = "raw"

#: Shortest zero run encoded as a run token.  At 3 the token (1 byte)
#: beats keeping the zeros in a literal (3 bytes, possibly splitting a
#: control byte); below 3 it never can.
MIN_ZERO_RUN = 3

#: Longest literal or zero run one control byte describes: C in
#: 0x00..0x7F is 1..128 literal bytes, C in 0x80..0xFF 1..128 zeros.
_SPAN = 0x80

_ZERO_PAGE = bytes(PAGE_SIZE)


def _segments(data):
    """Lay one frame out as the RLE stream's segments.

    Returns ``(page, in_run, lengths, size)``: the frame as ``uint8``;
    the mask of its bytes inside run tokens, i.e. inside a maximal zero
    run of at least :data:`MIN_ZERO_RUN` bytes; the lengths of the
    alternating literal and run segments, literal first (the first and
    last literal may be empty); and the wire size.  The size is 0 for an
    all-zero frame and capped at ``PAGE_SIZE`` (raw); otherwise it is
    the RLE payload length: every literal byte plus one control byte per
    started 128-byte chunk of every segment.  ``lengths`` is ``None``
    when the frame ships zero or raw.
    """
    # bytes() accepts every buffer the codec ever took (including
    # non-contiguous views); for a ``bytes`` frame it is not a copy.
    page = np.frombuffer(bytes(data), dtype=np.uint8)
    if page.size != PAGE_SIZE:
        raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
    zero = page == 0
    # A byte is in a run exactly when some window of MIN_ZERO_RUN zeros
    # covers it: find the windows, then mark every byte they cover.
    span = PAGE_SIZE - MIN_ZERO_RUN + 1
    windows = zero[:span] & zero[1:span + 1]
    for shift in range(2, MIN_ZERO_RUN):
        windows &= zero[shift:span + shift]
    # One False on either side, so diffing yields every run edge.
    padded = np.zeros(PAGE_SIZE + 2, dtype=bool)
    in_run = padded[1:-1]
    in_run[:span] = windows
    for shift in range(1, MIN_ZERO_RUN):
        in_run[shift:span + shift] |= windows
    literal = PAGE_SIZE - int(np.count_nonzero(in_run))
    if literal == 0:
        return page, in_run, None, 0
    # Literal bytes plus the control bytes they alone need already
    # reach raw: no run layout can win.
    if -(-literal // _SPAN) >= PAGE_SIZE - literal:
        return page, in_run, None, PAGE_SIZE
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    bounds = np.concatenate(([0], edges, [PAGE_SIZE]))
    lengths = bounds[1:] - bounds[:-1]
    # One control byte per non-empty segment, plus one per further
    # 128-byte chunk of a long one.
    size = literal + int(np.count_nonzero(lengths))
    if lengths.max() > _SPAN:
        size += int(((lengths[lengths > _SPAN] - 1) // _SPAN).sum())
    if size >= PAGE_SIZE:
        return page, in_run, None, PAGE_SIZE
    return page, in_run, lengths, size


def encode_page(data):
    """Encode one 4 KiB frame; returns ``(scheme, payload_bytes)``.

    The scheme is chosen to minimize wire bytes: all-zero frames ship
    nothing, RLE only when it actually beats raw — so
    ``len(payload) <= PAGE_SIZE`` unconditionally.
    """
    page, in_run, lengths, size = _segments(data)
    if size == 0:
        return SCHEME_ZERO, b""
    if lengths is None:
        return SCHEME_RAW, page.tobytes()
    # One control byte per 128-byte chunk of every segment, inserted
    # into the literal bytes just before the chunk it describes.
    tokens = (lengths + _SPAN - 1) // _SPAN
    segment = np.repeat(np.arange(lengths.size), tokens)
    chunk = np.arange(segment.size) - (np.cumsum(tokens) - tokens)[segment]
    is_run = segment & 1
    control = (np.minimum(lengths[segment] - _SPAN * chunk, _SPAN) - 1
               + 0x80 * is_run)
    literal_lengths = lengths.copy()
    literal_lengths[1::2] = 0
    literal_before = np.cumsum(literal_lengths) - literal_lengths
    at = literal_before[segment] + _SPAN * chunk * (1 - is_run)
    payload = np.insert(page[~in_run], at, control.astype(np.uint8))
    return SCHEME_RLE, payload.tobytes()


def decode_page(scheme, payload):
    """Invert :func:`encode_page`; returns the original 4096 bytes."""
    if scheme == SCHEME_ZERO:
        if payload:
            raise ValueError("zero-page payload must be empty")
        return _ZERO_PAGE
    if scheme == SCHEME_RAW:
        if len(payload) != PAGE_SIZE:
            raise ValueError("raw payload must be one full page")
        return bytes(payload)
    if scheme != SCHEME_RLE:
        raise ValueError(f"unknown scheme {scheme!r}")
    out = bytearray()
    pos = 0
    n = len(payload)
    while pos < n:
        control = payload[pos]
        pos += 1
        if control < 0x80:
            take = control + 1
            if pos + take > n:
                raise ValueError("truncated literal token")
            out += payload[pos:pos + take]
            pos += take
        else:
            out += bytes(control - 0x7F)
    if len(out) != PAGE_SIZE:
        raise ValueError(
            f"decoded {len(out)} bytes, expected {PAGE_SIZE}")
    return bytes(out)


def wire_size(data):
    """Wire payload bytes of one frame under compression.

    ``wire_size(d) == len(encode_page(d)[1])`` — computed from the same
    zero-run boundaries without building the payload — and bounded by
    ``PAGE_SIZE`` because raw is always a candidate scheme.
    """
    return _segments(data)[3]
