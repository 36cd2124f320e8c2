"""Reference page encoder: the oracle for :mod:`repro.cluster.compress`.

The original per-token encoder, kept in the tests as the plain reading
of the RLE format: a regex finds every maximal zero run of at least
``MIN_ZERO_RUN`` bytes, and each run and each literal stretch between
runs is cut into 128-byte tokens, one ``bytes`` object at a time.  It is
slow, but every step is the format as written, so the vectorized codec
must match it byte for byte (payload) and length for length
(``wire_size``).
"""

import re

from repro.cluster.compress import (
    MIN_ZERO_RUN, SCHEME_RAW, SCHEME_RLE, SCHEME_ZERO)
from repro.mem.page import PAGE_SIZE

_MAX_LIT = 0x80        # C in 0x00..0x7F -> 1..128 literal bytes
_RUN_SPAN = 0x80       # C in 0x80..0xFF -> 1..128 zero bytes

_ZERO_PAGE = bytes(PAGE_SIZE)
_ZERO_RUN_RE = re.compile(rb"\x00{%d,}" % MIN_ZERO_RUN)


def _emit_literal(out, chunk):
    """Append literal tokens covering ``chunk`` (may exceed 128 bytes)."""
    for start in range(0, len(chunk), _MAX_LIT):
        piece = chunk[start:start + _MAX_LIT]
        out.append(bytes((len(piece) - 1,)))
        out.append(bytes(piece))


def _emit_zero_run(out, length):
    """Append zero-run tokens covering ``length`` zero bytes."""
    while length > 0:
        take = min(length, _RUN_SPAN)
        out.append(bytes((0x80 + take - 1,)))
        length -= take


def encode_page(data):
    """Encode one 4 KiB frame; returns ``(scheme, payload_bytes)``."""
    data = bytes(data)
    if len(data) != PAGE_SIZE:
        raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
    if data == _ZERO_PAGE:
        return SCHEME_ZERO, b""
    out = []
    pos = 0
    for match in _ZERO_RUN_RE.finditer(data):
        if match.start() > pos:
            _emit_literal(out, data[pos:match.start()])
        _emit_zero_run(out, match.end() - match.start())
        pos = match.end()
    if pos < PAGE_SIZE:
        _emit_literal(out, data[pos:])
    payload = b"".join(out)
    if len(payload) >= PAGE_SIZE:
        return SCHEME_RAW, data
    return SCHEME_RLE, payload
