"""Shared test helper: a digest of one space's memory image."""

import hashlib


def memory_image(space):
    """sha256 over ``space``'s mapped pages in vpn order: each vpn
    (8 bytes, little-endian) followed by its frame's bytes."""
    digest = hashlib.sha256()
    aspace = space.addrspace
    for vpn in aspace.mapped_vpns():
        digest.update(vpn.to_bytes(8, "little"))
        digest.update(aspace.frame(vpn).data)
    return digest.hexdigest()
