"""Both seeded corpus schemes, pinned byte for byte.

The serial stream and the chunked scheme draw from one shared loop; these
digests hold each scheme's bytes (and so its RNG draw order) fixed.
"""

from __future__ import annotations

import hashlib

from repro.replay.generate import TraceProfile, generate_trace

PROFILE = TraceProfile(ops=5000, seed=7, files=16)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_serial_corpus_is_pinned(tmp_path):
    path = tmp_path / "serial.bin"
    assert generate_trace(str(path), PROFILE) == 5038
    assert _digest(path) == (
        "57c675e4a90603258c24f1a515c9e8bea262c3d3ebfba178453a03dfac72bdd2"
    )


def test_chunked_corpus_is_pinned(tmp_path):
    path = tmp_path / "chunked.bin"
    assert generate_trace(str(path), PROFILE, workers=1, chunk_ops=1500) == 5012
    assert _digest(path) == (
        "0b38bb8d1fceda66d3cb9f8286712e97903e3a4b07c5943ce777080760cd9238"
    )
