"""tests/byte_identity.py stays importable, its probe names unique, its library probes live.

The whole catalogue runs as `python tests/byte_identity.py [--against PATH]`
(about a minute, CLI children included); here one cheap probe runs in
process and a sweep's float bits are checked not to follow the worker count.
"""

import re

import pytest

from . import byte_identity


def test_probe_names_are_unique_and_well_formed():
    names = byte_identity.probe_names()
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"(kernel|stream|grid|scalar|cli)\.[\w.-]+", name) for name in names), names
    assert {f"cli.simulate.table{t}" for t in range(5, 11)} <= set(names)


def test_every_kernel_probe_finds_its_kernel():
    for name in byte_identity.probe_names():
        if name.startswith("kernel."):
            assert callable(byte_identity.kernel(name.removeprefix("kernel.")))
    with pytest.raises(LookupError, match="no kernel 'nope'"):
        byte_identity.kernel("nope")


def test_a_library_probe_gives_one_repeatable_digest():
    probe = byte_identity.LIBRARY_PROBES["kernel.select_batch"]
    digest = probe()
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert probe() == digest


def test_grid_float_bits_do_not_follow_the_worker_count():
    digests = {byte_identity.grid_digest(6, reps=300, workers=w) for w in (1, 2, 3)}
    assert len(digests) == 1
