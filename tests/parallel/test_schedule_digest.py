"""``schedule_digest`` hashes one joined buffer; the digest is unchanged.

The digest used to feed SHA-256 one ``update`` per trace event.  Hashing
the joined fingerprint once is the same byte stream, so every committed
digest stays valid; this pins that over every corpus kernel's buggy
variant.
"""

import hashlib

import pytest

from repro import run
from repro.bugs import registry
from repro.parallel import schedule_digest


def _per_event_digest(result):
    """The original formulation: one ``update`` per event."""
    h = hashlib.sha256()
    for e in result.trace:
        h.update(f"{e.step}|{e.gid}|{e.kind}|{e.obj}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kernel",
    sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id),
    ids=lambda k: k.meta.kernel_id)
def test_joined_digest_equals_per_event_digest(kernel):
    kwargs = dict(kernel.run_kwargs)
    kwargs["keep_trace"] = True
    result = run(kernel.buggy, seed=3, **kwargs)
    assert len(result.trace) > 0
    assert schedule_digest(result) == _per_event_digest(result)


def test_untraced_run_has_no_digest():
    result = run(lambda rt: None, keep_trace=False)
    assert schedule_digest(result) is None
