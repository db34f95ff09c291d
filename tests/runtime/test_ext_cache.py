"""The content-hashed build cache of the compiled extensions.

A build names its ``.so`` after a hash of the source, so an edited source
never loads a stale build; after a fresh build the cached builds of the
other source versions are removed, so edits do not pile up old builds.
"""

import os

import pytest

from repro.runtime import _ext

needs_build = pytest.mark.skipif(
    _ext.get_hotloop() is None,
    reason="the extension does not build on this host")


@needs_build
def test_fresh_build_removes_stale_builds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EXT_CACHE", str(tmp_path))
    stale = tmp_path / "_hotloop.0123456789ab.cpython-311-linux.so"
    other = tmp_path / "_ctasklet.0123456789ab.cpython-311-linux.so"
    unrelated = tmp_path / "notes.txt"
    for path in (stale, other, unrelated):
        path.write_bytes(b"not a shared object")

    built = _ext._compile("_hotloop")

    assert built is not None and os.path.dirname(built) == str(tmp_path)
    assert os.path.exists(built)
    assert not stale.exists()
    # Only builds of the same extension are pruned.
    assert other.exists() and unrelated.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [os.path.basename(built), other.name, unrelated.name])


def test_prune_ignores_files_it_cannot_remove(tmp_path, monkeypatch):
    fresh = tmp_path / "_hotloop.aaaaaaaaaaaa.cpython-311-linux.so"
    stale = tmp_path / "_hotloop.bbbbbbbbbbbb.cpython-311-linux.so"
    fresh.write_bytes(b"")
    stale.write_bytes(b"")

    def refuse(path):
        raise PermissionError(path)

    monkeypatch.setattr(_ext.os, "unlink", refuse)
    _ext._prune_stale("_hotloop", str(fresh))  # best-effort: no raise
    assert stale.exists()
    monkeypatch.undo()
    _ext._prune_stale("_hotloop", str(fresh))
    assert fresh.exists() and not stale.exists()
