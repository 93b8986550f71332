"""Atomic replacement of output files.

Every file the package writes (checkpoints, reports, flag sidecars,
configs, training curves, triple files, clusters) goes through
``atomic_write``: the bytes go to a fresh file beside the target, which
``os.replace`` then renames over it. A reader sees the old file or the
new one, never a partial one, and a write that fails leaves the old file
as it was.
"""

from __future__ import annotations

import contextlib
import os
import secrets

from .errors import DataError


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a handle whose contents replace ``path`` when the block succeeds.

    The temporary file sits in the target's directory, so the rename stays
    within one file system, and is created with ``open(..., "x")``, so it
    gets the same permissions a plain ``open`` would. If it cannot be
    created, or cannot be renamed over ``path`` (say, a directory),
    ``DataError`` is raised. If the block raises, the temporary file is
    removed and the exception propagates.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        handle = open(temp, "xb") if binary else open(temp, "x", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
