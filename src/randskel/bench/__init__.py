"""Benchmark CLI: seeded desk-scale experiment drivers with CSV + SVG output."""

import contextlib
import os


@contextlib.contextmanager
def open_replacing(path):
    """Open a temporary file next to ``path`` for writing and rename it onto
    ``path`` when the block completes, so ``path`` is written all or nothing;
    if the block raises, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
