"""Output files that appear whole or not at all."""

import os
from pathlib import Path


def write_atomic(path, write, newline=None):
    """Replace the text file ``path`` by what ``write(fh)`` writes, through a
    temporary file in the same directory: on failure nothing is left behind
    and a file already at ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
