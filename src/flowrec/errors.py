"""Exceptions shared across modules, the bounded reader of binary files that
turns a file cut short into one of them, and the writer that replaces a file
whole or not at all."""

import os
import secrets
from contextlib import contextmanager, suppress


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad keys, dims, credentials)."""


class UnknownIdError(KeyError):
    """An id the data does not hold: a user, an article or an embedded text."""


def byte_reader(fh, path):
    """``take(n, what)``: the next ``n`` bytes of the binary file ``fh``, read into a new ``bytearray``.

    Reads are counted against the file's size, so a file cut short raises
    :class:`ConfigError` naming ``what`` could not be read, before any short read.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(n: int, what: str) -> bytearray:
        nonlocal left
        if n > left:
            raise ConfigError(f"{path} is truncated: {what} needs {n} bytes, {left} left")
        left -= n
        buf = bytearray(n)
        fh.readinto(buf)
        return buf

    return take


@contextmanager
def replacing(path, mode: str = "wb", **kwargs):
    """Write ``path`` through a temporary file in its directory (``mode`` is
    ``"wb"`` or ``"w"``).

    The file replaces ``path`` in one ``os.replace`` once the block ends
    cleanly. If the block raises, the temporary file is removed and ``path``
    is left as it was, so a reader never sees a half-written file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x" + mode.lstrip("w"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
