"""Exceptions shared across modules, and the bounded reader of binary files
that turns a file cut short into one of them."""

import os


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad keys, dims, credentials)."""


class UnknownIdError(KeyError):
    """An id the data does not hold: a user, an article or an embedded text."""


def byte_reader(fh, path):
    """``take(n, what)``: the next ``n`` bytes of the binary file ``fh``.

    Reads are counted against the file's size, so a file cut short raises
    :class:`ConfigError` naming ``what`` could not be read, before any short read.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(n: int, what: str) -> bytes:
        nonlocal left
        if n > left:
            raise ConfigError(f"{path} is truncated: {what} needs {n} bytes, {left} left")
        left -= n
        return fh.read(n)

    return take
