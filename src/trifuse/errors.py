"""Exception types shared across the package, mapped to CLI exit codes, the
one way input text files are opened, so that a file that is not UTF-8 fails
as bad input, and the one ``key = value`` parser, which config files and
volume headers share."""

import contextlib
import re
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO


class InputError(ValueError):
    """Bad input data or file schema (CLI exit code 2)."""


class ConfigError(ValueError):
    """Bad configuration or grammar file (CLI exit code 2)."""


class ScorerError(RuntimeError):
    """External malignancy scorer failed for a candidate (CLI exit code 3)."""


class InvariantError(RuntimeError):
    """Internal consistency check failed (CLI exit code 4)."""


@contextlib.contextmanager
def open_text(path: Path, newline: str | None = None,
              error: type[ValueError] = InputError) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a leading byte-order mark is dropped. A
    byte that cannot be decoded, met while the file is read in the ``with``
    block, raises ``error`` naming the file and the line the byte is on;
    the file is read again, as bytes, only then."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")  # a byte-order mark decodes too, and offsets count from 0
        except UnicodeDecodeError as err:
            line = 1 + len(re.findall(rb"\r\n?|\n", data[:err.start]))
            raise error(f"{path}:{line}: not UTF-8 text: cannot decode byte "
                        f"{data[err.start]:#04x}") from None
        raise  # the file has changed since it was opened


def read_settings(path: Path, error: type[ValueError]) -> dict[str, tuple[str, int]]:
    """Each key of a file's ``key = value`` lines, with its value and line
    number; blank and ``#`` lines are skipped. A line without ``=``, an empty
    or a repeated key raises ``error`` naming the file and line."""
    out: dict[str, tuple[str, int]] = {}
    with open_text(path, error=error) as fh:
        for line_num, line in enumerate(fh, start=1):  # physical lines
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}:{line_num}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise error(f"{path}:{line_num}: empty key")
            if key in out:
                raise error(f"{path}:{line_num}: duplicate key {key!r}")
            out[key] = (value.strip(), line_num)
    return out
