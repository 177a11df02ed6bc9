"""OEIS b-file parsing, offset-tolerant cross-checking, and cached fetching.

A b-file is the OEIS per-sequence term listing: one ``<index> <value>``
pair per line, ``#`` comments and blank lines allowed, indices contiguous.
Cross-checking aligns a computed value list against the entries while
tolerating a bounded start offset, because published listings rarely
agree on where index 0 sits. Values of any length parse and render
exactly, and the interpreter's int/str digit limit is left as it is.
"""

from __future__ import annotations

import contextlib
import os
import re
from pathlib import Path
from typing import Optional, Sequence, Union

from ._decimal import int_to_str, str_to_int
from ._record import record

A_NUMBER = re.compile(r"\AA[0-9]{6}\Z")  # not \d, which takes any Unicode digit
_BFILE_URL = "https://oeis.org/{seq_id}/b{digits}.txt"
_HTTP_TIMEOUT = 30.0
# The largest response body read; OEIS b-files stay far below it.
_MAX_RESPONSE_BYTES = 64 << 20
CACHE_DIR_ENV = "GAPSEQ_CACHE_DIR"


class BFileError(ValueError):
    """Malformed b-file text or A-number."""


class FetchError(RuntimeError):
    """b-file retrieval failed (network or HTTP)."""


@record
class BFile:
    """Parsed b-file: sequence id plus (index, value) entries."""

    seq_id: str
    entries: tuple[tuple[int, int], ...]

    @property
    def start_index(self) -> int:
        if not self.entries:
            raise ValueError("empty b-file has no start index")
        return self.entries[0][0]

    @property
    def values(self) -> list[int]:
        return [value for _, value in self.entries]


@record
class Mismatch:
    """One disagreement: b-file index, its value, and the computed value.

    The field order is the key order of ``first_mismatch`` in
    ``gapseq check-oeis --format json``.
    """

    index: int
    expected: int
    got: int


@record
class CheckReport:
    """Outcome of aligning computed values against a b-file.

    Apart from ``seq_id``, the field order is the key order of
    ``gapseq check-oeis --format json``, which omits an unset
    ``first_mismatch``.
    """

    seq_id: str
    matched: bool
    shift: int
    compared: int
    first_mismatch: Optional[Mismatch] = None


def parse_bfile(text: Union[str, bytes], seq_id: str = "") -> BFile:
    """Parse b-file text; ``#`` comments and blank lines are skipped.

    One leading byte-order mark is ignored. Raises BFileError for bytes
    that are not UTF-8, and with the offending line number for malformed
    lines and for index sequences that jump or repeat. Values of any
    length parse exactly, past the int/str digit limit as ``[+-]?[0-9]+``.
    """
    if isinstance(text, bytes):
        # Plain utf-8, not utf-8-sig, so the error offset indexes the raw bytes.
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise BFileError(f"line {lineno}: byte {text[exc.start]:#04x} is not UTF-8") from None
    text = text.removeprefix("\ufeff")
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileError(f"line {lineno}: expected '<index> <value>', got {raw!r}")
        try:
            index, value = int(fields[0]), str_to_int(fields[1])
        except ValueError as exc:
            raise BFileError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if entries and index != entries[-1][0] + 1:
            raise BFileError(
                f"line {lineno}: index {index} is not contiguous after {entries[-1][0]}"
            )
        entries.append((index, value))
    return BFile(seq_id=seq_id, entries=tuple(entries))


def render_bfile(bfile: BFile) -> str:
    """Canonical text form: one ``<index> <value>`` line per entry."""
    return "".join(f"{index} {int_to_str(value)}\n" for index, value in bfile.entries)


def cross_check(values: Sequence[int], bfile: BFile, max_shift: int = 4) -> CheckReport:
    """Align computed values against a b-file, tolerating a start offset.

    Shift s compares values[j] with entry j+s over the overlap. The
    smallest |s| producing full agreement wins, with non-negative shifts
    preferred on ties; when nothing matches, the report carries the
    first disagreement of the longest-agreeing alignment. A b-file with
    no entries raises BFileError.
    """
    if not values:
        raise ValueError("no values to check")
    if not bfile.entries:
        raise BFileError(f"b-file {bfile.seq_id or '<anonymous>'} has no entries")
    entries = bfile.entries
    best: Optional[tuple[int, int, int, Mismatch]] = None
    # Only shifts in (-len(values), len(entries)) overlap, however large max_shift is.
    shifts = range(max(-max_shift, 1 - len(values)), min(max_shift, len(entries) - 1) + 1)
    for shift in sorted(shifts, key=lambda s: (abs(s), s < 0)):
        lo = max(0, -shift)
        hi = min(len(values), len(entries) - shift)
        mismatch = None
        agreed = 0
        for j in range(lo, hi):
            index, expected = entries[j + shift]
            if values[j] != expected:
                mismatch = Mismatch(index=index, expected=expected, got=values[j])
                break
            agreed += 1
        if mismatch is None:
            return CheckReport(bfile.seq_id, matched=True, shift=shift, compared=hi - lo)
        if best is None or agreed > best[0]:
            best = (agreed, shift, hi - lo, mismatch)
    assert best is not None  # shift 0 always overlaps
    _, shift, compared, mismatch = best
    return CheckReport(
        bfile.seq_id, matched=False, shift=shift, compared=compared, first_mismatch=mismatch
    )


def default_cache_dir() -> Path:
    """$GAPSEQ_CACHE_DIR if set, else ~/.cache/gapseq."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gapseq"


def fetch_bfile(seq_id: str, cache_dir: Union[str, Path, None] = None) -> BFile:
    """Cached b-file lookup; one HTTP GET on a cache miss.

    A download is parsed before it is cached, so a malformed one, or one
    with no entries, raises BFileError and leaves the cache as it was. A
    cached file that does not parse or has no entries is renamed to
    ``b<digits>.txt.bad``, replacing an older one, and the b-file is
    fetched once more. Raw bytes land in
    ``cache_dir/b<digits>.txt`` through a temp file and rename, so
    concurrent fetchers never observe partial files.
    """
    if not A_NUMBER.match(seq_id):
        raise BFileError(f"malformed A-number {seq_id!r} (expected 'A' + 6 digits)")
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    digits = seq_id[1:]
    path = directory / f"b{digits}.txt"
    # No file is a cache miss; a concurrent fetcher may also have set a bad one aside.
    with contextlib.suppress(FileNotFoundError):
        try:
            return _parse_nonempty(path.read_bytes(), seq_id)
        except BFileError:
            os.replace(path, path.with_name(path.name + ".bad"))
    raw = _http_get(_BFILE_URL.format(seq_id=seq_id, digits=digits))
    bfile = _parse_nonempty(raw, seq_id)
    # Imported here, like the network stack in _http_get: only a cache miss writes a file.
    import tempfile

    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"b{digits}.", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return bfile


def _parse_nonempty(raw: bytes, seq_id: str) -> BFile:
    bfile = parse_bfile(raw, seq_id)
    if not bfile.entries:
        raise BFileError(f"b-file {seq_id} has no entries")
    return bfile


def _http_get(url: str) -> bytes:
    """The body of url, failing with FetchError beyond _MAX_RESPONSE_BYTES."""
    # Imported here, not at module level: urllib.request pulls in http.client,
    # email and ssl, the largest part of gapseq's import time, and only a
    # b-file download needs them.
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=_HTTP_TIMEOUT) as response:
            body = response.read(_MAX_RESPONSE_BYTES + 1)
    except urllib.error.HTTPError as exc:
        raise FetchError(f"HTTP {exc.code} fetching {url}") from exc
    except urllib.error.URLError as exc:
        raise FetchError(f"network unavailable for {url}: {exc.reason}") from exc
    if len(body) > _MAX_RESPONSE_BYTES:
        raise FetchError(f"response from {url} is larger than {_MAX_RESPONSE_BYTES} bytes")
    return body
