"""OEIS b-file parsing, offset-tolerant cross-checking, and cached fetching.

A b-file is the OEIS per-sequence term listing: one ``<index> <value>``
pair per line, ``#`` comments and blank lines allowed, indices contiguous.
Cross-checking aligns a computed value list against the entries while
tolerating a bounded start offset, because published listings rarely
agree on where index 0 sits. Values of any length parse and render
exactly, and the interpreter's int/str digit limit is left as it is.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator, Sequence

from ._decimal import show, str_to_int
from ._record import record

A_NUMBER = re.compile(r"\AA[0-9]{6}\Z")  # not \d, which takes any Unicode digit
_BFILE_URL = "https://oeis.org/{seq_id}/b{digits}.txt"
_HTTP_TIMEOUT = 30.0
# The largest response body read; OEIS b-files stay far below it.
_MAX_RESPONSE_BYTES = 64 << 20
CACHE_DIR_ENV = "GAPSEQ_CACHE_DIR"
# Text per parsed block: big enough that cutting costs little per line,
# small enough that no b-file's lines are ever held whole.
_BLOCK = 1 << 16
# The comment lines at the start of a canonical block: no tab, and no
# "\r", "\x0b", "\x0c" or "\x1c"-"\x1e", which str.splitlines breaks at.
_COMMENT_LINES = re.compile(rb"(?:#[ -~]*\n)*")


class BFileError(ValueError):
    """Malformed b-file text or A-number."""


class FetchError(RuntimeError):
    """b-file retrieval failed (network or HTTP)."""


@record
class BFile:
    """Parsed b-file: sequence id, the first entry's index (0 for an empty
    b-file) and the values, whose indices run on from start."""

    seq_id: str
    start: int
    values: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The (index, value) pairs, built on each access."""
        return tuple(enumerate(self.values, self.start))


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
    first_mismatch: Mismatch | None = None


def parse_bfile(text: str | bytes, seq_id: str = "") -> BFile:
    """Parse b-file text; ``#`` comments and blank lines are skipped.

    One leading byte-order mark is ignored. Raises BFileError for bytes
    that are not UTF-8, and with the offending line number for malformed
    lines and for index sequences that jump or repeat. Values of any
    length parse exactly, past the int/str digit limit as ``[+-]?[0-9]+``.

    The text is parsed as UTF-8 bytes, one block of about ``_BLOCK``
    bytes or characters at a time (``_blocks``), so beyond the input the
    peak memory is the values plus one block, whatever the input.

    A block holding only canonical rows, after any ``#`` comment lines
    of printable ASCII, is split and converted in bulk
    (``_canonical_rows``). Every other block (one with a blank or
    indented line, a later comment, a byte past ASCII, a tab, ``\r\n``,
    a ``+``, a jump in the indices, a value past the digit limit or no
    final ``\n``) is decoded for the line loop, which gives the same
    values and names the line of any error.
    """
    values: list[int] = []
    next_index = lineno = 0
    for block in _blocks(text):
        after = _canonical_rows(block, values, next_index)
        if after is not None:
            next_index = after
            lineno += block.count(b"\n")
            continue
        block = block.decode("utf-8", "surrogatepass")
        for lineno, raw in enumerate(block.splitlines(), start=lineno + 1):
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
            if index != next_index and values:
                raise BFileError(
                    f"line {lineno}: index {index} is not contiguous after {next_index - 1}"
                )
            next_index = index + 1
            values.append(value)
    return BFile(seq_id, next_index - len(values), tuple(values))


def _blocks(text: str | bytes) -> Iterator[bytes]:
    """The text after one leading byte-order mark, as UTF-8 bytes, one
    block at a time; a str is encoded block by block (``surrogatepass``,
    so a lone surrogate goes through as it came).

    Each block ends just after the first ``\n`` at or past ``_BLOCK``
    characters into it, or at the end of the text. That cut never moves
    a line break: ``\n`` and ``\r\n`` both end inside the block, and no
    break starts with ``\n``. Nor does it split a character, since no
    UTF-8 sequence holds the byte ``\n``. So bytes past ASCII are
    checked first, a block at a time, and one that is not UTF-8 raises
    BFileError before any line is parsed.
    """
    is_str = isinstance(text, str)
    newline, mark = ("\n", "\ufeff") if is_str else (b"\n", b"\xef\xbb\xbf")
    start, size = len(mark) if text.startswith(mark) else 0, len(text)

    def cuts() -> Iterator[tuple[int, int]]:
        pos = start
        while pos < size:
            cut = text.find(newline, pos + _BLOCK - 1)
            end = size if cut < 0 else cut + 1
            yield pos, end
            pos = end

    if not is_str and not text.isascii():
        for pos, end in cuts():
            try:
                text[pos:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = pos + exc.start
                lineno = text.count(b"\n", 0, bad) + 1
                raise BFileError(f"line {lineno}: byte {text[bad]:#04x} is not UTF-8") from None
    for pos, end in cuts():
        yield text[pos:end].encode("utf-8", "surrogatepass") if is_str else text[pos:end]


def _canonical_rows(block: bytes, values: list[int], next_index: int) -> int | None:
    """Append the values of a canonical block and return the index after
    its last row; None, with values left as they were, for any other block.

    A canonical block is ``#`` comment lines of printable ASCII, then
    only rows ``<index> <value>\n`` of two runs of digits and ``-`` that
    int() takes, with indices counting up from next_index (from any
    index while values is empty). Deleting the digits and ``-`` must
    leave ``b" \n"`` once per row, and a split two fields per row, so
    every row is checked in C and each field costs one int() call.
    """
    body = block[_COMMENT_LINES.match(block).end():]
    skeleton = body.translate(None, b"0123456789-")
    rows = len(skeleton) // 2
    if skeleton != b" \n" * rows:
        return None
    fields = body.split()
    if len(fields) != 2 * rows:
        return None
    if not rows:
        return next_index
    try:
        first = int(fields[0]) if not values else next_index
        if list(map(int, fields[0::2])) != list(range(first, first + rows)):
            return None
        values += list(map(int, fields[1::2]))
    except ValueError:  # "5-1", "--5", or past the int/str digit limit
        return None
    return first + rows


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
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {show(max_shift)}")
    expected = bfile.values
    if not expected:
        raise BFileError(f"b-file {bfile.seq_id or '<anonymous>'} has no entries")
    best: tuple[int, int, int, Mismatch] | None = None
    # Only shifts in (-len(values), len(expected)) overlap, however large max_shift is.
    shifts = range(max(-max_shift, 1 - len(values)), min(max_shift, len(expected) - 1) + 1)
    for shift in sorted(shifts, key=lambda s: (abs(s), s < 0)):
        lo = max(0, -shift)
        hi = min(len(values), len(expected) - shift)
        for j in range(lo, hi):
            if values[j] != expected[j + shift]:
                break
        else:
            return CheckReport(bfile.seq_id, matched=True, shift=shift, compared=hi - lo)
        if best is None or j - lo > best[0]:
            mismatch = Mismatch(index=bfile.start + j + shift, expected=expected[j + shift],
                                got=values[j])
            best = (j - lo, shift, hi - lo, mismatch)
    assert best is not None  # shift 0 always overlaps
    _, shift, compared, mismatch = best
    return CheckReport(
        bfile.seq_id, matched=False, shift=shift, compared=compared, first_mismatch=mismatch
    )


def default_cache_dir() -> os.PathLike[str]:
    """$GAPSEQ_CACHE_DIR if set, else ~/.cache/gapseq, as a pathlib.Path."""
    from pathlib import Path  # here, like tempfile and urllib: only a fetch needs it

    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gapseq"


def fetch_bfile(seq_id: str, cache_dir: str | os.PathLike[str] | None = None) -> BFile:
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
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    digits = seq_id[1:]
    path = os.path.join(directory, f"b{digits}.txt")
    # No file is a cache miss; a concurrent fetcher may also have set a bad one aside.
    try:
        try:
            with open(path, "rb") as fh:
                return _parse_nonempty(fh.read(), seq_id)
        except BFileError:
            os.replace(path, path + ".bad")
    except FileNotFoundError:
        pass
    raw = _http_get(_BFILE_URL.format(seq_id=seq_id, digits=digits))
    bfile = _parse_nonempty(raw, seq_id)
    # Imported here, like the network stack in _http_get: only a cache miss writes a file.
    import tempfile

    os.makedirs(directory, exist_ok=True)
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
    if not bfile.values:
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
