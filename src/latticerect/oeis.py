"""OEIS b-file retrieval, parsing, caching, and term-by-term verification.

Offline first: reference terms for the four identified sequences ship with the
package, so checks run with no network.  :data:`SOURCES` are the CLI's ``--source``
names: ``fixture`` (the bundled terms), ``cache`` (``<cache>/<id>.bfile``, under
``$LATTICERECT_OEIS_CACHE`` or ``~/.cache/latticerect``), and ``network`` (a
download from ``$LATTICERECT_OEIS_URL`` or oeis.org, which writes the cache and
falls back to a warm cache when it fails).
"""
from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .formulas import OEIS_IDS, SequenceId, evaluate
from .geometry import _integer

#: Where :func:`fetch` reads a b-file; ``BFile.source`` reports the one that served it.
SOURCES = ("fixture", "cache", "network")

#: Which of our sequences each supported OEIS entry lists.
SEQUENCE_FOR_ID = {oeis_id: seq for seq, oeis_id in OEIS_IDS.items()}

_ID_RE = re.compile(r"\AA[0-9]{6}\Z")
_INT_RE = re.compile(r"\A-?[0-9]+\Z")
_ENV_CACHE = "LATTICERECT_OEIS_CACHE"
_ENV_URL = "LATTICERECT_OEIS_URL"


class FetchError(Exception):
    """A b-file could not be retrieved from the requested source."""


class BFileError(ValueError):
    """Malformed b-file text."""


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: ordered (index, value) terms with strictly increasing indices."""

    terms: tuple[tuple[int, int], ...]
    source: Optional[str] = field(default=None, compare=False)


def parse_bfile(text: str) -> BFile:
    """Parse b-file text: ``<index> <value>`` lines, blank lines, # comments.

    Each field is ASCII ``-?[0-9]+``.  Anything else is an error carrying its line
    number, as is a non-increasing index column.
    """
    terms = []
    last_index = None
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"line {num}: expected '<index> <value>', got {raw!r}")
        if not all(map(_INT_RE.match, parts)):
            raise BFileError(f"line {num}: non-integer field in {raw!r}")
        index, value = map(int, parts)
        if last_index is not None and index <= last_index:
            raise BFileError(f"line {num}: index {index} does not increase past {last_index}")
        last_index = index
        terms.append((index, value))
    return BFile(tuple(terms))


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "latticerect"


def bfile_url(sequence_id: str) -> str:
    base = os.environ.get(_ENV_URL, "https://oeis.org").rstrip("/")
    return f"{base}/{sequence_id}/b{sequence_id[1:]}.txt"


def _download(url: str) -> str:
    import http.client
    import urllib.request  # pulls in http.client, email and ssl: only when downloading

    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read().decode("utf-8")
    except (OSError, ValueError, http.client.HTTPException) as err:  # URLError is an OSError
        raise FetchError(f"download failed for {url}: {err}") from None


def fetch(sequence_id: str, source: str = "fixture", cache_dir: Optional[Path] = None) -> BFile:
    """Retrieve a b-file from one of :data:`SOURCES`, by default the bundled fixture.

    ``network`` downloads and writes the cache, falling back to a warm cache
    when the download fails; ``cache`` and ``fixture`` never touch the
    network.  Retrieval failures raise FetchError; malformed content raises
    BFileError.
    """
    if not _ID_RE.match(sequence_id):
        raise ValueError(f"bad OEIS id {sequence_id!r}")
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    if source == "fixture":
        path = resources.files(__package__).joinpath("fixtures", f"{sequence_id}.bfile")
        failure = FetchError(f"no bundled reference terms for {sequence_id}")
    else:
        path = Path(cache_dir or default_cache_dir()) / f"{sequence_id}.bfile"
        failure = FetchError(f"no cached b-file at {path}")
    if source == "network":
        try:
            text = _download(bfile_url(sequence_id))
        except FetchError as err:
            failure, source = err, "cache"  # reported only if the cache is cold too
    if source != "network":
        if not path.is_file():
            raise failure
        text = path.read_text(encoding="utf-8")
    terms = parse_bfile(text).terms
    if source == "network":  # cached only once the download parses
        path.parent.mkdir(parents=True, exist_ok=True)
        # a unique scratch file: concurrent fetches never share one, and
        # readers never see a partial cache file
        fd, scratch = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(scratch, path)
        except BaseException:
            os.unlink(scratch)
            raise
    return BFile(terms, source)


@dataclass(frozen=True)
class SeqCheckReport:
    """Term-by-term comparison of computed values against OEIS reference terms.

    ``first_mismatch`` is ``(n, reference, computed)`` for the smallest
    disagreeing n, or None when every term in the checked range matches.
    """

    matches: int
    first_mismatch: Optional[tuple[int, int, int]]
    source: str

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def check(sequence_id: str, seq: SequenceId, n_max: int,
          source: str = "fixture", cache_dir: Optional[Path] = None) -> SeqCheckReport:
    """Compare our closed form against the OEIS entry for n = 1..n_max.

    Only the four supported (OEIS id, sequence) pairings are accepted.  Terms
    are matched by the b-file's own index column, so an entry whose listing
    starts at 0 contributes its index-1 term to n = 1 (no silent shifting).
    """
    expected_seq = SEQUENCE_FOR_ID.get(sequence_id)
    if expected_seq is None:
        known = ", ".join(sorted(SEQUENCE_FOR_ID))
        raise ValueError(f"{sequence_id} is not a supported entry (known: {known})")
    if expected_seq is not seq:
        raise ValueError(
            f"{sequence_id} lists the {expected_seq.name.lower()} sequence, not {seq.name.lower()}")
    if (last := _integer(n_max)) is None or last < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    bfile = fetch(sequence_id, source=source, cache_dir=cache_dir)
    by_index = dict(bfile.terms)
    matches, first_mismatch = 0, None
    for n in range(1, last + 1):
        reference = by_index.get(n)
        if reference is None:
            indices = f"{bfile.terms[0][0]}..{bfile.terms[-1][0]}" if bfile.terms else "none"
            raise ValueError(
                f"{sequence_id} b-file lacks terms for n={n} (has indices {indices})")
        computed = evaluate(seq, n)
        if computed == reference:
            matches += 1
        elif first_mismatch is None:
            first_mismatch = (n, reference, computed)
    return SeqCheckReport(matches, first_mismatch, bfile.source)
