import copy
import pickle
import random
import socket
import threading

import pytest

from latticerect import (Axis, CellRegion, CrossingClass, LatticeRect, bijections, classify,
                         oeis, rectangles)


def random_row_convex(rng: random.Random, box: int = 12) -> CellRegion:
    """One random contiguous column interval per row, inside a box x box grid."""
    height = rng.randint(1, box)
    spans = []
    for _ in range(height):
        lo = rng.randint(0, box - 1)
        hi = rng.randint(lo + 1, box)
        spans.append((lo, hi))
    return CellRegion(rng.randint(-3, 3), tuple(spans))


def count_by_column_pairs(region: CellRegion) -> int:
    """The rectangle count column pair by column pair: rows that hold columns
    [a, b) come in runs, and a run of r rows holds C(r+1, 2) rectangles."""
    spans = region.spans
    left = min(lo for lo, _ in spans)
    right = max(hi for _, hi in spans)
    total = 0
    for a in range(left, right):
        for b in range(a + 1, right + 1):
            run = 0
            for lo, hi in spans:
                run = run + 1 if lo <= a and b <= hi else 0
                total += run  # the rectangles whose top row is this one
    return total


def rect_cells(rect: LatticeRect) -> set:
    return {(i, j) for i in range(rect.a, rect.b) for j in range(rect.c, rect.d)}


def flip_x(region: CellRegion) -> CellRegion:
    """The mirror image across the line x = 0: cell (i, j) goes to (-i-1, j)."""
    return CellRegion(region.row0, tuple((-hi, -lo) for lo, hi in region.spans))


def symmetries(region: CellRegion) -> list[CellRegion]:
    """The region's images under the 8 lattice symmetries fixing the origin.

    The transposes need every column of the region to be one run of rows.
    """
    rows = list(region.rows())
    columns = []
    for i in range(min(lo for _, lo, _ in rows), max(hi for _, _, hi in rows)):
        run = [j for j, lo, hi in rows if lo <= i < hi]
        assert run == list(range(run[0], run[-1] + 1)), f"column {i} is not one run"
        columns.append((run[0], run[-1] + 1))
    transpose = CellRegion(min(lo for _, lo, _ in rows), tuple(columns))
    flips = [(r, CellRegion(-r.row0 - r.height, r.spans[::-1])) for r in (region, transpose)]
    return [image for pair in flips for r in pair for image in (r, flip_x(r))]


def classify_tally(region: CellRegion, axis: Axis) -> dict:
    """The breakdown by brute force: classify every rectangle the region lists."""
    tally = dict.fromkeys(CrossingClass, 0)
    for rect in rectangles(region):
        tally[classify(rect, axis)] += 1
    return tally


def check_four_tuple(value, text: str) -> None:
    """The value-type contract of LatticeRect and Quadruple: an immutable 4-tuple,
    hashed as the plain tuple, with an exact repr, that copies and pickles as itself."""
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    assert repr(value) == text
    for name in ("a", "d", "e"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    twins = [copy.copy(value), copy.deepcopy(value)]
    twins += [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def refuse_type_l_inverse(monkeypatch, from_order: int) -> None:
    """Make type_l's inverse raise ValueError on every rectangle from the order on."""
    sides = bijections._MAPS["type_l"]

    def refusing_sides(n):
        domain, codomain, forward, inverse = sides(n)

        def refusing(rect, order):
            if order >= from_order:
                raise ValueError(f"refused {rect}")
            return inverse(rect, order)
        return domain, codomain, forward, refusing
    monkeypatch.setitem(bijections._MAPS, "type_l", refusing_sides)


@pytest.fixture
def fake_download(monkeypatch):
    """``fake_download(fake)`` makes ``fake(url)`` answer every b-file download."""
    return lambda fake: monkeypatch.setattr(oeis, "_download", fake)


@pytest.fixture
def truncated_oeis_server(monkeypatch):
    """Point LATTICERECT_OEIS_URL at a loopback server that answers one request
    with a body 9 bytes long under a ``Content-Length: 100`` header."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(10)

    def serve():
        with server:
            conn, _ = server.accept()
            conn.settimeout(10)
            with conn, conn.makefile("rb") as request:
                while request.readline().strip():  # read it all: unread bytes reset
                    pass
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n1 3\n2 16\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    monkeypatch.setenv("LATTICERECT_OEIS_URL", f"http://127.0.0.1:{server.getsockname()[1]}")
    yield
    thread.join(timeout=10)
