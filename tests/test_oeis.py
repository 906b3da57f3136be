import threading

import pytest

from latticerect import (Family, SequenceId, ShapeSpec, build, check, count_naive, evaluate,
                         fetch, parse_bfile)
from latticerect import oeis
from latticerect.oeis import (SEQUENCE_FOR_ID, BFile, BFileError, FetchError,
                              bfile_url, default_cache_dir)

ALL_IDS = ("A004320", "A002417", "A330805", "A213840")


def failing_download(url):
    raise FetchError(f"refused: {url}")


def exploding_download(url):
    raise AssertionError(f"network download used for {url}")


# --- parsing -----------------------------------------------------------------

def test_parse_basic():
    bfile = parse_bfile("1 3\n2 16\n")
    assert bfile.terms == ((1, 3), (2, 16))


def test_parse_skips_comments_and_blanks():
    assert parse_bfile("# comment\n").terms == ()
    assert parse_bfile("\n# a\n  \n5 7\n").terms == ((5, 7),)


def test_parse_accepts_negative_values_and_extra_spaces():
    assert parse_bfile("0  -4\n1\t9\n").terms == ((0, -4), (1, 9))


@pytest.mark.parametrize("text,fragment", [
    ("1 x", "line 1"),
    ("1 2 3\n", "line 1"),
    ("1 2\noops\n", "line 2"),
    ("2 5\n1 3\n", "does not increase"),
    ("1 1\n1 2\n", "does not increase"),
    ("1_0 5\n", "line 1"),
    ("+1 3\n", "line 1"),
    ("\u0663 7\n", "line 1"),
    ("1 \uff15\n", "line 1"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(BFileError, match=fragment):
        parse_bfile(text)


def test_format_parse_roundtrip_on_fixtures():
    for sequence_id in ALL_IDS:
        bfile = fetch(sequence_id, source="fixture")
        again = parse_bfile("".join(f"{i} {v}\n" for i, v in bfile.terms))
        assert again == BFile(bfile.terms)


# --- fetch policies -------------------------------------------------------------

def test_fixture_fetch():
    bfile = fetch("A004320", source="fixture")
    assert bfile.terms[0] == (1, 3)
    assert bfile.terms[1] == (2, 16)
    assert len(bfile.terms) == 20
    assert bfile.source == "fixture"


def test_fixture_fetch_never_uses_network(fake_download):
    fake_download(exploding_download)
    bfile = fetch("A002417", source="fixture")
    assert bfile.terms[0] == (1, 1)


def test_fetch_reads_the_fixture_by_default(fake_download):
    fake_download(exploding_download)
    bfile = fetch("A004320")
    assert bfile.source == "fixture"
    assert bfile == fetch("A004320", source="fixture")


def test_fixture_missing():
    with pytest.raises(FetchError):
        fetch("A000000", source="fixture")


def test_bad_id_rejected():
    with pytest.raises(ValueError):
        fetch("banana", source="fixture")
    with pytest.raises(ValueError):
        fetch("A00432", source="fixture")


def test_bad_source_rejected():
    with pytest.raises(ValueError):
        fetch("A004320", source="telepathy")


@pytest.mark.parametrize("source", ["fixture-only", "cache-only", "network-then-cache"])
def test_sources_have_one_spelling(source, tmp_path, fake_download):
    assert oeis.SOURCES == ("fixture", "cache", "network")
    fake_download(exploding_download)
    with pytest.raises(ValueError, match="unknown source"):
        fetch("A004320", source=source, cache_dir=tmp_path)


def test_network_fetch_writes_cache(tmp_path, fake_download):
    served = "1 3\n2 16\n3 50\n"
    seen = []

    def download(url):
        seen.append(url)
        return served

    fake_download(download)
    bfile = fetch("A004320", source="network", cache_dir=tmp_path)
    assert bfile.source == "network"
    assert bfile.terms == ((1, 3), (2, 16), (3, 50))
    assert seen == [bfile_url("A004320")]
    assert (tmp_path / "A004320.bfile").read_text() == served


def test_concurrent_fetches_leave_one_valid_cache_file(tmp_path, fake_download):
    served = "1 3\n2 16\n3 50\n"
    both_downloaded = threading.Barrier(2, timeout=10)

    def download(url):
        both_downloaded.wait()  # both writers reach the cache write together
        return served

    fake_download(download)
    results, errors = [], []

    def worker():
        try:
            results.append(fetch("A004320", source="network", cache_dir=tmp_path))
        except Exception as err:  # reported below; a thread would swallow it
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert errors == []
    assert [bfile.source for bfile in results] == ["network", "network"]
    assert [p.name for p in tmp_path.iterdir()] == ["A004320.bfile"]
    assert (tmp_path / "A004320.bfile").read_text() == served


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch, fake_download):
    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(oeis.os, "replace", broken_replace)
    fake_download(lambda url: "1 3\n")
    with pytest.raises(OSError):
        fetch("A004320", source="network", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_network_failure_falls_back_to_cache(tmp_path, fake_download):
    (tmp_path / "A004320.bfile").write_text("1 3\n2 16\n")
    fake_download(failing_download)
    bfile = fetch("A004320", source="network", cache_dir=tmp_path)
    assert bfile.source == "cache"
    assert bfile.terms == ((1, 3), (2, 16))


def test_truncated_download_falls_back_to_cache(tmp_path, truncated_oeis_server):
    (tmp_path / "A004320.bfile").write_text("1 3\n2 16\n3 50\n")
    bfile = fetch("A004320", source="network", cache_dir=tmp_path)
    assert bfile.source == "cache"
    assert bfile.terms == ((1, 3), (2, 16), (3, 50))


def test_network_failure_without_cache(tmp_path, fake_download):
    fake_download(failing_download)
    with pytest.raises(FetchError):
        fetch("A004320", source="network", cache_dir=tmp_path)


def test_cache_only(tmp_path, fake_download):
    with pytest.raises(FetchError):
        fetch("A004320", source="cache", cache_dir=tmp_path)
    (tmp_path / "A004320.bfile").write_text("1 3\n")
    fake_download(exploding_download)
    bfile = fetch("A004320", source="cache", cache_dir=tmp_path)
    assert bfile.source == "cache"


def test_malformed_download_is_not_cached(tmp_path, fake_download):
    fake_download(lambda url: "not a bfile")
    with pytest.raises(BFileError):
        fetch("A004320", source="network", cache_dir=tmp_path)
    assert not (tmp_path / "A004320.bfile").exists()


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LATTICERECT_OEIS_CACHE", str(tmp_path))
    assert default_cache_dir() == tmp_path
    (tmp_path / "A213840.bfile").write_text("1 1\n")
    assert fetch("A213840", source="cache").terms == ((1, 1),)


@pytest.mark.parametrize("cache_env", [None, ""])
def test_cache_dir_falls_back_to_home(tmp_path, monkeypatch, cache_env):
    if cache_env is None:
        monkeypatch.delenv("LATTICERECT_OEIS_CACHE", raising=False)
    else:
        monkeypatch.setenv("LATTICERECT_OEIS_CACHE", cache_env)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert default_cache_dir() == tmp_path / ".cache" / "latticerect"


def test_url_env_override(monkeypatch):
    monkeypatch.setenv("LATTICERECT_OEIS_URL", "http://example.invalid/oeis/")
    assert bfile_url("A004320") == "http://example.invalid/oeis/A004320/b004320.txt"


# --- term comparison --------------------------------------------------------------

@pytest.mark.parametrize("sequence_id", ALL_IDS)
def test_check_fixtures_twenty_terms(sequence_id):
    report = check(sequence_id, SEQUENCE_FOR_ID[sequence_id], 20)
    assert report.ok
    assert report.matches == 20
    assert report.first_mismatch is None
    assert report.source == "fixture"


@pytest.mark.parametrize("sequence_id", ALL_IDS)
def test_fixture_terms_match_the_oracle(sequence_id):
    # the bundled terms come from the closed forms, so pin them by a route
    # that shares no code with formulas: the prefix-sum oracle
    family = Family[SEQUENCE_FOR_ID[sequence_id].name]
    terms = fetch(sequence_id).terms
    assert [n for n, _ in terms] == list(range(1, 21))
    assert all(value == count_naive(build(ShapeSpec(family, n))) for n, value in terms)


def test_check_single_term():
    report = check("A330805", SequenceId.AZTEC, 1)
    assert report.ok and report.matches == 1
    assert evaluate(SequenceId.AZTEC, 1) == 9


@pytest.mark.parametrize("n_max", [True, 2.0, "3", None, 0, -1])
def test_check_refuses_a_non_integer_or_small_n_max(n_max):
    # True used to check one term, and 2.0 raised a bare TypeError in range()
    with pytest.raises(ValueError, match="n_max must be an integer >= 1, got"):
        check("A330805", SequenceId.AZTEC, n_max)


def test_check_rejects_wrong_pairing():
    with pytest.raises(ValueError):
        check("A213840", SequenceId.AZTEC_HALF, 5)
    with pytest.raises(ValueError):
        check("A999999", SequenceId.AZTEC, 5)


def test_check_insufficient_terms():
    with pytest.raises(ValueError, match="lacks terms"):
        check("A004320", SequenceId.AZTEC_HALF, 21)


def test_check_huge_range_stops_at_first_missing_term():
    with pytest.raises(ValueError, match=r"lacks terms for n=21 \(has indices 1\.\.20\)"):
        check("A004320", SequenceId.AZTEC_HALF, 10**12)


def test_check_bfile_without_terms(tmp_path):
    (tmp_path / "A004320.bfile").write_text("# comments only\n")
    with pytest.raises(ValueError, match=r"lacks terms for n=1 \(has indices none\)"):
        check("A004320", SequenceId.AZTEC_HALF, 5, source="cache", cache_dir=tmp_path)


def test_check_missing_term_wins_over_earlier_mismatch(tmp_path):
    lines = [f"{n} {evaluate(SequenceId.AZTEC_HALF, n)}" for n in range(1, 5)]
    lines[2] = "3 999"  # a wrong n=3 term, and no n=5 term at all
    (tmp_path / "A004320.bfile").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"lacks terms for n=5 \(has indices 1\.\.4\)"):
        check("A004320", SequenceId.AZTEC_HALF, 5, source="cache", cache_dir=tmp_path)


def test_check_reports_mismatch(tmp_path):
    lines = [f"{n} {evaluate(SequenceId.AZTEC_HALF, n)}" for n in range(1, 21)]
    lines[6] = "7 999"  # corrupt the n=7 term
    (tmp_path / "A004320.bfile").write_text("\n".join(lines) + "\n")
    report = check("A004320", SequenceId.AZTEC_HALF, 20,
                   source="cache", cache_dir=tmp_path)
    assert not report.ok
    assert report.matches == 19
    assert report.first_mismatch == (7, 999, 756)


def test_check_honors_bfile_offset_column(tmp_path):
    # a file listing an extra order-0 term still matches by its own indices
    lines = ["0 0"] + [f"{n} {evaluate(SequenceId.BISCUIT, n)}" for n in range(1, 11)]
    (tmp_path / "A213840.bfile").write_text("\n".join(lines) + "\n")
    report = check("A213840", SequenceId.BISCUIT, 10,
                   source="cache", cache_dir=tmp_path)
    assert report.ok and report.matches == 10
