"""Golden SHA-256 digests of CLI output, pinned so refactors stay byte-identical.

Each command covers one shared code path: the single-accumulator bitmap
stamping, the superclass and full-group (odometer) image sweeps, the torus
odometer and zero-row count of `reduce`, the spike scan, the 11-place
float formatting of `eval`, the dedupe counts and containment verdicts
of `verify hypocycloid`, the exact counts path (`dot_counts`) under
each identity sweep, the permanent check and `eval` with entries outside
[0, n), and the line-rotation sweep of `image` over the superclasses
least among their translates by multiples of L*1, at L = 1 (`verify
hypocycloid`), L = 3 (`walk`, `image 12 0 1 3`), L = 4 (`image 40 0 1 2
3 4`, whose 428,000 rows with first entry < L exceed one block of 2^18, so
the candidates are built through the block planner), L = 5 (`image 30 0 0
0 0 0 6`, whose 287,137 candidates span two blocks), L = 19 (`image 38 2
15 25 30`) and L = n (the other images, which sweep every superclass).
`image 400 1 2` runs the kernel's int64 mod-n branch, which only large n
reaches; the other images run its periodic-table branch.
A digest may change only with a deliberate change of output, never with
a refactor.
"""

import hashlib

import pytest

from symchar.cli import main

GOLDEN = [
    (
        ["render", "19", "1", "1", "1", "1", "1", "14", "--range", "7", "--unit-res", "30", "-o", "out.png"],
        "22c230deee1e5bd925e63f3eb1372ec6420779cba213efed169d3a3bb380458a",
        "090c1d2969a107be58d57f846d8f19ccd82e646bea7e8cbed9c2055be6eff0ce",
    ),
    (["image", "11", "3", "4", "5", "6", "9", "10", "--format", "csv"], "60938960c0a5a5d5cafba2eddacc9e7015e50ba87b44a21e7d27d1830f6d7835", None),
    (["image", "5", "0", "1", "2", "--full-group", "--format", "csv"], "dd3d2985646ab6426a929c1575cc2ee66de8b9afcc516080c614a308beb2c745", None),
    (["reduce", "47", "1", "2", "44", "--grid", "47"], "f3e06852cedfebdfe929e61f2c5c1f3771dcc7729505011d9d2ea5d1627f2f17", None),
    (["verify", "spikes", "--n", "6", "--d", "4"], "94febc3d79b8f257b755b5812ddf106e4d4b3d21844d1082064e404a18bd9864", None),
    (["eval", "7", "1", "2", "4", "--", "1", "3", "5"], "f5f331c74cf5f5ce6a7d36c85e076b9749a3032e0b3c009d31d5aec99d642d8c", None),
    (["verify", "hypocycloid", "--n", "13", "--d", "6"], "7acc238c6c2d6a30c11224afb28fd9361ba1ca21c5bb9484cdf28b0bd9902461", None),
    (["verify", "hypocycloid", "--n", "19", "--d", "5"], "b6a82772703d17471039d16feb187afba3a8abdc83235b06ec73b002c82e2382", None),
    (["image", "24", "1", "1", "1", "1", "1", "19", "--format", "csv"], "d39c27e39f7c2db113903c50f6ae08f1a352adf29313c6fe789a34e2ddba9ada", None),
    (["verify", "conjugate", "--n", "7", "--d", "3"], "103846129763fa8a543416773d8f24c0dba7904def48e9f4c65239dc33776e6e", None),
    (["verify", "translation", "--n", "4", "--d", "3"], "90e06228a33ac88dbdc4b5c2d57dd645949f925fb961727d5587d3af097da2d9", None),
    (["verify", "constancy", "--n", "6", "--d", "3"], "60e8e2ef6f4bb998291ac621c595a3a854b99938bf3e222861456c93c5ca4cc2", None),
    (["verify", "dihedral", "--n", "6", "--d", "4"], "a8113f2489d68aff8f51da2b496e70c961bbdf424c58fabef9d2c60fca7cd0f0", None),
    (
        ["verify", "permanent", "--n", "7", "--d", "4", "--samples", "10", "--seed", "3"],
        "989f06a829a8b34f2b34a5a5498bae495f5482f085642d7fe5b2a6babf9efdd6",
        None,
    ),
    (["verify", "full-union", "--n", "7", "--d", "4"], "63e47640d5272464a868f51e6c924b8f84f335f2121ff64d22a1f12df8fc419c", None),
    (["eval", "13", "0", "0", "5", "--", "-4", "30", "2"], "8a38098508e28906728ad0fe1ab3e897f40f9a6bc41e8173859cc27579a4da7d", None),
    (["verify", "hypocycloid", "--n", "24", "--d", "6"], "9443f23da7550adb81b99f42fcc766a839121c7c80e7701d643b7a9e5cb9f1b9", None),
    (["walk", "24", "4", "8"], "fb0e3685012e202da6f43d134a3c4e83726651e451af8a983b91888561bb7a23", None),
    (["image", "12", "0", "1", "3", "--format", "csv"], "ca10c869ff84d0a79242f8052f0fe7c82c152262ee51a0b795da2da27cec9c0b", None),
    (["image", "400", "1", "2", "--format", "csv"], "72f4fbccf10569614d393c54a336cbd97fffc2e0cf0654fae2c329e881631ce9", None),
    (["verify", "hypocycloid", "--n", "15", "--d", "6"], "abbe2b7a70eda3f704d391c3f36a13f40e1cd4bbb649c02bd28b90c7b52b4393", None),
    (["verify", "hypocycloid", "--n", "16", "--d", "6"], "ce8b8883cd661bd568e386ad1d15022bed143df5dae42bed47ee4231dfeec351", None),
    (["verify", "hypocycloid", "--n", "20", "--d", "5"], "94f9cdb647864112464c51a7b5a8d1d5f7a427366ee1961d8a2a4657eb23097d", None),
    # A deliberate change of output: (2, 5, 27, 30) and its translate
    # (8, 11, 21, 24) = (2, 5, 27, 30) + 19*1 mod 38 have equal counts, but
    # their floats straddle a round(., 9) boundary, so the sweep of every
    # superclass with first entry < L printed the point twice.  Only the least
    # translate is swept now, and the CSV has 38,818 points, each once.
    (["image", "38", "2", "15", "25", "30", "--format", "csv"], "1ed4853dc214ccc30e20bfbe1337dd9886088668dd1cccc1e88c99828c9ff05e", None),
    (["image", "40", "0", "1", "2", "3", "4", "--format", "csv"], "ea3eaec6c41790f0c6591cb0b60d997cb42f02e0e6647951fc621b0950d597f1", None),
    (["image", "30", "0", "0", "0", "0", "0", "6", "--format", "csv"], "956ca33cb547340db3c8a6d970be0ac33bb8cb53963a44c509283d51a2747fe5", None),
]


# Sweep sizes beyond the benchmark's, so a batched sweep must reproduce the
# per-pair records at other shapes too: dihedral at N > 12 (sampled orbits)
# and N <= 12 (every orbit is a sample), and dihedral and full-union at the
# composite n = 12, whose orbits have six rotation orders.  The block
# writers of the exact sweeps are pinned at other shapes: constancy at
# d = 2 and d = 4, conjugate with two-digit n and entries, and translation
# at n = 1, where each (X, Y) has one j and one k.  The spike records, which
# share one superclass build per sweep, are pinned at (10, 4) and (12, 3),
# and full-union's witness pairs, read off one translation block per X, at
# (9, 3).  A list of its own, so the ids of GOLDEN cases do not change.
SWEEP_GOLDEN = [
    (["verify", "translation", "--n", "5", "--d", "2"], "22ce38bbf0ed53af521df028ad150751b1517160922230fc26100e025ad6527f"),
    (["verify", "translation", "--n", "3", "--d", "4"], "dd014bac95a17181c5933a974ca050914a9fc998b5b1a202600443bcad0f08da"),
    (["verify", "dihedral", "--n", "7", "--d", "3"], "db17f546de0474f65a6d640700ad9a3abb39ca2603b1df66ce830afbca476c80"),
    (["verify", "dihedral", "--n", "4", "--d", "2"], "cf61ddd204887fdaae267354ac1c0bb4eddbfb64c0fa2a09c3d03d798f3c1a56"),
    (["verify", "conjugate", "--n", "5", "--d", "4"], "504b8f1a9dba8601139572f6250c5e20472dab81719601785485a217a285a60f"),
    (["verify", "dihedral", "--n", "12", "--d", "3"], "99fa949eeeac7344be0ede8bd1f0bb9c11e0f1d7b872922567b94f014a94b162"),
    (["verify", "full-union", "--n", "12", "--d", "3"], "ef8241ef92ffea25b37b22f31cc7b7810c473ec98fa52eb04436600c864f8e23"),
    (["verify", "constancy", "--n", "5", "--d", "2"], "74693d50b94362a09de65a1d66145d5649e6bd908bcd472c5ca3c2e1de67520c"),
    (["verify", "constancy", "--n", "3", "--d", "4"], "00719958347bc8765c753bfb4e4a20de512841f2167ff8cc8983a28e418a8461"),
    (["verify", "conjugate", "--n", "12", "--d", "2"], "fafe7851154fe6dd2c8fc48868a0e0d0d624278b0e496e4201d3072794ec560b"),
    (["verify", "translation", "--n", "1", "--d", "2"], "36f9e33516c098586ea268e4328a9efb5b6703b4f2f71dd34208f163c1ef8c17"),
    (["verify", "spikes", "--n", "10", "--d", "4"], "2a4f605305ab4772a3a962689e987b539fb0d60040275a3d604af3dead133618"),
    (["verify", "spikes", "--n", "12", "--d", "3"], "3e28de06c89d529f70a4aa25154e06505ae438f2ea8abbeffd0dd15dec59cdc9"),
    (["verify", "full-union", "--n", "9", "--d", "3"], "a654b789eb10d68aefbd0a4925c9c1f50aafdbff549813bf1d9d6aaddc9cda13"),
]


# verify hypocycloid at d = 3 and 4, and at n = 30, d = 6, where 2d divides n
# so some values sit exactly at the curve's valleys.  A list of its own, so
# the ids of GOLDEN cases do not change.
HYPOCYCLOID_GOLDEN = [
    (["verify", "hypocycloid", "--n", "40", "--d", "3"], "d0c4d8c73a019970f930b9afdc9ed1f22df36a460468dccdd95beafb8cf7bc1f"),
    (["verify", "hypocycloid", "--n", "31", "--d", "4"], "0a0e53103392952ce57e371b4c0176e8f660893ebd25c714fcad5843ce9303b0"),
    (["verify", "hypocycloid", "--n", "30", "--d", "6"], "6caad9d2799856b8819b4430e283171c3b4071c87ee12ac79ee4153108d45ebc"),
]


# The supercharacter table's JSON, printed and written to a file, so that a
# row-by-row writer must give the bytes of one json.dumps call.  (7, 4) adds
# the roots of every orbit size (1, 4, 6, 12, 24) in the order of the orbit's
# rows, as a stack of more orbits than elements; (5, 5) adds its sizes 1 to
# 20 so and its sizes 30, 60 and 120 (no more orbits than elements) by one
# call per orbit.  (4, 3) stacks only orbits of 1 and 3 elements, where
# numpy's row sum also adds in row order.  A list of its own, so the ids of
# GOLDEN cases do not change.
TABLE_GOLDEN = [
    (["table", "4", "3"], "d1f283f2b7733737ae509a99b3c79fb3772d09be6bd37b4cdc06e64cf7dfa662", None),
    (
        ["table", "6", "3", "-o", "table.json"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "da23a8f1064c89a42b3d638555b1afa8d3737db8ec6719b313682c001432f3cd",
    ),
    (["table", "7", "4"], "c996df78c8839356bcd72a63e1bdaf8bb63d0f0b0fadaf5eb5c1260bfc43189e", None),
    (["table", "5", "5"], "7efa7f0d93bfa9b4ca7e5f4709c65b81dcf1b8971fa4b81117f99c7267fc955e", None),
]


# image and reduce output in JSON, printed and written to a file, and CSV
# written to a file, so that a chunked exporter must give the bytes of one
# whole-text export.  `image 400 1 2` in GOLDEN (80k points) spans several
# chunks.  A list of its own, so the ids of GOLDEN cases do not change.
EXPORT_GOLDEN = [
    (["image", "11", "3", "4", "5", "6", "9", "10", "--format", "json"], "4e69fb2bdadeaa201264027f357c88d39808cfcf4d12c9eb584ced5f875289c1", None),
    (
        ["image", "12", "0", "1", "3", "--format", "json", "-o", "p.json"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d76fd7ffe4de76a97b9f4b75014c2677d2a3add817d657fdb4fdf1b08d3834c1",
    ),
    (
        ["image", "12", "0", "1", "3", "--format", "csv", "-o", "p.csv"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ca10c869ff84d0a79242f8052f0fe7c82c152262ee51a0b795da2da27cec9c0b",
    ),
    (["reduce", "47", "1", "2", "44", "--grid", "47", "--format", "json"], "9bb7bea65f8e62d91e8700a16823aed6f1e1b2f1fad2eb4a079432516acee978", None),
]


# reduce's whole output, stderr line and exit code where elimination stalls
# after some pivots (exit 1, the partial certificate on stdout) and at d = 4
# with a zero row and a sampled torus map.  A list of its own, so the ids of
# GOLDEN cases do not change.
REDUCE_GOLDEN = [
    (
        ["reduce", "10", "1", "2", "5"],
        1,
        "a5883479cc47e9f6526ad40cac2188defde294cc034eb282507be1d7ba6d4513",
        '{"error": "no_unit_pivot", "detail": "no unit pivot for rows [2] of the orbit matrix of (1, 2, 5) mod 10"}\n',
    ),
    (
        ["reduce", "12", "1", "2", "3", "4"],
        1,
        "b96172584dbd0a751ccd42411c3973a8627e220b24b13780b3b4c6467c8de69f",
        '{"error": "no_unit_pivot", "detail": "no unit pivot for rows [3] of the orbit matrix of (1, 2, 3, 4) mod 12"}\n',
    ),
    (["reduce", "17", "0", "1", "1", "15", "--grid", "5"], 0, "0ee5a6a541807831e6b419fe793dc8388ec7a48ae4f273171b14195dc41a9dd8", ""),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, stdout_digest, file_digest", GOLDEN, ids=[g[0][0] + "-" + g[0][1] for g in GOLDEN])
def test_golden_digest(argv, stdout_digest, file_digest, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SYMCHAR_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    if file_digest is not None:
        assert sha256((tmp_path / argv[-1]).read_bytes()) == file_digest


@pytest.mark.parametrize("argv, stdout_digest, file_digest", TABLE_GOLDEN, ids=["-".join(g[0][1:3]) for g in TABLE_GOLDEN])
def test_table_golden_digest(argv, stdout_digest, file_digest, tmp_path, monkeypatch, capsys):
    test_golden_digest(argv, stdout_digest, file_digest, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("argv, stdout_digest", SWEEP_GOLDEN, ids=["-".join(g[0][1::2]) for g in SWEEP_GOLDEN])
def test_sweep_golden_digest(argv, stdout_digest, capsys):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest


@pytest.mark.parametrize("argv, stdout_digest", HYPOCYCLOID_GOLDEN, ids=["-".join(g[0][3::2]) for g in HYPOCYCLOID_GOLDEN])
def test_hypocycloid_golden_digest(argv, stdout_digest, capsys):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest


@pytest.mark.parametrize("argv, stdout_digest, file_digest", EXPORT_GOLDEN, ids=["-".join(g[0][:2] + g[0][-3:]) for g in EXPORT_GOLDEN])
def test_export_golden_digest(argv, stdout_digest, file_digest, tmp_path, monkeypatch, capsys):
    test_golden_digest(argv, stdout_digest, file_digest, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("argv, code, stdout_digest, stderr", REDUCE_GOLDEN, ids=["-".join(g[0][1:]) for g in REDUCE_GOLDEN])
def test_reduce_golden(argv, code, stdout_digest, stderr, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (sha256(out.encode()), err) == (stdout_digest, stderr)
