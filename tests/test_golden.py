"""Golden SHA-256 digests of CLI output, pinned so refactors stay byte-identical.

Each command covers one shared code path: the single-accumulator bitmap
stamping, the superclass and full-group (odometer) image sweeps, the torus
odometer and zero-row count of `reduce`, the spike scan, the 11-place
float formatting of `eval`, the dedupe counts and containment verdicts
of `verify hypocycloid`, the exact counts path (`dot_counts`) under
each identity sweep, the permanent check and `eval` with entries outside
[0, n), and the line-rotation prefix of `image` at L = 1 (`verify
hypocycloid`), L = 3 (`walk`, `image 12 0 1 3`) and L = n (the other
images).  `image 400 1 2` runs the kernel's int64 mod-n branch, which
only large n reaches; the other images run its periodic-table branch.
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
