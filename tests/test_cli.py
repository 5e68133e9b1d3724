import dataclasses
import json
import math
import random
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest

from symchar import cli, identities, orbits, table
from symchar.cli import main
from symchar.report import IdentityReport
from symchar.orbits import canonicalize, enumerate_orbits, orbit_size


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_shape():
    rep = IdentityReport("demo", {"x": canonicalize((1, 2), 5), "z": 1 + 2j}, True, True)
    data = json.loads(rep.to_json())
    assert data["check"] == "demo"
    assert data["params"]["x"] == {"n": 5, "entries": [1, 2]}
    assert data["params"]["z"] == [1.0, 2.0]
    assert data["passed"] is True


def test_solve_command(capsys):
    code, out, err = run_cli(["solve", "7", "0", "5", "12"], capsys)
    assert code == 0
    assert json.loads(out) == {"j": 7, "k": 0, "method": "crt"}


def test_solve_brute(capsys):
    code, out, _ = run_cli(["solve", "7", "0", "5", "12", "--brute"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "brute"


def test_eval_command(capsys):
    code, out, _ = run_cli(["eval", "3", "0", "1", "--", "1", "2"], capsys)
    assert code == 0
    assert "value -1.00000000000+0.00000000000i" in out


def test_eval_entry_beyond_int64(capsys):
    code, out, _ = run_cli(["eval", "3", "0", "1", "--", str(2**63), "1"], capsys)
    assert code == 0
    assert out.startswith("orbit 0 1  counts [0,1,1]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "3", "0", "1", "--oracle", "--", "1", "2"],
        ["eval", "3", "--oracle", "0", "1", "--", "1", "2"],
        ["eval", "3", "0", "--oracle", "1", "--", "1", "2"],
    ],
)
def test_eval_options_before_separator(argv, capsys):
    expected = run_cli(["eval", "--oracle", "3", "0", "1", "--", "1", "2"], capsys)
    assert "permanent-oracle" in expected[1]
    assert run_cli(argv, capsys) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "3", "2", "--budget", "0"],
        ["image", "5", "0", "1", "--budget", "0"],
        ["image", "5", "0", "1", "--budget", "-5"],
        ["render", "5", "0", "1", "--range", "2", "--unit-res", "4", "-o", "x.png", "--budget", "0"],
        ["reduce", "47", "1", "2", "44", "--grid", "5", "--budget", "0"],
        ["walk", "24", "4", "16", "--budget", "0"],
        ["walk", "24", "4", "16", "--budget", "-5"],
        *(
            ["verify", check, "--n", "3", "--d", "2", "--budget", "0"]
            for check in (
                "conjugate", "translation", "constancy", "dihedral", "spikes",
                "full-union", "hypocycloid", "permanent", "unitary",
            )
        ),
        ["table", "3", "2", "--budget", "-5"],
    ],
)
def test_nonpositive_budget_is_a_usage_error(argv, capsys):
    # the same check for every command that takes --budget, before any work
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "budget must be positive"}


def test_eval_negative_entries_stay_numbers(capsys):
    code, out, _ = run_cli(["eval", "5", "-1", "2", "--oracle", "--", "-4", "1"], capsys)
    assert code == 0
    assert out == run_cli(["eval", "--oracle", "5", "4", "2", "--", "1", "1"], capsys)[1]


def test_eval_needs_separator(capsys):
    code, out, err = run_cli(["eval", "3", "0", "1", "1", "2"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv", [["eval", "3", "--", "1", "2"], ["eval", "3", "--", "1", "--", "2"], ["eval", "3", "--"]])
def test_eval_separator_right_after_n_means_no_entries(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "orbit entries required"}


def test_eval_separator_before_n_ends_options(capsys):
    expected = run_cli(["eval", "3", "0", "1", "--", "1", "2"], capsys)
    assert expected[0] == 0
    assert run_cli(["eval", "--", "3", "0", "1", "--", "1", "2"], capsys) == expected
    assert run_cli(["eval", "--oracle", "--", "3", "0", "1", "--", "1", "2"], capsys)[1].startswith(expected[1])


def test_eval_oracle_above_the_permanent_cutoff_prints_nothing(capsys):
    # d = 11 is refused before the counts and value lines are printed
    code, out, err = run_cli(["eval", "3", *"0" * 10, "1", "--oracle", "--", *"1" * 11], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "DimensionTooLarge"


def test_eval_without_n(capsys):
    code, _, err = run_cli(["eval"], capsys)
    assert code == 2
    assert json.loads(err)["detail"] == "the following arguments are required: n, rest"


def test_eval_length_mismatch(capsys):
    code, _, err = run_cli(["eval", "3", "0", "1", "--", "1"], capsys)
    assert code == 2


def test_orbits_command(capsys):
    code, out, _ = run_cli(["orbits", "3", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("0 0")


def test_image_csv(capsys):
    code, out, _ = run_cli(["image", "5", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 6  # header + the five fifth roots of unity


# In each case a superclass and a translate of it that wraps mod n have equal
# counts but floats that straddle a round(., 9) boundary: (2, 5, 27, 30) and
# (8, 11, 21, 24) = (2, 5, 27, 30) + 19*1 mod 38.  The image sweeps only the
# least translate, so the point is printed once.
@pytest.mark.parametrize(
    "argv", [["image", "38", "2", "15", "25", "30"], ["image", "30", "4", "5", "7", "14", "22"]], ids=["38-2-15-25-30", "30-4-5-7-14-22"]
)
def test_image_csv_has_no_repeated_row(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == len(set(rows))


def test_image_json_to_file(tmp_path, capsys):
    out_file = tmp_path / "pts.json"
    code, _, _ = run_cli(["image", "5", "1", "--format", "json", "-o", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data) == 5


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMCHAR_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(["image", "3", "1", "-o", "pts.csv"], capsys)
    assert code == 0
    assert (tmp_path / "pts.csv").exists()


def test_output_dir_env_creates_subdirs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMCHAR_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(["image", "3", "1", "-o", "sub/dir/pts.csv"], capsys)
    assert code == 0
    assert (tmp_path / "sub" / "dir" / "pts.csv").exists()


def test_write_failure_is_json_error(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "pts.csv"
    code, _, err = run_cli(["image", "3", "1", "-o", str(missing)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "io"


def test_budget_exit_code(capsys):
    code, _, err = run_cli(["image", "30", "1", "2", "3", "--budget", "100"], capsys)
    assert code == 3
    data = json.loads(err)
    assert data["error"] == "budget_exceeded"
    assert data["required"] > 100


@pytest.mark.parametrize(
    "check, extra, required",
    [
        ("conjugate", [], 3 * 6 * 6),
        ("translation", [], 6 * 6 * 3 * 3),
        ("constancy", [], 6 * 3**2),
        ("spikes", [], 6 * 6),
        ("permanent", ["--samples", "4"], 6 * 4),
        # N images of N superclasses, and per orbit min(12, N) = 6 sampled
        # superclasses times n = 3 line shifts for dihedral_order
        ("dihedral", [], 6 * (6 + 6 * 3)),
        ("unitary", [], 6 * 6),
    ],
)
def test_verify_budget_checked_before_the_first_record(check, extra, required, capsys):
    # n = 3, d = 2: N = C(4, 2) = 6 superclasses
    argv = ["verify", check, "--n", "3", "--d", "2", *extra, "--budget"]
    code, out, err = run_cli(argv + [str(required - 1)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "budget_exceeded", "required": required, "budget": required - 1}
    code, out, err = run_cli(argv + [str(required)], capsys)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "argv, required",
    [
        (["table", "3", "2"], 6 * 6),
        # N = C(27, 3) = 2925 superclasses, more than any fixed orbit cap allowed
        (["verify", "unitary", "--n", "25", "--d", "3"], 2925 * 2925),
    ],
)
def test_table_charges_the_given_budget(argv, required, capsys):
    code, out, err = run_cli(argv + ["--budget", str(required - 1)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "budget_exceeded", "required": required, "budget": required - 1}


def test_verify_unitary_starts_a_table_its_budget_covers(monkeypatch):
    # exactly N^2 = 8,555,625 at (25, 3): the budget admits the table, so its
    # orbits are enumerated (stopped there, the table itself is 137 MB)
    import symchar.table as table

    class Started(Exception):
        pass

    def started(n, d):
        raise Started

    monkeypatch.setattr(table, "enumerate_orbits", started)
    with pytest.raises(Started):
        main(["verify", "unitary", "--n", "25", "--d", "3", "--budget", "8555625"])


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_verify_permanent_needs_a_sample(samples, capsys):
    code, out, err = run_cli(["verify", "permanent", "--n", "3", "--d", "2", "--samples", samples], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "usage"


def test_usage_exit_code(capsys):
    code, out, err = run_cli(["image", "0", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == '{"error": "usage", "detail": "modulus must be positive, got 0"}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "0", "1", "--range", "1", "--unit-res", "1", "-o", "x.png"],
        ["reduce", "-2", "1"],
        ["eval", "0", "1", "--", "1"],
    ],
)
def test_nonpositive_modulus_is_one_usage_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f'{{"error": "usage", "detail": "modulus must be positive, got {argv[1]}"}}\n'
    assert not any(tmp_path.iterdir())


def test_hypocycloid_rejects_small_d_before_the_image(monkeypatch, capsys):
    import symchar.asymptotic as asymptotic

    def no_image(*args, **kwargs):
        raise AssertionError("image computed for d < 2")

    monkeypatch.setattr(asymptotic, "image", no_image)
    code, _, err = run_cli(["verify", "hypocycloid", "--n", "7", "--d", "1"], capsys)
    assert code == 2
    assert json.loads(err) == {"error": "usage", "detail": "needs d >= 2"}


def test_workers_option_rejected(capsys):
    code, _, err = run_cli(["image", "7", "0", "1", "3", "--workers", "2"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_verify_translation(capsys):
    code, out, _ = run_cli(["verify", "translation", "--n", "3", "--d", "2"], capsys)
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["passed"] is True


def _break_conjugate(monkeypatch, d):
    monkeypatch.setattr(identities, "negate_orbit", lambda rep: rep)  # forgets to negate X


def _break_translation(monkeypatch, d):
    monkeypatch.setattr(identities, "shift_orbit", lambda rep, j: rep)  # forgets to shift X


def _break_constancy(monkeypatch, d):
    real = identities.orbit_arrays

    def orbit_arrays(n, d):
        # every orbit gains the point (0, ..., 0, 1), which lies in another orbit
        points, sizes = real(n, d)
        groups = np.split(points, np.cumsum(sizes)[:-1])
        return np.vstack([np.vstack([g, [[0] * (d - 1) + [1]]]) for g in groups]), sizes + 1

    monkeypatch.setattr(identities, "orbit_arrays", orbit_arrays)


BREAKS = {"conjugate": _break_conjugate, "translation": _break_translation, "constancy": _break_constancy}


@pytest.mark.parametrize(
    "check, n, d",
    [
        ("conjugate", 4, 2),
        ("conjugate", 5, 3),
        ("conjugate", 12, 1),
        ("translation", 3, 2),
        ("translation", 4, 3),
        ("translation", 1, 2),
        ("constancy", 4, 3),
        ("constancy", 5, 2),
        ("constancy", 3, 1),
    ],
)
@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken"])
def test_block_sweep_prints_its_records(check, n, d, broken, monkeypatch, capsys):
    if broken:
        BREAKS[check](monkeypatch, d)
    records = list(chain.from_iterable(getattr(identities, f"sweep_{check}")(n, d)))
    code, out, err = run_cli(["verify", check, "--n", str(n), "--d", str(d)], capsys)
    assert out == "".join(r.to_json() + "\n" for r in records)
    assert code == (0 if all(r.passed for r in records) else 1) and err == ""
    if not broken:
        assert all(r.passed for r in records)
    elif n > 1:  # mod 1 every orbit is its own shift and negation
        assert not all(r.passed for r in records)


@pytest.mark.parametrize("n, d", [(6, 3), (8, 2)])
@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken"])
def test_spike_sweep_prints_the_per_orbit_records(n, d, broken, monkeypatch, capsys):
    # the sweep's shifts come from one array pass; its records, witnesses
    # included, are those of spike_identity at each spike orbit's least r
    if broken:
        real = identities.dot_counts
        monkeypatch.setattr(identities, "dot_counts", lambda rep, ys: np.roll(real(rep, ys), 1, axis=-1))
    records = []
    for rep in enumerate_orbits(n, d):
        shifts = [r for r in range(n) if canonicalize([r - v for v in rep.entries], n) == rep]
        if shifts:
            records.append(identities.spike_identity(rep, shifts[0]))
    code, out, err = run_cli(["verify", "spikes", "--n", str(n), "--d", str(d)], capsys)
    assert out == "".join(r.to_json() + "\n" for r in records) and err == ""
    assert code == (0 if all(r.passed for r in records) else 1)
    assert all(r.passed for r in records) != broken


@pytest.mark.parametrize("cells", [1, 40])
def test_verify_permanent_blocks_of_orbits(cells, capsys, monkeypatch):
    # blocks of one orbit, or of consecutive orbits up to `cells` pairs, print the bytes of one block
    argv = ["verify", "permanent", "--n", "4", "--d", "3", "--samples", "4", "--seed", "2"]
    whole = run_cli(argv, capsys)
    blocks = []
    real = cli.supercharacters
    monkeypatch.setattr(cli, "supercharacters", lambda reps, ys: blocks.append([rep.entries for rep in reps]) or real(reps, ys))
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", cells)
    assert run_cli(argv, capsys) == whole and whole[0] == 0
    assert list(chain(*blocks)) == [rep.entries for rep in enumerate_orbits(4, 3)]
    widths = [[4 * max(orbit_size(canonicalize(e, 4)), 4) for e in block] for block in blocks]
    assert all(len(w) == 1 or sum(w) <= cells for w in widths) and len(blocks) > 1
    if cells == 40:  # orbits of 1 or 3 elements (16 cells) pair up
        assert max(map(len, blocks)) == 2


def test_verify_permanent(capsys, monkeypatch):
    blocks = []
    real = cli.permanent_oracle
    monkeypatch.setattr(cli, "permanent_oracle", lambda rep, ys: blocks.append(len(ys)) or real(rep, ys))
    code, out, _ = run_cli(["verify", "permanent", "--n", "5", "--d", "2", "--samples", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {"check": "permanent", "n": 5, "d": 2, "samples": 45, "failures": 0}
    assert blocks == [3] * 15  # one call per orbit, with all its samples
    monkeypatch.setattr(cli, "permanent_oracle", lambda rep, ys: real(rep, ys) + 1e-8 * (np.arange(len(ys)) % 2))
    code, out, _ = run_cli(["verify", "permanent", "--n", "5", "--d", "2", "--samples", "3"], capsys)
    rec = json.loads(out)
    assert code == 1 and rec["failures"] == 15
    # the first orbit, (0, 0), where sigma is 1, and its second sample, the first one broken
    rng = random.Random(0)
    y = [[rng.randrange(5) for _ in range(2)] for _ in range(3)][1]
    orbit = {"n": 5, "entries": [0, 0]}
    assert rec["witness"] == {"orbit": orbit, "y": y, "supercharacter": [1.0, 0.0], "oracle": [1.0 + 1e-8, 0.0]}


def test_verify_unitary(capsys):
    code, out, _ = run_cli(["verify", "unitary", "--n", "3", "--d", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["residual_symmetry"] <= 1e-9


@pytest.mark.parametrize("field, bound", [("residual_symmetry", 1e-9), ("residual_unitary", 1e-8)])
def test_verify_unitary_fails_just_above_a_bound(field, bound, capsys, monkeypatch):
    real = table.build_unitary
    for residual, code in [(bound, 0), (math.nextafter(bound, math.inf), 1)]:
        monkeypatch.setattr(table, "build_unitary", lambda tab: dataclasses.replace(real(tab), **{field: residual}))
        got, out, _ = run_cli(["verify", "unitary", "--n", "3", "--d", "2"], capsys)
        rec = json.loads(out)
        assert (got, rec["passed"], rec[field]) == (code, code == 0, residual)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "permanent", "--n", "3", "--d", "12"], "DimensionTooLarge"),
        (["walk", "5", "2", "5"], "HypothesisFailed"),
    ],
)
def test_refused_input_exits_two(argv, error, capsys):
    # refused (outside the hypothesis or the cutoff), not disproved: exit 2
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "walk", "--n", "24", "--d", "4", "--a", "8"],
        ["verify", "translation", "--n", "3", "--d", "2", "--a", "1"],
        ["table", "3", "2", "--max-orbits", "9"],
        ["table", "3", "2", "--check-unitary"],
        ["eval", "3", "0", "1", "--budget", "7", "--", "1", "2"],
        ["eval", "--budget", "7", "3", "0", "1", "--", "1", "2"],
    ],
)
def test_second_paths_and_knobs_are_usage_errors(argv, capsys):
    # walk, verify unitary and table's --budget are the one path each
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


def test_walk_command(capsys):
    code, out, _ = run_cli(["walk", "24", "3", "6"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_walk_charges_both_images_before_either(monkeypatch, capsys):
    # C(27, 4) + C(6, 4) = 17,550 + 15 superclasses at n = 24, reduced modulus 3
    monkeypatch.setattr(identities, "image", None)
    code, out, err = run_cli(["walk", "24", "4", "8", "--budget", "17564"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "budget_exceeded", "required": 17565, "budget": 17564}
    monkeypatch.undo()
    code, out, err = run_cli(["walk", "24", "4", "8", "--budget", "17565"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [["walk", "0", "3", "1"], ["walk", "5", "0", "2"], ["walk", "5", "-1", "2"]])
def test_walk_rejects_nonpositive_n_and_d(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv, exponent_rows",
    [
        (["reduce", "5", "0", "0", "--grid", "5"], []),  # the zero orbit's map has no variables
        (["reduce", "1", "0", "--grid", "3"], []),
        (["reduce", "5", "1", "2", "--grid", "0"], [[1, 0], [0, 2]]),
        (["reduce", "5", "1", "2", "--grid", "-1"], [[1, 0], [0, 2]]),
        # 47^2 = 2,209 samples over a budget of 10: exit 3, after the same two lines
        (
            ["reduce", "47", "1", "2", "44", "--grid", "47", "--budget", "10"],
            [[1, -18, 0, 13, -14, 18], [0, -5, -3, -7, 7, 8]],
        ),
    ],
)
def test_reduce_rejects_unsampleable_grid(argv, exponent_rows, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, json.loads(err)["error"]) == ((3, "budget_exceeded") if "--budget" in argv else (2, "usage"))
    lines = out.splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["complete"] is True
    assert json.loads(lines[1])["rows"] == exponent_rows
    assert len(err.splitlines()) == 1


def test_reduce_command(capsys):
    code, out, _ = run_cli(["reduce", "47", "1", "2", "44"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    cert = json.loads(lines[0])
    assert cert["zero_rows"] == 1
    exps = json.loads(lines[1])
    assert len(exps["rows"]) == 2


def test_reduce_stall_exit_one(capsys):
    code, out, err = run_cli(["reduce", "6", "2", "4"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "no_unit_pivot"
    assert json.loads(out.strip().splitlines()[0])["complete"] is False


def test_reduce_with_supplied_reducer(capsys):
    code, out, _ = run_cli(
        ["reduce", "47", "1", "2", "44", "--reducer", "[[3,1,0],[2,-1,0],[1,1,1]]"], capsys
    )
    assert code == 0
    cert = json.loads(out.strip().splitlines()[0])
    assert cert["det"] == 42


@pytest.mark.parametrize(
    "reducer",
    ["7", '[[1,"a"],[0,1]]', "[[1.5,0],[0,1]]", "[[1]]", "[[1,0],[0,1],[0,0]]", "[[true,0],[0,1]]", "[[1,0]"],
)
def test_reduce_rejects_a_malformed_reducer(reducer, capsys):
    # a d x d matrix of JSON integers, checked before anything is printed
    code, out, err = run_cli(["reduce", "5", "1", "2", "--reducer", reducer], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "--reducer must be a JSON list of 2 rows of 2 integers"}


@pytest.mark.parametrize("expect", ['[[1,"a"],[0,1]]', "[[1,2,3],[0,1,2]]", '{"a": 1}', "[[1, 2]", "[[9, 9]]"])
def test_reduce_rejects_a_malformed_expect_b(expect, tmp_path, capsys):
    expect_file = tmp_path / "b.json"
    expect_file.write_text(expect)
    code, out, err = run_cli(["reduce", "5", "1", "2", "--expect-b", str(expect_file)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "--expect-b must be a JSON list of 2 rows of 2 integers"}


def test_reduce_failure_prints_its_witness(capsys):
    # a singular reducer: the certificate's own check fails, and says on which orbit
    code, out, err = run_cli(["reduce", "5", "1", "2", "--reducer", "[[1,0],[0,0]]"], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "VerificationFailed",
        "detail": "determinant 0 is not a unit mod 5",
        "witness": {"rep": {"n": 5, "entries": [1, 2]}},
    }


def test_reduce_expect_b_match(tmp_path, capsys):
    # round-trip: feed the computed reduced form back in as the expectation
    code, out, _ = run_cli(["reduce", "5", "1", "2"], capsys)
    assert code == 0
    reduced = json.loads(out.strip().splitlines()[0])["reduced"]
    expect_file = tmp_path / "b.json"
    expect_file.write_text(json.dumps(reduced))
    code, _, _ = run_cli(["reduce", "5", "1", "2", "--expect-b", str(expect_file)], capsys)
    assert code == 0


def test_reduce_expect_b_mismatch(tmp_path, capsys):
    expect_file = tmp_path / "b.json"
    expect_file.write_text("[[9, 9], [9, 9]]")
    code, _, err = run_cli(["reduce", "5", "1", "2", "--expect-b", str(expect_file)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "reduced_form_mismatch"


def test_canonicalization_notice(capsys):
    code, _, err = run_cli(["image", "5", "2", "1"], capsys)
    assert code == 0
    notice = json.loads(err)
    assert notice["notice"] == "canonicalized"
    assert notice["orbit"] == [1, 2]
    # already-canonical input stays quiet
    code, _, err = run_cli(["image", "5", "1", "2"], capsys)
    assert code == 0
    assert err == ""


def test_render_command(tmp_path, capsys):
    out_file = tmp_path / "img.png"
    code, out, _ = run_cli(
        ["render", "7", "1", "1", "5", "--range", "4", "--unit-res", "4", "-o", str(out_file)],
        capsys,
    )
    assert code == 0
    data = out_file.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"


def test_unallocatable_raster_is_one_json_line(tmp_path, capsys):
    # a 2e8 x 2e8 raster: 4e16 bytes, above 2**48, so the allocation fails
    # at once and touches no memory
    out_file = tmp_path / "x.png"
    code, out, err = run_cli(
        ["render", "5", "0", "1", "--range", "100000", "--unit-res", "1000", "-o", str(out_file)], capsys
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "memory"
    assert not out_file.exists()


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_render_nonfinite_range_is_a_usage_error(bad, tmp_path, capsys):
    out_file = tmp_path / "x.png"
    code, out, err = run_cli(["render", "3", "0", "1", "--range", bad, "--unit-res", "1", "-o", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    line = json.loads(err)
    assert line["error"] == "usage" and "range" in line["detail"]
    assert not out_file.exists()


def test_render_requires_output(capsys):
    code, _, err = run_cli(["render", "7", "1", "--range", "2", "--unit-res", "2"], capsys)
    assert code == 2


def test_render_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.png", tmp_path / "b.png"
    args = ["render", "7", "1", "1", "5", "--range", "4", "--unit-res", "8"]
    assert run_cli(args + ["-o", str(a)], capsys)[0] == 0
    assert run_cli(args + ["-o", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_command(capsys):
    code, out, _ = run_cli(["table", "2", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    re, im = data["values"][1][1]
    assert abs(re + 1) < 1e-12 and abs(im) < 1e-12


def test_table_unitary(capsys):
    from symchar.table import build_table, build_unitary

    uni = build_unitary(build_table(3, 2))
    code, out, _ = run_cli(["verify", "unitary", "--n", "3", "--d", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert (rec["residual_symmetry"], rec["residual_unitary"]) == (uni.residual_symmetry, uni.residual_unitary)
    assert rec["residual_unitary"] <= 1e-8 and rec["passed"] is True


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "symchar.cli", "solve", "0", "0", "3", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"j": 1, "k": 1, "method": "crt"}


SAMPLE_ARGV = {
    "orbits": ["orbits", "3", "2"],
    "eval": ["eval", "3", "0", "1", "--oracle", "--", "1", "2"],
    "image": ["image", "5", "0", "1", "--full-group", "--format", "json", "-o", "x.json", "--budget", "100"],
    "render": ["render", "5", "0", "1", "--range", "2", "--unit-res", "3", "-o", "x.png"],
    "reduce": ["reduce", "47", "1", "2", "44", "--grid", "47", "--format", "json"],
    "table": ["table", "3", "2", "-o", "x.json", "--budget", "36"],
    "walk": ["walk", "24", "4", "8", "--budget", "100"],
    "solve": ["solve", "7", "0", "5", "12", "--brute"],
    "verify": ["verify", "hypocycloid", "--n", "13", "--d", "6", "--seed", "2"],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_parses_as_the_full_one(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = SAMPLE_ARGV[command]
    assert cli.build_parser(command).parse_args(argv) == cli.build_parser().parse_args(argv)
    helps = []
    for parser in (cli.build_parser(command), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: symchar {command} ")


def test_main_builds_only_the_command_it_runs(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    assert main(["solve", "7", "0", "5", "12"]) == 0
    assert main(["nosuch"]) == 2
    assert built == ["solve", None]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{orbits,eval,image,render,reduce,table,walk,solve,verify}" in capsys.readouterr().out
