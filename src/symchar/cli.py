"""Command-line front end.

    symchar orbits 3 2
    symchar eval 3 0 1 -- 1 2
    symchar image 5 0 1 1 28 --format csv -o points.csv
    symchar render 19 1 1 1 1 1 14 --range 7 --unit-res 30 -o out.png
    symchar verify translation --n 4 --d 3
    symchar reduce 47 1 2 44
    symchar verify unitary --n 3 --d 2
    symchar walk 24 3 8
    symchar solve 7 0 5 12

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error or refused input (DimensionTooLarge, HypothesisFailed, or an
array too large to allocate: {"error": "memory", ...}), 3 evaluation budget
exceeded.  Errors go to stderr as a single JSON line.
Floats are printed with 11 decimal places.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Iterable

from . import asymptotic, identities, render, table
from .errors import BudgetExceeded, DimensionTooLarge, HypothesisFailed, NoUnitPivot, SymcharError
from .evaluate import (
    DEFAULT_BUDGET,
    TOL,
    counts_value,
    dot_counts,
    image,
    permanent_oracle,
    supercharacters,
)
from .modring import solve_bilinear_brute, solve_bilinear_congruence
from .orbits import OrbitRep, block_rows, canonicalize, enumerate_orbits, orbit_count, orbit_size, stabilizer_order
from .report import ReportBlock, _encode


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def fmt_complex(z: complex) -> str:
    re, im = render.round11(z.real), render.round11(z.imag)
    return f"{re:.11f}{'+' if im >= 0 else '-'}{abs(im):.11f}i"


def _output_path(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("SYMCHAR_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        # The tool owns the layout under the redirect dir, so create it.
        path = os.path.join(base, path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _jobspec(args, entries) -> OrbitRep:
    """The canonical orbit of entries mod args.n, with a notice on stderr if
    that changed them; canonicalize refuses a modulus that is not positive."""
    rep = canonicalize(entries, args.n)
    if rep.entries != tuple(entries):
        print(
            json.dumps({"notice": "canonicalized", "input": list(entries), "orbit": list(rep.entries)}),
            file=sys.stderr,
        )
    return rep


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write text chunks to the file at path, or else to stdout, where
    text that does not end in a newline gets one."""
    if path is not None:
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    last = ""
    for last in chunks:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_orbits(args) -> int:
    if args.n <= 0 or args.d <= 0:
        raise UsageError("n and d must be positive")
    for rep in enumerate_orbits(args.n, args.d):
        print(f"{' '.join(map(str, rep.entries))}  size={orbit_size(rep)}  stab={stabilizer_order(rep)}")
    return 0


def cmd_eval(args) -> int:
    # The remainder keeps every "--" (a positional N would take the "--"
    # right after it and strip it).  It also holds N and any eval option
    # after N, so read those from the part before the first "--".
    rest = list(args.rest)
    if rest[:1] == ["--"]:  # a "--" before N only ends eval's options
        del rest[0]
    split = rest.index("--") if "--" in rest else len(rest)
    head = _Parser(prog="symchar eval", add_help=False)
    head.add_argument("n", type=int)
    head.add_argument("xs", nargs="*", metavar="rest")  # a missing N still reads "n, rest"
    _add_eval_options(head)
    head.parse_intermixed_args(rest[:split], namespace=args)
    if split < len(rest) and not args.xs:
        raise UsageError("orbit entries required")
    if rest[split:].count("--") != 1:
        raise UsageError("expected: eval N X... -- Y...")
    try:
        xs = [int(v) for v in args.xs]
        ys = [int(v) for v in rest[split + 1 :]]
    except ValueError as exc:
        raise UsageError(f"non-integer entry: {exc}") from None
    rep = _jobspec(args, xs)
    if len(ys) != len(xs):
        raise UsageError(f"y has {len(ys)} entries, expected {len(xs)}")
    counts = dot_counts(rep, ys)
    oracle = permanent_oracle(rep, ys) if args.oracle else None  # a refused permanent prints nothing
    print(f"orbit {' '.join(map(str, rep.entries))}  counts {json.dumps(counts.tolist(), separators=(',', ':'))}")
    print(f"value {fmt_complex(counts_value(counts))}")
    if oracle is not None:
        print(f"permanent-oracle {fmt_complex(oracle)}")
    return 0


def cmd_image(args) -> int:
    rep = _jobspec(args, args.entries)
    values = image(rep, budget=args.budget, full_group=args.full_group)
    _write_output(render.export_points(values, args.format), _output_path(args.out))
    return 0


def cmd_render(args) -> int:
    rep = _jobspec(args, args.entries)
    out = _output_path(args.out)
    spec = render.BitmapSpec(args.range, args.unit_res)
    values = image(rep, budget=args.budget)
    render.write_png(render.render_bitmap(values, spec), out)
    print(f"wrote {out} ({spec.side}x{spec.side}, {len(values)} points)")
    return 0


def _int_matrix(text: str, rows: int, cols: int, option: str) -> list[list[int]]:
    """The JSON text of a rows x cols matrix of integers; anything else is a usage error."""
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    if not (
        type(value) is list
        and len(value) == rows
        and all(type(row) is list and len(row) == cols and all(type(v) is int for v in row) for row in value)
    ):
        raise UsageError(f"{option} must be a JSON list of {rows} rows of {cols} integers")
    return value


def cmd_reduce(args) -> int:
    rep = _jobspec(args, args.entries)
    matrix = asymptotic.orbit_matrix(rep)
    # both inputs are read before the first line is printed
    expect = None
    if args.expect_b:
        with open(args.expect_b) as fh:
            rows = _int_matrix(fh.read(), matrix.d, matrix.r, "--expect-b")
        expect = tuple(tuple(v % rep.n for v in row) for row in rows)
    try:
        if args.reducer:
            rows = _int_matrix(args.reducer, matrix.d, matrix.d, "--reducer")
            cert = asymptotic.certificate_from_rows(matrix, rows)
        else:
            cert = asymptotic.row_reduce_mod_n(matrix)
    except NoUnitPivot as exc:
        print(exc.certificate.to_json())
        print(json.dumps({"error": "no_unit_pivot", "detail": str(exc)}), file=sys.stderr)
        return 1
    print(cert.to_json())
    if expect is not None and cert.reduced != expect:
        print(
            json.dumps({"error": "reduced_form_mismatch", "expected": [list(r) for r in expect]}),
            file=sys.stderr,
        )
        return 1
    if cert.complete:
        exponents = asymptotic.torus_map(cert)
        print(exponents.to_json())
        if args.grid is not None:
            values = asymptotic.sample_torus_map(exponents, args.grid, budget=args.budget)
            _write_output(render.export_points(values, args.format), _output_path(args.out))
    return 0


def cmd_table(args) -> int:
    if args.n <= 0 or args.d <= 0:
        raise UsageError("n and d must be positive")
    tab = table.build_table(args.n, args.d, budget=args.budget)
    _write_output(tab.json_chunks(), _output_path(args.out))
    return 0


def _emit(reports) -> int:
    """Print the JSON line of each IdentityReport and of each record of each
    ReportBlock, a block's lines one group per write; 1 if a record failed."""
    ok = True
    for rep in reports:
        if isinstance(rep, ReportBlock):
            for text in rep.json_chunks():
                sys.stdout.write(text)
            ok = ok and bool(rep.passed.all())
        else:
            sys.stdout.write(rep.to_json() + "\n")
            ok = ok and rep.passed
    return 0 if ok else 1


def cmd_walk(args) -> int:
    return _emit([identities.walk_reduction_check(args.n, args.d, args.a, budget=args.budget)])


def cmd_solve(args) -> int:
    solve = solve_bilinear_brute if args.brute else solve_bilinear_congruence
    sol = solve(args.a, args.b, args.d, args.n)
    print(json.dumps({"j": sol.j, "k": sol.k, "method": sol.method}))
    return 0


def _verify_sweep(args) -> int:
    # looked up on identities when it runs, so that a wrapped sweep is the one called
    sweep = getattr(identities, f"sweep_{args.check}")
    return _emit(sweep(args.n, args.d, budget=args.budget))


def _verify_full_union(args) -> int:
    order = identities.full_union_symmetry(args.n, args.d, budget=args.budget)
    print(json.dumps({"check": "full-union", "n": args.n, "d": args.d, "order": order, "passed": True}))
    return 0


def _verify_hypocycloid(args) -> int:
    return _emit([asymptotic.hypocycloid_orbit_check(args.n, args.d, budget=args.budget)])


def _sampled_blocks(n: int, d: int, samples: int, rng: random.Random) -> Iterable[list[tuple[OrbitRep, list]]]:
    """Every orbit at (n, d) in enumeration order with `samples` points
    drawn from rng, in blocks of consecutive orbits: one orbit, or as many
    as hold at most block_rows(1) element-sample pairs or counts."""
    block, cells = [], 0
    for rep in enumerate_orbits(n, d):
        width = samples * max(orbit_size(rep), n)
        if block and cells + width > block_rows(1):
            yield block
            block, cells = [], 0
        block.append((rep, [[rng.randrange(n) for _ in range(d)] for _ in range(samples)]))
        cells += width
    yield block


def _verify_permanent(args) -> int:
    n, d = args.n, args.d
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    total = orbit_count(n, d) * args.samples
    BudgetExceeded.check(total, args.budget)
    rng = random.Random(args.seed)
    line = {"check": "permanent", "n": n, "d": d, "samples": total, "failures": 0}
    for block in _sampled_blocks(n, d, args.samples, rng):
        reps, points = zip(*block)
        for rep, ys, values in zip(reps, points, supercharacters(reps, points)):
            oracle = permanent_oracle(rep, ys)
            bad = (abs(values - oracle) > TOL).nonzero()[0].tolist()
            if bad and "witness" not in line:  # the first failing orbit and its first failing y
                i = bad[0]
                line["witness"] = {
                    "orbit": rep,
                    "y": ys[i],
                    "supercharacter": complex(values[i]),
                    "oracle": complex(oracle[i]),
                }
            line["failures"] += len(bad)
    print(json.dumps(line, default=_encode))
    return 0 if line["failures"] == 0 else 1


def _verify_unitary(args) -> int:
    uni = table.build_unitary(table.build_table(args.n, args.d, budget=args.budget))
    ok = uni.residual_symmetry <= table.RESIDUAL_SYMMETRY_MAX and uni.residual_unitary <= table.RESIDUAL_UNITARY_MAX
    print(
        json.dumps(
            {
                "check": "unitary",
                "n": args.n,
                "d": args.d,
                "residual_symmetry": uni.residual_symmetry,
                "residual_unitary": uni.residual_unitary,
                "passed": ok,
            }
        )
    )
    return 0 if ok else 1


# check name -> handler, in the order --help lists them
CHECKS = {
    **dict.fromkeys(["conjugate", "translation", "constancy", "dihedral", "spikes"], _verify_sweep),
    "full-union": _verify_full_union,
    "hypocycloid": _verify_hypocycloid,
    "permanent": _verify_permanent,
    "unitary": _verify_unitary,
}


def cmd_verify(args) -> int:
    if args.n <= 0 or args.d <= 0:
        raise UsageError("--n and --d must be positive")
    return CHECKS[args.check](args)


# ---------------------------------------------------------------------------
# parser


class _Budget(argparse.Action):
    """--budget, refused as a usage error unless it is positive."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value <= 0:
            raise UsageError("budget must be positive")
        setattr(namespace, self.dest, value)


def _add_budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, action=_Budget, help="max superclass evaluations")


def _add_eval_options(p):
    p.add_argument("--oracle", action="store_true", help="also print the permanent-based value")


def _n_d(p):
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)


def _n_entries(p):
    p.add_argument("n", type=int)
    p.add_argument("entries", type=int, nargs="+")


def _eval_args(p):
    p.add_argument("rest", nargs=argparse.REMAINDER, help="N X... -- Y...")
    _add_eval_options(p)


def _image_args(p):
    _n_entries(p)
    p.add_argument("--full-group", action="store_true", help="sweep all n^d points, not superclass reps")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--out")
    _add_budget(p)


def _render_args(p):
    _n_entries(p)
    p.add_argument("--range", type=float, required=True, help="plot half-width")
    p.add_argument("--unit-res", type=int, required=True, help="pixels per unit")
    p.add_argument("-o", "--out", required=True)
    _add_budget(p)


def _reduce_args(p):
    _n_entries(p)
    p.add_argument("--reducer", help="JSON rows of a reducer matrix to validate instead of eliminating")
    p.add_argument("--expect-b", help="JSON file with the expected reduced matrix; mismatch exits 1")
    p.add_argument("--grid", type=int, help="also sample the torus map on this grid")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--out")
    _add_budget(p)


def _table_args(p):
    _n_d(p)
    p.add_argument("-o", "--out")
    _add_budget(p)


def _walk_args(p):
    _n_d(p)
    p.add_argument("a", type=int)
    _add_budget(p)


def _solve_args(p):
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--brute", action="store_true", help="exhaustive scan (lexicographically smallest pair)")


def _verify_args(p):
    p.add_argument("check", choices=list(CHECKS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, default=10, help="random y per orbit (verify permanent)")
    p.add_argument("--seed", type=int, default=0)
    _add_budget(p)


# name -> (help, handler, adds its arguments), in the order --help lists them
COMMANDS = {
    "orbits": ("list canonical orbit representatives", cmd_orbits, _n_d),
    "eval": ("evaluate sigma_X(y): eval N X... -- Y...", cmd_eval, _eval_args),
    "image": ("deduplicated value set of sigma_X", cmd_image, _image_args),
    "render": ("render the image of sigma_X to PNG", cmd_render, _render_args),
    "reduce": ("row-reduce the orbit matrix over Z/nZ", cmd_reduce, _reduce_args),
    "table": ("supercharacter table at (n, d)", cmd_table, _table_args),
    "walk": ("restricted-walk modulus reduction check", cmd_walk, _walk_args),
    "solve": ("solve a*j + b*k + d*j*k = gcd(n,d) mod n", cmd_solve, _solve_args),
    "verify": ("run an identity sweep, one JSON line per check", cmd_verify, _verify_args),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser with every subcommand, or with only `command`, which reads
    that command's arguments the same way and costs a fraction to build."""
    parser = _Parser(prog="symchar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        help_text, func, add_arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # --help, a missing command and an unknown one need the full parser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(
            json.dumps({"error": "budget_exceeded", "required": exc.required, "budget": exc.budget}),
            file=sys.stderr,
        )
        return 3
    except SymcharError as exc:
        line = {"error": type(exc).__name__, "detail": str(exc)}
        if getattr(exc, "witness", None) is not None:
            line["witness"] = exc.witness
        print(json.dumps(line, default=_encode), file=sys.stderr)
        return 2 if isinstance(exc, (DimensionTooLarge, HypothesisFailed)) else 1
    except ValueError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(json.dumps({"error": "memory", "detail": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(json.dumps({"error": "io", "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
