"""Command-line front door.

Grammar: ``helly <linear|disks|gen> <subcommand> [flags]``. Exit codes
form the complete contract: 0 success/consistent, 1 inconsistent or
violating family, 2 input or output error (a refused input, or standard
output that cannot be written), 3 internal error (a library invariant
failed, or any other fault; never a verdict). Reports mirror the library types
one-to-one so downstream tooling can parse certificates. ``--precision``
belongs to ``disks check`` alone, the one output that prints certified
enclosures; ``disks svg`` leaves every drawn coordinate to ``helly.svg``.

Each call builds the argparse parser of the one command ``argv`` names,
a single ``ArgumentParser``. The whole eight-parser tree is built only
when top-level help or a usage error needs it. Both are built from one
table, ``_COMMANDS``.

``HELLY_THREADS`` caps internal parallelism; the current implementation
executes serially, which respects any cap (0 means serial explicitly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import instances
from .instances import _rat_pair
from .errors import InvariantViolation
from .disks import CommonPoint, intersect_region, minimalist_helly_check
from .linear import Consistent, LinearSystem, helly_certify, sample_consistency
from .radicals import point_bounds
from .separation import separating_line
from .svg import render_disks

DEFAULT_PRECISION = 53
MAX_PRECISION = 4096  # widest accepted --precision, in bits
MAX_GEN_N = 100_000  # largest gen --n, for every kind
MAX_GEN_K = 1_000  # largest gen --k, for the linear kinds
# Most coefficients gen writes for the linear kinds, --n times --k. At the
# cap, 1,000 equations in 1,000 unknowns took 0.63 to 0.72 s (wall, 2-core
# x86, CPython 3.11) and 158 MiB for a 46 MB file; the text, not the time,
# grows past what a desk-scale instance needs.
MAX_GEN_COEFFS = 10**6
MAX_TRIALS = 1_000_000  # largest linear sample --trials
# Most indices linear sample draws, --trials times --size, checked before
# the file is read. MAX_SAMPLE_WORK is lower past one unknown; at this cap,
# 10 of 20,000 rows in one unknown or none a million times took 6.0 to
# 7.5 s (wall, 2-core x86, CPython 3.11).
MAX_SAMPLE_INDICES = 10**7
# Most elimination linear sample may do, --trials times --size times the
# square of the file's 'unknowns': a scanned index in k unknowns costs up
# to k row updates of k + 1 integers each. The slowest shape measured at
# the cap, one draw of 271 rows in 271 unknowns, took 18 to 24 s (wall,
# 560 MiB); more rows than unknowns, or more draws of fewer rows, took
# less for the same product.
MAX_SAMPLE_WORK = 2 * 10**7
# Most elimination linear certify may do, the equation count times the
# square of 'unknowns': its fold reduces each row by up to k pivot rows of
# k + 1 integers. At the cap, 250 x 200, 1,000 x 100, 10,000 x 31 and
# 100,000 x 10 (equations x unknowns), random and planted, took 1.9 to
# 3.5 s in process (2-core x86, CPython 3.11); 400 x 400 took 49 s.
MAX_CERTIFY_WORK = 10**7
MAX_SVG_N = 640  # largest family disks svg draws: clipping is quadratic, 6.1 to 6.5 s (wall) on a ring


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _say(text: str, end: str = "\n") -> None:
    """``print(text, end=end)`` to standard output, flushed, so that a
    failed write is an input or output error here rather than a fault at
    exit. After a failure, standard output is pointed at the null device,
    as the Python documentation's note on SIGPIPE does, so that the flush
    at shutdown has nothing to fail on."""
    try:
        sys.stdout.write(text)
        sys.stdout.write(end)
        sys.stdout.flush()
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # not a file, so nothing is flushed to it at exit
        else:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise ValueError(f"cannot write standard output: {exc.strerror or exc}")


def _read_threads_cap() -> int | None:
    raw = os.environ.get("HELLY_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"HELLY_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise ValueError("HELLY_THREADS must be nonnegative")
    return cap


def _check_precision(bits: int) -> None:
    if not 0 <= bits <= MAX_PRECISION:
        raise ValueError(f"--precision must be between 0 and {MAX_PRECISION} bits, got {bits}")


def _check_at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _load(path: str, want_kind: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = instances.parse_instance(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")
    if want_kind == "linear":
        if not isinstance(payload, LinearSystem):
            raise ValueError(f"{path} holds a disks instance, expected linear")
        _check_at_most("'unknowns'", payload.unknowns, MAX_GEN_K)
    if want_kind == "disks" and isinstance(payload, LinearSystem):
        raise ValueError(f"{path} holds a linear instance, expected disks")
    return payload


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _braces(indices) -> str:
    """``indices`` sorted, in set braces: the text form of an index set."""
    return "{" + ", ".join(str(i) for i in sorted(indices)) + "}"


def _witness_doc(witness) -> dict:
    return {
        "point": [_rat_pair(x) for x in witness.point],
        "nullspace": [[_rat_pair(x) for x in vec] for vec in witness.basis],
    }


def _cmd_linear_certify(args) -> int:
    system = _load(args.path, "linear")
    work = system.n * system.unknowns**2
    _check_at_most("the equation count times 'unknowns' squared", work, MAX_CERTIFY_WORK)
    cert = helly_certify(system)
    if isinstance(cert, Consistent):
        if args.format == "json":
            _say(json.dumps({"verdict": "consistent", "witness": _witness_doc(cert.witness)}))
        else:
            pt = ", ".join(str(x) for x in cert.witness.point)
            _say(f"consistent; witness point ({pt}), solution set dimension {cert.witness.dim}")
        return 0
    # imported here, so that commands which print no subsystem do not load
    # the oracle module at start-up
    from .oracles import is_minimal_inconsistent

    if not is_minimal_inconsistent(system, cert.subsystem):
        raise InvariantViolation(f"subsystem {list(cert.subsystem)} failed the independent re-check")
    if args.format == "json":
        _say(json.dumps({"verdict": "inconsistent", "subsystem": list(cert.subsystem)}))
    else:
        _say(f"inconsistent; smallest inconsistent subsystem: equations {_braces(cert.subsystem)}")
    return 1


def _cmd_linear_sample(args) -> int:
    _check_at_most("--trials", args.trials, MAX_TRIALS)
    _check_at_most("--trials times --size", args.trials * args.size, MAX_SAMPLE_INDICES)
    system = _load(args.path, "linear")
    work = args.trials * args.size * system.unknowns**2
    _check_at_most("--trials times --size times 'unknowns' squared", work, MAX_SAMPLE_WORK)
    report = sample_consistency(system, args.size, args.trials, args.seed)
    if args.format == "json":
        _say(json.dumps({name: getattr(report, name) for name in report._fields}))
    else:
        _say(
            f"drew {report.samples_drawn} subsystems of size {report.subsystem_size}: "
            f"{report.inconsistent_samples} inconsistent"
            + (f"; first hit {_braces(report.first_hit)}" if report.first_hit else "")
            + f" (seed {report.seed}, generator {report.generator})"
        )
    return 0


def _enclosure_doc(point, bits: int) -> dict:
    (xlo, xhi), (ylo, yhi) = point_bounds(point, bits)
    return {
        "x": {"low": _rat_pair(xlo), "high": _rat_pair(xhi)},
        "y": {"low": _rat_pair(ylo), "high": _rat_pair(yhi)},
        "precision_bits": bits,
    }


def _decimal6(v: Fraction) -> str:
    """``v`` rounded half-even to six decimals, exactly, with no float."""
    q, r = divmod(round(abs(v) * 10**6), 10**6)
    return f"{'-' if v < 0 else ''}{q}.{r:06d}"


def _cmd_disks_check(args) -> int:
    _check_precision(args.precision)
    family = _load(args.path, "disks")
    verdict = minimalist_helly_check(family)
    # both re-checks use the oracle's own corner and side formulas
    from .oracles import inside, lowest_common_point

    if isinstance(verdict, CommonPoint):
        if not all(inside(verdict.point, d) for d in family):
            raise InvariantViolation("common point failed the re-check against the family")
        if args.format == "json":
            doc = {"verdict": "common-point", "point": _enclosure_doc(verdict.point, args.precision)}
            _say(json.dumps(doc))
        else:
            fx, fy = (_decimal6((lo + hi) / 2) for lo, hi in point_bounds(verdict.point, 60))
            _say(f"common point exists; certified near ({fx}, {fy})")
        return 0
    i, j, k = verdict.indices
    if not 0 <= i < j < k < len(family) or (
        lowest_common_point([family[i], family[j], family[k]]) is not None
    ):
        raise InvariantViolation(f"triple {verdict.indices} failed the re-check: its disks meet")
    if args.format == "json":
        _say(json.dumps({"verdict": "violating-triple", "triple": list(verdict.indices)}))
    else:
        _say(f"no common point; disks {_braces(verdict.indices)} already have none")
    return 1


def _cmd_disks_svg(args) -> int:
    family = _load(args.path, "disks")
    if len(family) > MAX_SVG_N:
        raise ValueError(f"disks svg draws at most {MAX_SVG_N} disks, got {len(family)}")
    try:
        doc = _svg_doc(family, args.query)
    except OverflowError:
        raise ValueError(f"{args.path}: coordinates too large to draw")
    _write(args.out, doc)
    _say(f"wrote {args.out}")
    return 0


def _svg_doc(family, query: int | None) -> str:
    """The SVG of ``family``; with ``query``, also the closest pair and
    separating line between that disk and the others' intersection."""
    if query is None:
        return render_disks(family, region=intersect_region(family))
    if query < 0 or query >= len(family):
        raise ValueError(f"query index {query} out of range")
    rest = [d for i, d in enumerate(family) if i != query]
    if not rest:
        raise ValueError("query needs at least one other disk")
    region = intersect_region(rest)
    if region.is_empty:
        raise ValueError("the other disks have empty intersection; nothing to separate")
    try:
        sep = separating_line(family[query], region)
    except ValueError as exc:
        raise ValueError(f"query disk is not disjoint from the region: {exc}")
    return render_disks(family, region, query=query, separation=sep)


# gen kind -> its instance; the keys are gen's choices
_GENERATORS = {
    "tetrahedron": lambda a: instances.tetrahedral_system(),
    "random-linear": lambda a: instances.gen_random_linear(a.n, a.k, a.seed),
    "consistent-linear": lambda a: instances.gen_consistent_linear(a.n, a.k, a.seed),
    "random-disks": lambda a: instances.gen_random_disks(a.n, a.seed),
    "helly-disks": lambda a: instances.gen_helly_disks(a.n, a.seed),
}


def _cmd_gen(args) -> int:
    _check_at_most("--n", args.n, MAX_GEN_N)
    if args.kind.endswith("-linear"):
        _check_at_most("--k", args.k, MAX_GEN_K)
        _check_at_most("--n times --k", args.n * args.k, MAX_GEN_COEFFS)
    made = _GENERATORS[args.kind](args)
    dumps = instances.dumps_linear if isinstance(made, LinearSystem) else instances.dumps_disks
    text = dumps(made)
    if args.out:
        _write(args.out, text)
        _say(f"wrote {args.out}")
    else:
        _say(text, end="")
    return 0


def _arg(*names, **keywords) -> tuple:
    """One ``add_argument`` call, as data."""
    return names, keywords


_PATH = _arg("path")
_SEED = _arg("--seed", type=int, default=0)
_FORMAT = _arg("--format", choices=("text", "json"), default="text")

# name path -> (help, handler, arguments); a group, whose handler is None,
# names its commands by the longer paths. Both parsers are built from this
# one table, in its order.
_COMMANDS = {
    ("linear",): ("overdetermined linear systems", None, ()),
    ("linear", "certify"): ("consistency verdict with certificate", _cmd_linear_certify, (
        _PATH,
        _FORMAT,
    )),
    ("linear", "sample"): ("randomized subsystem sampling", _cmd_linear_sample, (
        _PATH,
        _arg("--size", type=int, required=True),
        _arg("--trials", type=int, required=True),
        _SEED,
        _FORMAT,
    )),
    ("disks",): ("planar disk families", None, ()),
    ("disks", "check"): ("common point or violating triple", _cmd_disks_check, (
        _PATH,
        _arg("--precision", type=int, default=DEFAULT_PRECISION),
        _FORMAT,
    )),
    ("disks", "svg"): ("draw the family and its intersection", _cmd_disks_svg, (
        _PATH,
        _arg("--out", required=True),
        _arg("--query", type=int, default=None),
    )),
    ("gen",): ("write instance files", _cmd_gen, (
        _arg("kind", choices=tuple(_GENERATORS)),
        _arg("--n", type=int, default=8),
        _arg("--k", type=int, default=3),
        _SEED,
        _arg("--out", default=None),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, handler, arguments) -> None:
    for names, keywords in arguments:
        parser.add_argument(*names, **keywords)
    parser.set_defaults(func=handler)


def _build_parser() -> argparse.ArgumentParser:
    """The whole command tree: for help and usage errors alone."""
    parser = argparse.ArgumentParser(
        prog="helly",
        description="Exact feasibility certificates for linear systems and disk families.",
    )
    commands = {(): parser.add_subparsers(dest="group", required=True)}
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        sub = commands[name[:-1]].add_parser(name[-1], help=help_text)
        if handler is None:
            commands[name] = sub.add_subparsers(dest="command", required=True)
        else:
            _add_arguments(sub, handler, arguments)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the parser of the one command it names.

    The leaf's prog is the one argparse gives the same parser inside the
    tree, so its help and errors read the same. Leftover words, and argv
    that names no command, go to the whole tree, which words the error.
    """
    for name in (tuple(argv[:2]), tuple(argv[:1])):
        _, handler, arguments = _COMMANDS.get(name, (None, None, ()))
        if handler is not None:
            leaf = argparse.ArgumentParser(prog=" ".join(("helly", *name)))
            _add_arguments(leaf, handler, arguments)
            args, extra = leaf.parse_known_args(argv[len(name):])
            if not extra:
                return args
            break
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        _read_threads_cap()
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
