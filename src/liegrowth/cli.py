"""Command line interface.

Exit codes: 0 success, 1 domain error (printed as ``ErrorName: message`` on
stderr), 2 usage error.  Every subcommand takes ``--format text|json``;
reports serialize with the field names of their dataclasses, rationals as
``p/q`` strings.  Each subcommand imports only the library modules it runs,
so that ``hall`` or ``mgv`` does not load (and compile) the flag engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import sys
from fractions import Fraction

from .errors import DomainError, LieGrowthError, ParseError

__all__ = ["main"]


def _to_jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _check_size(entry: str, what: str) -> None:
    """Refuse an entry whose numerator or denominator has more than
    ``linalg.MAX_DIGITS`` digits or whose exponent exceeds it, before
    ``Fraction`` expands it, which takes seconds from about 10**6 on."""
    from .linalg import MAX_DIGITS

    mantissa, _, exponent = entry.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if any(sum(map(str.isdigit, side)) > MAX_DIGITS for side in mantissa.split("/")):
        problem = f"has more than {MAX_DIGITS} digits"
    elif digits.isdigit() and (len(digits) > len(str(MAX_DIGITS)) or int(digits) > MAX_DIGITS):
        problem = f"has an exponent above {MAX_DIGITS}"
    else:
        return
    raise DomainError(f"{what} entry {_shown(entry)} {problem} (parsing.MAX_DIGITS)")


def _shown(entry: str) -> str:
    """``entry`` quoted for an error message, cut to its first 20
    characters."""
    return repr(entry if len(entry) <= 20 else entry[:20] + "...")


def _parse_vector(text: str, n: int, what: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    vec = []
    for p in parts:
        _check_size(p, what)
        try:
            vec.append(Fraction(p))
        except ValueError:
            raise DomainError(f"cannot parse {what} entry {_shown(p)} as a rational") from None
        except ZeroDivisionError:
            raise DomainError(f"{what} entry {_shown(p)} has a zero denominator") from None
    if len(vec) != n:
        raise DomainError(f"{what} needs {n} comma-separated rationals, got {len(vec)}")
    return tuple(vec)


def _emit(args, text: str, payload) -> None:
    if args.format == "json":
        import json

        print(json.dumps(_to_jsonable(payload), indent=2))
    else:
        print(text)


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise ``ParseError`` at the
    first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines split as the parsers split them; "?" stands for the bad byte
        lines = (data[: exc.start].decode() + "?").splitlines()
        raise ParseError(f"not UTF-8 text: {exc.reason}", len(lines), len(lines[-1])) from None


def _flag_text(rep) -> str:
    """The text line of a ``flags.FlagReport``."""
    dims = "(" + ", ".join(str(d) for d in rep.dims) + ")"
    line = (
        f"growth {dims} step={rep.step} maximal={str(rep.maximal).lower()} "
        f"free_type={str(rep.free_type).lower()}"
    )
    if rep.irregular:
        line += " irregular=true"
    return line


def _slice_text(reports) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"i={r.i} m_i={r.m_i} n_i={r.n_i} verdict={r.verdict.value} "
            f"normal={str(r.normal).lower()}"
        )
    return "\n".join(lines)


def cmd_witt(args) -> int:
    from . import freelie, linalg

    k, length = args.generators, args.length
    # W(k, l) >= (k^l - 2 k^(l/2)) / l >= k^l / (2 l) once k^(l/2) >= 4, so
    # bit lengths alone show most answers past 10**MAX_DIGITS before they
    # are computed
    lower_bits = length * (k.bit_length() - 1) - 1 - length.bit_length()
    huge = k >= 2 and lower_bits >= linalg._TOO_LONG.bit_length()
    value = None if huge else freelie.witt_dimension(k, length)
    if huge or value >= linalg._TOO_LONG:
        raise DomainError(
            f"witt dimension for {k} generators at length {length} has more than "
            f"{linalg.MAX_DIGITS} digits (parsing.MAX_DIGITS)"
        )
    _emit(args, str(value), {"value": value})
    return 0


def cmd_hall(args) -> int:
    from . import freelie

    basis = freelie.hall_basis(args.generators, args.max_length)
    lines = []
    for ln, layer in enumerate(basis.layers, start=1):
        body = ", ".join(str(e) for e in layer)
        lines.append(f"length {ln} ({len(layer)}): {body}")
    payload = {
        "k": basis.k,
        "layers": [[str(e) for e in layer] for layer in basis.layers],
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_mgv(args) -> int:
    from . import freelie

    gv = freelie.maximal_growth_vector(args.rank, args.dim)
    free = freelie.is_free_type(gv, args.rank)
    text = f"{gv} step={gv.step} free_type={str(free).lower()}"
    _emit(args, text, {"entries": list(gv.entries), "step": gv.step, "free_type": free})
    return 0


def cmd_growth(args) -> int:
    from . import flags, parsing

    frame = parsing.parse_frame(_read(args.frame))
    point = _parse_vector(args.point, frame.n, "point")
    max_step = args.max_step
    if max_step is None:
        max_step = max(frame.n - frame.k + 2, 2)
    rep = flags.lie_flag(frame, point, max_step)
    _emit(args, _flag_text(rep), rep)
    return 0


def cmd_nilpotentize(args) -> int:
    from . import flags, parsing

    alg = parsing.parse_algebra(_read(args.algebra))
    frame = flags.nilpotent_frame(alg)
    text = parsing.frame_to_text(frame)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, f"wrote {args.out}", {"out": args.out})
    else:
        _emit(args, text.rstrip("\n"), {"frame": text})
    return 0


def cmd_slice(args) -> int:
    from . import ampleness, parsing

    frame = parsing.parse_frame(_read(args.frame))
    point = _parse_vector(args.point, frame.n, "point")
    direction = _parse_vector(args.direction, frame.n, "direction")
    reports = ampleness.slice_report(frame, point, direction, args.step)
    _emit(args, _slice_text(reports), reports)
    return 0


def cmd_ampleness(args) -> int:
    from . import ampleness

    rows = ampleness.generic_slice_table(args.rank, args.dim)
    _emit(args, _slice_text(rows), {"rank": args.rank, "dim": args.dim, "rows": rows})
    return 0


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_suite(args.suite, seed=args.seed)
    lines = []
    failed = 0
    for name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        extra = f" ({detail})" if detail else ""
        lines.append(f"{tag} {name}{extra}")
        if not passed:
            failed += 1
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    payload = {
        "suite": args.suite,
        "results": [
            {"name": n, "passed": p, "detail": d} for n, p, d in results
        ],
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if failed == 0 else 1


def _add_format(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liegrowth",
        description="Exact Hall bases, growth vectors, jet-space brackets and "
        "ampleness classification for bracket-generating frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witt", help="Witt dimension of one free Lie algebra layer")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_witt)

    p = sub.add_parser("hall", help="Hall basis layers")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--max-length", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_hall)

    p = sub.add_parser("mgv", help="maximal growth vector for a rank and dimension")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_mgv)

    p = sub.add_parser("growth", help="flag dimensions of a frame file at a point")
    p.add_argument("--frame", required=True)
    p.add_argument("--point", required=True)
    p.add_argument(
        "--max-step", type=int, default=None,
        help="longest bracket length to try (default n - k + 2, at least 2); "
        "the flag stops where it reaches n, so a larger value forms no further bracket",
    )
    _add_format(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("nilpotentize", help="left-invariant frame of an algebra file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out", default=None)
    _add_format(p)
    p.set_defaults(func=cmd_nilpotentize)

    p = sub.add_parser("slice", help="classify principal-subspace slices of a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--step", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("ampleness", help="generic verdict table for a rank and dimension")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_ampleness)

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument(
        "--suite",
        choices=("hall", "jet", "flags", "ampleness", "all"),
        required=True,
    )
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LieGrowthError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
