"""Command-line surface: certification, bounds sweeps, simulation, oracle runs.

Every artifact embeds a run manifest (command, full flag echo, seed, package
version) sufficient to reproduce it byte-for-byte; all randomness flows from
the --seed flag, which defaults to 0 and is never time-based.

The argument parser is built once per process and reused by every
:func:`main` call; each call parses into a fresh namespace, so no flag or
default carries over from one call to the next.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import SamplingPattern, Shape, _int_list, read_pattern
from .geometry import RankSpec
from .assumptions import AssumptionError
from .bounds import CurveConfig, emit_curves
from .certifier import certify_finite, certify_unique
from .montecarlo import TrialConfig, estimate
from .oracle import (
    appendix_c_closed_form,
    appendix_c_pattern,
    enumerate_completions,
    generate_instance,
    jacobian_rank,
    section_iib_closed_form,
    section_iib_pattern,
    section_iib_values,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


def _manifest(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {
        "command": args.command,
        "config": echo,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _write_text(text: str, out: Optional[str]) -> None:
    """Write to stdout, or atomically replace ``out``."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".artifact-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_artifact(payload: dict, out: Optional[str]) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers given to ``flag``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: bad {flag} list {text!r}: {exc}")


def _cmd_check_finite(args: argparse.Namespace) -> int:
    pattern = read_pattern(args.pattern)
    spec = RankSpec(j=args.j, ranks=_parse_ints(args.rank, "--rank"))
    try:
        cert = certify_finite(pattern, spec, seed=args.seed)
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_artifact({"manifest": _manifest(args), "certificate": cert.to_dict()}, args.out)
    return EXIT_OK if cert.verdict in ("finite", "not-finite") else EXIT_UNDECIDED


def _cmd_check_unique(args: argparse.Namespace) -> int:
    pattern = read_pattern(args.pattern)
    spec = RankSpec(j=args.j, ranks=_parse_ints(args.rank, "--rank"))
    try:
        cert = certify_unique(pattern, spec, seed=args.seed)
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_artifact({"manifest": _manifest(args), "certificate": cert.to_dict()}, args.out)
    return EXIT_OK if cert.verdict == "unique" else EXIT_UNDECIDED


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        r_min, r_max = (int(x) for x in args.rank_range.split(":"))
    except ValueError:
        print(f"error: --rank-range must be min:max, got {args.rank_range!r}", file=sys.stderr)
        return EXIT_ERROR
    config = CurveConfig(d=args.d, n=args.n, j=args.j, r_min=r_min, r_max=r_max, eps=args.eps)
    rows = emit_curves(config)
    _write_text("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    shape = Shape(dims=_parse_ints(args.dims, "--dims"))
    spec = None
    if args.rank is not None:
        if args.j is None:
            print("error: --rank requires --j", file=sys.stderr)
            return EXIT_ERROR
        spec = RankSpec(j=args.j, ranks=_parse_ints(args.rank, "--rank"))
    config = TrialConfig(
        shape=shape,
        prop=args.property,
        trials=args.trials,
        seed=args.seed,
        spec=spec,
        p=args.p,
        per_column_l=args.per_column_l,
    )
    result = estimate(config)
    _write_artifact({"manifest": _manifest(args), "result": result.to_dict()}, args.out)
    return EXIT_OK


def _load_values(path: str, pattern: SamplingPattern) -> dict:
    """``{"entries": [{"coord": [1, 2, 1], "value": 0.5}, ...]}``, one entry
    per observed coordinate; a JSON integer coordinate and a finite JSON
    number value each, or a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path} must be an object with an 'entries' list")
    values = {}
    for entry in entries:
        coord, value = (entry.get("coord"), entry.get("value")) if isinstance(entry, dict) else (None, None)
        # JSON gives true as bool and "1e400" as str, which float() would take.
        if not (
            _int_list(coord) and type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max
        ):
            raise ValueError(f"{path}: every entry needs integer 'coord' and a finite number 'value', got {entry!r}")
        values[tuple(coord)] = float(value)
    if len(values) != len(entries) or set(values) != set(pattern.observed):
        raise ValueError(f"{path}: value entries must cover exactly the observed pattern, once each")
    return values


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = RankSpec(j=args.j, ranks=_parse_ints(args.rank, "--rank"))
    if args.generate:
        if args.pattern is None:
            print("error: --generate still needs a pattern file", file=sys.stderr)
            return EXIT_ERROR
        pattern = read_pattern(args.pattern)
        instance = generate_instance(pattern.shape, spec, seed=args.seed)
        report = jacobian_rank(instance, pattern, mode=args.mode)
        _write_artifact({"manifest": _manifest(args), "report": report.to_dict()}, args.out)
        return EXIT_OK
    if args.values is None:
        print("error: need --values (or --generate)", file=sys.stderr)
        return EXIT_ERROR
    pattern = read_pattern(args.pattern)
    values = _load_values(args.values, pattern)
    result = enumerate_completions(pattern, values, spec, starts=args.starts, seed=args.seed)
    payload = {
        "manifest": _manifest(args),
        "completions": [c.round(12).tolist() for c in result.completions],
        "residuals": list(result.residuals),
        "starts": result.starts,
        "converged": result.converged,
    }
    _write_artifact(payload, args.out)
    return EXIT_OK if result.num_clusters > 0 else EXIT_UNDECIDED


def _check(label: str, ok: bool, lines: list[str]) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def _cmd_paper_examples(args: argparse.Namespace) -> int:
    lines: list[str] = []
    all_ok = True

    # 5x4 rank-2 matrix with exactly two completions.
    roots, closed = appendix_c_closed_form()
    all_ok &= _check(
        "matrix-5x4: quadratic roots {-2, -21/32}",
        set(roots) == {Fraction(-2), Fraction(-21, 32)},
        lines,
    )
    pattern, values = appendix_c_pattern()
    spec = RankSpec(j=1, ranks=(2,))
    numeric = enumerate_completions(
        pattern, {k: float(v) for k, v in values.items()}, spec, starts=args.starts, seed=args.seed
    )
    all_ok &= _check("matrix-5x4: exactly two solution clusters", numeric.num_clusters == 2, lines)
    closed_arrays = sorted(
        (np.array([[float(x) for x in row] for row in m]) for m in closed),
        key=lambda a: a.ravel().tolist(),
    )
    matched = numeric.num_clusters == 2 and all(
        min(float(np.abs(c - ca).max()) for c in numeric.completions) < 1e-9
        for ca in closed_arrays
    )
    all_ok &= _check("matrix-5x4: clusters match the exact completions to 1e-9", matched, lines)

    # (2,2,2) rank-(1,1,1) with four observed entries: unique completion.
    pattern3 = section_iib_pattern()
    vals3 = section_iib_values()
    spec3 = RankSpec(j=1, ranks=(1, 1))
    numeric3 = enumerate_completions(pattern3, vals3, spec3, starts=args.starts, seed=args.seed)
    closed3 = section_iib_closed_form(vals3)
    all_ok &= _check("cube-2x2x2: single solution cluster", numeric3.num_clusters == 1, lines)
    ok3 = numeric3.num_clusters == 1 and float(
        np.abs(numeric3.completions[0] - closed3).max()
    ) < 1e-10
    all_ok &= _check("cube-2x2x2: matches the product closed form to 1e-10", ok3, lines)

    text = "\n".join(lines) + "\n"
    _write_text(text, args.out)
    if args.out is not None:
        sys.stdout.write(text)
    return EXIT_OK if all_ok else EXIT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcert",
        description="Certify finite/unique low-Tucker-rank completability of sampling patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the artifact here (default stdout)")

    p = sub.add_parser("check-finite", help="finite-completability certificate for a pattern")
    p.add_argument("pattern", help="pattern JSON file")
    p.add_argument("--rank", required=True, help="trailing rank components, comma list")
    p.add_argument("--j", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_check_finite)

    p = sub.add_parser("check-unique", help="uniqueness certificate for a pattern")
    p.add_argument("pattern")
    p.add_argument("--rank", required=True)
    p.add_argument("--j", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_check_unique)

    p = sub.add_parser("bounds", help="sampling-probability bound curves as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--rank-range", required=True, help="min:max rank sweep")
    p.add_argument("--eps", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo property estimation")
    p.add_argument("--dims", required=True, help="tensor dimensions, comma list")
    p.add_argument("--property", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--per-column-l", type=int, default=None)
    p.add_argument("--rank", default=None)
    p.add_argument("--j", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="Jacobian rank report or completion enumeration")
    p.add_argument("pattern")
    p.add_argument("--rank", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--generate", action="store_true", help="generic instance rank report")
    p.add_argument("--mode", default="coreAndFactors",
                   choices=["coreAndFactors", "factorsOnly", "coreOnly"])
    p.add_argument("--values", default=None, help="observed values JSON for enumeration")
    p.add_argument("--starts", type=int, default=64)
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("paper-examples", help="run the two worked-example reproductions")
    p.add_argument("--starts", type=int, default=64)
    add_common(p)
    p.set_defaults(func=_cmd_paper_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # A pattern whose dimensions fit int64 can still ask for arrays that
        # do not fit in memory, e.g. a generic instance of a huge dimension.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
