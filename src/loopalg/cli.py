"""Command-line front end: every construction and verification as a subcommand.

Exit codes: 0 on pass, 1 on a violated check or mismatched golden file,
2 on usage errors (including unsupported Cartan types and an unusable
--output or LOOPALG_GOLDEN_DIR), 3 on an internal error (any other
exception, reported as one line).  All randomness is derived from --seed,
so reports are byte-identical across runs.

Each ``cmd_*`` handler returns a payload and a pass/fail status; ``_emit``
is the one path that renders every report, pass or fail, stamps its
``schema`` id (``loopalg/<subcommand>/v1``, ``loopalg/verify-<proposition>/v1``)
and writes it.  When LOOPALG_GOLDEN_DIR is set, each report, fail reports
included, is compared against (or bootstraps) a golden file in that
directory.  Its name is the subcommand, the proposition for ``verify``, the
type and fg's coefficient, then ``key=value`` (a bare key for a flag) for
every option away from its default, in key order, e.g.
``verify_size-of-image_A1_kac=1,1_n=2_samples=25_seed=7.json``.  --jobs and
--output never change the bytes, so they never enter the name.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .affine import build_parahoric, is_principal, kac_grading, moy_prasad, orthogonal_lattice
from .errors import (
    ContainmentViolation,
    DiagramMismatch,
    InvalidCoordinatesError,
    LoopAlgError,
    MismatchError,
    NoCertificateError,
    SurjectivityFailure,
    UnsupportedTypeError,
    UsageError,
)
from .hitchin import (
    hitchin_bounds,
    invariant_system,
    residue_diagram,
    torus_invariant_generator,
    verify_containment,
    verify_rs_image,
    verify_surjectivity,
)
from .opers import (
    check_irregular_type,
    check_residue_rs,
    cyclic_ode,
    fg_connection,
    global_hitchin_base,
    global_oper_space,
    slope_certificate,
)
from .rootdata import CartanType, build_root_datum, fundamental_degrees

SCHEMA_VERSION = "v1"


def _golden_name(args) -> str:
    """Subcommand, proposition, type and fg coefficient, then one ``key=value``
    part (a bare key for a flag) per option away from its default, in key order.
    --jobs and --output never change the bytes, so they never enter the name."""
    named = {
        k: v for k, v in vars(args).items()
        if k not in ("jobs", "output") and v != args.parser.get_default(k)
    }
    head = [str(named.pop(k)) for k in ("command", "proposition", "type", "a") if k in named]
    opts = [k if v is True else f"{k}={v}" for k, v in sorted(named.items())]
    return "_".join(head + opts).replace("/", "over").replace(" ", "") + ".json"


def _emit(payload: dict, ok: bool, args) -> int:
    """The one report path, pass or fail: render, check against the golden file
    when LOOPALG_GOLDEN_DIR is set, then write to --output or stdout."""
    kind = f"verify-{args.proposition}" if args.command == "verify" else args.command
    payload = {**payload, "schema": f"loopalg/{kind}/{SCHEMA_VERSION}"}
    if args.format == "table":
        text = "".join(f"{k}: {payload[k]}\n" for k in sorted(payload))
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    code = 0 if ok else 1
    golden_dir = os.environ.get("LOOPALG_GOLDEN_DIR")
    if golden_dir:
        path = os.path.join(golden_dir, _golden_name(args))
        try:
            os.makedirs(golden_dir, exist_ok=True)
            if os.path.exists(path):
                with open(path) as fh:
                    if fh.read() != text:
                        sys.stderr.write(f"golden mismatch: {path}\n")
                        code = 1
            else:
                with open(path, "w") as fh:
                    fh.write(text)
                sys.stderr.write(f"golden created: {path}\n")
        except OSError as ex:
            raise UsageError(f"cannot use LOOPALG_GOLDEN_DIR {golden_dir}: {ex.strerror}") from None
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write --output {args.output}: {ex.strerror}") from None
    else:
        sys.stdout.write(text)
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number such as 2/3, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as one ``usage error:`` line, exit code 2."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def _parse_type(name: str):
    return build_root_datum(CartanType.parse(name))


def _parse_kac(rd, text: Optional[str], default_iwahori: bool = False):
    if text is None:
        if default_iwahori:
            return build_parahoric(rd, (1,) * (rd.rank + 1))
        raise InvalidCoordinatesError("missing --kac coordinates")
    try:
        coords = tuple(int(c) for c in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"--kac expects comma-separated integers, got {text!r}") from None
    return build_parahoric(rd, coords)


def _parse_iwahori(rd, text: Optional[str], prop: str):
    p = _parse_kac(rd, text, default_iwahori=True)
    if not p.is_iwahori:
        raise UsageError(f"{prop} is computed for the Iwahori only, got --kac {text}")
    return p


def cmd_degrees(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    degs = list(fundamental_degrees(rd))
    payload = {
        "type": rd.cartan.name,
        "degrees": degs,
        "exponents": [d - 1 for d in degs],
        "coxeter_number": rd.coxeter_number,
        "kac_labels": list(rd.kac_labels),
        "dimension": rd.dim,
    }
    if args.full:
        payload["root_datum"] = rd.to_json_dict()
    return payload, True


def cmd_kac(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    p = _parse_kac(rd, args.kac)
    payload = p.descriptor()
    if args.n is not None:
        payload["n"] = args.n
        payload["lattice"] = moy_prasad(p, args.n).dump()
    return payload, True


def cmd_grading(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    p = _parse_kac(rd, args.kac)
    g = kac_grading(p)
    payload = {
        "type": rd.cartan.name,
        "kac_coords": list(p.kac_coords),
        "m": p.m,
        "eta_pairings": list(g.eta),
        "pieces": g.dump(),
        "piece_dimensions": {str(k): v for k, v in g.piece_dims().items()},
        "levi_dimension": g.levi_dimension(),
        "principal": is_principal(p),
    }
    return payload, True


def cmd_hitchin_image(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    p = _parse_kac(rd, args.kac)
    image = hitchin_bounds(p, args.n)
    lattice = orthogonal_lattice(p, args.n)
    payload = {
        "type": rd.cartan.name,
        "kac_coords": list(p.kac_coords),
        "n": args.n,
        "m": p.m,
        "degrees": list(image.degrees),
        "bounds": list(image.bounds),
        "dual_lattice": lattice.dump(),
    }
    return payload, True


def cmd_verify(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    prop = args.proposition
    try:
        if prop == "size-of-image":
            p = _parse_kac(rd, args.kac)
            if args.n is None:
                raise UsageError("size-of-image needs --n")
            sweep = functools.partial(
                verify_containment, invariant_system(rd), p, args.n,
                samples=args.samples, seed=args.seed,
            )
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            workers = min(args.jobs, args.samples, cpus)
            if workers > 1:
                from multiprocessing import Pool

                with Pool(workers) as pool:
                    payload = sweep(map=pool.map)
            else:
                payload = sweep()
        elif prop == "surjectivity":
            p = _parse_kac(rd, args.kac, default_iwahori=True)
            payload = verify_surjectivity(
                invariant_system(rd), p, n=args.n if args.n is not None else 2,
                trials=args.trials, seed=args.seed
            )
        elif prop == "rs-image":
            p = _parse_kac(rd, args.kac, default_iwahori=True)
            payload = verify_rs_image(invariant_system(rd), p, seed=args.seed)
        elif prop == "residue-diagram":
            p = _parse_iwahori(rd, args.kac, prop)
            payload = residue_diagram(
                invariant_system(rd), p, samples=args.samples, seed=args.seed
            )
        elif prop == "global-oper":
            payload = global_oper_space(rd)
        elif prop == "invariant-generator":
            payload = torus_invariant_generator(_parse_iwahori(rd, args.kac, prop))
        else:  # pragma: no cover
            raise InvalidCoordinatesError(f"unknown proposition {prop}")
    except (ContainmentViolation, SurjectivityFailure, DiagramMismatch, MismatchError) as ex:
        failure = {
            "proposition": prop,
            "type": rd.cartan.name,
            "status": "fail",
            "error": type(ex).__name__,
            "message": str(ex),
        }
        if isinstance(ex, ContainmentViolation):
            failure["seed"] = ex.seed
            failure["witness"] = ex.witness
        return failure, False
    return payload, True


def cmd_fg(args) -> tuple[dict, bool]:
    rd = _parse_type(args.type)
    a = args.a
    op = fg_connection(rd, a)
    payload = {
        "type": rd.cartan.name,
        "dual_type": op.rd.cartan.name,
        "a": str(a),
        "connection": op.to_json_dict(),
        "residue_regular_singular": check_residue_rs(op),
        "irregular_type": check_irregular_type(op),
        "tame": a == 0,
    }
    if a != 0:
        try:
            payload["slope_certificate"] = slope_certificate(op)
        except NoCertificateError as ex:
            payload["slope_certificate"] = {"status": "fail", "message": str(ex)}
            return payload, False
    else:
        payload["slope_certificate"] = None
    if args.ode:
        ode = cyclic_ode(op)
        ode.pop("coefficients_raw", None)
        payload["cyclic_ode"] = ode
    return payload, payload["residue_regular_singular"] and payload["irregular_type"]


def cmd_oper_space(args) -> tuple[dict, bool]:
    return global_oper_space(_parse_type(args.type)), True


def cmd_hitchin_base(args) -> tuple[dict, bool]:
    return global_hitchin_base(_parse_type(args.type)), True


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="loopalg",
        description=(
            "Exact verification harness for parahoric filtrations of loop algebras, "
            "bounded local Hitchin images, slice surjectivity certificates and the "
            "rigid irregular connection on the punctured line."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, func, kac=False, n=False, samples=False, trials=False):
        # the subparser rides along so that _golden_name can read its defaults
        p.set_defaults(func=func, parser=p)
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for all random draws")
        p.add_argument(
            "--jobs", type=_positive_int, default=1,
            help=(
                "worker processes for sample sweeps, at most one per sample and per usable CPU; "
                "the output bytes are the same for every value.  On a 2-vCPU machine "
                "--jobs 2 measured slower than --jobs 1 (273-313 ms against 251-308 ms "
                "for a 200-sample G2 size-of-image sweep)"
            ),
        )
        if kac:
            p.add_argument("--kac", help="comma-separated alcove coordinates s_0,..,s_l")
        if n:
            p.add_argument("--n", type=int, default=None, help="filtration level")
        if samples:
            p.add_argument("--samples", type=_positive_int, default=100)
        if trials:
            p.add_argument("--trials", type=_positive_int, default=25)

    p = sub.add_parser("degrees", help="fundamental degrees, marks and Coxeter number")
    p.add_argument("type")
    p.add_argument("--full", action="store_true", help="include the full root-datum dump")
    common(p, cmd_degrees)

    p = sub.add_parser(
        "kac", help="parahoric descriptor from alcove coordinates (with --n: lattice dump)"
    )
    p.add_argument("type")
    common(p, cmd_kac, kac=True, n=True)

    p = sub.add_parser("grading", help="periodic grading induced by a parahoric, with principality")
    p.add_argument("type")
    common(p, cmd_grading, kac=True)

    p = sub.add_parser(
        "hitchin-image",
        help="pole bounds d_i - ceil(d_i(1-n)/m) on the image of the level-n dual lattice",
    )
    p.add_argument("type")
    p.add_argument("--n", type=int, required=True, help="filtration level")
    common(p, cmd_hitchin_image, kac=True)

    p = sub.add_parser(
        "verify",
        help=(
            "run a verification sweep: size-of-image (order-bound containment), "
            "surjectivity (slice round trips, level 2 only), rs-image (level-1 fullness), "
            "residue-diagram (boundary square up to a recorded scalar), global-oper "
            "(one-dimensional two-point space), invariant-generator (torus monomial)"
        ),
    )
    p.add_argument(
        "proposition",
        choices=[
            "size-of-image",
            "surjectivity",
            "rs-image",
            "residue-diagram",
            "global-oper",
            "invariant-generator",
        ],
    )
    p.add_argument("--type", required=True)
    common(p, cmd_verify, kac=True, n=True, samples=True, trials=True)

    p = sub.add_parser(
        "fg",
        help="the rigid connection f/z + a e_theta: matrix, local checks, slope certificate",
    )
    p.add_argument("type")
    p.add_argument(
        "a", type=_rational, help="rational coefficient of the highest-root direction, e.g. 2/3"
    )
    p.add_argument("--ode", action="store_true", help="include the scalar operator")
    common(p, cmd_fg)

    p = sub.add_parser("oper-space", help="dimension and basis of the global two-point space")
    p.add_argument("type")
    common(p, cmd_oper_space)

    p = sub.add_parser("hitchin-base", help="dimension of the global base on the projective line")
    p.add_argument("type")
    common(p, cmd_hitchin_base)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _emit(*args.func(args), args)
    except (UnsupportedTypeError, InvalidCoordinatesError, UsageError) as ex:
        sys.stderr.write(f"usage error: {ex}\n")
        return 2
    except LoopAlgError as ex:
        sys.stderr.write(f"verification error: {type(ex).__name__}: {ex}\n")
        return 1
    except Exception as ex:
        sys.stderr.write(f"internal error: {type(ex).__name__}: {ex}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
