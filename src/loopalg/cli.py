"""Command-line front end: every construction and verification as a subcommand.

Exit codes: 0 on pass, 1 on a violated check or mismatched golden file,
2 on usage errors (including unsupported Cartan types), 3 on an internal
error (any other exception, reported as one line).  All randomness is
derived from --seed, so reports are byte-identical across runs; when
LOOPALG_GOLDEN_DIR is set, each report is compared against (or bootstraps)
a golden file named after the subcommand and arguments.
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


def _render(payload: dict, fmt: str) -> str:
    if fmt == "table":
        lines = []
        for k in sorted(payload):
            lines.append(f"{k}: {payload[k]}")
        return "\n".join(lines) + "\n"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(text: str, args) -> None:
    """The report goes to --output when it is given, else to stdout."""
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write --output {out}: {ex.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args, slug: str) -> int:
    payload = dict(payload)
    payload.setdefault("schema", f"loopalg/{slug.split('_')[0]}/{SCHEMA_VERSION}")
    text = _render(payload, getattr(args, "format", "json"))
    _write(text, args)
    golden_dir = os.environ.get("LOOPALG_GOLDEN_DIR")
    if golden_dir:
        os.makedirs(golden_dir, exist_ok=True)
        path = os.path.join(golden_dir, slug + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                want = fh.read()
            if want != text:
                sys.stderr.write(f"golden mismatch: {path}\n")
                return 1
        else:
            with open(path, "w") as fh:
                fh.write(text)
            sys.stderr.write(f"golden created: {path}\n")
    return 0


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


def cmd_degrees(args) -> int:
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
    return _emit(payload, args, f"degrees_{rd.cartan.name}")


def cmd_kac(args) -> int:
    rd = _parse_type(args.type)
    p = _parse_kac(rd, args.kac)
    payload = p.descriptor()
    if args.n is not None:
        payload["n"] = args.n
        payload["lattice"] = moy_prasad(p, args.n).dump()
    slug = f"kac_{rd.cartan.name}_{'-'.join(map(str, p.kac_coords))}"
    return _emit(payload, args, slug)


def cmd_grading(args) -> int:
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
    slug = f"grading_{rd.cartan.name}_{'-'.join(map(str, p.kac_coords))}"
    return _emit(payload, args, slug)


def cmd_hitchin_image(args) -> int:
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
    slug = f"hitchin-image_{rd.cartan.name}_{'-'.join(map(str, p.kac_coords))}_n{args.n}"
    return _emit(payload, args, slug)


def cmd_verify(args) -> int:
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
            workers = min(args.jobs, args.samples, os.cpu_count() or 1)
            if workers > 1:
                from multiprocessing import Pool

                with Pool(workers) as pool:
                    payload = sweep(map=pool.map)
            else:
                payload = sweep()
            slug = (
                f"verify-size-of-image_{rd.cartan.name}_"
                f"{'-'.join(map(str, p.kac_coords))}_n{args.n}_s{args.samples}_seed{args.seed}"
            )
        elif prop == "surjectivity":
            p = _parse_kac(rd, args.kac, default_iwahori=True)
            payload = verify_surjectivity(
                invariant_system(rd), p, n=args.n if args.n is not None else 2,
                trials=args.trials, seed=args.seed
            )
            slug = (
                f"verify-surjectivity_{rd.cartan.name}_"
                f"{'-'.join(map(str, p.kac_coords))}_t{args.trials}_seed{args.seed}"
            )
        elif prop == "rs-image":
            p = _parse_kac(rd, args.kac, default_iwahori=True)
            payload = verify_rs_image(invariant_system(rd), p, seed=args.seed)
            slug = (
                f"verify-rs-image_{rd.cartan.name}_"
                f"{'-'.join(map(str, p.kac_coords))}_seed{args.seed}"
            )
        elif prop == "residue-diagram":
            p = _parse_iwahori(rd, args.kac, prop)
            payload = residue_diagram(
                invariant_system(rd), p, samples=args.samples, seed=args.seed
            )
            slug = f"verify-residue-diagram_{rd.cartan.name}_s{args.samples}_seed{args.seed}"
        elif prop == "global-oper":
            payload = global_oper_space(rd)
            slug = f"verify-global-oper_{rd.cartan.name}"
        elif prop == "invariant-generator":
            payload = torus_invariant_generator(_parse_iwahori(rd, args.kac, prop))
            slug = f"verify-invariant-generator_{rd.cartan.name}"
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
        _write(_render(failure, args.format), args)
        return 1
    return _emit(payload, args, slug)


def cmd_fg(args) -> int:
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
            _write(_render(payload, args.format), args)
            return 1
    else:
        payload["slope_certificate"] = None
    if args.ode:
        ode = cyclic_ode(op)
        ode.pop("coefficients_raw", None)
        payload["cyclic_ode"] = ode
    ok = payload["residue_regular_singular"] and payload["irregular_type"]
    slug = f"fg_{rd.cartan.name}_a{str(a).replace('/', 'over').replace('-', 'm')}"
    code = _emit(payload, args, slug)
    return code if ok else 1


def cmd_oper_space(args) -> int:
    rd = _parse_type(args.type)
    payload = global_oper_space(rd)
    return _emit(payload, args, f"oper-space_{rd.cartan.name}")


def cmd_hitchin_base(args) -> int:
    rd = _parse_type(args.type)
    payload = global_hitchin_base(rd)
    return _emit(payload, args, f"hitchin-base_{rd.cartan.name}")


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

    def common(p, kac=False, n=False, samples=False, trials=False):
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for all random draws")
        p.add_argument(
            "--jobs", type=_positive_int, default=1,
            help=(
                "worker processes for sample sweeps, at most one per sample and per CPU; "
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
    common(p)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser(
        "kac", help="parahoric descriptor from alcove coordinates (with --n: lattice dump)"
    )
    p.add_argument("type")
    common(p, kac=True, n=True)
    p.set_defaults(func=cmd_kac)

    p = sub.add_parser("grading", help="periodic grading induced by a parahoric, with principality")
    p.add_argument("type")
    common(p, kac=True)
    p.set_defaults(func=cmd_grading)

    p = sub.add_parser(
        "hitchin-image",
        help="pole bounds d_i - ceil(d_i(1-n)/m) on the image of the level-n dual lattice",
    )
    p.add_argument("type")
    p.add_argument("--n", type=int, required=True, help="filtration level")
    common(p, kac=True)
    p.set_defaults(func=cmd_hitchin_image)

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
    common(p, kac=True, n=True, samples=True, trials=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fg",
        help="the rigid connection f/z + a e_theta: matrix, local checks, slope certificate",
    )
    p.add_argument("type")
    p.add_argument(
        "a", type=_rational, help="rational coefficient of the highest-root direction, e.g. 2/3"
    )
    p.add_argument("--ode", action="store_true", help="include the scalar operator")
    common(p)
    p.set_defaults(func=cmd_fg)

    p = sub.add_parser("oper-space", help="dimension and basis of the global two-point space")
    p.add_argument("type")
    common(p)
    p.set_defaults(func=cmd_oper_space)

    p = sub.add_parser("hitchin-base", help="dimension of the global base on the projective line")
    p.add_argument("type")
    common(p)
    p.set_defaults(func=cmd_hitchin_base)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
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
