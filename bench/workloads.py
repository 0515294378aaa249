"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with a single client: a pass issues its
reports one after another, and the next starts when the previous returned.
A report is one public ``verify_*``/``residue_diagram`` call, one
rigid-connection certificate set, or one ``python -m loopalg.cli`` process.
The workload seed reaches loopalg only through the ``seed=`` of the verify
calls (and ``--seed`` of the CLI sweep), so every pass of a run repeats the
same work and must produce the same report digest.

loopalg is called through its module attributes (``hitchin.verify_containment``,
not a name imported into this module), so that a tracer which wraps those
attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from loopalg import affine, hitchin, opers, rootdata

TYPES = ("A1", "A2", "A3", "A4", "C2", "G2")

# intermediate (neither Iwahori nor hyperspecial) parahorics, as in the
# acceptance suite
INTERMEDIATE = {
    "A1": (0, 1),
    "A2": (1, 1, 0),
    "A3": (1, 0, 1, 0),
    "A4": (1, 1, 0, 0, 0),
    "C2": (0, 1, 0),
    "G2": (1, 1, 0),
}

# comparison scalar of the residue square, fixed per type
RESIDUE_SCALARS = {"A1": "-1", "A2": "1", "A3": "-1", "A4": "1", "C2": "1/4", "G2": "-1/432"}

LEVELS = (0, 1, 2)
RIGID_A = (Fraction(1), Fraction(-2), Fraction(3, 5))
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Report:
    name: str
    items: int
    seconds: float
    ok: bool
    digest: str
    note: str = ""


@dataclass
class Case:
    """One report: a call producing a payload and a check on that payload."""

    name: str
    items: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the payload is right
    span: str = "bench.report"


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def run_case(case: Case, tracer=None) -> Report:
    """Time one report; a raised error or a failed check marks it failed."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            payload = case.call()
        else:
            with tracer.span(case.span):
                payload = case.call()
        seconds = time.perf_counter() - t0
        problem = case.check(payload)
    except Exception as ex:  # a failing report is counted, the run goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Report(case.name, case.items, seconds, False, "", f"{type(ex).__name__}: {ex}")
    return Report(case.name, case.items, seconds, problem is None, _digest(payload), problem or "")


def _rd(name: str):
    return rootdata.build_root_datum(rootdata.CartanType.parse(name))


def _status(rep: dict) -> Optional[str]:
    return None if rep.get("status") == "pass" else f"status {rep.get('status')!r}"


class Workload:
    name = ""

    def __init__(self, seed: int, types: Sequence[str] = TYPES):
        self.seed = seed
        self.types = tuple(types)
        self.cases: List[Case] = []

    def setup(self) -> None:
        """Public constructors needed before the first report (fills loopalg's caches)."""

    def run_pass(self, tracer=None) -> List[Report]:
        return [run_case(c, tracer) for c in self.cases]


class Containment(Workload):
    """Order-bound containment: three parahorics per type, n in {0,1,2}, 100 samples.

    Chosen because the integer fast path of the charpoly kernel does most of
    the work, while opers, the generic ``ring.charpoly_esym`` and the CLI stay
    idle: the no-change control for connection and CLI fixes.
    """

    name = "containment"

    def __init__(self, seed, types=TYPES, samples=100, levels=LEVELS):
        super().__init__(seed, types)
        self.samples = samples
        self.levels = tuple(levels)

    def setup(self):
        for t in self.types:
            rd = _rd(t)
            inv = hitchin.invariant_system(rd)
            for p in (affine.iwahori(rd), affine.hyperspecial(rd),
                      affine.build_parahoric(rd, INTERMEDIATE[t])):
                for n in self.levels:
                    affine.orthogonal_lattice(p, n)
                    self.cases.append(self._case(t, inv, p, n))

    def _case(self, t, inv, p, n) -> Case:
        def call():
            return hitchin.verify_containment(inv, p, n, samples=self.samples, seed=self.seed)

        def check(rep):
            if rep.get("samples") != self.samples:
                return "wrong sample count"
            for got, bound in zip(rep["max_orders"], rep["bounds"]):
                if got is not None and got > bound:
                    return f"max order {got} above bound {bound}"
            return _status(rep)

        coords = "".join(map(str, p.kac_coords))
        return Case(f"containment {t} {coords} n={n}", self.samples, call, check)


class ResidueSlice(Workload):
    """Residue square (50 samples) and level-2 slice round trips (25 trials) on the Iwahori.

    Chosen because it drives the same Hitchin layer with rational samples,
    which fall back to the generic charpoly, and adds Kostant inversion and
    cover descent: a kernel change that favours integral or rational inputs
    shows here against ``containment``.
    """

    name = "residue-slice"

    def __init__(self, seed, types=TYPES, samples=50, trials=25):
        super().__init__(seed, types)
        self.samples = samples
        self.trials = trials

    def setup(self):
        for t in self.types:
            rd = _rd(t)
            inv = hitchin.invariant_system(rd)
            p = affine.iwahori(rd)
            affine.orthogonal_lattice(p, 2)
            hitchin.graded_kostant_data(inv, p)
            self.cases.append(self._residue(t, inv, p))
            self.cases.append(self._surjectivity(t, inv, p))

    def _residue(self, t, inv, p) -> Case:
        def call():
            return hitchin.residue_diagram(inv, p, samples=self.samples, seed=self.seed)

        def check(rep):
            if rep.get("scalar") != RESIDUE_SCALARS[t]:
                return f"scalar {rep.get('scalar')} != {RESIDUE_SCALARS[t]}"
            return _status(rep)

        return Case(f"residue-diagram {t}", self.samples, call, check)

    def _surjectivity(self, t, inv, p) -> Case:
        want = [d + d // p.m for d in inv.degrees]

        def call():
            return hitchin.verify_surjectivity(inv, p, n=2, trials=self.trials, seed=self.seed)

        def check(rep):
            if rep.get("boundary_orders") != want:
                return f"boundary orders {rep.get('boundary_orders')} != {want}"
            if not all(rep.get("boundary_attained", [])):
                return "boundary order not attained"
            return _status(rep)

        return Case(f"surjectivity {t}", self.trials, call, check)


def _is_bessel(ode: dict, a: Fraction) -> bool:
    """The A1 reduction must be z y'' + y' - a y, i.e. monic y'' + y'/z - a y/z."""
    if ode["order"] != 2:
        return False
    c0, c1 = ode["coefficients_raw"]
    return (c1.num.cs == [Fraction(1)] and c1.den.cs == [Fraction(0), Fraction(1)]
            and c0.num.cs == [-a] and c0.den.cs == [Fraction(0), Fraction(1)])


class RigidConnection(Workload):
    """Local checks, slope certificate and cyclic ODE of f/z + a e_theta, a in {1, -2, 3/5}.

    Chosen because it exercises opers, rootdata (``is_regular_semisimple``)
    and exact linear algebra in ring while the Hitchin kernel stays idle.
    """

    name = "rigid-connection"

    def __init__(self, seed, types=TYPES, coefficients=RIGID_A):
        super().__init__(seed, types)
        self.coefficients = tuple(coefficients)

    def setup(self):
        for t in self.types:
            rd = _rd(t)
            opers.fg_connection(rd, Fraction(1))
            for a in self.coefficients:
                self.cases.append(self._certificates(t, rd, a))
            self.cases.append(self._global_spaces(t, rd))

    def _certificates(self, t, rd, a) -> Case:
        def call():
            op = opers.fg_connection(rd, a)
            return {
                "residue_rs": opers.check_residue_rs(op),
                "irregular_type": opers.check_irregular_type(op),
                "slope": opers.slope_certificate(op),
                "ode": opers.cyclic_ode(op),
                "rep_dim": op.rd.rep_dim,
            }

        def check(out):
            if not (out["residue_rs"] and out["irregular_type"]):
                return "local check failed"
            if out["slope"].get("regular_semisimple") is not True:
                return "leading term not regular semisimple"
            if out["ode"]["order"] != out["rep_dim"]:
                return f"ODE order {out['ode']['order']} != {out['rep_dim']}"
            if t == "A1" and not _is_bessel(out["ode"], a):
                return "A1 reduction is not the Bessel-type operator"
            return _status(out["slope"]) or _status(out["ode"])

        return Case(f"certificates {t} a={a}", 1, call, check)

    def _global_spaces(self, t, rd) -> Case:
        def call():
            return {"oper": opers.global_oper_space(rd), "base": opers.global_hitchin_base(rd)}

        def check(out):
            if out["oper"]["dimension"] != 1 or "e_theta" not in out["oper"]["basis"]:
                return "global oper space is not the e_theta line"
            if out["base"]["dimension"] != 1:
                return "global Hitchin base is not one-dimensional"
            return _status(out["oper"]) or _status(out["base"])

        return Case(f"global spaces {t}", 1, call, check)


# -- the CLI, one process per report -----------------------------------------


def child_env(root: str) -> dict:
    """Environment for child interpreters: loopalg from this checkout, no golden mode."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LOOPALG_GOLDEN_DIR", None)
    return env


def run_child(argv: Sequence[str], env: dict, cwd: str) -> Tuple[int, bytes]:
    """Run a child interpreter to completion; on timeout kill its whole process group."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=cwd,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def sweep_args(seed: int, samples: int, jobs: int) -> List[str]:
    return ["verify", "size-of-image", "--type", "G2", "--kac", "1,1,1", "--n", "2",
            "--samples", str(samples), "--seed", str(seed), "--jobs", str(jobs)]


class Cli(Workload):
    """Every golden-manifest command as a fresh process, then a G2 sweep at --jobs 1 and 2.

    Chosen because only this workload measures process start, argparse and
    emit, and the separate pool path behind ``--jobs 2``.
    """

    name = "cli"

    def __init__(self, seed, root: str, manifest: Optional[dict] = None, samples=200):
        super().__init__(seed)
        self.root = root
        self.env = child_env(root)
        golden = os.path.join(root, "tests", "golden")
        if manifest is None:
            with open(os.path.join(golden, "manifest.json")) as fh:
                manifest = json.load(fh)
        self._last_sweep: Optional[bytes] = None
        for fname, argv in sorted(manifest.items()):
            with open(os.path.join(golden, fname), "rb") as fh:
                want = fh.read()
            self.cases.append(self._golden(fname, argv, want))
        for jobs in (1, 2):
            self.cases.append(self._sweep(samples, jobs))

    def _process(self, argv):
        return run_child(["-m", "loopalg.cli", *argv], self.env, self.root)

    def _golden(self, fname, argv, want) -> Case:
        def check(result):
            code, out = result
            if code != 0:
                return f"exit code {code}"
            return None if out == want else "golden mismatch"

        return Case(f"cli {fname}", 1, lambda: self._process(argv), check, "cli.manifest")

    def _sweep(self, samples, jobs) -> Case:
        def call():
            return self._process(sweep_args(self.seed, samples, jobs))

        def check(result):
            code, out = result
            if jobs == 1:
                self._last_sweep = out if code == 0 else None
            if code != 0:
                return f"exit code {code}"
            if json.loads(out).get("status") != "pass":
                return "sweep did not pass"
            if jobs != 1 and out != self._last_sweep:
                return "--jobs 2 output differs from --jobs 1"
            return None

        return Case(f"cli size-of-image --jobs {jobs}", 1, call, check, f"cli.jobs{jobs}")


def make(name: str, seed: int, root: str) -> Workload:
    if name == "cli":
        return Cli(seed, root)
    return {"containment": Containment, "residue-slice": ResidueSlice,
            "rigid-connection": RigidConnection}[name](seed)
