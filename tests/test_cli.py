"""CLI contract: exit codes, determinism, schemas, golden-file mode."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

HERE = os.path.dirname(__file__)
SCHEMA_DIR = os.path.join(HERE, "..", "schemas")
GOLDEN_DIR = os.path.join(HERE, "golden")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("LOOPALG_GOLDEN_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "loopalg.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name + ".schema.json")) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_degrees_pass(self):
        r = run_cli("degrees", "A2")
        assert r.returncode == 0
        d = json.loads(r.stdout)
        assert d["degrees"] == [2, 3] and d["coxeter_number"] == 3
        assert d["kac_labels"] == [1, 1, 1]

    def test_degrees_g2(self):
        d = json.loads(run_cli("degrees", "G2").stdout)
        assert d["degrees"] == [2, 6] and d["kac_labels"] == [1, 2, 3]

    def test_unsupported_type_exits_2(self):
        r = run_cli("degrees", "E8")
        assert r.returncode == 2

    def test_bad_coords_exit_2(self):
        r = run_cli("kac", "A2", "--kac", "2,0,0")
        assert r.returncode == 2

    def test_verify_pass_exit_0(self):
        r = run_cli(
            "verify", "size-of-image", "--type", "A1", "--kac", "1,1",
            "--n", "2", "--samples", "25", "--seed", "7",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["status"] == "pass"

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
             "--samples", "0"),
            ("verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
             "--jobs", "0"),
            ("verify", "surjectivity", "--type", "A1", "--trials", "0"),
            ("verify", "size-of-image", "--type", "A1", "--kac", "1,1"),
            ("hitchin-image", "A1", "--kac", "1,1"),
            ("fg", "A1", "1/0"),
            ("verify", "invariant-generator", "--type", "A2", "--kac", "1,0,0"),
            ("verify", "residue-diagram", "--type", "A2", "--kac", "1,0,0"),
            ("kac", "A2", "--kac", "1,x,0"),
            ("degrees", "A\u00b2"),
            ("degrees", "A" + "1" * 5000),
            ("fg", "A1", "1", "--output", os.path.join(HERE, "no-such-dir", "fg.json")),
            ("verify", "surjectivity", "--type", "A1", "--n", "0"),
            ("verify", "surjectivity", "--type", "A2", "--n", "3"),
            ("verify", "surjectivity", "--type", "C2", "--kac", "0,1,0", "--trials", "2",
             "--output", os.path.join(HERE, "no-such-dir", "fail.json")),
        ],
        ids=["samples-0", "jobs-0", "trials-0", "size-of-image-no-n", "hitchin-image-no-n",
             "fg-zero-denominator", "invariant-generator-not-iwahori",
             "residue-diagram-not-iwahori", "kac-not-integer", "type-superscript-rank",
             "type-rank-too-long", "output-unwritable", "surjectivity-level-0",
             "surjectivity-level-3", "fail-output-unwritable"],
    )
    def test_usage_errors_exit_2(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("usage error:") and r.stderr.count("\n") == 1

    def test_negative_rational_is_a_value(self):
        """``-2/3`` is fg's coefficient, not an unknown option: the bytes of ``-- -2/3``."""
        r, ref = run_cli("fg", "A1", "-2/3"), run_cli("fg", "A1", "--", "-2/3")
        assert r.returncode == ref.returncode == 0
        assert r.stdout == ref.stdout and json.loads(r.stdout)["a"] == "-2/3"

    def test_negative_kac_coordinate_reaches_the_coordinate_check(self):
        r = run_cli("kac", "A2", "--kac", "-1,1,1")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "usage error: coordinates must lie in {0,1} and not all vanish\n"

    @pytest.mark.parametrize("form", ["1e-{}", "-1e-{}", "1e{}"])
    def test_coefficient_digit_limit(self, form):
        """A coefficient with more digits than the interpreter prints in an int is a
        usage error that states the limit; one digit fewer gives a report."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int digit limit in this interpreter")
        ok = run_cli("fg", "A1", form.format(limit - 1))
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["a"] == str(Fraction(form.format(limit - 1)))
        r = run_cli("fg", "A1", form.format(limit))
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("usage error:") and r.stderr.count("\n") == 1
        assert f"more than {limit} digits" in r.stderr

    def test_containment_failure_reports_seed_and_witness(self, monkeypatch, capsys):
        import random

        from loopalg import cli, hitchin
        from loopalg.affine import iwahori, orthogonal_lattice
        from loopalg.rootdata import CartanType, build_root_datum

        real = hitchin.hitchin_bounds
        # the bounds of a much lower level are violated by the first nonzero sample
        monkeypatch.setattr(hitchin, "hitchin_bounds", lambda p, n, degs: real(p, n - 10, degs))
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        code = cli.main(["verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
                         "--samples", "3", "--seed", "6"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["status"] == "fail" and report["error"] == "ContainmentViolation"
        assert report["seed"].startswith("6:") and report["witness"]
        assert report["schema"] == "loopalg/verify-size-of-image/v1"
        if jsonschema is not None:
            jsonschema.validate(report, load_schema("report"))
        # the seed redraws the witness
        rd = build_root_datum(CartanType.parse("A1"))
        p = iwahori(rd)
        xi = hitchin.sample_orth_element(p, orthogonal_lattice(p, 1), random.Random(report["seed"]))
        assert report["witness"] == {str(i): q.to_pairs() for i, q in xi.value.items()}

    def test_containment_failure_goes_to_output(self, monkeypatch, capsys, tmp_path):
        from loopalg import cli, hitchin

        real = hitchin.hitchin_bounds
        monkeypatch.setattr(hitchin, "hitchin_bounds", lambda p, n, degs: real(p, n - 10, degs))
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        argv = ["verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
                "--samples", "3", "--seed", "6"]
        assert cli.main(argv) == 1
        printed = capsys.readouterr().out
        out = tmp_path / "fail.json"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        report = json.loads(printed)
        assert report["status"] == "fail" and report["seed"].startswith("6:") and report["witness"]

    def test_non_principal_failure_goes_to_output(self, monkeypatch, capsys, tmp_path):
        from loopalg import cli

        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        argv = ["verify", "surjectivity", "--type", "C2", "--kac", "0,1,0", "--trials", "2"]
        assert cli.main(argv) == 1
        printed = capsys.readouterr().out
        out = tmp_path / "fail.json"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        report = json.loads(printed)
        assert report["error"] == "SurjectivityFailure"
        assert report["schema"] == "loopalg/verify-surjectivity/v1"
        if jsonschema is not None:
            jsonschema.validate(report, load_schema("report"))

    def test_missing_slope_certificate_goes_to_output(self, monkeypatch, capsys, tmp_path):
        from loopalg import cli
        from loopalg.errors import NoCertificateError

        def no_certificate(op):
            raise NoCertificateError("no gauge exponent worked")

        monkeypatch.setattr(cli, "slope_certificate", no_certificate)
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        out = tmp_path / "fg.json"
        assert cli.main(["fg", "A1", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text())
        assert report["slope_certificate"] == {"status": "fail",
                                               "message": "no gauge exponent worked"}

    def test_internal_error_exits_3(self, monkeypatch, capsys):
        from loopalg import cli

        def broken(args):
            raise RuntimeError("broken subcommand")

        monkeypatch.setattr(cli, "cmd_degrees", broken)
        assert cli.main(["degrees", "A2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "internal error: RuntimeError: broken subcommand\n"

    def test_library_value_error_is_internal(self, monkeypatch, capsys):
        """Input errors are UsageError; a ValueError from a bug is not one."""
        from loopalg import cli

        def broken(*args, **kwargs):
            raise ValueError("bug in the sweep")

        monkeypatch.setattr(cli, "verify_containment", broken)
        code = cli.main(["verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and err == "internal error: ValueError: bug in the sweep\n"

    def test_verify_non_principal_exit_1(self):
        r = run_cli("verify", "surjectivity", "--type", "C2", "--kac", "0,1,0", "--trials", "2")
        assert r.returncode == 1
        assert json.loads(r.stdout)["status"] == "fail"


class TestDeterminism:
    def test_byte_identical_reruns(self):
        args = ("verify", "residue-diagram", "--type", "A2", "--samples", "25", "--seed", "9")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_jobs_do_not_change_bytes(self):
        base = ("verify", "size-of-image", "--type", "A2", "--kac", "1,1,1",
                "--n", "1", "--samples", "30", "--seed", "5")
        a = run_cli(*base)
        b = run_cli(*base, "--jobs", "3")
        assert a.stdout == b.stdout


def usable_cpus(monkeypatch, k):
    """Make the process see k CPUs, through its affinity mask and the CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: k)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs,samples,workers", [(8, 3, 3), (2, 50, 2)])
    def test_workers_capped_at_samples_and_cpus(self, monkeypatch, capsys, jobs, samples, workers):
        import multiprocessing

        from loopalg import cli

        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, f, xs):
                return [f(x) for x in xs]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        usable_cpus(monkeypatch, 4)
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        argv = ["verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
                "--samples", str(samples)]
        assert cli.main(argv) == 0
        serial = capsys.readouterr().out
        assert started == []
        assert cli.main(argv + ["--jobs", str(jobs)]) == 0
        assert started == [workers]
        assert capsys.readouterr().out == serial

    def test_one_usable_cpu_starts_no_pool(self, monkeypatch, capsys):
        """Workers are capped by the affinity mask, not by the machine's CPU count."""
        import multiprocessing

        from loopalg import cli

        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        argv = ["verify", "size-of-image", "--type", "G2", "--kac", "1,1,1", "--n", "2",
                "--samples", "20", "--seed", "3"]
        outs = []
        for jobs in ("1", "2"):
            assert cli.main(argv + ["--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]

    def test_failing_run_bytes_match_across_jobs(self, monkeypatch, capsys):
        import multiprocessing

        from loopalg import cli, hitchin

        real = hitchin.hitchin_bounds
        monkeypatch.setattr(hitchin, "hitchin_bounds", lambda p, n, degs: real(p, n - 10, degs))
        # fork start, so the patched bounds reach the workers
        fork = multiprocessing.get_context("fork")
        started = []

        def pool(processes):
            started.append(processes)
            return fork.Pool(processes)

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        usable_cpus(monkeypatch, 2)
        monkeypatch.delenv("LOOPALG_GOLDEN_DIR", raising=False)
        argv = ["verify", "size-of-image", "--type", "A1", "--kac", "1,1", "--n", "1",
                "--samples", "6"]
        runs = []
        for jobs in ("1", "2"):
            code = cli.main(argv + ["--jobs", jobs])
            runs.append((code, capsys.readouterr().out))
        assert started == [2]
        (code1, out1), (code2, out2) = runs
        assert code1 == code2 == 1 and out1 == out2
        serial, parallel = json.loads(out1), json.loads(out2)
        assert serial["status"] == "fail" and serial["witness"]
        assert serial["seed"] == parallel["seed"] and serial["witness"] == parallel["witness"]

    def test_cli_import_does_not_load_multiprocessing(self):
        code = "import sys, loopalg.cli; assert 'multiprocessing' not in sys.modules"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


class TestGoldenMode:
    def test_bootstrap_then_match_then_mismatch(self, tmp_path):
        env = {"LOOPALG_GOLDEN_DIR": str(tmp_path)}
        args = ("degrees", "A2")
        r1 = run_cli(*args, env_extra=env)
        assert r1.returncode == 0 and "golden created" in r1.stderr
        r2 = run_cli(*args, env_extra=env)
        assert r2.returncode == 0 and r2.stderr == ""
        golden = tmp_path / "degrees_A2.json"
        golden.write_text(golden.read_text().replace('"A2"', '"XX"'))
        r3 = run_cli(*args, env_extra=env)
        assert r3.returncode == 1 and "golden mismatch" in r3.stderr

    @pytest.mark.parametrize(
        "first,second",
        [
            (("degrees", "A2"), ("degrees", "A2", "--full")),
            (("degrees", "A2"), ("degrees", "A2", "--format", "table")),
            (("fg", "A1", "1"), ("fg", "A1", "1", "--ode")),
            (("kac", "C2", "--kac", "1,0,1", "--n", "2"),
             ("kac", "C2", "--kac", "1,0,1", "--n", "1")),
        ],
        ids=["full", "format-table", "fg-ode", "kac-n"],
    )
    def test_options_that_change_the_bytes_get_their_own_file(self, tmp_path, first, second):
        env = {"LOOPALG_GOLDEN_DIR": str(tmp_path)}
        for args in (first, second):
            r = run_cli(*args, env_extra=env)
            assert r.returncode == 0 and "golden created" in r.stderr, (args, r.stderr)
        assert len(list(tmp_path.iterdir())) == 2

    def test_jobs_share_one_golden_file(self, tmp_path):
        env = {"LOOPALG_GOLDEN_DIR": str(tmp_path)}
        args = ("verify", "size-of-image", "--type", "G2", "--kac", "1,1,1", "--n", "2",
                "--samples", "20", "--seed", "3")
        r1 = run_cli(*args, "--jobs", "1", env_extra=env)
        assert r1.returncode == 0 and "golden created" in r1.stderr
        r2 = run_cli(*args, "--jobs", "2", env_extra=env)
        assert r2.returncode == 0 and r2.stderr == ""
        names = [f.name for f in tmp_path.iterdir()]
        assert names == ["verify_size-of-image_G2_kac=1,1,1_n=2_samples=20_seed=3.json"]

    def test_fail_report_bootstraps_matches_and_mismatches(self, tmp_path):
        env = {"LOOPALG_GOLDEN_DIR": str(tmp_path)}
        args = ("verify", "surjectivity", "--type", "C2", "--kac", "0,1,0", "--trials", "2")
        r1 = run_cli(*args, env_extra=env)
        assert r1.returncode == 1 and "golden created" in r1.stderr
        assert "golden mismatch" not in r1.stderr
        golden = tmp_path / "verify_surjectivity_C2_kac=0,1,0_trials=2.json"
        assert golden.read_text() == r1.stdout
        r2 = run_cli(*args, env_extra=env)
        assert r2.returncode == 1 and r2.stderr == "" and r2.stdout == r1.stdout
        golden.write_text(golden.read_text().replace('"C2"', '"XX"'))
        r3 = run_cli(*args, env_extra=env)
        assert r3.returncode == 1 and "golden mismatch" in r3.stderr

    @pytest.mark.parametrize("under", [False, True], ids=["dir-is-file", "dir-under-file"])
    def test_unusable_golden_dir_exits_2(self, tmp_path, under):
        blocker = tmp_path / "golden"
        blocker.write_text("")
        golden_dir = blocker / "sub" if under else blocker
        r = run_cli("degrees", "A2", env_extra={"LOOPALG_GOLDEN_DIR": str(golden_dir)})
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith(f"usage error: cannot use LOOPALG_GOLDEN_DIR {golden_dir}: ")
        assert r.stderr.count("\n") == 1

    def test_golden_name_rule(self):
        from loopalg import cli

        def name(*argv):
            return cli._golden_name(cli.build_parser().parse_args(argv))

        assert name("degrees", "A2") == "degrees_A2.json"
        assert name("degrees", "A2", "--seed", "0", "--jobs", "3", "--output", "x") == (
            "degrees_A2.json")
        assert name("fg", "C2", "2/3", "--ode") == "fg_C2_2over3_ode.json"
        assert name("fg", "A1", "-2") == "fg_A1_-2.json"
        assert name("fg", "A1", "0") == "fg_A1_0.json"
        assert (name("verify", "residue-diagram", "--type", "A2", "--seed", "9", "--samples", "25")
                == "verify_residue-diagram_A2_samples=25_seed=9.json")

    def test_repository_golden_files(self):
        with open(os.path.join(GOLDEN_DIR, "manifest.json")) as fh:
            manifest = json.load(fh)
        for fname, args in sorted(manifest.items()):
            r = run_cli(*args)
            assert r.returncode == 0, (fname, r.stderr)
            with open(os.path.join(GOLDEN_DIR, fname)) as fh:
                assert r.stdout == fh.read(), f"golden drift in {fname}"


@pytest.mark.skipif(jsonschema is None, reason="jsonschema unavailable")
class TestSchemas:
    def test_degrees_schema(self):
        d = json.loads(run_cli("degrees", "C2").stdout)
        jsonschema.validate(d, load_schema("degrees"))

    def test_parahoric_schema(self):
        d = json.loads(run_cli("kac", "A2", "--kac", "1,0,0").stdout)
        jsonschema.validate(d, load_schema("parahoric"))
        assert d["m"] == 1 and d["hyperspecial"]

    def test_grading_schema(self):
        d = json.loads(run_cli("grading", "A2", "--kac", "1,1,1").stdout)
        jsonschema.validate(d, load_schema("grading"))
        assert d["principal"] is True

    def test_hitchin_image_schema(self):
        d = json.loads(run_cli("hitchin-image", "G2", "--kac", "1,1,1", "--n", "2").stdout)
        jsonschema.validate(d, load_schema("hitchin-image"))
        assert d["bounds"] == [2, 7]

    def test_report_schema(self):
        d = json.loads(
            run_cli(
                "verify", "size-of-image", "--type", "A1", "--kac", "1,0",
                "--n", "0", "--samples", "10", "--seed", "1",
            ).stdout
        )
        jsonschema.validate(d, load_schema("report"))

    def test_fg_schema(self):
        d = json.loads(run_cli("fg", "A1", "1", "--ode").stdout)
        jsonschema.validate(d, load_schema("fg"))
        assert d["slope_certificate"]["pullback_degree"] == 2
        d0 = json.loads(run_cli("fg", "A1", "0").stdout)
        jsonschema.validate(d0, load_schema("fg"))
        assert d0["tame"] and d0["slope_certificate"] is None

    def test_fg_rational_argument(self):
        d = json.loads(run_cli("fg", "G2", "2/3").stdout)
        jsonschema.validate(d, load_schema("fg"))
        assert d["a"] == "2/3" and d["dual_type"] == "G2"

    def test_oper_space_schema(self):
        d = json.loads(run_cli("oper-space", "A3").stdout)
        jsonschema.validate(d, load_schema("oper-space"))
        assert d["dimension"] == 1

    def test_hitchin_base_schema(self):
        d = json.loads(run_cli("hitchin-base", "A4").stdout)
        jsonschema.validate(d, load_schema("hitchin-base"))
        assert d["dimension"] == 1


class TestTableFormat:
    def test_degrees_table(self):
        r = run_cli("degrees", "A1", "--format", "table")
        assert r.returncode == 0
        assert "coxeter_number: 2" in r.stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("degrees", "A1", "--output", str(out))
        assert r.returncode == 0 and r.stdout == ""
        assert json.loads(out.read_text())["degrees"] == [2]
