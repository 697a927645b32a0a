"""Command-line surface: frozen text formats, schemas, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pentagon
import pentagon.cli
from pentagon.cli import main
from pentagon.pentagonal import g_minus, g_plus
from pentagon.series import partial_product, series_from_json
from pentagon.verify import CheckResult

PAPER_LINE = ("1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + x^22 + x^26"
              " - x^35 - x^40 + x^51")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_expand_text(capsys):
    code, out = run_cli(capsys, "expand", "--order", "12")
    assert code == 0
    assert out == "1 - x - x^2 + x^5 + x^7 - x^12\n"


def test_expand_order_51_is_byte_exact(capsys):
    code, out = run_cli(capsys, "expand", "--order", "51")
    assert code == 0
    assert out == PAPER_LINE + "\n"


def test_expand_json_roundtrips(capsys):
    code, out = run_cli(capsys, "expand", "--order", "26", "--json")
    assert code == 0
    parsed = series_from_json(json.loads(out))
    assert parsed.coeffs == partial_product(26, 26).coeffs


def test_expand_csv_rows(capsys):
    code, out = run_cli(capsys, "expand", "--order", "7", "--csv")
    assert code == 0
    assert out == "0,1\n1,-1\n2,-1\n5,1\n7,1\n"


def test_expand_order_zero(capsys):
    code, out = run_cli(capsys, "expand", "--order", "0")
    assert code == 0
    assert out == "1\n"


def test_pentagonals_text(capsys):
    code, out = run_cli(capsys, "pentagonals", "--upto", "15")
    assert code == 0
    assert out == "1 1 2 -1\n2 5 7 1\n3 12 15 -1\n"


def test_pentagonals_csv_and_json(capsys):
    code, out = run_cli(capsys, "pentagonals", "--upto", "7", "--csv")
    assert code == 0
    assert out == "1,1,2,-1\n2,5,7,1\n"
    code, out = run_cli(capsys, "pentagonals", "--upto", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upto"] == 7
    assert payload["pairs"][1] == {"n": 2, "g_minus": 5, "g_plus": 7, "sign": 1}


def test_telescope_variant1_text(capsys):
    code, out = run_cli(capsys, "telescope", "--variant", "1", "--order", "12")
    assert code == 0
    assert out == (
        "s = 1 - x - A\n"
        "A = x^2 - x^5 - B\n"
        "B = x^7 - x^12 - C\n"
        "series: 1 - x - x^2 + x^5 + x^7 - x^12\n"
        "verified: true\n"
    )


def test_telescope_variant2_stages_text(capsys):
    code, out = run_cli(capsys, "telescope", "--variant", "2", "--stages", "3")
    assert code == 0
    assert out == (
        "s = 1 - x - x^2 + A\n"
        "A = x^5 + x^7 - B\n"
        "B = x^12 + x^15 - C\n"
        "C = x^22 + x^26 - D\n"
        "verified: true\n"
    )


def test_telescope_default_is_five_stages(capsys):
    code, out = run_cli(capsys, "telescope", "--variant", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert lines[-2] == "E = x^40 - x^51 - F"


def test_telescope_json_schema(capsys):
    code, out = run_cli(capsys, "telescope", "--variant", "2", "--order", "26",
                        "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == 2
    assert payload["verified"] is True
    assert payload["prefix"] == [[0, 1], [1, -1], [2, -1]]
    assert payload["emissions"][0] == {"stage": 2, "exps": [5, 7], "signs": [1, 1]}
    assert payload["residual"]["leading_exponent"] == 35
    series = series_from_json(payload["series"])
    assert series[26] == 1


def test_telescope_stages_json(capsys):
    code, out = run_cli(capsys, "telescope", "--variant", "1", "--stages", "2",
                        "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] is None
    assert payload["stages"] == 2
    assert [e["exps"] for e in payload["emissions"]] == [[2, 5], [7, 12]]
    assert "series" not in payload


@pytest.mark.parametrize("mode", (["--order", "60"], ["--stages", "3"],
                                  ["--stages", "3", "--order", "60"], ["--json"]))
def test_telescope_failed_step_exits_1(capsys, broken_reduce_step, mode):
    for variant in ("1", "2"):
        code = main(["telescope", "--variant", variant, *mode])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: variant ")


def test_telescope_stages_order_below_floor_exits_2(capsys):
    code = main(["telescope", "--variant", "1", "--stages", "8", "--order", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "stage 8 needs order >= 126" in captured.err


@pytest.mark.parametrize("variant, stage, needed", (
    (1, sys.maxsize, g_plus(sys.maxsize + 1)),
    (2, sys.maxsize + 1, g_minus(sys.maxsize + 2)),
), ids=("variant-1", "variant-2"))
def test_telescope_huge_stages_below_floor_exit_2_at_once(capsys, variant,
                                                          stage, needed):
    # the check used to walk every stage first: 8.4 s for a million
    # stages, and no end at all for this many
    code = main(["telescope", "--variant", str(variant),
                 "--stages", str(sys.maxsize), "--order", "2500"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"pentagon telescope: error: stage {stage} needs order >= {needed} "
        "(its next tail's leading exponent), got 2500\n")


def test_verify_refuses_a_root_sweep_above_500(capsys):
    # the root sweep grows as D^3 (31 s at 1000); 501 used to run it
    code = main(["verify", "--order", "2", "--roots-max-d", "501"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("pentagon verify: error: roots_max_d must be "
                            "<= 500, got 501\n")


def test_partitions_text_and_csv(capsys):
    code, out = run_cli(capsys, "partitions", "--upto", "5")
    assert code == 0
    assert out == "0 1\n1 1\n2 2\n3 3\n4 5\n5 7\n"
    code, out = run_cli(capsys, "partitions", "--upto", "5", "--csv")
    assert code == 0
    assert out.endswith("5,7\n")
    assert out == "0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n"


@pytest.mark.parametrize("fmt, digest", (
    ((), "06705b4a96c05954e6ff81989d36c325ab34b34cc40bc931853f3bb226632f33"),
    (("--json",), "3fd4100e5f17fe9b9264712373e25cdfb789f58e993b411ec9ebc59c7b241453"),
    (("--csv",), "5ff1ede8cb22fd3ed2007bdd7e9e1ce76347fb057f770a0e83063eec75109d10"),
))
def test_partitions_upto_10000_bytes_are_pinned(capsys, fmt, digest):
    code, out = run_cli(capsys, "partitions", "--upto", "10000", *fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", (
    ((), "94494144ec8f7f98369c5789c7482ca7300f9d35059c1f9c04ca85b59b11a4e3"),
    (("--json",), "efa99a54d3af1b20b95951b2f5b249391bc2407cba7adee74c1d0a7aa745917b"),
    (("--csv",), "aa119556f7a044e2d60c865c8b2c114acf679c0010e6b6a96be67f2b1afd6b7f"),
))
def test_expand_order_2000_bytes_are_pinned(capsys, fmt, digest):
    code, out = run_cli(capsys, "expand", "--order", "2000", *fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", (
    ((), "51ab5c6d7c2ce446430e07f391a2b045cc90f50dc4503d9303501aedacf3dfb3"),
    (("--json",), "73619a3f1d0f8c52206e81507f728eb504884f6fd38a85c71504966d6fc98709"),
))
def test_expand_order_6000_bytes_are_pinned(capsys, fmt, digest):
    # the largest order the benchmark expands; the full product crosses
    # 47 blocks of its log-derivative sums
    code, out = run_cli(capsys, "expand", "--order", "6000", *fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", (
    ((), "203b1191a87dc59978b90d44f6012c740db740412382d5b031181a2c6d2b9842"),
    (("--json",), "49e138f5addffb477017f4bfbbc6b2c2de78c19526096d07a3520529885b3980"),
))
def test_verify_order_2500_bytes_are_pinned(capsys, fmt, digest):
    code, out = run_cli(capsys, "verify", "--order", "2500", "--roots-max-d", "40",
                        *fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_partitions_json_uses_decimal_strings(capsys):
    code, out = run_cli(capsys, "partitions", "--upto", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["upto"] == 10
    assert payload["values"][-1] == "42"
    assert all(isinstance(v, str) for v in payload["values"])


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--order", "60", "--roots-max-d", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "all 3 checks passed"


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--order", "40", "--roots-max-d", "4",
                        "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [c["passed"] for c in payload["checks"]] == [True, True, True]


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert main(["expand", "--order", "40", "--out", str(first)]) == 0
    assert main(["expand", "--order", "40", "--out", str(second)]) == 0
    code, out = run_cli(capsys, "expand", "--order", "40")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text() == out


def test_out_file_is_kept_when_the_command_fails(tmp_path, request):
    # --out used to truncate the file before the command ran
    keep = tmp_path / "keep.txt"
    keep.write_text("earlier output\n")
    argv = ["telescope", "--variant", "1", "--out", str(keep)]
    assert main([*argv, "--stages", "8", "--order", "12"]) == 2
    assert keep.read_text() == "earlier output\n"
    request.getfixturevalue("broken_reduce_step")
    assert main([*argv, "--order", "60"]) == 1
    assert keep.read_text() == "earlier output\n"


def test_out_file_holds_a_failing_verify_report(tmp_path, monkeypatch):
    failing = [CheckResult("closed form equals product", False, "x^7: 0 != 1")]
    monkeypatch.setattr(pentagon.cli, "full_verification", lambda *args: failing)
    report = tmp_path / "report.txt"
    assert main(["verify", "--order", "7", "--out", str(report)]) == 1
    assert report.read_text() == (
        "FAIL closed form equals product (x^7: 0 != 1)\n1 of 1 checks failed\n")


def test_conflicting_formats_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["partitions", "--upto", "5", "--json", "--csv"])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["expand", "--order", "5", "--frobnicate"])
    assert excinfo.value.code == 2


def test_negative_bound_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["partitions", "--upto", "-1"])
    assert excinfo.value.code == 2


def test_telescope_order_one_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["telescope", "--variant", "1", "--order", "1"])
    assert excinfo.value.code == 2
    assert "argument --order: must be >= 2, got 1" in capsys.readouterr().err


def test_verify_order_one_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--order", "1"])
    assert excinfo.value.code == 2
    assert "argument --order: must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", (
    # expand and verify used to overflow with a traceback; telescope and
    # partitions never returned, telescope growing its memory as it went
    (["expand", "--order"], "--order"),
    (["verify", "--order"], "--order"),
    (["telescope", "--variant", "1", "--order"], "--order"),
    (["partitions", "--upto"], "--upto"),
), ids=("expand", "verify", "telescope", "partitions"))
def test_bounds_above_the_index_range_exit_2(capsys, argv, name):
    too_big = sys.maxsize + 1
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [str(too_big)])
    assert excinfo.value.code == 2
    assert (f"argument {name}: must be <= {sys.maxsize}, got {too_big}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", (
    # expand and verify used to end in a MemoryError traceback, and
    # telescope and partitions ran for minutes before allocating
    ["expand", "--order"],
    ["verify", "--order"],
    ["telescope", "--variant", "1", "--order"],
    ["telescope", "--variant", "2", "--stages", "3", "--order"],
    ["partitions", "--upto"],
), ids=("expand", "verify", "telescope", "telescope-stages", "partitions"))
def test_an_order_no_list_can_hold_exits_2(capsys, argv):
    # CPython refuses this list size before it allocates anything
    code = main(argv + [str(sys.maxsize)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"pentagon {argv[0]}: error: order: {sys.maxsize} "
                            "is too large to hold\n")


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--upto", "500"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unwritable_out_path_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["expand", "--order", "5", "--out", "/nonexistent/dir/x.txt"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write /nonexistent/dir/x.txt" in err


def _declared_script(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        import tomli as tomllib
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def _env_for_imported_package():
    """An environment whose children import the ``pentagon`` this process imported."""
    env = dict(os.environ)
    package_root = str(Path(pentagon.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_entry_point():
    env = _env_for_imported_package()
    result = subprocess.run(
        [sys.executable, "-m", "pentagon.cli"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 2

    # The stub pip writes for a console script, run on the declared target.
    module, _, attr = _declared_script("pentagon").partition(":")
    stub = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'pentagon'; sys.exit({attr}())")
    result = subprocess.run(
        [sys.executable, "-c", stub, "expand", "--order", "12"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 - x - x^2 + x^5 + x^7 - x^12\n"


def test_a_closed_stdout_pipe_exits_141_quietly():
    # used to end in a BrokenPipeError traceback and exit 1, the code of a
    # failed verification; the table is far longer than a pipe holds
    with subprocess.Popen(
            [sys.executable, "-m", "pentagon.cli", "partitions", "--upto", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env_for_imported_package()) as process:
        first = process.stdout.readline()
        process.stdout.close()
        err = process.stderr.read()
    assert first == b"0 1\n"
    assert process.returncode == 141
    assert err == b""


def test_one_process_reuses_its_parser_and_writes_what_fresh_ones_do(
        capsys, monkeypatch):
    # a flag or default left over from one parse would show in the next
    sequence = (
        ["partitions", "--upto", "5", "--csv"],
        ["partitions", "--upto", "5"],
        ["telescope", "--variant", "3"],
        ["telescope", "--variant", "2", "--stages", "3"],
        ["telescope", "--variant", "1", "--order", "12", "--json"],
    )
    main(["expand", "--order", "3"])
    capsys.readouterr()
    monkeypatch.setattr(pentagon.cli, "build_parser",
                        lambda: pytest.fail("main built a second parser"))
    codes = []
    for argv in sequence:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "pentagon.cli", *argv],
            capture_output=True, text=True, env=_env_for_imported_package())
        assert (codes[-1], captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [0, 0, 2, 0, 0]


@pytest.mark.skipif(shutil.which("pentagon") is None and not os.environ.get("CI"),
                    reason="the pentagon script is not installed on PATH")
def test_installed_console_script():
    result = subprocess.run(
        ["pentagon", "expand", "--order", "12"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "1 - x - x^2 + x^5 + x^7 - x^12\n"
