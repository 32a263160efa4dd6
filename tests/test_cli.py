import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lcforge
from lcforge import cli
from lcforge.census import SequenceClass, closed_form, render_json
from lcforge.cli import main
from lcforge.core import PeriodicSequence, lc_by_minimal_polynomial
from lcforge.counting import n2_lcless


def _decimal_to_int(digits: str) -> int:
    """Parse a decimal string of any length, chunk by chunk."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _child_env():
    """The environment of a child interpreter that imports this lcforge."""
    src = str(Path(lcforge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# stdout and exit code of every subcommand in every format, pinned so that
# a refactor of the formulas or renderers keeps them byte for byte; edit a
# case only with a deliberate change of output
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _mask_elapsed(text: str) -> str:
    return "".join(
        "elapsed: <masked>\n" if line.startswith("elapsed:") else line
        for line in text.splitlines(keepends=True)
    )


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN]
)
def test_golden_bytes(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, _mask_elapsed(out)) == (case["code"], case["stdout"])


class TestLc:
    def test_bits_table(self, capsys):
        code, out, _ = run_cli(capsys, "lc", "--n", "2", "--bits", "1000")
        assert code == 0
        assert out.splitlines() == ["n = 2", "L = 4", "weight = 1", "class = FullLC"]

    def test_hex_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "lc", "--n", "4", "--hex", "8000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"L": 16, "class": "FullLC", "n": 4, "weight": 1}

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("1110 0000\n0000 0000\n")
        code, out, _ = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert code == 0
        assert "L = 16" in out
        # bytes that are not UTF-8 are an input error, not a traceback
        path.write_bytes(b"\xff" * 16)
        code, _, err = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert code == 2
        assert err == "error: character '\ufffd' at index 0 is not 0/1\n"
        assert "weight = 3" in out

    def test_even_weight_is_less_class(self, capsys):
        code, out, _ = run_cli(capsys, "lc", "--n", "2", "--bits", "1100")
        assert code == 0
        assert "class = LessLC" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "lc", "--n", "2", "--bits", "1000", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["n,L,weight,class", "2,4,1,FullLC"]


class TestInputErrors:
    def test_bad_digit(self, capsys):
        code, _, err = run_cli(capsys, "lc", "--n", "2", "--bits", "1020")
        assert code == 2
        assert err.startswith("error:")

    def test_wrong_length(self, capsys):
        code, _, err = run_cli(capsys, "lc", "--n", "2", "--bits", "101")
        assert code == 2
        assert "4" in err  # names the expected period

    def test_bad_hex(self, capsys):
        code, _, err = run_cli(capsys, "lc", "--n", "2", "--hex", "zz")
        assert code == 2
        assert err.startswith("error:")

    def test_file_size_is_bounded(self, capsys, tmp_path):
        # a sparse 1 MiB file: only 4 * 2^n bytes are ever read
        path = tmp_path / "big.txt"
        with path.open("wb") as handle:
            handle.truncate(1 << 20)
        code, out, err = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: --file is longer than 64 bytes, the limit at n = 4\n"
        # whitespace within the limit is still ignored: here 4 bytes a bit
        path.write_bytes(b"1 \r\n" + b"0 \r\n" * 15)
        code, out, _ = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert code == 0
        assert "L = 16" in out
        # bytes that are not UTF-8 are an input error, not a traceback
        path.write_bytes(b"\xff" * 16)
        code, _, err = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert code == 2
        assert err == "error: character '\ufffd' at index 0 is not 0/1\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "lc", "--n", "2", "--file", str(tmp_path / "no"))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["-1", "100000"])
    @pytest.mark.parametrize("source", ["--bits", "--hex", "--file"])
    def test_n_out_of_range(self, capsys, tmp_path, source, n):
        text = "0110"
        if source == "--file":
            path = tmp_path / "bits.txt"
            path.write_text(text)
            text = str(path)
        for command in (["lc"], ["kerr", "--k", "1"], ["profile", "--kmax", "1"]):
            code, out, err = run_cli(capsys, *command, "--n", n, source, text)
            assert code == 2
            assert out == ""
            assert err == f"error: exponent must be in [0, 20], got {n}\n"

    def test_bad_class_choice_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["census", "--n", "3", "--k", "2", "--class", "bogus"])
        assert info.value.code == 2


class TestKerr:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "kerr", "--n", "4", "--bits", "1110000000000000",
            "--k", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "k", "L", "Lk", "witness"}
        assert payload["n"] == 4
        assert payload["k"] == 1
        assert payload["L"] == 16
        assert payload["Lk"] == 13
        assert payload["witness"] == [3]

    def test_table_shows_witness_positions(self, capsys):
        code, out, _ = run_cli(
            capsys, "kerr", "--n", "2", "--bits", "1100", "--k", "2"
        )
        assert code == 0
        assert "Lk = 0" in out
        assert "witness = [0, 1]" in out

    def test_four_errors_at_period_1024_succeed(self, capsys):
        # once refused as over budget: the pair itself is the only
        # lightest pattern that reaches complexity 0
        bits = "11" + "0" * 1022
        code, out, _ = run_cli(
            capsys, "kerr", "--n", "10", "--bits", bits, "--k", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["L"], payload["Lk"], payload["witness"]) == (1023, 0, [0, 1])

    def test_three_errors_at_odd_period_1024_succeed(self, capsys):
        rng = random.Random(1024)
        value = rng.getrandbits(1024) | 1 << 1023
        if value.bit_count() % 2 == 0:
            value ^= 1
        bits = format(value, "01024b")[::-1]
        code, out, _ = run_cli(
            capsys, "kerr", "--n", "10", "--bits", bits, "--k", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        witness = PeriodicSequence.from_support(10, payload["witness"])
        assert 1 <= len(payload["witness"]) <= 3
        s = PeriodicSequence(10, value)
        assert lc_by_minimal_polynomial(s ^ witness) == payload["Lk"] < 1024

    def test_bad_k(self, capsys):
        code, _, err = run_cli(capsys, "kerr", "--n", "2", "--bits", "1100", "--k", "-1")
        assert code == 2
        assert err.startswith("error:")


class TestProfile:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "2", "--bits", "1000",
            "--kmax", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["k,Lk", "0,4", "1,0", "2,0"]

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "3", "--bits", "11100000",
            "--kmax", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["kmax"] == 3
        assert payload["rows"] == [
            {"k": 0, "Lk": 8},
            {"k": 1, "Lk": 5},
            {"k": 2, "Lk": 5},
            {"k": 3, "Lk": 0},
        ]

    def test_table_is_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "4", "--bits", "1" * 16, "--kmax", "4"
        )
        assert code == 0
        values = [int(line.split()[1]) for line in out.splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("kmax", ["-1", "5"])
    def test_kmax_outside_the_period_is_an_error(self, capsys, kmax):
        code, out, err = run_cli(
            capsys, "profile", "--n", "2", "--bits", "1000", "--kmax", kmax
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "k_max" in err


class TestCount:
    def test_table_prints_the_bare_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "4", "--k", "3", "--class", "all", "--L", "5"
        )
        assert code == 0
        assert out == "8400\n"

    def test_json_labels_the_query(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "4", "--k", "2", "--class", "less",
            "--L", "10", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 4, "L": 10, "k": 2, "class": "less", "count": 8704,
        }

    def test_large_period_prints_full_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "8", "--k", "2", "--class", "less", "--L", "200"
        )
        assert code == 0
        assert out.strip() == str(n2_lcless(8, 200))
        assert out.strip().isdigit()

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_counts_beyond_the_int_to_str_digit_limit(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "count", "--n", "14", "--k", "3", "--class", "all",
            "--L", "16000", "--format", fmt,
        )
        assert code == 0
        expected = closed_form(3, SequenceClass.ALL)(14, 16000)
        # the count is compared in hex: decimal conversion of a number this
        # long is what the command itself must get right
        if fmt == "json":
            digits = out.split('"count": ')[1].split()[0].rstrip(",")
        else:
            digits = out.splitlines()[-1].split(",")[-1]
        assert len(digits) > 4300
        assert _decimal_to_int(digits) == expected

    def test_no_formula_for_the_combo(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--n", "4", "--k", "1", "--class", "less", "--L", "5"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_L_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--n", "4", "--k", "3", "--class", "all", "--L", "17"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["-1", "21"])
    def test_n_out_of_range(self, capsys, n):
        code, out, err = run_cli(
            capsys, "count", "--n", n, "--k", "2", "--class", "all", "--L", "3"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --n must be in [0, 20], got {n}\n"

    def test_largest_period_evaluates_one_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "20", "--k", "2", "--class", "all", "--L", "3"
        )
        assert code == 0
        assert out == f"{closed_form(2, SequenceClass.ALL)(20, 3)}\n"


class TestCensus:
    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--n", "2", "--k", "0", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "L,census,formula,verdict"
        assert lines[1] == "0,1,,"

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--n", "3", "--k", "2", "--format", "json"
        )
        assert code == 0
        assert render_json(json.loads(out)) + "\n" == out

    def test_table_totals(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--k", "1")
        assert code == 0
        assert "total: census 256" in out
        assert "elapsed:" in out

    def test_sampled_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--n", "5", "--k", "2", "--mode", "sampled",
            "--samples", "64", "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == {"kind": "sampled", "count": 64, "seed": 3}
        assert sum(row["census"] for row in payload["rows"]) == 64
        assert all("interval" in row for row in payload["rows"])

    def test_exhaustive_too_large(self, capsys):
        # one ceiling serves both modes
        code, out, _ = run_cli(
            capsys, "census", "--n", "5", "--k", "4", "--format", "csv"
        )
        assert code == 0
        counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert sum(counts) == 1 << 32
        for mode in ("exhaustive", "sampled"):
            code, out, err = run_cli(
                capsys, "census", "--n", "6", "--k", "0", "--mode", mode
            )
            assert (code, out) == (2, "")
            assert err == "error: census supports n <= 5, got 6\n"

    def test_jobs_flag_and_env(self, capsys, monkeypatch):
        code, solo, _ = run_cli(
            capsys, "census", "--n", "3", "--k", "2", "--jobs", "1",
            "--format", "csv",
        )
        assert code == 0
        code, duo, _ = run_cli(
            capsys, "census", "--n", "3", "--k", "2", "--jobs", "2",
            "--format", "csv",
        )
        assert code == 0
        assert solo == duo
        # every census runs in-process: --jobs is only checked, and nothing
        # is read from the environment
        monkeypatch.setenv("LCFORGE_JOBS", "banana")
        code, default, _ = run_cli(
            capsys, "census", "--n", "3", "--k", "2", "--format", "csv"
        )
        assert code == 0
        assert default == solo

    def test_bad_jobs_values(self, capsys):
        for jobs in ("0", "-3"):
            code, _, err = run_cli(
                capsys, "census", "--n", "2", "--k", "0", "--jobs", jobs
            )
            assert code == 2
            assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_k_bound_names_the_range(self, capsys):
        for n, k, message in (
            ("1", "3", "census supports k in [0, 2] at n = 1, got 3"),
            ("3", "-1", "census supports k in [0, 4] at n = 3, got -1"),
        ):
            code, out, err = run_cli(capsys, "census", "--n", n, "--k", k)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_large_sampled_census_starts_no_worker(self):
        # a fresh interpreter, so no other test has imported the modules
        script = (
            "import sys\n"
            "from lcforge import cli\n"
            "code = cli.main(['census', '--n', '5', '--k', '2', '--mode', 'sampled',"
            " '--samples', '131072', '--jobs', '2', '--format', 'csv'])\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        counts = [int(line.split(",")[1]) for line in proc.stdout.splitlines()[1:]]
        assert sum(counts) == 131072
        assert proc.stderr == "False\n"


class TestVerify:
    def test_match_exits_zero_with_golden_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--k", "2", "--class", "less",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "L,census,formula,verdict",
            "0,29,29,Match",
            "1,29,29,Match",
            "2,34,34,Match",
            "3,20,20,Match",
            "4,0,0,Match",
            "5,16,16,Match",
            "6,0,0,Match",
            "7,0,0,Match",
            "8,0,0,Match",
        ]

    def test_table_reports_totals(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "3")
        assert code == 0
        assert "total: census 256, formula 256" in out

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        import lcforge.census as census_mod

        real = census_mod.formula_counts

        def skewed(n, k, seq_class):
            counts = real(n, k, seq_class)
            counts[0] += 1
            return counts

        monkeypatch.setattr(census_mod, "formula_counts", skewed)
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--k", "2", "--format", "csv"
        )
        assert code == 1
        assert "Mismatch" in out

    def test_unserved_combo_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "3", "--k", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_out_of_range_n_is_refused_before_any_formula(self, capsys):
        # n = 20 would build 2^20 + 1 closed-form values if n were checked late
        for n in ("-1", "6", "20"):
            code, out, err = run_cli(
                capsys, "verify", "--n", n, "--k", "3", "--class", "full"
            )
            assert (code, out) == (2, "")
            assert err == f"error: census supports n <= 5, got {n}\n"


class TestRefute:
    def test_table_names_the_disagreements(self, capsys):
        code, out, _ = run_cli(capsys, "refute")
        assert code == 0
        assert "fixture disagrees at L = [4, 5, 6, 7, 10, 11]" in out
        assert "total: census 65536, theorem 65536, fixture 158208" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "refute", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "L,census,theorem,fixture,verdict"
        assert lines[5] == "4,2824,2824,5128,FixtureWrong"
        assert len(lines) == 17


class TestExitCodes:
    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "lc", interrupted)
        code, out, err = run_cli(capsys, "lc", "--n", "2", "--bits", "1000")
        assert (code, out, err) == (130, "", "error: interrupted\n")

    def test_closed_stdout_exits_141_quietly(self):
        # more rows than a pipe holds, so writes meet the closed pipe
        argv = ["profile", "--n", "14", "--hex", "0" * 4096, "--kmax", "16384"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "lcforge", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        assert proc.stdout.read(16).startswith(b"   k")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParser:
    ARGVS = (
        ["lc", "--n", "3", "--bits", "11010000"],
        ["kerr", "--n", "3", "--bits", "11010000", "--k", "2", "--format", "json"],
        ["census", "--n", "3", "--k", "2", "--class", "less", "--format", "csv"],
        ["census", "--n", "3", "--k", "2", "--class", "bogus"],
        ["count", "--n", "4", "--k", "3", "--class", "all", "--L", "5"],
        ["lc", "--n", "2", "--hex", "6", "--format", "csv"],
    )

    def test_built_once_and_reused_between_calls(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(_outcome(capsys, argv))
        assert fresh[3][0] == 2 and "invalid choice" in fresh[3][2]
        cli._build_parser.cache_clear()
        reused = [_outcome(capsys, argv) for argv in self.ARGVS]
        assert reused == fresh
        assert cli._build_parser.cache_info().misses == 1


class TestEntryPoint:
    def test_public_names_are_pinned(self):
        assert sorted(lcforge.__all__) == [
            "CensusQuery", "CensusReport", "CensusRow", "Exhaustive",
            "KErrorResult", "LDecomposition", "LKind", "LSubcase",
            "MAX_EXPONENT", "PeriodicSequence", "RefutationReport",
            "RefutationRow", "Sampled", "SequenceClass", "census_distribution",
            "class_size", "decompose_L", "f_term", "formula_counts", "g_term",
            "games_chan_lc", "interval_covers", "k_error_lc", "k_error_profile",
            "k_min_formula", "k_min_search", "kavuluru_table1",
            "lc_by_minimal_polynomial", "lc_pair", "lc_quad", "n1_lcfull",
            "n2_lcless", "n3_lcfull", "parse_binary",
            "parse_hex", "proportion_interval", "refutation_report",
            "rueppel_count", "verify_formulas",
        ]
        for name in lcforge.__all__:
            assert getattr(lcforge, name) is not None, name

    @pytest.mark.parametrize(
        "script",
        [
            # the package as read before anything imported lcforge.kerror
            "import sys\n"
            "import lcforge\n"
            "assert set(lcforge.__all__) <= set(dir(lcforge))\n"
            "try:\n"
            "    lcforge.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert str(exc) == \"module 'lcforge' has no attribute 'no_such_name'\"\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
            "assert 'lcforge.kerror' not in sys.modules and 'numpy' not in sys.modules\n"
            "assert lcforge.kerror is sys.modules['lcforge.kerror']\n"
            "for name in lcforge.__all__:\n"
            "    assert getattr(lcforge, name) is not None, name\n",
            "import lcforge\n"
            "from lcforge import *\n"
            "assert all(name in globals() for name in lcforge.__all__)\n",
        ],
        ids=["attributes", "star-import"],
    )
    def test_package_surface_from_a_cold_start(self, script):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_numpy_loads_only_for_kerr_and_censuses(self):
        # a fresh interpreter, so no other test has imported numpy
        script = (
            "import sys\n"
            "from lcforge import cli\n"
            "for fmt in ('table', 'json'):\n"
            "    assert cli.main(['lc', '--n', '3', '--bits', '01101001',"
            " '--format', fmt]) == 0\n"
            "    assert cli.main(['count', '--n', '12', '--k', '3', '--L', '4000',"
            " '--format', fmt]) == 0\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "codes = [cli.main(['kerr', '--n', '3', '--bits', '01101001', '--k', '1']),"
            " cli.main(['census', '--n', '3', '--k', '2'])]\n"
            "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == "False\n[0, 0] True\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lcforge", "lc", "--n", "2", "--bits", "1000"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "L = 4" in proc.stdout
