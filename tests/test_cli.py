import ast
import hashlib
import inspect
import json
import os
import random
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from enum import IntEnum
from pathlib import Path

import pytest

import lcforge
from lcforge import census as census_mod
from lcforge import cli
from lcforge.census import (
    MAX_CENSUS_EXPONENT,
    MAX_ERRORS,
    CensusQuery,
    SequenceClass,
    census_distribution,
    closed_form,
    refutation_report,
    render,
    verify_formulas,
)
from lcforge.cli import main
from lcforge.core import PeriodicSequence, lc_by_minimal_polynomial
from lcforge.counting import n2_lcless


def _decimal_to_int(digits: str) -> int:
    """Parse a decimal string of any length: each half on its own, then
    one product joins them, which Karatsuba keeps subquadratic."""
    if len(digits) <= 1000:
        return int(digits)
    low = len(digits) // 2
    return _decimal_to_int(digits[:-low]) * 10**low + _decimal_to_int(digits[-low:])


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


def test_every_table_is_byte_pinned(capsys):
    # every census, sampled census and verify table the CLI can print, then
    # the refutation table; an unserved verify pair exits 2 with no stdout
    digest = hashlib.sha256()
    modes = (
        [],
        ["--mode", "sampled", "--samples", "300", "--seed", "7"],
        ["--mode", "sampled", "--samples", "9000", "--seed", "0"],
    )
    for n in range(MAX_CENSUS_EXPONENT + 1):
        for k in range(min(MAX_ERRORS, 1 << n) + 1):
            for seq_class in SequenceClass:
                query = [
                    "--n", str(n), "--k", str(k), "--class", seq_class.value,
                    "--format", "table",
                ]
                argvs = [["census", *query, *mode] for mode in modes]
                for argv in [*argvs, ["verify", *query]]:
                    code, out, _ = run_cli(capsys, *argv)
                    digest.update(f"{code}\n{_mask_elapsed(out)}".encode())
    code, out, _ = run_cli(capsys, "refute", "--format", "table")
    digest.update(f"{code}\n{_mask_elapsed(out)}".encode())
    assert digest.hexdigest() == (
        "ef798714bbe1e09ecd9a3b2918408914c45d9377be032a78abdef8ad08f1d8de"
    )


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """The argv of each `$ lcforge ...` line in the README's text blocks,
    less its comment, and the output lines shown under it, up to the next
    blank line."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", readme, re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ lcforge "):
                shown = []
                examples.append((shlex.split(line, comments=True)[2:], shown))
            elif not line:
                shown = None
            elif shown is not None:
                shown.append(line)
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_shows_every_subcommand():
    shown = {argv[0] for argv, _ in README_EXAMPLES}
    assert shown == {"lc", "kerr", "profile", "count", "census", "verify", "refute"}


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_runs(capsys, argv, shown):
    # stdout matches the shown lines, where `...` stands for any run of
    # lines; elapsed times vary and are not shown
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if shown:
        pattern = "".join(
            r"(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + r"\n"
            for line in shown
        )
        lines = [line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")]
        assert re.fullmatch(pattern, "".join(lines)), out


def test_readme_library_example_runs():
    # the Python block runs line by line, and each expression line shows
    # the repr of its value in a comment
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    namespace, values = {}, []
    for line in filter(None, block.splitlines()):
        code, _, comment = line.partition("#")
        if isinstance(ast.parse(code).body[0], ast.Expr):
            values.append(eval(code, namespace))
            assert repr(values[-1]) == comment.split()[0], line
        else:
            exec(code, namespace)
    assert values == [16, 13, (3,)]


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
        assert "weight = 3" in out
        # bytes that are not UTF-8 are an input error, not a traceback
        path.write_bytes(b"\xff" * 16)
        code, _, err = run_cli(capsys, "lc", "--n", "4", "--file", str(path))
        assert code == 2
        assert err == "error: character '\ufffd' at index 0 is not 0/1\n"

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
        for n, L, length in ((14, 16000, 4824), (20, 1048000, 315488)):
            code, out, _ = run_cli(
                capsys, "count", "--n", str(n), "--k", "3", "--class", "all",
                "--L", str(L), "--format", fmt,
            )
            assert code == 0
            expected = closed_form(3, SequenceClass.ALL)(n, L)
            # the digits are parsed back by the test's own routine: decimal
            # conversion of a number this long is what the command itself
            # must get right
            if fmt == "json":
                digits = out.split('"count": ')[1].split()[0].rstrip(",")
            else:
                digits = out.splitlines()[-1].split(",")[-1]
            assert len(digits) == length
            assert _decimal_to_int(digits) == expected

    def test_no_formula_for_the_combo(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--n", "4", "--k", "1", "--class", "less", "--L", "5"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_L_out_of_range(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--n", "4", "--k", "3", "--class", "all", "--L", "17"
        )
        assert (code, out, err) == (2, "", "error: L must be in [0, 16], got 17\n")

    @pytest.mark.parametrize("n", ["-1", "21"])
    def test_n_out_of_range(self, capsys, n):
        code, out, err = run_cli(
            capsys, "count", "--n", n, "--k", "2", "--class", "all", "--L", "3"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: exponent must be in [0, 20], got {n}\n"

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
        assert render("json", json.loads(out)) + "\n" == out

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


def test_json_and_csv_build_no_table_lines(capsys, monkeypatch):
    # the table lines are built for --format table only
    def table_lines(report):
        raise AssertionError("table lines built for json or csv")

    monkeypatch.setattr(cli, "_census_lines", table_lines)
    monkeypatch.setattr(cli, "_refutation_lines", table_lines)
    cases = [
        (["census", "--n", "3", "--k", "2"],
         census_distribution(CensusQuery(3, 2, SequenceClass.ALL))),
        (["verify", "--n", "3", "--k", "2", "--class", "less"],
         verify_formulas(3, 2, SequenceClass.LESS_LC)),
        (["refute"], refutation_report()),
    ]
    for argv, report in cases:
        for fmt, text in (("json", report.to_json()), ("csv", report.to_csv())):
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert (code, out) == (0, text.removesuffix("\n") + "\n"), (argv, fmt)


class TestJsonWriter:
    """census.render writes indent-2, sorted-key JSON itself;
    json.dumps(value, sort_keys=True, indent=2) is the oracle."""

    @staticmethod
    def oracle(value) -> str:
        return json.dumps(value, sort_keys=True, indent=2)

    def test_every_payload_the_cli_emits(self, capsys, monkeypatch):
        written = []

        def checked(fmt, payload):
            text = render(fmt, payload)
            if "count" in payload:
                # json.dumps writes no Decimal, nor an int past its digit
                # limit: the oracle gets the count as an int, 0, and the
                # digits written in its place must parse to the closed form
                digits = str(payload["count"])
                formula = closed_form(payload["k"], SequenceClass(payload["class"]))
                count = formula(payload["n"], payload["L"])
                assert _decimal_to_int(digits) == count
                zeroed = self.oracle({**payload, "count": 0})
                expected = zeroed.replace('"count": 0', '"count": ' + digits)
            else:
                expected = self.oracle(payload)
            assert text == expected
            written.append((payload, text))
            return text

        monkeypatch.setattr(census_mod, "render", checked)
        sampled = ["--mode", "sampled", "--samples", "500", "--seed", "3"]
        for argv in (
            ["census", "--n", "4", "--k", "2"],
            ["census", "--n", "5", "--k", "3", "--class", "less", *sampled],
            ["verify", "--n", "4", "--k", "3"],
            ["refute"],
            ["lc", "--n", "3", "--bits", "01101001"],
            ["kerr", "--n", "3", "--bits", "00000000", "--k", "1"],
            ["kerr", "--n", "3", "--bits", "11010000", "--k", "2"],
            ["profile", "--n", "3", "--bits", "01101001", "--kmax", "8"],
            ["count", "--n", "14", "--k", "3", "--class", "all", "--L", "16000"],
        ):
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert (code, out) == (0, written[-1][1] + "\n")
        payloads = [payload for payload, _ in written]
        census, sampled, verify, refute, lc, empty, kerr, profile, count = payloads
        assert census["mode"] == {"kind": "exhaustive"}
        assert all(len(row["interval"]) == 2 for row in sampled["rows"])
        assert {row["verdict"] for row in verify["rows"]} == {"Match"}
        assert refute["mismatched_L"] == [4, 5, 6, 7, 10, 11]
        assert lc["class"] == "LessLC"
        assert empty["witness"] == [] and kerr["witness"]
        assert len(profile["rows"]) == 9
        assert len(str(count["count"])) > 4300

    @pytest.mark.parametrize(
        "value",
        [
            None, True, False, 1e-05, 0.5, 0, -7, "", [], {},
            "non-ASCII: L\u2096 \u2264 2\u207f, caf\u00e9, \U0001d53d\u2082",
            {"a": [], "b": {}, "c": [None, True, False, 1e-05, [[], {}]], "\u00e9": ""},
        ],
        ids=repr,
    )
    def test_scalars_empties_and_non_ascii(self, value):
        assert render("json", value) == self.oracle(value)

    @pytest.mark.parametrize(
        "value, type_name",
        [
            ((1, (2, "x")), "tuple"),
            (IntEnum("Side", "LEFT RIGHT").RIGHT, "Side"),
            (float("nan"), "float"),
            (float("-inf"), "float"),
            (type("Name", (str,), {})("x\ny"), "Name"),
            ({2: "b"}, "int"),
            ({True: 1}, "bool"),
            ({None: 0}, "NoneType"),
            ({(1,): 0}, "tuple"),
            (Decimal("NaN"), "Decimal"),
            (Decimal("Infinity"), "Decimal"),
        ],
        ids=["tuple", "int-subclass", "nan", "-inf", "str-subclass",
             "int-key", "bool-key", "None-key", "tuple-key",
             "Decimal-NaN", "Decimal-Infinity"],
    )
    def test_other_types_are_refused(self, value, type_name):
        # json.dumps writes or converts each of these; no payload holds one
        with pytest.raises(TypeError, match=type_name):
            render("json", {"wrapped": [value]})

    @pytest.mark.parametrize("value", [{"x": object()}, {"x": [1, {2, 3}]}, {1: "a", "b": 2}])
    def test_errors_are_json_dumps_errors(self, value):
        with pytest.raises(TypeError) as expected:
            self.oracle(value)
        with pytest.raises(TypeError) as got:
            render("json", value)
        assert str(got.value) == str(expected.value)


class TestExitCodes:
    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        # the first thing lc calls
        monkeypatch.setattr(cli, "_load_sequence", interrupted)
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
    # misuses that argparse itself answers, with the whole parser's usage
    # and error or with a command's own
    MISUSE = (
        [],
        ["-h"],
        ["bogus"],
        ["verify", "-h"],
        ["verify", "--n", "4", "--k", "3", "--bogus"],
        ["kerr", "--n", "4", "--bits", "0101", "--hex", "a"],
        ["census", "--n", "4", "--k", "1", "--class", "x"],
        ["count", "--n", "4"],
    )
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

    def test_misuse_bytes_are_pinned(self, capsys, monkeypatch):
        # exit code, stdout and stderr of each misuse, in argparse's wording
        # as of Python 3.10 and 3.11; help and usage wrap at $COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        digest = hashlib.sha256()
        for argv in self.MISUSE:
            code, out, err = _outcome(capsys, argv)
            digest.update(json.dumps([argv, code, out, err]).encode())
        assert digest.hexdigest() == (
            "b6a6d9384c85c58b5ea241ec2d77a6c319c0c4c93accf5404faf26ad9133d1e4"
        )

    def test_every_help_is_pinned(self, capsys, monkeypatch):
        # exit code, stdout and stderr of -h for the whole parser and for
        # each command, so that no option moves, vanishes or changes text
        monkeypatch.setenv("COLUMNS", "80")
        commands = ("lc", "kerr", "profile", "count", "census", "verify", "refute")
        digest = hashlib.sha256()
        for argv in [["-h"], *([command, "-h"] for command in commands)]:
            code, out, err = _outcome(capsys, argv)
            digest.update(json.dumps([argv, code, out, err]).encode())
        assert digest.hexdigest() == (
            "27823dac6cfa5b8bb23cc0df8e7b32e3e0491f4f8440bb41476c3c0301525e72"
        )

    def test_a_command_parses_as_under_the_whole_parser(self, capsys, monkeypatch):
        # main lets a command's own parser read its words; the whole parser
        # is the oracle, for misuse (same exit, same bytes) and for use
        # (same arguments and handler, less the command name it records)
        monkeypatch.setenv("COLUMNS", "80")
        parser, _ = cli._build_parser()
        for argv in self.MISUSE:
            got = _outcome(capsys, argv)
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert got == (info.value.code, *capsys.readouterr()), argv
        for argv in (argv for argv in self.ARGVS if "bogus" not in argv):
            whole = vars(parser.parse_args(argv))
            assert whole.pop("command") == argv[0]
            assert vars(cli._parse(argv)) == whole


class TestEntryPoint:
    def test_public_names_are_pinned(self):
        assert sorted(lcforge.__all__) == [
            "CensusQuery", "CensusReport", "CensusRow",
            "KErrorResult", "LDecomposition", "LKind",
            "MAX_EXPONENT", "PeriodicSequence", "RefutationReport",
            "RefutationRow", "Sampled", "SequenceClass", "census_distribution",
            "decompose_L", "formula_counts",
            "games_chan_lc", "k_error_lc", "k_error_profile",
            "k_min_formula", "kavuluru_table1",
            "lc_by_minimal_polynomial", "lc_pair", "lc_quad", "n1_lcfull",
            "n2_lcless", "n3_lcfull", "parse_binary",
            "parse_hex", "proportion_interval", "refutation_report",
            "rueppel_count", "verify_formulas",
        ]
        for name in lcforge.__all__:
            assert getattr(lcforge, name) is not None, name

    def test_each_public_name_is_declared_once(self):
        # in the __all__ of the module that defines it; lcforge lists no
        # name itself but republishes the four lists
        modules = (lcforge.core, lcforge.counting, lcforge.census, lcforge.kerror)
        for mod in modules:
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__module__ == mod.__name__, name
                else:
                    assert re.search(rf"^{name} = ", inspect.getsource(mod), re.M), name
                assert getattr(lcforge, name) is obj, name
        declared = [name for mod in modules for name in mod.__all__]
        assert len(set(declared)) == len(declared)
        assert declared == lcforge.__all__
        namespace = {}
        exec("from lcforge import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(lcforge.__all__)

    def test_error_classes_are_pinned(self):
        # one class per failure that a caller tells apart; the message
        # names the check that fired
        classes = {
            name: value
            for name, value in vars(lcforge.errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)
        }
        assert sorted(classes) == ["InvalidParams", "LcforgeError", "NoFormulaAvailable"]
        for cls in classes.values():
            assert issubclass(cls, lcforge.errors.LcforgeError), cls

    @pytest.mark.parametrize(
        "script",
        [
            # the package as a fresh interpreter reads it
            "import sys\n"
            "import lcforge\n"
            "assert set(lcforge.__all__) <= set(dir(lcforge))\n"
            "try:\n"
            "    lcforge.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert str(exc) == \"module 'lcforge' has no attribute 'no_such_name'\"\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
            "assert 'numpy' not in sys.modules\n"
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

    @pytest.mark.parametrize(
        "script, stderr",
        [
            (
                "import sys\n"
                "from lcforge import cli\n"
                "for fmt in ('table', 'json'):\n"
                "    assert cli.main(['lc', '--n', '3', '--bits', '01101001',"
                " '--format', fmt]) == 0\n"
                "    assert cli.main(['count', '--n', '12', '--k', '3', '--L', '4000',"
                " '--format', fmt]) == 0\n"
                "    assert cli.main(['kerr', '--n', '3', '--bits', '01101001',"
                " '--k', '1', '--format', fmt]) == 0\n"
                "    assert cli.main(['profile', '--n', '3', '--bits', '01101001',"
                " '--kmax', '8', '--format', fmt]) == 0\n"
                "print('numpy' in sys.modules, file=sys.stderr)\n"
                "codes = [cli.main(['census', '--n', '3', '--k', '2'])]\n"
                "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n",
                "False\n[0] True\n",
            ),
            (
                # the k-error functions run without numpy; a census loads it
                "import sys\n"
                "from lcforge import KErrorResult, k_error_lc, k_error_profile,"
                " k_min_formula\n"
                "from lcforge import CensusQuery, SequenceClass, census_distribution\n"
                "from lcforge import parse_binary\n"
                "s = parse_binary('01101001', 3)\n"
                "print(k_min_formula(s), k_error_lc(s, 4).value,"
                " k_error_profile(s, 8)[-1], 'numpy' in sys.modules, file=sys.stderr)\n"
                "census_distribution(CensusQuery(3, 2, SequenceClass.ALL))\n"
                "print('numpy' in sys.modules, file=sys.stderr)\n",
                "4 0 (8, 0) False\nTrue\n",
            ),
        ],
        ids=["cli", "library"],
    )
    def test_numpy_loads_only_for_censuses(self, script, stderr):
        # a fresh interpreter, so no other test has imported numpy
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, stderr)

    def test_censuses_do_not_load_openssl(self):
        # hashlib would map libcrypto through _hashlib for the same blake2b
        script = (
            "import sys\n"
            "from lcforge import cli\n"
            "codes = [cli.main(argv.split()) for argv in (\n"
            "    'census --n 3 --k 2', 'census --n 4 --k 2 --samples 300 --seed 7',\n"
            "    'verify --n 4 --k 2', 'refute')]\n"
            "print(codes, '_hashlib' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "[0, 0, 0, 0] False\n")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lcforge", "lc", "--n", "2", "--bits", "1000"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "L = 4" in proc.stdout
