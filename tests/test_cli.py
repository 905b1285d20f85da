import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

import ddnnf
from ddnnf import CompileConfig, compile_cnf, parse_dimacs, parse_tvars, write_nnf
from ddnnf.bench import gen_noisy_or, gen_overlapping_disjunction
from ddnnf.cli import main

from helpers import shuffled_order

FORMULA = "(a & b) | (c & d)\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "f.bool").write_text(FORMULA)
    return tmp_path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _noisy_or_pipeline(tmp_path, capsys, formula=None):
    """Encode and compile an artifact-rich formula, by default the noisy-OR
    network with 4 parents."""
    formula = gen_noisy_or(4) if formula is None else formula
    (tmp_path / "n.bool").write_text(ddnnf.format_formula(formula) + "\n")
    assert main(["tseitin", str(tmp_path / "n.bool")]) == 0
    assert main(["compile", str(tmp_path / "n.cnf"), "--order", "dynamic"]) == 0
    capsys.readouterr()
    return tmp_path / "n.nnf"


def _full_pipeline(workspace, capsys):
    base = workspace / "f.bool"
    assert main([
        "tseitin", str(base)]) == 0
    assert main([
        "compile", str(workspace / "f.cnf"), "--order", "5"]) == 0
    assert main([
        "prune", str(workspace / "f.nnf"),
        "--tvars", str(workspace / "f.tvars")]) == 0
    capsys.readouterr()


class TestTseitin:
    def test_writes_three_files(self, workspace, capsys):
        code, out, _ = _run(capsys, "tseitin", str(workspace / "f.bool"))
        assert code == 0
        cnf_text = (workspace / "f.cnf").read_text()
        assert cnf_text.startswith("p cnf 6 7")
        assert (workspace / "f.tvars").read_text().startswith("t 2")
        assert "a 1" in (workspace / "f.map").read_text()

    def test_idempotent(self, workspace, capsys):
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        first = (workspace / "f.cnf").read_bytes()
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        assert (workspace / "f.cnf").read_bytes() == first

    def test_missing_file(self, workspace, capsys):
        code, _, err = _run(capsys, "tseitin", str(workspace / "nope.bool"))
        assert code == 1
        assert err.startswith("file error:")

    def test_parse_error_prefix(self, workspace, capsys):
        bad = workspace / "bad.bool"
        bad.write_text("a &&& b")
        code, _, err = _run(capsys, "tseitin", str(bad))
        assert code == 1
        assert err.startswith("parse error:")


class TestCompilePruneCount:
    def test_pipeline_and_count(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        code, out, _ = _run(capsys, "count", str(workspace / "f.pruned.nnf"))
        assert code == 0
        assert out.strip() == "7"

    def test_prune_report_sidecar(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        report = (workspace / "f.pruned.nnf.report").read_text()
        entries = dict(line.split("=") for line in report.strip().splitlines())
        assert entries["before"] == "16"
        assert int(entries["after_t"]) < int(entries["after_p"]) < 16
        assert int(entries["artifacts"]) >= 1

    def test_prune_modes_ordered(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        nnf = workspace / "f.nnf"
        code, out, _ = _run(
            capsys, "prune", str(nnf), "--mode", "p",
            "-o", str(workspace / "p.nnf"))
        assert code == 0
        code, out_t, _ = _run(
            capsys, "prune", str(nnf), "--mode", "t",
            "-o", str(workspace / "t.nnf"))
        assert code == 0
        code, stats_p, _ = _run(capsys, "stats", str(workspace / "p.nnf"))
        code, stats_t, _ = _run(capsys, "stats", str(workspace / "t.nnf"))
        size_p = int(stats_p.split()[0].split("=")[1])
        size_t = int(stats_t.split()[0].split("=")[1])
        assert size_t <= size_p

    def test_prune_output_bytes_pinned(self, tmp_path, capsys):
        # Recorded before --mode p reused the quantified circuit that prune
        # builds, instead of quantifying the input a second time.
        nnf = _noisy_or_pipeline(tmp_path, capsys)
        expected_nnf = {
            "p": "45ba22fdabd5d2061ed55b542f0f897a0b73487ff6f77e591e9ed0a25153c234",
            "t": "ce36caf984d291162ba4761fafd87d1263e1aae79d24d0fe398a53023b7bab9e",
        }
        expected_report = (
            "before=44\nafter_p=31\nafter_t=17\nartifacts=10\nartifacts_internal=3\n"
            "artifacts_degenerate=7\nfrac_p=0.704545\nfrac_t=0.386364\n"
        )
        for mode, digest in expected_nnf.items():
            out = tmp_path / f"{mode}.nnf"
            code, _, _ = _run(capsys, "prune", str(nnf), "--mode", mode, "-o", str(out))
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
            assert (tmp_path / f"{mode}.nnf.report").read_text() == expected_report

    @pytest.mark.parametrize(
        "family, n, digest_p, digest_t, expected_report",
        [
            ("noisy_or", 8,
             "d2eac20f34982445d32b06fdb3f55482582405a39234dd6ed60eea8e3ab4cd71",
             "8aeddf48e7d5e83a568adf5fe31a32f3158cef2718aa25fc4d4d4bc877b97f27",
             "before=110\nafter_p=81\nafter_t=37\nartifacts=22\nartifacts_internal=7\n"
             "artifacts_degenerate=15\nfrac_p=0.736364\nfrac_t=0.336364\n"),
            ("noisy_or", 16,
             "539a35cfd6c428a5a082a8477837938774695bbdf77e78190607f5b9d01f1f99",
             "7f8004ac3ca854e742b9b6f98f6fb2f557373c30e2e516aa735165e0a2f01e99",
             "before=290\nafter_p=229\nafter_t=77\nartifacts=46\nartifacts_internal=15\n"
             "artifacts_degenerate=31\nfrac_p=0.789655\nfrac_t=0.265517\n"),
            ("noisy_or", 32,
             "1f8e3fcc78af8dd49d51bcc8bf2a38609a5c44a69274c9fdba3a078b64d2164f",
             "d2ff2279e996c4d44e9078f94ff89882e6e14226993f5691f5c0849d6c5e6f4c",
             "before=842\nafter_p=717\nafter_t=157\nartifacts=94\nartifacts_internal=31\n"
             "artifacts_degenerate=63\nfrac_p=0.851544\nfrac_t=0.186461\n"),
            ("overlap", 8,
             "7f97541f80d8d787eb1481e79217cf5ded217d29db95c1e628be09981122a2fd",
             "883a171f0ab4d1051b05a23c2c5453bc97a35cff77d23d457404b83232ebaa46",
             "before=109\nafter_p=80\nafter_t=36\nartifacts=22\nartifacts_internal=7\n"
             "artifacts_degenerate=15\nfrac_p=0.733945\nfrac_t=0.330275\n"),
            ("overlap", 16,
             "c93e44ab0267a437d7ceed288e1bb6e28a338cd27f27ab2ee929ba4be27facad",
             "4151121e3aca5a5fce13026249edab20189be398e560643efe865225d9b1b556",
             "before=289\nafter_p=228\nafter_t=76\nartifacts=46\nartifacts_internal=15\n"
             "artifacts_degenerate=31\nfrac_p=0.788927\nfrac_t=0.262976\n"),
            ("overlap", 32,
             "2348dd637d28cb490e2828574b8f0ec37b11546705ee90fd1a2443a44cc83a3c",
             "bf0fd76eeefcfd0e6a8356b68569dc2cdcfd5c842c8159619fa54d16d0a42e5b",
             "before=841\nafter_p=716\nafter_t=156\nartifacts=94\nartifacts_internal=31\n"
             "artifacts_degenerate=63\nfrac_p=0.851367\nfrac_t=0.185493\n"),
        ],
    )
    def test_prune_output_bytes_pinned_internal_roots(
        self, tmp_path, capsys, family, n, digest_p, digest_t, expected_report
    ):
        # Recorded before prune stopped building the quantified-only circuit
        # it only measured; these circuits have internal artifact roots, so
        # --mode p and --mode t write different circuits.
        formula = {"noisy_or": gen_noisy_or, "overlap": gen_overlapping_disjunction}[family](n)
        nnf = _noisy_or_pipeline(tmp_path, capsys, formula)
        for mode, digest in (("p", digest_p), ("t", digest_t)):
            out = tmp_path / f"{mode}.nnf"
            code, _, _ = _run(capsys, "prune", str(nnf), "--mode", mode, "-o", str(out))
            assert code == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
            assert (tmp_path / f"{mode}.nnf.report").read_text() == expected_report

    def test_tvars_travel_inside_nnf(self, workspace, capsys):
        # compile embeds the sidecar, so prune works without --tvars
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        _run(capsys, "compile", str(workspace / "f.cnf"), "--order", "5")
        code, out, _ = _run(capsys, "prune", str(workspace / "f.nnf"))
        assert code == 0
        assert "artifacts=" in out

    def test_missing_explicit_tvars_is_a_file_error(self, workspace, capsys):
        # The implicit <input>.tvars is optional; an explicit path is not.
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        code, _, err = _run(capsys, "compile", str(workspace / "f.cnf"),
                            "--tvars", str(workspace / "missing.tvars"))
        assert code == 1
        assert err.startswith("file error:")
        assert not (workspace / "f.nnf").exists()
        (workspace / "f.tvars").unlink()
        assert _run(capsys, "compile", str(workspace / "f.cnf"))[0] == 0

    def test_count_true_circuit(self, tmp_path, capsys):
        nnf = tmp_path / "t.nnf"
        nnf.write_text("nnf 1 0 4\nA 0\n")
        code, out, _ = _run(capsys, "count", str(nnf))
        assert code == 0
        assert out.strip() == "16"

    def test_satlib_end_marker(self, tmp_path, capsys, monkeypatch):
        # The 0 line after SATLIB's % line is no clause: (x1 | x2) has 3 models.
        (tmp_path / "s.cnf").write_text("c x\np cnf 2 1\n1 2 0\n%\n0\n")
        monkeypatch.chdir(tmp_path)
        assert _run(capsys, "compile", "s.cnf")[::2] == (0, "")
        assert _run(capsys, "count", "s.nnf") == (0, "3\n", "")

    def test_compile_heuristics(self, workspace, capsys):
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        n = parse_dimacs((workspace / "f.cnf").read_text()).num_vars
        shuffled = (",".join(map(str, shuffled_order(n, seed))) for seed in (5, 9))
        for order in ("dynamic", *shuffled):
            code, _, _ = _run(capsys, "compile", str(workspace / "f.cnf"), "--order", order)
            assert code == 0
            code, out, _ = _run(capsys, "count", str(workspace / "f.nnf"))
            assert out.strip() == "7"

    @pytest.mark.parametrize("value, config", [
        ("input", CompileConfig()),
        ("dynamic", CompileConfig(order="dynamic")),
        ("random", None),
        ("random:5", None),
        ("3,2,1", CompileConfig(order=(3, 2, 1))),
        ("a,b", None),
        ("random:x", None),
        ("random:7", None),
        ("dynamic:5", None),
        ("dyn", None),
        ("", None),
        ("0", None),
        ("-1", None),
        ("2,2", None),
        ("3,0,1", None),
    ])
    def test_order_option(self, workspace, capsys, value, config):
        # One --order value is one CompileConfig: the same bytes as the
        # library call, or a usage error that writes nothing.
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        argv = ["compile", str(workspace / "f.cnf"), "--order", value]
        if config is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--order" in capsys.readouterr().err
            assert not (workspace / "f.nnf").exists()
            return
        assert main(argv) == 0
        cnf = replace(parse_dimacs((workspace / "f.cnf").read_text()),
                      tseitin_vars=parse_tvars((workspace / "f.tvars").read_text()))
        assert (workspace / "f.nnf").read_text() == write_nnf(compile_cnf(cnf, config))

    def test_order_variable_beyond_the_cnf_is_an_error(self, tmp_path, capsys):
        # Whether a variable is in range depends on the input: exit 1.
        cnf = tmp_path / "a.cnf"
        cnf.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
        code, _, err = _run(capsys, "compile", str(cnf), "--order", "5")
        assert code == 1
        assert err == "error: order variable 5 out of range 1..3\n"
        assert not (tmp_path / "a.nnf").exists()
        code, _, err = _run(capsys, "compile", str(cnf), "--order", "4,9")
        assert code == 1
        assert err == "error: order variable 4 out of range 1..3\n"
        assert not (tmp_path / "a.nnf").exists()

    def test_max_decisions_below_zero_is_usage_error(self, tmp_path, capsys):
        cnf = tmp_path / "u.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n-2 0\n")  # units only: no decision
        with pytest.raises(SystemExit) as exc:
            main(["compile", str(cnf), "--max-decisions", "-1"])
        assert exc.value.code == 2
        assert "--max-decisions" in capsys.readouterr().err
        assert not (tmp_path / "u.nnf").exists()
        assert _run(capsys, "compile", str(cnf), "--max-decisions", "0")[0] == 0

    def test_long_chain_compiles_without_traceback(self, tmp_path):
        # 800 decision levels in input order: more than Python's default
        # recursion limit allows a recursive search.
        n = 800
        cnf = tmp_path / "chain.cnf"
        cnf.write_text(f"p cnf {n} {n - 1}\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, n)))
        env = dict(os.environ, PYTHONPATH=str(Path(ddnnf.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ddnnf", "compile", str(cnf)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert main(["count", str(tmp_path / "chain.nnf")]) == 0

    def test_rerun_is_idempotent(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        first = (workspace / "f.pruned.nnf").read_bytes()
        _full_pipeline(workspace, capsys)
        assert (workspace / "f.pruned.nnf").read_bytes() == first


class TestDetect:
    def test_detect_roundtrip(self, workspace, capsys):
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        code, out, _ = _run(
            capsys, "detect", str(workspace / "f.cnf"),
            "-o", str(workspace / "detected.tvars"))
        assert code == 0
        assert (workspace / "detected.tvars").read_text() == (
            workspace / "f.tvars").read_text()


class TestWmc:
    def test_weighted_count(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        weights = workspace / "w.txt"
        weights.write_text(
            "w 1 0.5\nw -1 0.5\nw 2 0.5\nw -2 0.5\n"
            "w 3 0.5\nw -3 0.5\nw 4 0.5\nw -4 0.5\n"
        )
        code, out, _ = _run(
            capsys, "wmc", str(workspace / "f.pruned.nnf"),
            "--weights", str(weights))
        assert code == 0
        assert abs(float(out.strip()) - 0.4375) < 1e-12

    def test_exact_mode(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        weights = workspace / "w.txt"
        weights.write_text("w 1 1/2\nw -1 1/2\n")
        code, out, _ = _run(
            capsys, "wmc", str(workspace / "f.pruned.nnf"),
            "--weights", str(weights), "--exact")
        assert code == 0
        assert out.strip() == "7/2"


    def test_exact_output_pinned(self, workspace, capsys):
        # Recorded before exact maps were folded over integers: an integral
        # result still prints as an integer, a rational one as n/d.
        _full_pipeline(workspace, capsys)
        weights = workspace / "w.txt"
        weights.write_text("w 1 1/2\nw -1 1/4\n")
        code, out, _ = _run(
            capsys, "wmc", str(workspace / "f.pruned.nnf"), "--weights", str(weights), "--exact")
        assert (code, out) == (0, "3\n")
        nnf = _noisy_or_pipeline(workspace, capsys)
        assert _run(capsys, "prune", str(nnf), "-o", str(workspace / "t.nnf"))[0] == 0
        weights.write_text(
            "w 1 1/3\nw -1 2/3\nw 2 -3/4\nw -2 7/4\nw 3 0\nw -3 5/6\n"
            "w 4 1/2\nw -4 1/2\nw 5 2/7\n"
        )
        for circuit in (nnf, workspace / "t.nnf"):
            code, out, _ = _run(
                capsys, "wmc", str(circuit), "--weights", str(weights), "--exact")
            assert (code, out) == (0, "20/7\n")


class TestFloatWmcRange:
    # A float result out of range is refused, not printed: 0.5^1100 underflows
    # to 0.0, and 2^1099 * 0.5 overflows to inf.
    def test_underflow_exits_1(self, tmp_path, capsys):
        n = 1100
        nnf = tmp_path / "and.nnf"
        nnf.write_text(
            f"nnf {n + 1} {n} {n}\n" + "".join(f"L {v}\n" for v in range(1, n + 1))
            + f"A {n} " + " ".join(map(str, range(n))) + "\n")
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"w {v} 0.5\nw -{v} 0.5\n" for v in range(1, n + 1)))
        code, out, err = _run(capsys, "wmc", str(nnf), "--weights", str(weights))
        assert (code, out) == (1, "")
        assert "--exact" in err
        code, out, _ = _run(capsys, "wmc", str(nnf), "--weights", str(weights), "--exact")
        assert (code, out) == (0, f"1/{2**n}\n")

    def test_subnormal_exits_1(self, tmp_path, capsys):
        # 0.3^615 is about 2.67e-322, below the smallest normal float: the
        # float product is 0.78% off, though nonzero.
        n = 615
        nnf = tmp_path / "and.nnf"
        nnf.write_text(
            f"nnf {n + 1} {n} {n}\n" + "".join(f"L {v}\n" for v in range(1, n + 1))
            + f"A {n} " + " ".join(map(str, range(n))) + "\n")
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"w {v} 0.3\nw -{v} 0.7\n" for v in range(1, n + 1)))
        code, out, err = _run(capsys, "wmc", str(nnf), "--weights", str(weights))
        assert (code, out) == (1, "")
        assert "--exact" in err
        code, out, _ = _run(capsys, "wmc", str(nnf), "--weights", str(weights), "--exact")
        assert (code, out) == (0, f"{3**n}/{10**n}\n")

    def test_overflow_exits_1(self, tmp_path, capsys):
        nnf = tmp_path / "lit.nnf"
        nnf.write_text("nnf 1 0 1100\nL 1\n")
        weights = tmp_path / "w.txt"
        weights.write_text("w 1 0.5\nw -1 0.5\n")
        code, out, err = _run(capsys, "wmc", str(nnf), "--weights", str(weights))
        assert (code, out) == (1, "")
        assert "--exact" in err
        code, out, _ = _run(capsys, "wmc", str(nnf), "--weights", str(weights), "--exact")
        assert (code, out) == (0, f"{2**1098}\n")

    def test_true_zero_prints(self, tmp_path, capsys):
        nnf = tmp_path / "lit.nnf"
        nnf.write_text("nnf 1 0 2\nL 1\n")
        weights = tmp_path / "w.txt"
        weights.write_text("w 1 0\nw -1 0.5\n")
        assert _run(capsys, "wmc", str(nnf), "--weights", str(weights)) == (0, "0.0\n", "")


class TestBigCounts:
    # 2^20000 has 6,021 digits, more than the 4,300 that Python converts from
    # an int to text by default. Decimal builds the expected text without
    # that limit.
    def test_count_and_exact_wmc_print_in_full(self, tmp_path, capsys):
        nnf = tmp_path / "big.nnf"
        nnf.write_text("nnf 1 0 20000\nA 0\n")
        weights = tmp_path / "w.txt"
        weights.write_text("w 1 1/3\nw -1 1/3\n")
        full = format(Decimal(2**20000), "f")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert _run(capsys, "count", str(nnf)) == (0, full + "\n", "")
        # 2/3 for x1 and 2 for each of the other 19,999 variables
        assert _run(capsys, "wmc", str(nnf), "--weights", str(weights), "--exact") == (
            0, full + "/3\n", "")
        # the limit still guards the parsing of later input
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestVerify:
    def test_formula_input(self, workspace, capsys):
        code, out, err = _run(capsys, "verify", str(workspace / "f.bool"))
        assert code == 0
        assert "FAIL" not in out
        assert "ok model bijection (formula vs encoded CNF)" in out
        assert "ok no tautology left after pruning" in out
        assert len(out.splitlines()) == 9 and err == ""

    def test_residual_tautology_is_a_fail_line(self, tmp_path, capsys):
        # Gate 2 is not defined by variable 1: (x1 & x2) | -x1 prunes to
        # x1 | -x1, a tautology no artifact flag found.
        path = tmp_path / "r.nnf"
        path.write_text("nnf 5 4 2\nc tseitin 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n")
        code, out, err = _run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL no tautology left after pruning" in out
        assert len(out.splitlines()) == 5
        assert err == ""

    def test_cnf_input(self, workspace, capsys):
        _run(capsys, "tseitin", str(workspace / "f.bool"))
        code, out, _ = _run(capsys, "verify", str(workspace / "f.cnf"),
                            "--tvars", str(workspace / "f.tvars"))
        assert code == 0
        assert "ok artifact flags match tautology oracle" in out

    def test_nnf_input(self, workspace, capsys):
        _full_pipeline(workspace, capsys)
        code, out, _ = _run(capsys, "verify", str(workspace / "f.nnf"),
                            "--tvars", str(workspace / "f.tvars"))
        assert code == 0

    def test_oracle_bound_error_prefix(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("DDNNF_ORACLE_MAX_VARS", "2")
        code, _, err = _run(capsys, "verify", str(workspace / "f.bool"))
        assert code == 1
        assert err.startswith("oracle error:")


X_D4 = "1 o 0\n2 t 0\n1 2 -1 0\n1 2 1 0\n"  # x1 | -x1 in d4 format


class TestCircuitFormats:
    """A circuit file says its format: a d4 file is read without a flag."""

    @pytest.fixture
    def d4_dir(self, tmp_path, monkeypatch):
        (tmp_path / "x.d4").write_text(X_D4)
        (tmp_path / "w.txt").write_text("w 1 1/3\nw -1 2/3\n")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "command, options, out",
        [
            ("count", [], "2\n"),
            ("stats", [], "size=1 nodes=3 edges=2 vars=1 tseitin=0\n"),
            ("wmc", ["--weights", "w.txt", "--exact"], "1\n"),
        ],
        ids=["count", "stats", "wmc"],
    )
    def test_d4_queries(self, d4_dir, capsys, command, options, out):
        assert _run(capsys, command, "x.d4", *options) == (0, out, "")

    def test_d4_prune(self, d4_dir, capsys):
        code, out, err = _run(capsys, "prune", "x.d4")
        assert (code, err) == (0, "")
        assert out.endswith("wrote x.pruned.nnf and x.pruned.nnf.report\n")
        assert _run(capsys, "count", "x.pruned.nnf") == (0, "2\n", "")

    def test_d4_verify(self, d4_dir, capsys):
        # x1 | -x1 is read and checked; prune keeps that tautology, as the
        # circuit has no gate variables, and that passes.
        code, out, err = _run(capsys, "verify", "x.d4")
        assert err == "" and out.startswith("ok deterministic (brute force)\n")
        assert len(out.splitlines()) == 5
        assert code == 0 and "FAIL" not in out
        # (x1 & x2) | -x1 passes every check.
        (d4_dir / "y.d4").write_text("1 o 0\n2 t 0\n1 2 1 2 0\n1 2 -1 0\n")
        code, out, err = _run(capsys, "verify", "y.d4")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5 and "FAIL" not in out

    @pytest.mark.parametrize("command", ["prune", "count", "wmc", "verify", "stats"])
    def test_format_option_is_a_usage_error(self, d4_dir, capsys, command):
        options = ["--weights", "w.txt"] if command == "wmc" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "x.d4", *options, "--format", "d4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format d4" in capsys.readouterr().err


class TestBench:
    def test_csv_to_stdout_and_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code, out, _ = _run(
            capsys, "bench", "--family", "noisy_or", "--sizes", "2..4",
            "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("instance,size,ddnnf")
        assert len(lines) == 4
        assert "noisy_or_n3" in out

    def test_order_seed_selects_random_order(self, capsys):
        def sizes(*extra):
            code, out, _ = _run(capsys, "bench", "--family", "overlap", "--sizes", "6",
                                "--no-verify", *extra)
            assert code == 0
            return out.splitlines()[1].split(",")[2:5]

        assert sizes() == sizes("--order", "dynamic") == ["74", "53", "26"]
        # overlap 6 encodes to 18 variables
        order = ",".join(map(str, shuffled_order(18, 5)))
        assert sizes("--order", order) == ["162", "108", "64"]

    def test_sizes_comma_list(self, capsys):
        code, out, _ = _run(capsys, "bench", "--family", "overlap", "--sizes", "2,3")
        assert code == 0
        assert "overlap_n3" in out

    @pytest.mark.parametrize("sizes", ["x", "5..2", "2..x", ""])
    def test_bad_sizes_are_usage_errors(self, tmp_path, capsys, sizes):
        out_path = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "overlap", "--sizes", sizes, "-o", str(out_path)])
        assert exc.value.code == 2
        assert "--sizes" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["overlap", "--sizes", "0"], "--sizes"),
            (["overlap", "--sizes", "0..2"], "--sizes"),
            (["overlap", "--sizes", "-3"], "--sizes"),
            (["overlap", "--sizes", "2,0"], "--sizes"),
            (["mutex", "--sizes", "2", "--parents", "7"], "--parents"),
            (["mutex", "--sizes", "2", "--parents", "-1"], "--parents"),
        ],
        ids=["zero", "range_from_zero", "negative", "list_with_zero", "parents_7",
             "parents_negative"],
    )
    def test_out_of_range_values_are_usage_errors(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--no-verify", "--family", *argv])
        assert exc.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,cnf_head,gates",
    [
        ("(" * 1500 + "a" + ")" * 1500 + "\n", ["p cnf 1 1", "1 0"], 0),
        # Every conjunct is asserted as a unit clause, leftmost first.
        ("".join(f"x{i} & (" for i in range(1200)) + "y" + ")" * 1200 + "\n",
         ["p cnf 1201 1201"] + [f"{i} 0" for i in range(1, 1202)], 0),
        # z | (((x0 <=> x1) <=> x2) ... <=> x40): 18d - 8 clauses and 6d - 3
        # gates at depth d, shared between the two polarities of each <=>.
        ("z | (" + "(" * 39 + "x0" + "".join(f" <=> x{i})" for i in range(1, 41)) + "\n",
         ["p cnf 279 712"], 237),
    ],
    ids=["parentheses_1500", "conjunction_1200", "iff_chain_40"],
)
def test_deeply_nested_formula_encodes(tmp_path, text, cnf_head, gates):
    path = tmp_path / "deep.bool"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(ddnnf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", "tseitin", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    cnf = (tmp_path / "deep.cnf").read_text().splitlines()
    assert cnf[: len(cnf_head)] == cnf_head
    assert len(cnf) == 1 + int(cnf[0].split()[3])
    assert (tmp_path / "deep.tvars").read_text().splitlines()[0] == f"t {gates}"


@pytest.mark.parametrize(
    "text",
    ["!" * 1500 + "a\n", "(a & " * 1500 + "b" + ")" * 1500 + "\n"],
    ids=["negations_1500", "parentheses_1500"],
)
def test_deeply_nested_formula_verifies(tmp_path, text):
    path = tmp_path / "deep.bool"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(ddnnf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "FAIL" not in proc.stdout
    assert "ok projection recovers the formula" in proc.stdout


@pytest.mark.parametrize("tvars", ["t\n5\n", "t five\n5\n", "t 1\nx5\n"],
                         ids=["no_count", "non_integer_count", "non_integer_var"])
@pytest.mark.parametrize("command", ["compile", "prune"])
def test_bad_tvars_sidecar_is_a_parse_error(tmp_path, tvars, command):
    (tmp_path / "f.cnf").write_text("p cnf 5 1\n1 5 0\n")
    (tmp_path / "f.nnf").write_text("nnf 1 0 5\nL 1\n")
    (tmp_path / "bad.tvars").write_text(tvars)
    env = dict(os.environ, PYTHONPATH=str(Path(ddnnf.__file__).parents[1]))
    source = "f.cnf" if command == "compile" else "f.nnf"
    proc = subprocess.run(
        [sys.executable, "-m", "ddnnf", command, str(tmp_path / source),
         "--tvars", str(tmp_path / "bad.tvars"), "-o", str(tmp_path / "out.nnf")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: tvars sidecar")


AND_C2D = "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"


@pytest.mark.parametrize(
    "files, argv, code, err",
    [
        ({"f.cnf": "p cnf 2 3\n1 2 0\n"}, ["detect", "f.cnf"], 0,
         "warning: header declares 3 clauses, found 1\n"),
        ({"f.nnf": "nnf 5 2 2\nL 1\nL 2\nA 2 0 1\n"}, ["count", "f.nnf"], 0,
         "warning: header declares 5 nodes, found 3\n"),
        ({"f.nnf": "nnf 3 99 2\nL 1\nL 2\nA 2 0 1\n"}, ["count", "f.nnf"], 0,
         "warning: header declares 99 edges, found 2\n"),
        ({"f.nnf": AND_C2D, "t.tvars": "t 2\n2\n"}, ["prune", "f.nnf", "--tvars", "t.tvars"], 0,
         "warning: tvars header declares 2, found 1\n"),
        ({"f.nnf": AND_C2D, "t.tvars": "t 1\n9\n"}, ["prune", "f.nnf", "--tvars", "t.tvars"], 1,
         "error: tvars sidecar lists variables outside the circuit universe\n"),
        # An OR whose children repeat counted 2 where the true count is 1.
        ({"f.nnf": "nnf 2 2 1\nL 1\nO 0 2 0 0\n"}, ["count", "f.nnf"], 1,
         "parse error: line 3: OR children repeat\n"),
        ({"f.d4": "o 1 0\nt 2 0\n1 2 1 0\n1 2 1 0\n"}, ["count", "f.d4"], 1,
         "parse error: node 1: OR children repeat\n"),
    ],
    ids=["dimacs_clause_count", "c2d_node_count", "c2d_edge_count", "tvars_count",
         "tvars_outside_universe", "c2d_or_children_repeat", "d4_or_children_repeat"],
)
def test_stderr_is_one_line(tmp_path, capsys, monkeypatch, files, argv, code, err):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, *argv)[::2] == (code, err)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
