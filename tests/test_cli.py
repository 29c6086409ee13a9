import dataclasses
import os

import numpy as np
import pytest

from reflora import cli, harness, problems, props, refactor

from test_harness import reference_csv


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def read_body(path, drop_timing=False):
    """File contents minus the leading comment header.

    With drop_timing=True the wall-clock column is stripped; timing is a
    measurement, so the reproducibility contract covers everything else.
    """
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    if drop_timing:
        lines = [",".join(line.split(",")[:-1]) for line in lines]
    return "\n".join(lines)


def read_header(path):
    return [line for line in path.read_text().splitlines()
            if line.startswith("#")]


class TestMfSubcommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(["mf", "--method", "reflora", "--eta", "0.01",
                        "--steps", "25", "--seed", "42", "--m", "20",
                        "--n", "16", "--rank", "2", "--out", str(out)])
        assert code == 0
        header = read_header(out)
        assert any("reflora 0.1.0" in line for line in header)
        assert any("seed: 42" in line for line in header)
        assert any(line.startswith("# command: reflora mf ") for line in header)
        body = read_body(out).splitlines()
        assert body[0] == ("step,loss,norm_a,norm_b,grad_norm_a,grad_norm_b,"
                           "balance_gap,step_time_ns")
        assert len(body) == 27  # header + steps 0..25

    def test_eta_zero_theorem_exact_usage_error(self, capsys):
        code = run_cli(["mf", "--eta", "0", "--mode", "theorem-exact",
                        "--lipschitz", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--eta" in err
        assert "discontinuity" in err

    def test_negative_eta_usage_error(self, capsys):
        code = run_cli(["mf", "--eta", "-0.1", "--steps", "5"])
        assert code == 2
        assert "--eta" in capsys.readouterr().err

    def test_unknown_method_usage_error(self, capsys):
        code = run_cli(["mf", "--method", "sgd", "--steps", "5"])
        assert code == 2
        assert "--method" in capsys.readouterr().err

    def test_scaledgd_with_adam_rejected(self, capsys):
        code = run_cli(["mf", "--method", "scaledgd", "--optimizer", "adam",
                        "--steps", "5"])
        assert code == 2
        assert "--optimizer" in capsys.readouterr().err

    @pytest.mark.parametrize("method,reason", [
        ("reflora", "rank criterion"),
        ("reflora-s", "positive Frobenius norm"),
    ])
    def test_degenerate_start_past_warmup_exits_1(self, capsys, method,
                                                  reason):
        # B = 0 at t = 0 with no warmup: one failure, one type, exit 1
        code = run_cli(["mf", "--method", method, "--warmup", "0", "--m", "8",
                        "--n", "6", "--rank", "2", "--steps", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("reflora: RankDeficient:"), err
        assert reason in err and err.endswith("(iteration 0, past warmup)\n")

    def test_stdout_output(self, capsys):
        code = run_cli(["mf", "--steps", "3", "--m", "8", "--n", "6",
                        "--rank", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "step,loss" in out

    @pytest.mark.parametrize("argv", [
        ["--mode", "theorem-exact", "--lipschitz", "1e-200", "--m", "8",
         "--n", "6", "--steps", "5"],
        ["--method", "lora", "--eta", "1e308", "--sigma-b", "1", "--m", "12",
         "--n", "10", "--steps", "3"],
    ])
    def test_overflowing_step_is_data(self, tmp_path, argv):
        # a step that overflows before the divergence latch trips is
        # recorded as a non-finite row, not an error
        out = tmp_path / "trace.csv"
        assert run_cli(["mf", "--rank", "2", *argv, "--out", str(out)]) == 0
        rows = [line.split(",") for line in read_body(out).splitlines()[1:]]
        assert np.isfinite(float(rows[0][1]))
        assert not np.isfinite(float(rows[-1][1]))


class TestRunFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["mf", "--rank", "0"], "--rank"),
        (["linreg", "--rank", "0"], "--rank"),
        (["compare", "--rank", "0"], "--rank"),
        (["mf", "--warmup", "-1"], "--warmup"),
        (["compare", "--warmup", "-1"], "--warmup"),
        (["compare", "--methods", "lora,scaledgd", "--optimizer", "adam"],
         "--optimizer"),
        (["mf", "--eta", "nan"], "--eta"),
        (["mf", "--eta", "inf"], "--eta"),
        (["compare", "--etas", "nan"], "--etas"),
        (["mf", "--sigma-a", "nan"], "--sigma-a"),
        (["mf", "--weight-decay", "nan", "--optimizer", "adamw"],
         "--weight-decay"),
        (["mf", "--seed", "-1"], "--seed"),
        (["mf", "--alpha", "nan"], "--alpha"),
        (["mf", "--weight-decay", "0.5"], "--weight-decay"),  # under gd
        (["compare", "--weight-decay", "0.5"], "--weight-decay"),
    ])
    def test_usage_error(self, capsys, argv, flag):
        assert run_cli(argv + ["--steps", "3", "--m", "8", "--n", "6"]) == 2
        assert capsys.readouterr().err.startswith(f"reflora: error: {flag}:")


class TestModeFlags:
    """A bad refactor mode, root or Lipschitz constant is a usage error
    that names its flag."""

    @pytest.mark.parametrize("argv,flag", [
        (["mf", "--mode", "bogus"], "--mode"),
        (["mf", "--root", "sideways"], "--root"),
        (["mf", "--mode", "theorem-exact", "--lipschitz", "-1"], "--lipschitz"),
        (["bound-scan", "--root", "sideways"], "--root"),
        (["mf", "--mode", "identity"], "--mode"),  # S = I is --method lora
    ])
    def test_usage_error(self, capsys, argv, flag):
        assert run_cli(argv + ["--m", "6", "--n", "5", "--rank", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"reflora: error: {flag}:")


class TestDims:
    """Out-of-range instance dimensions are usage errors, found before
    any instance is built."""

    @pytest.mark.parametrize("argv,flag", [
        (["linreg", "--rank", "3"], "--rank"),
        (["mf", "--m", "4", "--n", "3", "--rank", "5"], "--rank"),
        (["mf", "--m", "0", "--n", "3", "--rank", "1"], "--m"),
        (["mf", "--m", "3", "--n", "0", "--rank", "1"], "--n"),
        (["compare", "--problem", "linreg", "--k", "0"], "--k"),
        (["compare", "--m", "5", "--n", "6", "--rank", "6"], "--rank"),
        (["bound-scan", "--rank", "3"], "--rank"),
        (["bound-scan", "--k", "0"], "--k"),
        (["bound-scan", "--seed", "-3"], "--seed"),
        (["bound-scan", "--eta-min", "nan"], "--eta-min"),
        (["overhead", "--dims", "4", "--ranks", "8"], "--ranks"),
        (["overhead", "--dims", "16", "--ranks", "0"], "--ranks"),
        (["mf", "--alpha", "-inf"], "--alpha"),
        # linreg from B = 0 keeps B at rank <= k, so reflora and scaledgd
        # can only fail once warmup ends
        (["compare", "--problem", "linreg", "--steps", "20"], "--rank"),
        (["linreg", "--m", "6", "--n", "5", "--rank", "3", "--sigma-b", "0",
          "--steps", "20"], "--rank"),
        (["linreg", "--m", "6", "--n", "5", "--rank", "3", "--sigma-b", "0",
          "--optimizer", "adamw", "--steps", "20"], "--rank"),
        (["compare", "--problem", "linreg", "--m", "6", "--n", "5", "--rank",
          "3", "--optimizer", "adam", "--methods", "reflora", "--warmup", "5",
          "--steps", "20"], "--rank"),
        (["compare", "--problem", "linreg", "--m", "6", "--n", "5", "--rank",
          "3", "--methods", "lora,scaledgd", "--warmup", "5", "--steps", "20"],
         "--rank"),
    ])
    def test_usage_error(self, capsys, monkeypatch, argv, flag):
        for name in ("make_mf", "make_linreg"):
            monkeypatch.setattr(problems, name, _no_build)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"reflora: error: {flag}:")

    def test_k_ignored_for_mf(self):
        assert run_cli(["compare", "--k", "0", "--m", "8", "--n", "6",
                        "--rank", "2", "--steps", "2"]) == 0


def _no_build(*args, **kwargs):
    raise AssertionError("built an instance")


def untimed(path):
    """CSV rows minus every step_time_ns column."""
    rows = [line.split(",") for line in read_body(path).splitlines()]
    keep = [i for i, c in enumerate(rows[0]) if not c.endswith("step_time_ns")]
    return [[row[i] for i in keep] for row in rows]


class TestFlagTable:
    """Each flag's own check lives in cli._FLAGS and runs before any
    instance is built."""

    LOWER_BOUNDS = {"m": 1, "n": 1, "k": 1, "rank": 1, "warmup": 0,
                    "steps": 1, "log-every": 1, "points": 2, "repeats": 10,
                    "trials": 1, "seed": 0}

    def test_every_bound_and_finiteness_check(self, capsys, monkeypatch):
        for name in ("make_mf", "make_linreg"):
            monkeypatch.setattr(problems, name, _no_build)
        cases = []
        for command, flags in cli._FLAGS.items():
            for flag, ftype, _, _, check in flags:
                if ftype is int and check is not None:
                    ok = check[0]
                    low = next(v for v in range(-100, 100) if ok(v))
                    assert low == self.LOWER_BOUNDS[flag], (command, flag)
                    cases.append((command, flag, str(low - 1)))
                elif ftype is float and flag != "lipschitz":
                    cases.append((command, flag, "nan"))
        assert len(cases) == 50
        for command, flag, value in cases:
            assert run_cli([command, f"--{flag}", value]) == 2, (command, flag)
            err = capsys.readouterr().err
            assert err.startswith(f"reflora: error: --{flag}:"), err

    SMALL = ["--steps", "3", "--m", "8", "--n", "6", "--rank", "2"]

    @pytest.mark.parametrize("argv,same_as", [
        (["mf", "--alpha", "-1"], None),
        (["mf", "--method", "lora", "--alpha", "0"], None),
        (["mf", "--sigma-a", "-1"], None),
        (["mf", "--optimizer", "adamw", "--method", "lora",
          "--weight-decay", "-0.1"], None),
        (["mf", "--lipschitz", "-1"], ["mf"]),  # balanced mode ignores it
        (["compare", "--etas", "0.01,,0.02"], ["compare", "--etas", "0.01,0.02"]),
        (["compare", "--etas", "0.01,1e-3"], ["compare", "--etas", "0.01,0.001"]),
        # linreg at rank 2 > k = 1: only reflora and scaledgd past warmup
        # from B = 0 can only fail
        (["compare", "--problem", "linreg", "--k", "1", "--methods",
          "lora,reflora-s"], None),
        (["compare", "--problem", "linreg", "--k", "1", "--warmup", "3"], None),
        (["compare", "--problem", "linreg", "--k", "1", "--sigma-b", "0.1"],
         None),
        (["linreg", "--k", "1", "--sigma-b", "0", "--method", "lora"], None),
        (["linreg", "--k", "1", "--sigma-b", "0", "--method", "reflora-s",
          "--optimizer", "adam"], None),
    ])
    def test_no_over_rejection(self, tmp_path, argv, same_as):
        out = tmp_path / "out.csv"
        assert run_cli(argv + self.SMALL + ["--out", str(out)]) == 0
        if "--etas" in argv:  # a list flag keeps the text it was given
            command = next(line for line in read_header(out)
                           if line.startswith("# command: "))
            assert f" --etas {argv[argv.index('--etas') + 1]} " in command
        if same_as is not None:
            ref = tmp_path / "ref.csv"
            assert run_cli(same_as + self.SMALL + ["--out", str(ref)]) == 0
            assert untimed(out) == untimed(ref)


class TestNegativeFloats:
    """A float flag's value may be a negative number in any float syntax,
    given separated from the flag or joined to it by '='."""

    @pytest.mark.parametrize("flag,argv", [
        ("eta-min", ["bound-scan", "--points", "11"]),
        ("alpha", ["mf"] + TestFlagTable.SMALL),
        ("sigma-a", ["mf"] + TestFlagTable.SMALL),
        ("sigma-b", ["linreg", "--steps", "3"]),
        ("weight-decay", ["mf", "--optimizer", "adamw"] + TestFlagTable.SMALL),
    ])
    def test_separated_equals_joined(self, tmp_path, flag, argv):
        joined, separated = tmp_path / "joined.csv", tmp_path / "separated.csv"
        assert run_cli(argv + [f"--{flag}=-1e-3", "--out", str(joined)]) == 0
        assert run_cli(argv + [f"--{flag}", "-1e-3",
                               "--out", str(separated)]) == 0
        assert untimed(separated) == untimed(joined)


class TestConfigFile:
    def test_flags_equal_config(self, tmp_path):
        out_flags = tmp_path / "flags.csv"
        out_config = tmp_path / "config.csv"
        flags = ["mf", "--method", "reflora-s", "--eta", "0.02",
                 "--steps", "12", "--seed", "7", "--m", "12", "--n", "10",
                 "--rank", "2"]
        assert run_cli(flags + ["--out", str(out_flags)]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comparison run\n"
            "method = reflora-s\n"
            "eta = 0.02\n"
            "steps = 12\n"
            "seed = 7\n"
            "m = 12\n"
            "n = 10\n"
            "rank = 2\n")
        assert run_cli(["mf", "--config", str(config),
                        "--out", str(out_config)]) == 0
        assert read_body(out_flags, drop_timing=True) == \
            read_body(out_config, drop_timing=True)

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("steps = 12\nseed = 3\nm = 10\nn = 8\nrank = 2\n")
        out = tmp_path / "t.csv"
        # every spelling argparse accepts wins, abbreviations included
        for given in (["--steps", "4"], ["--ste", "4"], ["--steps=4"]):
            assert run_cli(["mf", "--config", str(config), *given,
                            "--out", str(out)]) == 0
            body = read_body(out).splitlines()
            assert body[-1].startswith("4,")

    def test_parser_built_once_and_config_does_not_leak(self, tmp_path,
                                                         monkeypatch):
        # the parser is built at import; a config call leaves the next
        # call of the same command on the table defaults
        def no_parser(*args, **kwargs):
            raise AssertionError("cli.main built an ArgumentParser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
        config = tmp_path / "run.cfg"
        config.write_text("seed = 9\neta = 0.02\n")
        dims = ["--steps", "2", "--m", "10", "--n", "8", "--rank", "2"]
        out = tmp_path / "t.csv"
        assert run_cli(["mf", "--config", str(config), *dims,
                        "--out", str(out)]) == 0
        assert "# seed: 9" in read_header(out)
        assert run_cli(["mf", *dims, "--out", str(out)]) == 0
        header = read_header(out)
        assert "# seed: 0" in header
        config_line = next(l for l in header if l.startswith("# config: "))
        assert " eta=0.01 " in config_line and " seed=0 " in config_line

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("stepz = 10\n")
        assert run_cli(["mf", "--config", str(config)]) == 2
        assert "stepz" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        assert run_cli(["mf", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            f"reflora: error: --config: cannot read {config}:")

    def test_config_line_without_equals(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("seed = 1\nsteps 3\n")
        assert run_cli(["mf", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            f"reflora: error: --config: {config}:2: expected 'key = value'")

    @pytest.mark.parametrize("command", ["mf", "compare"])
    def test_config_weight_decay_needs_adaptive_optimizer(self, tmp_path,
                                                          capsys, command):
        config = tmp_path / "wd.cfg"
        config.write_text("weight-decay = 0.5\nsteps = 3\n")
        assert run_cli([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "reflora: error: --weight-decay: needs --optimizer adam or adamw")

    @pytest.mark.parametrize("command,key,value", [("mf", "steps", "abc"),
                                                   ("mf", "eta", "fast"),
                                                   ("compare", "etas", "0.01,x")])
    def test_config_type_error_names_file_and_key(self, tmp_path, capsys,
                                                  command, key, value):
        config = tmp_path / "c.cfg"
        config.write_text(f"seed = 1\n{key} = {value}\n")
        assert run_cli([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"reflora: error: --config: {config}:2: {key}:"), err

    def test_header_command_reproduces_body(self, tmp_path):
        out1 = tmp_path / "a.csv"
        assert run_cli(["mf", "--steps", "8", "--seed", "5", "--m", "10",
                        "--n", "8", "--rank", "2", "--eta", "0.02",
                        "--out", str(out1)]) == 0
        command = next(line for line in read_header(out1)
                       if line.startswith("# command: "))
        argv = command.removeprefix("# command: reflora ").split()
        out2 = tmp_path / "b.csv"
        for i, tok in enumerate(argv):
            if tok == "--out":
                argv[i + 1] = str(out2)
        assert run_cli(argv) == 0
        assert read_body(out1, drop_timing=True) == \
            read_body(out2, drop_timing=True)


class TestLinregSubcommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "lr.csv"
        code = run_cli(["linreg", "--steps", "30", "--eta", "0.05",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        body = read_body(out).splitlines()
        assert len(body) == 32
        losses = [float(line.split(",")[1]) for line in body[1:]]
        assert losses[-1] < losses[0]

    def test_theorem_exact_uses_exact_lipschitz(self, tmp_path):
        out = tmp_path / "lr.csv"
        code = run_cli(["linreg", "--steps", "10", "--eta", "0.05",
                        "--mode", "theorem-exact", "--out", str(out)])
        assert code == 0


class TestBoundScanSubcommand:
    def test_grid_excludes_zero_both_modes(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(["bound-scan", "--eta-min", "-0.5", "--eta-max", "0.5",
                        "--points", "101", "--out", str(out)])
        assert code == 0
        body = read_body(out).splitlines()
        assert body[0] == "eta,mode,true_loss,upper_bound,remainder"
        rows = [line.split(",") for line in body[1:]]
        # the CSV certifies itself: the truncated bound plus the cubic
        # remainder dominates the exact loss on every row
        for r in rows:
            true_loss, bound, remainder = map(float, r[2:])
            certified = bound + remainder
            assert true_loss <= certified + 1e-9 * max(1.0, abs(certified))
        etas = {float(r[0]) for r in rows}
        assert 0.0 not in etas
        assert len(rows) == 200  # 100 nonzero etas x 2 modes
        assert {r[1] for r in rows} == {"identity", "theorem-exact"}
        assert any(float(r[0]) < 0 for r in rows)
        assert any(float(r[0]) > 0 for r in rows)

    def test_bad_grid_usage_error(self, capsys):
        assert run_cli(["bound-scan", "--points", "1"]) == 2
        assert "--points" in capsys.readouterr().err
        assert run_cli(["bound-scan", "--eta-min", "0.5",
                        "--eta-max", "-0.5"]) == 2


class TestCompareSubcommand:
    def test_three_columns(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli(["compare", "--methods", "lora,reflora,scaledgd",
                        "--etas", "0.01", "--steps", "10", "--m", "16",
                        "--n", "12", "--rank", "2", "--out", str(out)])
        assert code == 0
        body = read_body(out).splitlines()
        header = body[0].split(",")
        assert "lora-eta0.01.loss" in header
        assert "reflora-eta0.01.loss" in header
        assert "scaledgd-eta0.01.loss" in header
        assert len(body) == 12

    def test_unknown_method(self, capsys):
        assert run_cli(["compare", "--methods", "lora,bogus"]) == 2
        assert "--methods" in capsys.readouterr().err


class TestInstanceBuiltOnce:
    @pytest.mark.parametrize("builder,argv", [
        ("make_linreg", ["linreg", "--steps", "3"]),
        ("make_linreg", ["linreg", "--steps", "3", "--mode", "theorem-exact"]),
        ("make_linreg", ["compare", "--problem", "linreg", "--methods",
                         "lora,reflora", "--etas", "0.01,0.02", "--steps", "3",
                         "--m", "6", "--n", "5", "--rank", "2", "--k", "7"]),
        ("make_mf", ["mf", "--steps", "3", "--m", "10", "--n", "8",
                     "--rank", "2"]),
        ("make_mf", ["compare", "--methods", "lora,reflora", "--etas", "0.01",
                     "--steps", "3", "--m", "10", "--n", "8", "--rank", "2"]),
    ])
    def test_one_build_per_command(self, builder, argv, tmp_path, monkeypatch):
        calls = []
        build = getattr(problems, builder)

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(problems, builder, counting)
        assert run_cli(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 1


class TestEnvironmentHeader:
    @pytest.mark.parametrize("argv", [
        ["mf", "--steps", "3", "--m", "10", "--n", "8", "--rank", "2"],
        ["compare", "--methods", "lora", "--steps", "3", "--m", "10",
         "--n", "8", "--rank", "2"],
        ["bound-scan", "--points", "5"],
        ["overhead", "--dims", "16", "--ranks", "2"],
    ])
    def test_every_csv_records_the_environment(self, tmp_path, monkeypatch,
                                               argv):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        line = next(l for l in read_header(out) if l.startswith("# numpy: "))
        assert line.startswith(f"# numpy: {np.__version__}, blas: ")
        assert f"cpus: {os.cpu_count()}, " in line
        assert line.endswith("threads: OPENBLAS_NUM_THREADS=1, "
                             "OMP_NUM_THREADS=2")

    def test_blas_unknown_without_config_dicts(self, monkeypatch):
        # numpy before 1.26: show_config takes no mode argument
        def old_show_config():
            return None
        monkeypatch.setattr(np, "show_config", old_show_config)
        assert ", blas: unknown, " in cli._environment_line()


class TestOverheadSubcommand:
    def test_small_probe(self, tmp_path):
        out = tmp_path / "oh.csv"
        code = run_cli(["overhead", "--dims", "48", "--ranks", "2,3",
                        "--repeats", "10", "--out", str(out)])
        assert code == 0
        body = read_body(out).splitlines()
        assert body[0] == ("m,n,r,method,median_step_ns,ratio_vs_lora,"
                           "refactor_phase_ns")
        assert len(body) == 9  # 2 ranks x 4 methods

    def test_repeats_validation(self, capsys):
        assert run_cli(["overhead", "--repeats", "3"]) == 2
        assert "--repeats" in capsys.readouterr().err


class TestPropsReport:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "props.txt"
        code = run_cli(["props-report", "--trials", "10", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "refactor.stationarity" in text
        assert "FAIL" not in text

    def test_injected_fault_fails_stationarity(self, tmp_path, monkeypatch):
        # a kernel that returns S^{-1} as S: S^{-1} is SPD too, so this
        # verifies that the stationarity-type checks bite, and pins which
        # rows see the fault so a weakened row fails this test
        def swap_s(k):
            return dataclasses.replace(k, s=k.s_inv, s_inv=k.s)

        real = refactor.balance
        monkeypatch.setattr(refactor, "balance", lambda f: swap_s(real(f)))
        out = tmp_path / "props.txt"
        code = run_cli(["props-report", "--trials", "5", "--seed", "0",
                        "--out", str(out)])
        assert code == 1
        failing = {line.split()[0] for line in read_body(out).splitlines()
                   if line.endswith("FAIL")}
        assert failing == {"refactor.balance", "refactor.stationarity",
                           "refactor.gram_product_form", "refactor.minimality",
                           "refactor.congruence_invariance",
                           "optim.balance_propagation"}

    def test_crashed_row_fails_alone(self, tmp_path, monkeypatch):
        # a row whose residual raises reads as a failure under its own name;
        # the rows after it still run and the table keeps all its rows
        def boom(gen):
            raise ZeroDivisionError

        rows = list(props.INVARIANTS)
        crashed = rows[9].name
        rows[9] = dataclasses.replace(rows[9], residual=boom)
        monkeypatch.setattr(props, "INVARIANTS", tuple(rows))
        out = tmp_path / "props.txt"
        assert run_cli(["props-report", "--trials", "5",
                        "--out", str(out)]) == 1
        table = read_body(out).splitlines()
        assert table[-1] == "17/18 invariants pass"
        body = table[1:-1]
        assert len(body) == 18
        assert body[9].split() == [crashed, "(ZeroDivisionError)",
                                   "inf", "0.000e+00", "FAIL"]
        for row, line in zip(rows[10:], body[10:]):
            assert line.split()[0] == row.name and line.endswith("pass")

    def test_single_trial_fast_subset(self, tmp_path):
        out = tmp_path / "props.txt"
        assert run_cli(["props-report", "--trials", "1",
                        "--out", str(out)]) == 0


class TestArgparseBehavior:
    def test_missing_subcommand_exits_2(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["mf", "--bogus", "1"]) == 2


class TestOneSchema:
    def test_one_member_compare_equals_mf(self, tmp_path):
        # both commands write TraceRecord's columns through one formatter
        dims = ["--steps", "12", "--log-every", "5", "--seed", "4",
                "--m", "12", "--n", "10", "--rank", "2"]
        mf, cmp = tmp_path / "mf.csv", tmp_path / "cmp.csv"
        assert run_cli(["mf", "--method", "reflora", "--eta", "0.02", *dims,
                        "--out", str(mf)]) == 0
        assert run_cli(["compare", "--methods", "reflora", "--etas", "0.02",
                        *dims, "--out", str(cmp)]) == 0

        def untimed(path, prefix):
            rows = [line.split(",") for line in read_body(path).splitlines()]
            header = [c.removeprefix(prefix) for c in rows[0]]
            keep = [i for i, c in enumerate(header) if c != "step_time_ns"]
            return [[row[i] for i in keep] for row in [header] + rows[1:]]

        expected = untimed(mf, "")
        assert len(expected) == 5  # header, steps 0, 5, 10 and 12
        assert untimed(cmp, "reflora-eta0.02.") == expected

    def test_each_member_of_a_compare_equals_its_mf_run(self, tmp_path):
        dims = ["--eta", "0.02", "--steps", "12", "--log-every", "5",
                "--seed", "4", "--m", "12", "--n", "10", "--rank", "2"]
        methods = ("lora", "reflora", "reflora-s", "scaledgd")
        cmp = tmp_path / "cmp.csv"
        assert run_cli(["compare", "--methods", ",".join(methods),
                        "--etas", "0.02", *dims[2:], "--out", str(cmp)]) == 0
        table = untimed(cmp)
        for method in methods:
            mf = tmp_path / f"{method}.csv"
            assert run_cli(["mf", "--method", method, *dims,
                            "--out", str(mf)]) == 0
            prefix = f"{method}-eta0.02."
            keep = [0] + [i for i, c in enumerate(table[0])
                          if c.startswith(prefix)]
            member = [[row[i] for i in keep] for row in table]
            member[0] = [c.removeprefix(prefix) for c in member[0]]
            assert member == untimed(mf)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_sparse_log_rows_equal_the_dense_log_rows(self, tmp_path,
                                                      optimizer):
        argv = ["mf", "--method", "reflora", "--optimizer", optimizer,
                "--eta", "0.02", "--steps", "30", "--seed", "4", "--m", "12",
                "--n", "10", "--rank", "2"]
        dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
        assert run_cli(argv + ["--out", str(dense)]) == 0
        assert run_cli(argv + ["--log-every", "7", "--out", str(sparse)]) == 0
        rows = untimed(dense)
        by_step = {row[0]: row for row in rows[1:]}
        got = untimed(sparse)
        assert [row[0] for row in got[1:]] == ["0", "7", "14", "21", "28", "30"]
        assert got == [rows[0]] + [by_step[row[0]] for row in got[1:]]


class TestCsvBody:
    """Each CLI body is the per-cell rule applied row by row to the
    library's own table, byte for byte (timing columns aside)."""

    def out(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        return out

    def test_bound_scan(self, tmp_path):
        scan = harness.bound_scan(harness.BoundScanSpec(points=201, seed=2))
        columns = harness.BOUND_SCAN_COLUMNS
        out = self.out(["bound-scan", "--points", "201", "--seed", "2"],
                       tmp_path)
        assert "".join(line for line in out.read_text().splitlines(True)
                       if not line.startswith("#")) == reference_csv(
            columns, zip(*(getattr(scan, c) for c in columns)))

    def test_mf(self, tmp_path):
        records = harness.run(harness.RunSpec(
            problem="mf", m=12, n=10, r=2, seed=4, eta=0.02, iterations=30,
            log_every=4)).records
        columns = harness.TRACE_COLUMNS
        want = tmp_path / "want.csv"
        want.write_text(reference_csv(
            columns, zip(*harness.columns_of(records, columns))))
        out = self.out(["mf", "--steps", "30", "--log-every", "4", "--seed",
                        "4", "--m", "12", "--n", "10", "--rank", "2",
                        "--eta", "0.02"], tmp_path)
        assert untimed(out) == untimed(want)

    def test_compare(self, tmp_path):
        table = harness.compare([harness.RunSpec(
            problem="mf", m=12, n=10, r=2, seed=4, eta=eta, method=method,
            iterations=12, log_every=5)
            for method in ("lora", "reflora-s") for eta in (0.01, 0.02)])
        want = tmp_path / "want.csv"
        want.write_text(reference_csv(table.columns, zip(*table.data)))
        out = self.out(["compare", "--methods", "lora,reflora-s", "--etas",
                        "0.01,0.02", "--steps", "12", "--log-every", "5",
                        "--seed", "4", "--m", "12", "--n", "10", "--rank",
                        "2"], tmp_path)
        assert len(untimed(out)) == 5  # column row, steps 0, 5, 10 and 12
        assert untimed(out) == untimed(want)

    def test_linreg(self, tmp_path):
        records = harness.run(harness.RunSpec(
            problem="linreg", m=2, n=2, k=2, r=1, seed=3, eta=0.05,
            iterations=30, sigma_a=harness.LINREG_SIGMA_A,
            sigma_b=harness.LINREG_SIGMA_B)).records
        columns = harness.TRACE_COLUMNS
        want = tmp_path / "want.csv"
        want.write_text(reference_csv(
            columns, zip(*harness.columns_of(records, columns))))
        out = self.out(["linreg", "--steps", "30", "--seed", "3", "--eta",
                        "0.05"], tmp_path)
        assert len(untimed(out)) == 32  # column row, steps 0..30
        assert untimed(out) == untimed(want)

    def test_overhead(self, tmp_path):
        # the timing columns are measurements; the rest is the probe's grid
        rows = harness.overhead_probe([48], [2, 3])
        columns = {"m": int, "n": int, "r": int, "method": str}
        out = self.out(["overhead", "--dims", "48", "--ranks", "2,3"],
                       tmp_path)
        body = [line.split(",") for line in read_body(out).splitlines()]
        assert len(body) == 9  # column row, 2 ranks x 4 methods
        got = "".join(",".join(cells[:4]) + "\n" for cells in body)
        assert got == reference_csv(columns,
                                    zip(*harness.columns_of(rows, columns)))
