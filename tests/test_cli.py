import os

import numpy as np
import pytest

from reflora import cli, problems


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

    def test_stdout_output(self, capsys):
        code = run_cli(["mf", "--steps", "3", "--m", "8", "--n", "6",
                        "--rank", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "step,loss" in out


class TestRunFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["mf", "--rank", "0"], "--rank"),
        (["linreg", "--rank", "0"], "--rank"),
        (["compare", "--rank", "0"], "--rank"),
        (["mf", "--warmup", "-1"], "--warmup"),
        (["compare", "--warmup", "-1"], "--warmup"),
        (["compare", "--methods", "lora,scaledgd", "--optimizer", "adam"],
         "--optimizer"),
    ])
    def test_usage_error(self, capsys, argv, flag):
        assert run_cli(argv + ["--steps", "3", "--m", "8", "--n", "6"]) == 2
        assert flag in capsys.readouterr().err


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
        assert run_cli(["mf", "--config", str(config), "--steps", "4",
                        "--out", str(out)]) == 0
        body = read_body(out).splitlines()
        assert body[-1].startswith("4,")

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("stepz = 10\n")
        assert run_cli(["mf", "--config", str(config)]) == 2
        assert "stepz" in capsys.readouterr().err

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
        assert body[0] == "eta,mode,true_loss,upper_bound"
        rows = [line.split(",") for line in body[1:]]
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

    def test_injected_fault_fails_stationarity(self, tmp_path):
        out = tmp_path / "props.txt"
        code = run_cli(["props-report", "--trials", "5", "--inject-fault",
                        "--out", str(out)])
        assert code == 1
        line = next(l for l in out.read_text().splitlines()
                    if l.startswith("refactor.stationarity"))
        assert "FAIL" in line

    def test_single_trial_fast_subset(self, tmp_path):
        out = tmp_path / "props.txt"
        assert run_cli(["props-report", "--trials", "1",
                        "--out", str(out)]) == 0


class TestArgparseBehavior:
    def test_missing_subcommand_exits_2(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["mf", "--bogus", "1"]) == 2
