import argparse

import pytest

from dmscramble.cli import build_parser, main
from dmscramble.experiment import read_csv


def run(args):
    return main(args)


class TestSweepD:
    def test_emits_csv_and_svg(self, tmp_path, capsys):
        code = run([
            "sweep-d", "--n", "3", "--jz", "-1", "--temperature", "0.05",
            "--d-values", "0,0.5,1", "--t-max", "4", "--steps", "9",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sweep_d.csv").exists()
        assert (tmp_path / "sweep_d.svg").exists()
        out = capsys.readouterr().out
        assert "t* =" in out

    def test_metadata_records_model(self, tmp_path):
        run([
            "sweep-d", "--n", "2", "--d-values", "0,1",
            "--t-max", "2", "--steps", "5", "--out", str(tmp_path),
        ])
        metadata, _ = read_csv(tmp_path / "sweep_d.csv")
        assert metadata["evolution_model"] == "sum"


class TestSweepT:
    def test_exit_zero(self, tmp_path):
        code = run([
            "sweep-t", "--n", "2", "--d", "1",
            "--temperatures", "0.05,0.5,1,2",
            "--t-max", "2", "--steps", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sweep_t.csv").exists()


class TestCurve:
    def test_single_curve(self, tmp_path):
        code = run([
            "curve", "--n", "2", "--d", "0.5", "--t-max", "2",
            "--steps", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        _, rows = read_csv(tmp_path / "curve.csv")
        assert len(rows) == 5


class TestValidation:
    def test_too_small_chain_exits_2(self, tmp_path, capsys):
        code = run(["curve", "--n", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "n=1" in capsys.readouterr().err

    def test_bad_temperature_exits_2(self, tmp_path, capsys):
        code = run([
            "sweep-d", "--n", "2", "--temperature", "-3",
            "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "0"])
    def test_validate_config_checks_threshold(self, threshold, capsys):
        assert run(["validate-config", "--threshold", threshold]) == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_nonpositive_jobs_exits_2(self, jobs, tmp_path, capsys):
        code = run(["curve", "--n", "2", "--steps", "3", "--jobs", jobs,
                    "--out", str(tmp_path)])
        assert code == 2
        assert f"jobs={jobs}" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_validate_config_prints_resolved_values(self, capsys):
        code = run(["validate-config", "--n", "4", "--d", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d_strength = 0.3" in out
        assert "evolution_model = sum" in out


class TestConfigFile:
    def test_file_values_applied(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nd = 0.25\n# comment\ntemperature=0.5\n")
        code = run(["validate-config", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "n = 4" in out
        assert "d_strength = 0.25" in out

    def test_explicit_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\n")
        code = run(["validate-config", "--config", str(cfg), "--n", "3"])
        assert code == 0
        assert "n = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--temp", "2.0"], ["--temperature=2.0"]])
    def test_abbreviated_or_joined_flag_overrides_file(self, flag, tmp_path,
                                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("temperature=0.5\n")
        code = run(["validate-config", "--config", str(cfg)] + flag)
        assert code == 0
        assert "temperature = 2.0" in capsys.readouterr().out

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        assert run(["validate-config", "--config", str(cfg)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["validate-config", "--config",
                    str(tmp_path / "nope.cfg")]) == 2


class TestHelp:
    @pytest.mark.parametrize("sub", ["curve", "sweep-d", "sweep-t",
                                     "model-select", "validate-config"])
    def test_subcommand_help_lists_defaults(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--n" in out
        assert "default" in out


_ALL = ("curve", "sweep-d", "sweep-t", "model-select", "validate-config")
_D_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
_T_VALUES = (0.05, 0.5, 1.0, 2.0)

# (option strings, dest, default, choices, help, subcommands), in --help order.
_SURFACE = (
    (["--n"], "n", 6, None, "chain length in spins (default 6)", _ALL),
    (["--j-ising"], "j_ising", -1.0, None,
     "Ising coupling J, energy units (default -1)", _ALL),
    (["--hx"], "hx", 1.05, None,
     "transverse field amplitude, energy units (default 1.05)", _ALL),
    (["--hz-amp"], "hz_amp", 0.375, None,
     "staggered longitudinal field amplitude (default 0.375)", _ALL),
    (["--jx"], "jx", 1.0, None,
     "in-plane Heisenberg coupling J_x = J_y (default 1)", _ALL),
    (["--jz"], "jz", -1.0, None,
     "z Heisenberg coupling, must be negative (default -1)", _ALL),
    (["--d"], "d", 0.0, None, "DM interaction strength along z (default 0)", _ALL),
    (["--temperature"], "temperature", 0.05, None,
     "temperature, energy units with k_B=1 (default 0.05)", _ALL),
    (["--evolution-model"], "evolution_model", "sum", ("ising", "dm", "sum"),
     "Hamiltonian generating U(t) (default sum)", _ALL),
    (["--t-start"], "t_start", 0.0, None, "first grid time (default 0)", _ALL),
    (["--t-max"], "t_max", 10.0, None, "last grid time (default 10)", _ALL),
    (["--steps"], "steps", 201, None, "number of grid points (default 201)", _ALL),
    (["--threshold"], "threshold", 0.9, None,
     "F threshold defining the scrambling time (default 0.9)", _ALL),
    (["--out"], "out", ".", None,
     "output directory for CSV/SVG (default current dir)", _ALL),
    (["--jobs"], "jobs", None, None,
     "parallel sweep workers (default: available cores)", _ALL),
    (["--config"], "config", None, None,
     "key=value config file; explicit flags override it", _ALL),
    (["--d-values"], "d_values", _D_VALUES, None,
     "comma-separated DM strengths (default 0,0.25,0.5,0.75,1)", ("sweep-d",)),
    (["--temperatures"], "temperatures", _T_VALUES, None,
     "comma-separated temperatures (default 0.05,0.5,1,2)", ("sweep-t",)),
    (["--d-values"], "d_values", _D_VALUES, None,
     "DM strengths for the D-trend probe", ("model-select",)),
    (["--temperatures"], "temperatures", _T_VALUES, None,
     "temperatures for the T-trend probe", ("model-select",)),
)


def test_cli_surface_is_unchanged():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(_ALL)
    for sub, parser in subparsers.choices.items():
        flags = [(a.option_strings, a.dest, a.default, a.choices, a.help)
                 for a in parser._actions if a.dest != "help"]
        assert flags == [row[:5] for row in _SURFACE if sub in row[5]], sub


def test_failed_write_leaves_no_partial_files(tmp_path):
    from dmscramble.experiment import _atomic_write

    # renaming onto a directory fails after the temp file is written
    target = tmp_path / "blocked"
    target.mkdir()
    with pytest.raises(OSError):
        _atomic_write(str(target), "data\n")
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []
