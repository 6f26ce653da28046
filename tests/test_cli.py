"""Command-line harness tests: config parsing, outputs, determinism."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsim import (
    ArrayConfig,
    OfdmSpec,
    SignalSpec,
    derive_seed,
    run_ofdm,
    run_single_carrier,
)
from squintsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _build_parser,
    _fixed_rows,
    _resolve_config,
    _write_simulate_outputs,
    main,
)
from squintsim.config import _SCHEMA, ExperimentConfig, parse_config_file
from squintsim.errors import ConfigError


def run_cli(args):
    return main(args)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "n = 16\n"
            "theta_deg = 30  # inline comment\n"
            "bw = 0.2\n"
            "snr_db = inf\n"
        )
        raw = parse_config_file(path)
        cfg = ExperimentConfig(raw)
        assert cfg["n"] == 16
        assert cfg["theta_deg"] == 30.0
        assert np.isinf(cfg["snr_db"])
        assert cfg["cp_num"] == 2  # default untouched

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 8\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("n = 8\nn = 16\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="theta_deg"):
            ExperimentConfig({"theta_deg": "thirty"})

    @pytest.mark.parametrize("key", ["theta_deg", "bw", "spacing", "sweep_bw"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig({key: value})

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"seed": -1, "sweep_n": [2, 4]}, "seed"),
            ({"snr_db": float("nan")}, "snr_db"),
            ({"n": 2.5}, "n"),
            ({"sweep_bw": []}, "sweep_bw"),
        ],
    )
    def test_parsed_values_go_through_schema(self, values, key):
        # a config built in code is parsed like a file's text
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(values)

    @pytest.mark.parametrize("value", ["inf", "+inf", "Infinity"])
    def test_snr_accepts_positive_infinity(self, value):
        assert ExperimentConfig({"snr_db": value})["snr_db"] == np.inf

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("n = 8\ntheta_deg = 30\nbw = 0.2\n")
        out = tmp_path / "r"
        code = run_cli(
            ["analyze", "--config", str(path), "--n", "16", "--out", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["n"] == 16


class TestParser:
    # one text per flag, each unlike its key's default
    FLAG_VALUES = {
        "n": "12", "theta_deg": "20", "bw": "0.3", "snr_db": "15", "carriers": "32",
        "cp_num": "3", "combiner": "reduced", "seed": "5", "out": "x", "format": "json",
    }

    def test_each_flag_sets_its_config_key(self):
        parser = _build_parser()
        flags = {
            action.dest: action.option_strings for action in parser._actions
            if action.option_strings and action.dest not in ("help", "version", "config")
        }
        assert flags == {key: ["--" + key.replace("_", "-")] for key in self.FLAG_VALUES}
        for key, text in self.FLAG_VALUES.items():
            argv = ["analyze", "--" + key.replace("_", "-"), text]
            if key == "combiner":
                argv += ["--carriers", "16"]  # an IDFT combiner needs tones
            parse, default = _SCHEMA[key]
            assert _resolve_config(parser.parse_args(argv))[key] == parse(text) != default

    @pytest.mark.parametrize("flag, value, key", [
        ("--n", "abc", "'n'"),
        ("--combiner", "foo", "'combiner'"),
    ])
    def test_malformed_flag_is_config_error_naming_key(self, capsys, flag, value, key):
        assert run_cli(["analyze", flag, value]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bogus", "--n", "4"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err


class TestAnalyze:
    def test_reference_values(self, tmp_path):
        for stem in ("a", "a2"):
            code = run_cli(
                [
                    "analyze", "--n", "16", "--theta-deg", "30", "--bw", "0.2",
                    "--out", str(tmp_path / stem),
                ]
            )
            assert code == EXIT_OK
        payload = json.loads((tmp_path / "a.json").read_text())
        ana = payload["analytic"]
        assert ana["coherent_bw"] == pytest.approx(0.22125)
        assert ana["isi_bw_limit"] == pytest.approx(0.25)
        # the output path is not part of the report
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "a2.json").read_bytes()

    def test_sizing_present_with_carriers(self, tmp_path):
        out = tmp_path / "b"
        code = run_cli(
            [
                "analyze", "--n", "64", "--theta-deg", "30", "--bw", "0.2",
                "--carriers", "128", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        sizing = json.loads((tmp_path / "b.json").read_text())["analytic"]["reduced_sizing"]
        assert sizing["n_reduced"] == 4 and sizing["m_reduced"] == 4
        assert sizing["n_sub"] == 16 and sizing["m_group"] == 32

    def test_default_stem_is_written(self, tmp_path, monkeypatch, capsys):
        # "report" is also the default stem; spelled out it still writes
        monkeypatch.chdir(tmp_path)
        code = run_cli(["analyze", "--n", "16", "--theta-deg", "30", "--bw", "0.2",
                        "--out", "report"])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["config"]["n"] == 16

    def test_broadside_is_config_error(self, capsys):
        code = run_cli(["analyze", "--n", "16", "--theta-deg", "0", "--bw", "0.2"])
        assert code == EXIT_CONFIG
        assert "broadside" in capsys.readouterr().err

    def test_invalid_flag_value_is_config_error(self, capsys):
        code = run_cli(["analyze", "--n", "0", "--theta-deg", "30"])
        assert code == EXIT_CONFIG

    def test_idft_without_carriers_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "a"
        code = run_cli(["analyze", "--n", "16", "--theta-deg", "30", "--bw", "0.2",
                        "--combiner", "idft", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "carriers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_nan_angle_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "nan"
        code = run_cli(["analyze", "--n", "16", "--theta-deg", "nan", "--bw", "0.2",
                        "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "theta_deg" in capsys.readouterr().err
        assert not (tmp_path / "nan.json").exists()


class TestSimulate:
    def _args(self, tmp_path, **over):
        base = {
            "n": "8", "theta_deg": "30", "bw": "0.1", "snr_db": "20",
            "seed": "42", "out": str(tmp_path / "sim"),
        }
        base.update({k: str(v) for k, v in over.items()})
        args = ["simulate"]
        for key, value in base.items():
            args += [f"--{key.replace('_', '-')}", value]
        return args

    def test_single_carrier_outputs(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_symbols = 800\n")
        code = run_cli(self._args(tmp_path) + ["--config", str(cfgfile)])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "sim.json").read_text())
        assert payload["overall_evm_db"] < -20
        assert payload["config"]["n"] == 8
        const = (tmp_path / "sim_constellation.csv").read_text().splitlines()
        assert const[0] == "re,im,ref_re,ref_im"
        assert len(const) == 801

    def test_ofdm_outputs_tone_csv(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_ofdm_symbols = 30\noversample = 4\n")
        code = run_cli(
            self._args(tmp_path, carriers=32) + ["--config", str(cfgfile)]
        )
        assert code == EXIT_OK
        tones = (tmp_path / "sim_tones.csv").read_text().splitlines()
        assert tones[0] == "tone,evm_db,ssir_db"
        assert len(tones) == 33

    @pytest.mark.parametrize(
        "combiner, n, summary",
        [
            ("idft", 16, "window side, L 1792"),
            ("idft", 8, "branch side, L 1680"),
            ("ps", 8, "branch side, L 1680"),
            (None, 8, None),
        ],
    )
    def test_summary_names_combining_side(self, tmp_path, capsys, combiner, n, summary):
        """The stderr summary of an OFDM run names the combining side and
        the frame length L (1792 = 128 * 14 on the window side, the least
        7-smooth 1680 on the branch side, which the N = 8 full IDFT keeps on
        this short frame); no report file carries them, and a
        single-carrier run names neither."""
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_ofdm_symbols = 12\noversample = 4\nn_symbols = 300\n")
        over = {"carriers": 32, "combiner": combiner} if combiner else {}
        over["n"] = n
        assert run_cli(self._args(tmp_path, **over) + ["--config", str(cfgfile)]) == EXIT_OK
        err = capsys.readouterr().err
        if summary:
            assert f" dB, {summary} (" in err
        else:
            assert " side" not in err
        for path in tmp_path.glob("sim*"):
            assert " side" not in path.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_symbols = 500\n")
        run_cli(self._args(tmp_path, out=tmp_path / "one") + ["--config", str(cfgfile)])
        run_cli(self._args(tmp_path, out=tmp_path / "two") + ["--config", str(cfgfile)])
        for suffix in (".json", "_constellation.csv"):
            a = (tmp_path / f"one{suffix}").read_bytes()
            b = (tmp_path / f"two{suffix}").read_bytes()
            assert a == b

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_snr_is_config_error(self, tmp_path, capsys, value):
        args = self._args(tmp_path)
        at = args.index("--snr-db")
        # the '=' form, or argparse would read '-inf' as a flag
        args[at:at + 2] = [f"--snr-db={value}"]
        assert run_cli(args) == EXIT_CONFIG
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "sim.json").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, source):
        if source == "flag":
            args = self._args(tmp_path, seed=-1)
        else:
            cfgfile = tmp_path / "c.cfg"
            cfgfile.write_text("seed = -1\n")
            args = self._args(tmp_path)
            at = args.index("--seed")
            args[at:at + 2] = ["--config", str(cfgfile)]
        assert run_cli(args) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not list(tmp_path.glob("sim*"))

    def test_unsupported_mod_order_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("mod_order = 8\n")
        assert run_cli(self._args(tmp_path) + ["--config", str(cfgfile)]) == EXIT_CONFIG
        assert "modulation_order" in capsys.readouterr().err
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "sizing", ["n_sub = 0", "n_sub = -2", "m_group = 0", "m_group = -1", "m_group = 3"]
    )
    def test_bad_combiner_sizing_is_config_error(self, tmp_path, capsys, command, sizing):
        # a size no cell could run with fails when the config is built, before
        # any cell runs; an n_sub that does not divide a swept N fails per cell
        # (TestSweep.test_failed_cells_go_to_errors_sidecar)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            f"carriers = 16\nn_ofdm_symbols = 4\ncombiner = reduced\n{sizing}\nsweep_n = 8,16\n"
        )
        args = [command, "--config", str(cfgfile), "--out", str(tmp_path / "sim")]
        assert run_cli(args) == EXIT_CONFIG
        assert sizing.split()[0] in capsys.readouterr().err
        assert not list(tmp_path.glob("sim*"))

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        args = self._args(tmp_path, out=tmp_path / "missing" / "sim")
        assert run_cli(args) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "missing" in err

    def test_config_echo_round_trips(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_symbols = 400\n")
        run_cli(self._args(tmp_path) + ["--config", str(cfgfile)])
        payload = json.loads((tmp_path / "sim.json").read_text())
        from squintsim.cli import _run_point

        report = _run_point(ExperimentConfig(payload["config"]))
        assert report.overall_evm_db == payload["overall_evm_db"]
        assert report.overall_ssir_db == payload["overall_ssir_db"]


def csv_writer_oracle(report, out):
    """The report CSVs as csv.writer writes them, one numpy scalar at a time."""
    if report.per_tone is not None:
        with open(f"{out}_tones.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tone", "evm_db", "ssir_db"])
            for tone in report.per_tone:
                writer.writerow([tone.tone_index, f"{tone.evm_db:.6f}", f"{tone.ssir_db:.6f}"])
    with open(f"{out}_constellation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "ref_re", "ref_im"])
        for rx, ref in report.constellation:
            writer.writerow(
                [f"{rx.real:.9f}", f"{rx.imag:.9f}", f"{ref.real:.9f}", f"{ref.imag:.9f}"]
            )


class TestReportCsv:
    @pytest.mark.parametrize("link", ["sc", "ofdm"])
    def test_bytes_match_csv_writer(self, tmp_path, link):
        cfg, spec = ArrayConfig(8, 0.5), SignalSpec(0.2, n_symbols=300, oversample=4, seed=4)
        if link == "sc":
            report = run_single_carrier(cfg, spec, 20.0)
        else:
            report = run_ofdm(cfg, spec, OfdmSpec(16, n_ofdm_symbols=6), 20.0)
            report.per_tone[0].evm_db = -0.0
            report.per_tone[1].ssir_db = -1e-9  # rounds to -0.000000
        # signed zeros and tiny negatives that round to -0.000000000
        report.constellation[0] = [complex(-0.0, 0.0), complex(0.0, -0.0)]
        report.constellation[1] = [complex(-1e-12, -3.5), complex(-1.0, 1e-12)]
        # rows the digit path hands to "%.*f": exact ties (2^-10 * 1e9 is
        # 976562.5) and values whose scaled digits reach 2^53
        report.constellation[2] = [complex(1 / 1024, -3 / 1024), complex(1.0, -1.0)]
        report.constellation[3] = [complex(0.25, 12345678.5), complex(1e7, -0.75)]
        _write_simulate_outputs(report, str(tmp_path / "new"))
        csv_writer_oracle(report, str(tmp_path / "old"))
        suffixes = ["_constellation.csv"] + (["_tones.csv"] if link == "ofdm" else [])
        for suffix in suffixes:
            new = (tmp_path / f"new{suffix}").read_bytes()
            assert new == (tmp_path / f"old{suffix}").read_bytes()
            assert b"-0.000000" in new


def fixed_value(decimals: int):
    """Finite floats with signed zeros and subnormals, values on or next to
    a rounding tie (k + 1/2) 10^-decimals, and dyadic ties."""
    return st.one_of(
        st.floats(-1e12, 1e12),
        st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 10**decimals),
        st.integers(-2**20, 2**20).map(lambda k: (k + 0.5) * 2.0**-10),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-12]),
    )


def fixed_case(decimals: int):
    return st.integers(1, 4).flatmap(
        lambda n_cols: st.lists(
            st.lists(fixed_value(decimals), min_size=n_cols, max_size=n_cols),
            min_size=1, max_size=12,
        )
    ).map(lambda rows: (decimals, rows))


@settings(max_examples=200)
@given(st.sampled_from([6, 9]).flatmap(fixed_case))
def test_fixed_rows_match_percent_format_property(case):
    decimals, rows = case
    expected = "".join(",".join("%.*f" % (decimals, v) for v in row) + "\r\n" for row in rows)
    assert _fixed_rows(np.array(rows), decimals) == expected


class TestSweep:
    @staticmethod
    def _grid(tmp_path):
        # a two-cell clean single-carrier grid
        cfgfile = tmp_path / "cells.cfg"
        cfgfile.write_text("sweep_n = 2,4\nsnr_db = inf\nn_symbols = 300\n")
        return ["--config", str(cfgfile)]

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("sweep_n = 2,4\nsnr_db = inf\nn_symbols = 300\nseed = -1\n")
        out = tmp_path / "g"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not list(tmp_path.glob("g*"))

    def test_bad_base_setting_is_config_error(self, tmp_path, capsys):
        # a setting no cell axis changes fails once, before any cell runs
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("sweep_n = 2,4\nsnr_db = inf\nn_symbols = 300\nmod_order = 8\n")
        out = tmp_path / "g"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
        assert "modulation_order" in capsys.readouterr().err
        assert not list(tmp_path.glob("g*"))

    def test_malformed_workers_is_config_error(self, tmp_path, monkeypatch, capsys):
        import squintsim.cli as cli

        def no_cell(values):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_sweep_cell", no_cell)
        monkeypatch.setenv("SQUINTSIM_WORKERS", "two")
        out = tmp_path / "g"
        assert run_cli(["sweep", "--n", "4", "--out", str(out)] + self._grid(tmp_path)) == EXIT_CONFIG
        assert "SQUINTSIM_WORKERS" in capsys.readouterr().err
        assert not list(tmp_path.glob("g*"))

    @pytest.mark.parametrize("workers", ["0", "1", "-3"])
    def test_workers_below_two_run_serially(self, tmp_path, monkeypatch, workers):
        import squintsim.cli as cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("SQUINTSIM_WORKERS", workers)
        out = tmp_path / "g"
        assert run_cli(["sweep", "--out", str(out)] + self._grid(tmp_path)) == EXIT_OK
        assert len((tmp_path / "g.csv").read_text().splitlines()) == 3

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g"
        assert run_cli(["sweep", "--out", str(out)] + self._grid(tmp_path)) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "missing" in err

    def test_grid_csv_schema_and_determinism(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 2,4\n"
            "sweep_theta_deg = 20,40\n"
            "bw = 0.1\n"
            "snr_db = inf\n"
            "n_symbols = 400\n"
            "seed = 7\n"
        )
        out1 = tmp_path / "g1"
        out2 = tmp_path / "g2"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out1)]) == EXIT_OK
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out2)]) == EXIT_OK
        text = (tmp_path / "g1.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "n_elements,theta_deg,bw_frac,ssir_db,evm_db"
        assert len(lines) == 5
        # row-major order over (n, theta)
        assert lines[1].startswith("2,20.0,0.1,")
        assert lines[4].startswith("4,40.0,0.1,")
        assert text == (tmp_path / "g2.csv").read_text()

    def test_cell_matches_simulate_with_derived_seed(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 4\nsweep_theta_deg = 30\nbw = 0.1\nsnr_db = inf\n"
            "n_symbols = 400\nseed = 9\n"
        )
        out = tmp_path / "grid"
        run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)])
        row = (tmp_path / "grid.csv").read_text().splitlines()[1]
        ssir_cell = float(row.split(",")[3])
        sim_out = tmp_path / "point"
        cfg2 = tmp_path / "p.cfg"
        cfg2.write_text("bw = 0.1\nsnr_db = inf\nn_symbols = 400\n")
        run_cli(
            [
                "simulate", "--config", str(cfg2), "--n", "4", "--theta-deg", "30",
                "--seed", str(derive_seed(9, 0)), "--out", str(sim_out),
            ]
        )
        payload = json.loads((tmp_path / "point.json").read_text())
        assert payload["overall_ssir_db"] == pytest.approx(ssir_cell, abs=5e-7)

    def test_unexpected_cell_exception_is_recorded(self, tmp_path, monkeypatch, capsys):
        import squintsim.cli as cli

        run_point = cli._run_point

        def failing(cfg):
            if cfg["n"] == 4:
                raise ValueError("cell blew up")
            return run_point(cfg)

        monkeypatch.setattr(cli, "_run_point", failing)
        monkeypatch.setenv("SQUINTSIM_WORKERS", "1")
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 2,4,8\nbw = 0.1\nsnr_db = inf\nn_symbols = 300\nformat = json\n"
        )
        out = str(tmp_path / "g")
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", out]) == EXIT_OK
        cells = json.loads((tmp_path / "g.json").read_text())["cells"]
        assert [c["error"] for c in cells] == ["", "ValueError: cell blew up", ""]
        assert cells[1]["ssir_db"] is None and cells[1]["evm_db"] is None
        assert all(np.isfinite(cells[i]["ssir_db"]) for i in (0, 2))
        assert "cell blew up" in capsys.readouterr().err

    def test_failed_cells_go_to_errors_sidecar(self, tmp_path, capsys):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 8,12\nsweep_theta_deg = 30\nsweep_bw = 0.1,0.2\ncarriers = 16\n"
            "n_ofdm_symbols = 8\ncombiner = reduced\nn_sub = 3\nsnr_db = inf\n"
        )
        out = tmp_path / "g"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "n_elements,theta_deg,bw_frac,ssir_db,evm_db"
        assert lines[1:3] == ["8,30.0,0.1,,", "8,30.0,0.2,,"]
        with open(tmp_path / "g_errors.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        error = "IndivisibleSizing: n_sub = 3 must divide N = 8"
        assert rows == [
            ["n_elements", "theta_deg", "bw_frac", "error"],
            ["8", "30.0", "0.1", error],
            ["8", "30.0", "0.2", error],
        ]
        stderr = capsys.readouterr().err
        assert f"cell 8/30.0/0.1: {error}" in stderr
        assert f"cell 8/30.0/0.2: {error}" in stderr

    def test_no_sidecar_without_failures(self, tmp_path):
        # a sidecar left by an earlier run of the same stem goes too
        (tmp_path / "g_errors.csv").write_text("n_elements,theta_deg,bw_frac,error\r\n")
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("sweep_n = 2,4\nbw = 0.1\nsnr_db = inf\nn_symbols = 300\n")
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "g")]) == EXIT_OK
        assert [p.name for p in tmp_path.glob("g*")] == ["g.csv"]

    def test_sweep_csv_matches_csv_writer(self, tmp_path, monkeypatch):
        # the sweep CSV and its sidecar match csv.writer byte for byte; an
        # error text with a comma, quotes and a line break is quoted as
        # csv.writer quotes it
        import squintsim.cli as cli

        run_point = cli._run_point
        error = 'bad, "odd"\nvalue'

        def failing(cfg):
            if cfg["n"] == 4:
                raise ValueError(error)
            return run_point(cfg)

        monkeypatch.setattr(cli, "_run_point", failing)
        monkeypatch.setenv("SQUINTSIM_WORKERS", "1")
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 2,4\nsweep_theta_deg = 20,40\nbw = 0.1\nsnr_db = 20\n"
            "n_symbols = 300\nformat = json\n"
        )
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "g")]) == EXIT_OK
        cells = json.loads((tmp_path / "g.json").read_text())["cells"]
        cfgfile.write_text(cfgfile.read_text().replace("json", "csv"))
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "g")]) == EXIT_OK
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_elements", "theta_deg", "bw_frac", "ssir_db", "evm_db"])
            for c in cells:
                writer.writerow([c["n_elements"], c["theta_deg"], c["bw_frac"]] + [
                    "" if c[k] is None else f"{c[k]:.6f}" for k in ("ssir_db", "evm_db")
                ])
        with open(tmp_path / "old_errors.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_elements", "theta_deg", "bw_frac", "error"])
            for c in cells:
                if c["error"]:
                    writer.writerow([c["n_elements"], c["theta_deg"], c["bw_frac"], c["error"]])
        assert [c["error"] for c in cells].count(f"ValueError: {error}") == 2
        for suffix in (".csv", "_errors.csv"):
            new = (tmp_path / f"g{suffix}").read_bytes()
            assert new == (tmp_path / f"old{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "grid",
        [
            "sweep_n = 2,4\nsweep_theta_deg = 20,40\nsweep_bw = 0.1,0.2\n"
            "n_symbols = 300\nformat = json\n",
            "sweep_n = 4,8\nsweep_theta_deg = 30,45\ncarriers = 16\n"
            "n_ofdm_symbols = 8\ncombiner = reduced\nformat = csv\n",
        ],
    )
    def test_report_independent_of_worker_count(self, tmp_path, monkeypatch, grid):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(grid + "snr_db = 20\nseed = 3\n")
        reports = []
        for workers in ("1", "4"):
            monkeypatch.setenv("SQUINTSIM_WORKERS", workers)
            out = tmp_path / f"w{workers}"
            assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
            (report,) = tmp_path.glob(f"w{workers}.*")
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_sweep_without_axes_is_config_error(self, capsys):
        assert run_cli(["sweep", "--n", "4"]) == EXIT_CONFIG

    def test_json_format(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(
            "sweep_n = 2\nbw = 0.1\nsnr_db = inf\nn_symbols = 300\nformat = json\n"
        )
        for stem in ("g", "g2"):
            out = str(tmp_path / stem)
            assert run_cli(["sweep", "--config", str(cfgfile), "--out", out]) == EXIT_OK
        payload = json.loads((tmp_path / "g.json").read_text())
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["n_elements"] == 2
        # the output path is not part of the report
        assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()
