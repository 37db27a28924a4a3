import json
import math

import numpy as np
import pytest

from dbmlab import cli
from dbmlab.errors import ConfigError
from dbmlab.kernel import RescaledKernelFrame
from dbmlab.freeconv import make_window
from dbmlab.measures import InitialConfiguration


KERNEL_CONF = """
# small bulk frame
measure {
  kind = uniform
  a = -1
  b = 1
}
n = 4
generator = quantiles
t = 0.5
window {
  x_star = 0
  extent = 1
  step = 0.5
}
seed = 3
"""


GAP_CONF = """
measure {
  kind = uniform
}
n = 10
generator = equispaced_gap
gap_half_width = 0.3
t = 0.0009
window {
  epsilon = 0.03
}
"""


UNIFORM_DENSITY_CONF = "measure {\n kind = uniform\n}\nt = 0.5\n"

PATHS_CONF = "generator = explicit\npoints = -1, 0, 1\nt_grid = 0, 0.2\n"


def write_conf(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfigFormat:
    def test_parse_scalars_lists_and_blocks(self):
        tree = cli.parse_config_text(
            "n = 7\nt_grid = 0.1, 0.25\nmeasure {\n kind = uniform\n a = -2\n}\n"
        )
        assert tree == {
            "n": 7,
            "t_grid": [0.1, 0.25],
            "measure": {"kind": "uniform", "a": -2.0},
        }

    def test_comments_and_blank_lines_ignored(self):
        tree = cli.parse_config_text("# header\n\nn = 3  # trailing\n")
        assert tree == {"n": 3}

    def test_single_element_list_round_trips(self):
        tree = cli.parse_config_text("t_grid = 0.5\nn_grid = 10\n")
        assert tree == {"t_grid": [0.5], "n_grid": [10]}
        # through the config.json mirror and back
        assert json.loads(json.dumps(tree)) == tree

    def test_empty_list_round_trips(self):
        tree = cli.parse_config_text("t_grid =\n")
        assert tree == {"t_grid": []}
        assert json.loads(json.dumps(tree)) == tree

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("bogus = 1\n")

    def test_unknown_block_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("measure {\n flavor = 2\n}\n")

    def test_removed_m_nodes_key_rejected(self):
        # the frame never used a Lagrange node count, and contour and
        # Fredholm tolerances are not config keys
        with pytest.raises(ConfigError):
            cli.parse_config_text("quadrature {\n m_nodes = 64\n}\n")
        with pytest.raises(ConfigError):
            cli.parse_config_text("quadrature {\n max_levels = 8\n}\n")

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("n = 2.5\n")
        with pytest.raises(ConfigError):
            cli.parse_config_text("t = banana\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("n = 2\nn = 3\n")

    def test_unterminated_block_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config_text("measure {\n kind = uniform\n")


class TestDensityCommand:
    def test_semicircle_density_matches_later_semicircle(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = semicircle\n variance = 1\n}\nt = 1\n",
        )
        out = tmp_path / "run"
        rc = cli.main(["density", "--config", str(conf), "--out", str(out)])
        assert rc == 0
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "x,psi"
        data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        # mu_t for semicircle(1) at t=1 is semicircle(2): radius 2*sqrt(2)
        x, psi = data[:, 0], data[:, 1]
        rad2 = 8.0
        ref = np.where(
            x**2 < rad2, np.sqrt(np.maximum(rad2 - x**2, 0.0)) / (4.0 * math.pi), 0.0
        )
        assert float(np.max(np.abs(psi - ref))) < 1e-8

    def test_power_critical_time_in_summary(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = power\n exponent = 2\n}\nt = 0.1\n",
        )
        out = tmp_path / "run"
        assert cli.main(["density", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "quantity,value,rounded"
        vals = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert vals["t_cr"] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_uniform_offcenter_critical_time(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n a = -1\n b = 1\n}\nt = 0.2\n"
            "window {\n x_star = 2\n}\n",
        )
        out = tmp_path / "run"
        assert cli.main(["density", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        vals = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert vals["t_cr"] == pytest.approx(3.0, abs=1e-8)


class TestKernelCommand:
    def test_grid_csv_and_frame_json(self, tmp_path):
        conf = write_conf(tmp_path, KERNEL_CONF)
        out = tmp_path / "run"
        assert cli.main(["kernel", "--config", str(conf), "--out", str(out)]) == 0

        rows = (out / "kernel.csv").read_text().strip().splitlines()
        assert rows[0] == "u,v,value"
        assert len(rows) == 1 + 5 * 5
        table = {}
        for r in rows[1:]:
            u, v, val = (float(c) for c in r.split(","))
            table[(u, v)] = val
        assert (0.0, 0.0) in table and (0.5, -0.5) in table

        # values match a frame built directly from the same description
        config = InitialConfiguration.from_quantiles(
            cli.build_measure(cli.parse_config_text(KERNEL_CONF)),
            4,
        )
        grid = np.arange(-2, 3) * 0.5
        frame = RescaledKernelFrame(
            config, 0.5, make_window(config.empirical(), 0.5, 0.0, u_grid=grid)
        )
        direct = frame.values(grid, grid)
        for i, u in enumerate(grid):
            for j, v in enumerate(grid):
                assert table[(u, v)] == pytest.approx(
                    direct[i, j], rel=1e-12, abs=1e-12
                )

        blob = json.loads((out / "frame.json").read_text())
        assert set(blob) == {
            "n",
            "t",
            "x_star",
            "x_star_t",
            "c_t",
            "x0",
            "quadrature_M",
        }
        assert blob["n"] == 4

        summary = (out / "summary.csv").read_text().splitlines()
        names = {r.split(",")[0] for r in summary[1:]}
        assert names == {"sup_sine_deviation", "sup_abs_value", "max_sine_amplitude"}

    def test_rerun_is_bit_identical(self, tmp_path):
        conf = write_conf(tmp_path, KERNEL_CONF)
        out = tmp_path / "run"
        assert cli.main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
        first = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert cli.main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert first == second

    def test_gap_window_reports_zero_sine_amplitude(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n a = -1\n b = 1\n}\n"
            "n = 10\ngenerator = equispaced_gap\ngap_half_width = 0.3\n"
            "t = 0.0009\n"
            "window {\n x_star = 0\n extent = 1\n step = 0.5\n epsilon = 0.03\n}\n",
        )
        out = tmp_path / "run"
        assert cli.main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        vals = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert vals["max_sine_amplitude"] == 0.0
        assert vals["sup_abs_value"] < 0.05


class TestSweepCommand:
    def test_sweep_table(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n a = -1\n b = 1\n}\n"
            "generator = quantiles\nn_grid = 3, 5\nt_grid = 0.6\n"
            "window {\n extent = 1\n step = 0.5\n}\n",
        )
        out = tmp_path / "run"
        assert cli.main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "n,t,sup_sine_deviation,gap_probability,sup_rounded"
        assert len(rows) == 3
        for r in rows[1:]:
            cols = r.split(",")
            assert float(cols[2]) >= 0.0
            assert 0.0 <= float(cols[3]) <= 1.0

    def test_empty_t_grid_is_validation_error(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n}\ngenerator = quantiles\n"
            "n_grid = 3\nt_grid =\n",
        )
        rc = cli.main(["sweep", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_mismatched_grid_lengths_rejected(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n}\ngenerator = quantiles\n"
            "n_grid = 3, 4, 5\nt_grid = 0.5, 0.6\n",
        )
        rc = cli.main(["sweep", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestGapCommand:
    def test_fredholm_and_monte_carlo_side_by_side(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n a = -1\n b = 1\n}\n"
            "n = 10\ngenerator = equispaced_gap\ngap_half_width = 0.3\n"
            "t = 0.0009\nsamples = 200\nseed = 5\n"
            "window {\n x_star = 0\n extent = 1\n step = 0.5\n epsilon = 0.03\n}\n",
        )
        out = tmp_path / "run"
        assert cli.main(["gap", "--config", str(conf), "--out", str(out)]) == 0
        blob = json.loads((out / "gap.json").read_text())
        assert set(blob) == {"interval", "fredholm", "monte_carlo"}
        a, b = blob["interval"]
        assert a < b
        assert 0.0 <= blob["fredholm"]["probability"] <= 1.0
        mc = blob["monte_carlo"]
        assert mc["samples"] == 200
        assert 0.0 <= mc["frequency"] <= 1.0
        # far from critical time the tiny gap interval stays empty
        assert blob["fredholm"]["probability"] > 0.9
        assert mc["frequency"] > 0.9

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        conf = write_conf(
            tmp_path, GAP_CONF.replace("n = 10", "n = 20") + "samples = 50\nseed = 4\n"
        )
        blobs = []
        for flag in (["--threads", "1"], ["--threads", "2"], []):
            out = tmp_path / f"run{len(blobs)}"
            assert cli.main(["gap", "--config", str(conf), "--out", str(out), *flag]) == 0
            blobs.append([(out / name).read_bytes() for name in ("gap.json", "summary.csv")])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_gap_requires_epsilon(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n}\nn = 6\ngenerator = quantiles\nt = 0.5\n",
        )
        rc = cli.main(["gap", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestPathsCommand:
    def test_trajectory_csv(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "generator = explicit\npoints = -0.5, 0.5\n"
            "t_grid = 0, 0.25, 1\nseed = 11\nsample_index = 2\n",
        )
        out = tmp_path / "run"
        assert cli.main(["paths", "--config", str(conf), "--out", str(out)]) == 0
        rows = (out / "paths.csv").read_text().strip().splitlines()
        assert rows[0] == "t,lambda_1,lambda_2"
        assert len(rows) == 4
        first = [float(c) for c in rows[1].split(",")]
        assert first == [0.0, -0.5, 0.5]

    def test_paths_rerun_bit_identical_and_seed_changes_output(self, tmp_path):
        conf = write_conf(
            tmp_path,
            "generator = explicit\npoints = -0.5, 0.5\nt_grid = 0.3, 0.8\n",
        )
        out = tmp_path / "run"
        assert cli.main(["paths", "--config", str(conf), "--out", str(out)]) == 0
        body = (out / "paths.csv").read_bytes()
        assert cli.main(["paths", "--config", str(conf), "--out", str(out)]) == 0
        assert (out / "paths.csv").read_bytes() == body
        assert cli.main(
            ["paths", "--config", str(conf), "--out", str(out), "--seed", "99"]
        ) == 0
        assert (out / "paths.csv").read_bytes() != body
        # the seed override lands in the canonical mirror
        blob = json.loads((out / "config.json").read_text())
        assert blob["seed"] == 99


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc = cli.main(
            ["kernel", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_unknown_key_exits_2(self, tmp_path):
        conf = write_conf(tmp_path, "wibble = 3\n")
        assert cli.main(["density", "--config", str(conf)]) == 2

    @pytest.mark.parametrize(
        "command, text",
        [
            ("gap", GAP_CONF + "samples = 0\n"),
            ("gap", GAP_CONF + "samples = -3\n"),
            ("gap", GAP_CONF + "threads = 0\n"),
            ("gap", GAP_CONF + "threads = -3\n"),
            ("kernel", KERNEL_CONF + "threads = 0\n"),
            ("density", "measure {\n kind = uniform\n}\nt = 0.5\nsamples = 0\n"),
            ("density", "measure {\n kind = uniform\n a = 1\n b = -1\n}\nt = 0.5\n"),
            ("kernel", KERNEL_CONF.replace("n = 4", "n = 0")),
            ("density", "measure {\n kind = power\n exponent = -1\n}\nt = 0.5\n"),
            ("kernel", KERNEL_CONF.replace("t = 0.5", "t = 0")),
            ("kernel", KERNEL_CONF.replace("t = 0.5", "t = -0.5")),
            ("gap", GAP_CONF.replace("epsilon = 0.03", "epsilon = 0")),
            ("paths", "generator = explicit\npoints = 0, nan, 1\nt_grid = 0, 0.2\n"),
            ("gap", "generator = explicit\npoints = -1, inf, 1\nt = 0.0009\n"
                    "window {\n epsilon = 0.03\n}\n"),
            ("paths", "generator = explicit\npoints = -1, 0, 1\nt_grid = 0, nan, 0.2\n"),
            ("density", UNIFORM_DENSITY_CONF + "window {\n x_star = nan\n}\n"),
            ("density", UNIFORM_DENSITY_CONF + "window {\n x_star = 1e400\n}\n"),
            ("density", "measure {\n kind = semicircle\n variance = inf\n}\nt = 0.5\n"),
            ("kernel", KERNEL_CONF.replace("b = 1", "b = inf")),
            ("kernel", KERNEL_CONF.replace("extent = 1", "extent = inf")),
            ("paths", PATHS_CONF + "seed = -1\n"),
            ("paths", PATHS_CONF + "sample_index = -1\n"),
        ],
        ids=["samples-zero", "samples-negative", "threads-zero", "threads-negative",
             "kernel-threads-zero", "density-samples-zero",
             "uniform-reversed", "quantiles-n-zero", "power-negative-exponent",
             "kernel-t-zero", "kernel-t-negative", "gap-epsilon-zero",
             "paths-nan-point", "gap-inf-point", "paths-nan-time",
             "density-x-star-nan", "density-x-star-overflow",
             "semicircle-variance-inf", "quantiles-b-inf", "kernel-extent-inf",
             "paths-seed-negative", "paths-sample-index-negative"],
    )
    def test_invalid_value_exits_2(self, tmp_path, command, text):
        conf = write_conf(tmp_path, text)
        rc = cli.main([command, "--config", str(conf), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_threads_flag_zero_exits_2(self, tmp_path):
        conf = write_conf(tmp_path, KERNEL_CONF)
        out = tmp_path / "o"
        rc = cli.main(["kernel", "--config", str(conf), "--out", str(out), "--threads", "0"])
        assert rc == 2
        assert not out.exists()

    def test_seed_flag_negative_exits_2(self, tmp_path):
        conf = write_conf(tmp_path, PATHS_CONF)
        out = tmp_path / "o"
        rc = cli.main(["paths", "--config", str(conf), "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert not out.exists()

    def test_nonconvergence_exits_3(self, tmp_path):
        # a gap frame outside the underflow regime, where the contour route
        # is known to fail (garbage values or a stall); on the default grid
        # its refinement stalls at level 8, a genuine non-convergence
        conf = write_conf(
            tmp_path,
            "measure {\n kind = uniform\n}\n"
            "n = 40\ngenerator = equispaced_gap\ngap_half_width = 0.3\n"
            "t = 0.015\nwindow {\n epsilon = 0.1\n}\n",
        )
        rc = cli.main(["kernel", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_config_json_mirror_written(self, tmp_path):
        conf = write_conf(tmp_path, KERNEL_CONF)
        out = tmp_path / "run"
        assert cli.main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
        blob = json.loads((out / "config.json").read_text())
        assert blob["n"] == 4
        assert blob["measure"]["kind"] == "uniform"
        assert blob["out"] == str(out)
