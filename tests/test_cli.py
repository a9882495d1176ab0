import contextlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import sarcsi as s
from sarcsi import cli, csi, scene as scene_module, simulator as sim
from sarcsi.cli import main
from sarcsi.scene import KINDS

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, preexec_fn=None):
    """Run `python -m sarcsi` in a child process; returns (code, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "sarcsi", *argv], preexec_fn=preexec_fn,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


def products(prefix):
    """simulate's three products at prefix, with prefix's name in the report
    replaced by "run", so runs at different prefixes compare."""
    return [prefix.with_name(prefix.name + suffix).read_bytes()
            .replace(prefix.name.encode(), b"run")
            for suffix in ("_rgb.ppm", "_azspec.csv", "_report.json")]


def scene_file(tmp_path, targets, rho_r=1.0, na=256, nr=8):
    cfg = {
        "radar": {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1,
                  "rho_r_m": rho_r},
        "grid": {"na": na, "nr": nr},
        "targets": targets,
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return path


LINE2 = {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0}
ARRAY20 = {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64}
LINE500 = {"kind": "line", "theta_az_deg": 0.0, "length_m": 500.0}
SEGMENT = {"kind": "segment3d", "theta_h_deg": 2.0, "theta_v_deg": -1.0,
           "theta_inc_deg": 40.0, "length_m": 1.0}
# The README's example scene, on its default 2048 x 256 grid.
README_TARGETS = [
    LINE2,
    ARRAY20,
    {"kind": "arc", "radius_m": 80.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
    {"kind": "catenary", "a_m": 120.0, "half_span_m": 30.0, "theta_inc_deg": 40.0},
    {"kind": "segment3d", "theta_h_deg": 10.0, "theta_v_deg": 5.0,
     "theta_inc_deg": 40.0, "length_m": 1.0},
]


class TestPredict:
    def test_flagship_array_table(self, capsys, xband):
        code, out, err = run(capsys, "predict", "--theta-az", "20",
                             "--dx", "0.05", "--orders", "-2:2")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "m,theta_sq_deg,f_d_hz,observable,hue"
        # all five orders propagate; exactly one falls inside the window
        assert len(lines) == 6
        assert [row.split(",")[0] for row in lines[1:]] == [
            "-2", "-1", "0", "1", "2"
        ]
        visible = [row for row in lines[1:] if row.split(",")[3] == "true"]
        assert len(visible) == 1
        m, sq, fd, obs, hue = visible[0].split(",")
        assert m == "1" and hue == "red"
        t = s.GratingTarget(math.radians(20.0), 0.05)
        want = s.doppler_from_squint(xband, s.order_squint(t, 1, xband.lam))
        assert float(fd) == pytest.approx(want, abs=1e-9)

    def test_continuous_line(self, capsys, xband, fd_of_line):
        code, out, _ = run(capsys, "predict", "--theta-az", "2")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(-2.0)
        assert float(row[2]) == pytest.approx(fd_of_line(xband, 2.0))
        assert row[4] == "red"

    def test_zero_order_row_does_not_depend_on_the_period(self, capsys):
        # m = 0 is -theta_az with or without --dx, to the sign of a zero
        rows = [run(capsys, "predict", "--theta-az", "0", *extra)[1].splitlines()[1]
                for extra in ((), ("--dx", "0.05", "--orders", "0:0"))]
        assert rows == ["0,-0.0,-0.0,true,green"] * 2

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "orders.csv"
        code, out, _ = run(capsys, "predict", "--theta-az", "0",
                           "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().splitlines()[1].startswith("0,")

    def test_bad_orders_syntax(self, capsys):
        code, _, err = run(capsys, "predict", "--theta-az", "0",
                           "--orders", "1-2")
        assert code == 2
        assert err.startswith("error:")

    def test_empty_orders_range(self, capsys):
        code, _, err = run(capsys, "predict", "--theta-az", "0",
                           "--orders", "2:-2")
        assert code == 2

    def test_evanescent_exit(self, capsys):
        code, _, err = run(capsys, "predict", "--theta-az", "0",
                           "--dx", "0.03", "--orders", "2:2")
        assert code == 3
        assert "no propagating order" in err

    def test_bad_orientation(self, capsys):
        code, _, err = run(capsys, "predict", "--theta-az", "90")
        assert code == 2


class TestPredict3d:
    def test_green_combination(self, capsys):
        th_v = -math.degrees(math.atan(math.tan(math.radians(30.0)) ** 2))
        code, out, _ = run(capsys, "predict3d", "--theta-h", "30",
                           "--theta-v", str(th_v), "--theta-inc", "30")
        assert code == 0
        header, row = out.splitlines()
        assert header == "theta_sq_deg,theta_az_deg,f_d_hz,observable,hue"
        sq, az, fd, obs, hue = row.split(",")
        assert abs(float(sq)) < 1e-9
        assert obs == "true" and hue == "green"

    def test_squinted_segment(self, capsys, xband):
        code, out, _ = run(capsys, "predict3d", "--theta-h", "10",
                           "--theta-v", "5", "--theta-inc", "40")
        assert code == 0
        sq, az, fd, obs, hue = out.splitlines()[1].split(",")
        assert float(sq) == pytest.approx(-10.224007279142212, abs=1e-9)
        assert float(az) == -float(sq)
        # |f_d| ~ 86 kHz, far outside the +-38 kHz window
        assert obs == "false" and hue == "out_of_window"

    def test_bad_incidence(self, capsys):
        code, _, err = run(capsys, "predict3d", "--theta-h", "0",
                           "--theta-v", "0", "--theta-inc", "0")
        assert code == 2


class TestChart:
    def test_matches_golden(self, capsys):
        code, out, _ = run(capsys, "chart")
        assert code == 0
        assert out == (DATA / "chart_golden.csv").read_text()

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "chart.csv"
        code, out, _ = run(capsys, "chart", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == (DATA / "chart_golden.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--sq-step", "0"),
            ("--sq-min", "6", "--sq-max", "-6"),
            ("--sq-min", "-95"),
            ("--dx", "-0.05"),
            ("--sq-step", "5e-324"),    # (sq_max - sq_min) / step overflows
        ],
    )
    def test_bad_grid_flags(self, capsys, flags):
        code, _, err = run(capsys, "chart", *flags)
        assert code == 2
        assert err.startswith("error:")


class TestSimulate:
    def test_product_files(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        prefix = tmp_path / "out" / "run"
        prefix.parent.mkdir()
        code, out, _ = run(capsys, "simulate", "--scene", str(scene),
                           "--out-prefix", str(prefix))
        assert code == 0
        assert out.startswith("wrote ")
        ppm = (prefix.parent / "run_rgb.ppm").read_bytes()
        assert ppm.startswith(b"P6\n256 8\n255\n")
        assert len(ppm) == 13 + 256 * 8 * 3
        csv = (prefix.parent / "run_azspec.csv").read_text()
        assert csv.splitlines()[0] == "f_a_hz,power"
        assert len(csv.splitlines()) == 257
        report = json.loads((prefix.parent / "run_report.json").read_text())
        assert report["grid"] == {"na": 256, "nr": 8}
        assert report["norm"] == "linear"
        assert report["targets"] == ["line_0"]
        assert report["files"]["rgb"] == "run_rgb.ppm"
        # +2 deg line: energy concentrates in the low-Doppler (red) third
        e = report["band_energy"]
        assert e["red"] > 5.0 * e["green"] > 0.0
        assert sum(e.values()) == pytest.approx(report["total_energy"],
                                                rel=1e-9)
        # Parseval: a band's energy is exactly the summed power of the
        # azimuth spectrum rows band_index puts in that band
        rows = [r.split(",") for r in csv.splitlines()[1:]]
        f_a = np.array([float(f) for f, _ in rows])
        power = np.array([float(pw) for _, pw in rows])
        band = s.RadarParams(9.6e9, 7600.0, 0.1, 1.0).band_index(f_a)
        for b, name in enumerate(("red", "green", "blue")):
            assert e[name] == power[band == b].sum()
        assert report["total_energy"] == power.sum()

    def test_deterministic_outputs(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        blobs = []
        for d in ("a", "b"):
            prefix = tmp_path / d / "run"
            prefix.parent.mkdir()
            code, _, _ = run(capsys, "simulate", "--scene", str(scene),
                             "--out-prefix", str(prefix))
            assert code == 0
            blobs.append(b"".join(
                (prefix.parent / f"run{suffix}").read_bytes()
                for suffix in ("_rgb.ppm", "_azspec.csv", "_report.json")
            ))
        assert blobs[0] == blobs[1]

    def test_grid_and_radar_overrides(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        prefix = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--scene", str(scene),
                         "--out-prefix", str(prefix), "--na", "128",
                         "--nr", "16", "--rho-a", "0.2")
        assert code == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["grid"] == {"na": 128, "nr": 16}
        assert report["radar"]["ba_hz"] == 38000.0    # V / 0.2 m

    @pytest.mark.parametrize("flag, field, value", [
        ("--fc", "fc_hz", 1.92e10), ("--v", "v_mps", 3800.0), ("--rho-a", "rho_a_m", 0.2),
    ])
    def test_radar_flag_acts_as_the_config_value(self, tmp_path, flag, field, value):
        # a flag replaces the config's value everywhere, the arc's default
        # quarter-wavelength sample spacing included: the three products are
        # those of a config that holds the value.  In a child process, whose
        # stderr must stay empty
        arc = {"kind": "arc", "radius_m": 20.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0}
        blobs = []
        for name, flags in (("flag", (flag, repr(value))), ("file", ())):
            (tmp_path / name).mkdir()
            scene = scene_file(tmp_path / name, [arc], na=256, nr=32)
            if not flags:
                cfg = json.loads(scene.read_text())
                cfg["radar"][field] = value
                scene.write_text(json.dumps(cfg))
            prefix = tmp_path / name / "run"
            assert run_process("simulate", "--scene", str(scene), "--out-prefix",
                               str(prefix), *flags) == (0, "")
            blobs.append(products(prefix))
        assert blobs[0] == blobs[1]

    def test_each_target_is_checked_once(self, capsys, tmp_path):
        # scene_config_from_dict checks the targets; building takes them as
        # checked
        scene = scene_file(tmp_path, README_TARGETS[:3], na=256, nr=32)
        with mock.patch("sarcsi.scene._validate_target",
                        wraps=scene_module._validate_target) as validate:
            code, _, err = run(capsys, "simulate", "--scene", str(scene),
                               "--out-prefix", str(tmp_path / "x"))
        assert (code, err) == (0, "")
        assert validate.call_count == 3

    def test_aliasing_exit(self, capsys, tmp_path):
        big = {"kind": "line", "theta_az_deg": 0.0, "length_m": 300.0,
               "spacing_m": 0.05}
        scene = scene_file(tmp_path, [big])
        code, _, err = run(capsys, "simulate", "--scene", str(scene),
                           "--out-prefix", str(tmp_path / "x"))
        assert code == 4
        assert "error:" in err

    def test_missing_scene(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--scene",
                           str(tmp_path / "no.json"), "--out-prefix",
                           str(tmp_path / "x"))
        assert code == 2

    def test_malformed_scene_points_at_location(self, capsys, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"radar": {,}}')
        code, _, err = run(capsys, "simulate", "--scene", str(path),
                           "--out-prefix", str(tmp_path / "x"))
        assert code == 2
        assert "line 1 column 12" in err

    def test_rejects_unknown_norm(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scene", str(scene), "--out-prefix",
                  str(tmp_path / "x"), "--norm", "gamma"])
        assert exc.value.code == 2


    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_of_a_sparse_scene(self, tmp_path):
        # the raster is composed with no magnitude stack: past what importing
        # the CLI costs, a simulate run holds the spectrum G, the three band
        # images and the pixels, plus a slack under the 24 MiB stack of
        # float64 magnitudes that compose_rgb once built
        na, nr = 2048, 512
        scene = scene_file(tmp_path, [ARRAY20, LINE2], rho_r=0.1, na=na, nr=nr)

        def peak_rss(*argv):
            # from a small launcher: a child forked from this test process
            # would start with this process's peak RSS as its own
            launch = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], "
                      "stdout=subprocess.DEVNULL); _, status, usage = os.wait4(p.pid, 0); "
                      "print(status, usage.ru_maxrss)")
            proc = subprocess.run([sys.executable, "-c", launch, sys.executable, *argv],
                                  capture_output=True, text=True, timeout=120)
            status, kib = map(int, proc.stdout.split())
            assert status == 0, proc.stderr
            return kib << 10

        base = peak_rss("-c", "import numpy as np, sarcsi.cli; a = np.ones((64, 64)); a @ a")
        run = peak_rss("-m", "sarcsi", "simulate", "--scene", str(scene), "--out-prefix",
                       str(tmp_path / "x"), "--norm", "clip_p999")
        grid, pixels = na * nr * 16, na * nr * 3
        assert run - base < grid + 3 * grid + pixels + (20 << 20)

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs an affinity mask of at least 2 CPUs")
    def test_products_do_not_depend_on_the_cpu_count(self, tmp_path):
        # the synthesis blocks, the range-IFFT row tiles and the band tiles
        # run on one thread per CPU; pinned to one CPU all run on the caller's, and
        # every product must come out byte-identical.  Both runs keep the
        # default environment: the direct sum pins the BLAS to one thread
        scene = scene_file(tmp_path, README_TARGETS, rho_r=0.1, na=2048, nr=256)
        cfg = s.parse_scene_config(str(scene))
        assert s.merge_scenes(s.build_scenes(cfg)).n > 2 * sim._block_shape(cfg.na, 10**6)[1]
        assert cfg.nr >= 2 * csi.TILE
        pin = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "from sarcsi.cli import main; sys.exit(main(sys.argv[1:]))")
        blobs = []
        for launch in (["-c", pin], ["-m", "sarcsi"]):
            prefix = tmp_path / f"run{len(blobs)}"
            proc = subprocess.run(
                [sys.executable, *launch, "simulate", "--scene", str(scene),
                 "--out-prefix", str(prefix), "--norm", "clip_p999"],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            blobs.append(products(prefix))
        assert blobs[0] == blobs[1]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs an affinity mask of at least 2 CPUs")
    def test_products_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS starts one thread per CPU unless OPENBLAS_NUM_THREADS says
        # otherwise, and a GEMM's rounding may follow its thread count; the
        # direct sum runs on one BLAS thread either way.  Without that pin,
        # this jittered README scene's azimuth power differs in one bin
        targets = [dict(t) for t in README_TARGETS]
        targets[0]["theta_az_deg"] = 2.8
        targets[1]["theta_az_deg"] = 20.1
        targets[2].update(tan_lo_deg=-4.2, tan_hi_deg=3.8)
        targets[4]["theta_h_deg"] = 11.2
        scene = scene_file(tmp_path, targets, rho_r=0.1, na=2048, nr=256)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        blobs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            prefix = tmp_path / f"run{len(blobs)}"
            proc = subprocess.run(
                [sys.executable, "-m", "sarcsi", "simulate", "--scene", str(scene),
                 "--out-prefix", str(prefix), "--norm", "clip_p999"],
                capture_output=True, text=True, timeout=120, env={**env, **threads})
            assert proc.returncode == 0, proc.stderr
            blobs.append(products(prefix))
        assert blobs[0] == blobs[1]

    def test_threads_that_cannot_start_change_no_byte(self, cpus, capsys, tmp_path):
        # on two CPUs where no thread can start, as in a process out of
        # threads, the caller runs the calls of all six maps (the direct sum,
        # two split passes, three compose passes): simulate exits 0 and
        # writes the bytes of a run whose threads start
        scene = scene_file(tmp_path, README_TARGETS, rho_r=0.1, na=1024, nr=256)
        argv = ("simulate", "--scene", str(scene), "--norm", "clip_p999", "--out-prefix")
        no_thread = mock.patch.object(threading.Thread, "start",
                                      side_effect=RuntimeError("can't start new thread"))
        with cpus(2):
            assert run(capsys, *argv, str(tmp_path / "threads"))[0] == 0
            with no_thread as start:
                code, _, err = run(capsys, *argv, str(tmp_path / "caller"))
        assert (code, err) == (0, "") and start.call_count == 6
        assert products(tmp_path / "caller") == products(tmp_path / "threads")


class TestAnalyze:
    def test_line_and_array_pass(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2, ARRAY20], na=2048, nr=32)
        code, out, _ = run(capsys, "analyze", "--scene", str(scene))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        labels = [t["label"] for t in payload["targets"]]
        assert labels == ["line_0", "array_1"]
        ms = [m["m"] for t in payload["targets"] for m in t["matches"]]
        assert ms == [0, 1]

    def test_out_file_and_tolerance(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2], na=512, nr=8)
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--scene", str(scene),
                           "--tol-bins", "1.0", "--out", str(path))
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["tol_bins"] == 1.0
        assert payload["passed"] is True

    def test_unsupported_kind(self, capsys, tmp_path):
        arc = {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0,
               "tan_hi_deg": 4.0}
        scene = scene_file(tmp_path, [arc])
        code, _, err = run(capsys, "analyze", "--scene", str(scene))
        assert code == 2
        assert "arc" in err

    def test_no_orders_in_range(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        code, _, err = run(capsys, "analyze", "--scene", str(scene),
                           "--orders", "2:2")
        assert code == 3

    def test_segment_follows_orders(self, capsys, tmp_path):
        # a 3-D segment is a continuous line: only m = 0, like LINE2
        scene = scene_file(tmp_path, [SEGMENT])
        code, _, err = run(capsys, "analyze", "--scene", str(scene),
                           "--orders", "1:2")
        assert code == 3
        assert "segment3d_0" in err
        code, out, _ = run(capsys, "analyze", "--scene", str(scene))
        assert code == 0
        assert [m["m"] for m in json.loads(out)["targets"][0]["matches"]] == [0]

    def test_every_target_checked_before_synthesis(self, capsys, tmp_path):
        # the 500 m line would alias on 256x64, but the arc after it is
        # refused before any target is synthesized
        arc = {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0,
               "tan_hi_deg": 4.0}
        scene = scene_file(tmp_path, [LINE500, arc], nr=64)
        code, _, err = run(capsys, "analyze", "--scene", str(scene))
        assert code == 2
        assert "analyze supports" in err

    @pytest.mark.parametrize("line, code, err", [
        ({"kind": "line", "theta_az_deg": 2.0, "length_m": 20.0}, 2,
         "error: out of memory: synthesizing a 2048x256 spectrum needs 13482032 bytes"),
        ({"kind": "line", "theta_az_deg": 0.0, "length_m": 300.0}, 4, "error: scene extent"),
    ], ids=["memory", "extent"])
    def test_every_synthesis_checked_before_the_first(self, capsys, tmp_path, line, code, err):
        # the 64-element array's direct sum (11.2 MB) fits in the physical
        # memory mocked here, one page under the 20 m line's closed form; the
        # 300 m line exceeds the grid's azimuth extent.  Either line is
        # refused before the array ahead of it is summed
        na, nr = 2048, 256
        scene = scene_file(tmp_path, [ARRAY20, line], rho_r=0.1, na=na, nr=nr)
        have = (sim.synthesis_bytes(na, nr, 2561, False) - 1) // 4096 * 4096
        assert sim.synthesis_bytes(na, nr, 64, True) <= have
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
        with mock.patch("os.sysconf", side_effect=sysconf.__getitem__), \
                mock.patch.object(sim, "_direct_sum", wraps=sim._direct_sum) as direct:
            got = run(capsys, "analyze", "--scene", str(scene),
                      "--out", str(tmp_path / "x.json"))
        assert got[:2] == (code, "") and got[2].startswith(err)
        assert direct.call_count == 0
        assert not (tmp_path / "x.json").exists()

    def test_bad_tolerance(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        code, _, err = run(capsys, "analyze", "--scene", str(scene),
                           "--tol-bins", "0")
        assert code == 2


class TestRejectedInput:
    """Bad values exit 2 with a one-line error, never a traceback or garbage."""

    def test_nan_radar_flag(self, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        code, err = run_process("simulate", "--scene", str(scene),
                                "--out-prefix", str(tmp_path / "x"),
                                "--fc", "nan")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not list(tmp_path.glob("x_*"))

    def test_nan_in_config(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(scene_file(tmp_path, [LINE2]).read_text()
                        .replace("9600000000.0", "NaN"))
        assert "NaN" in path.read_text()
        code, err = run_process("simulate", "--scene", str(path),
                                "--out-prefix", str(tmp_path / "x"))
        assert code == 2
        assert "fc_hz" in err and "Traceback" not in err

    @pytest.mark.parametrize("out_dir", ["missing", "a_file"])
    def test_missing_out_dir_before_work(self, tmp_path, out_dir):
        # the 500 m line would alias on 256x64; an output parent that is
        # missing or not a directory is refused before the scene is built
        scene = scene_file(tmp_path, [LINE500], nr=64)
        (tmp_path / "a_file").touch()
        code, err = run_process("simulate", "--scene", str(scene),
                                "--out-prefix", str(tmp_path / out_dir / "x"))
        assert code == 2
        assert "output directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("out_dir", ["missing", "a_file", "is_dir"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--theta-az", "2"),
            ("predict3d", "--theta-h", "10", "--theta-v", "5", "--theta-inc", "40"),
            ("chart",),
            ("analyze", "--scene", "{scene}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_out_dir_of_out_flag(self, tmp_path, argv, out_dir):
        # the 500 m line would alias on 256x64 (exit 4) if analyze got as
        # far as synthesizing it
        scene = scene_file(tmp_path, [LINE500], nr=64)
        (tmp_path / "a_file").touch()
        out = tmp_path if out_dir == "is_dir" else tmp_path / out_dir / "x.csv"
        code, err = run_process(*(a.format(scene=scene) for a in argv), "--out", str(out))
        assert code == 2
        assert err.startswith("error: output") and "Traceback" not in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_full_disk_on_out_flag(self):
        # the write itself fails (ENOSPC): one error line naming the path
        code, err = run_process("predict", "--theta-az", "2", "--out", "/dev/full")
        assert code == 2
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1

    @pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="no /proc/self")
    def test_unwritable_simulate_products(self, tmp_path):
        # /proc/self passes the directory check, but no file can be made in it
        scene = scene_file(tmp_path, [LINE2])
        code, err = run_process("simulate", "--scene", str(scene), "--out-prefix",
                                "/proc/self/x")
        assert code == 2
        assert err.startswith("error: cannot write /proc/self/x_rgb.ppm: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_analyze_checks_out_dir_before_synthesis(self, tmp_path, capsys):
        scene = scene_file(tmp_path, [LINE2])
        with mock.patch("sarcsi.analysis.synth_spectrum",
                        side_effect=AssertionError("synth_spectrum was called")):
            code, out, err = run(capsys, "analyze", "--scene", str(scene),
                                 "--out", str(tmp_path / "missing" / "a.json"))
        assert code == 2 and out == ""
        assert "output directory" in err

    @pytest.mark.parametrize("shape", ["name", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--theta-az", "2"),
            ("predict3d", "--theta-h", "10", "--theta-v", "5", "--theta-inc", "40"),
            ("chart",),
            ("simulate", "--scene", "{scene}"),
            ("analyze", "--scene", "{scene}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_over_long_output_path(self, capsys, tmp_path, argv, shape):
        # a 300-character name is past the OS's limit, so the path cannot
        # even be looked up (ENAMETOOLONG): one error line and no file.  The
        # output check refuses it before any work
        scene = scene_file(tmp_path, [LINE2])
        out = tmp_path / ("n" * 300 if shape == "name" else "d" * 300 + "/x")
        flag = "--out-prefix" if argv[0] == "simulate" else "--out"
        code, stdout, err = run(capsys, *(a.format(scene=scene) for a in argv), flag, str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [scene]

    def test_prefix_too_long_for_its_last_product(self, capsys, tmp_path):
        # _report.json makes the name one byte too long, while _rgb.ppm and
        # _azspec.csv fit: every product is checked before any is written
        scene = scene_file(tmp_path, [LINE2])
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        prefix = tmp_path / ("p" * (name_max + 1 - len("_report.json")))
        code, stdout, err = run(capsys, "simulate", "--scene", str(scene),
                                "--out-prefix", str(prefix))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [scene]

    def test_prefix_product_is_a_directory(self, capsys, tmp_path):
        # the second product's path is taken by a directory: nothing is
        # written, the first product included
        scene = scene_file(tmp_path, [LINE2])
        (tmp_path / "x_azspec.csv").mkdir()
        code, stdout, err = run(capsys, "simulate", "--scene", str(scene),
                                "--out-prefix", str(tmp_path / "x"))
        assert (code, stdout) == (2, "")
        assert err == f"error: output path {tmp_path / 'x_azspec.csv'} is a directory\n"
        assert sorted(tmp_path.iterdir()) == [scene, tmp_path / "x_azspec.csv"]
        assert not any((tmp_path / "x_azspec.csv").iterdir())

    def test_bad_grid_size_flag(self, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        code, err = run_process("analyze", "--scene", str(scene), "--na", "100")
        assert code == 2
        assert "na must be a power of two" in err and "Traceback" not in err

    def test_bad_config_grid_despite_flags(self, capsys, tmp_path):
        # the config's grid is checked when the config is parsed, so flags
        # that override it do not excuse a bad one
        scene = scene_file(tmp_path, [LINE2], na=100)
        code, out, err = run(capsys, "simulate", "--scene", str(scene),
                             "--out-prefix", str(tmp_path / "x"), "--na", "256")
        assert code == 2 and out == ""
        assert err == "error: grid: field 'na' must be a power of two >= 8, got 100\n"
        assert not list(tmp_path.glob("x_*"))

    def test_out_of_memory(self, tmp_path):
        # a 2^20 x 2^12 grid needs 64 GiB per complex array; with the child's
        # address space capped at 4 GiB the allocation fails, and that is a
        # one-line error before any product is written
        resource = pytest.importorskip("resource")
        scene = scene_file(tmp_path, [LINE2], rho_r=0.1, nr=64)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        code, err = run_process("simulate", "--scene", str(scene),
                                "--out-prefix", str(tmp_path / "x"),
                                "--na", "1048576", "--nr", "4096",
                                preexec_fn=cap_address_space)
        assert code == 2
        assert err.startswith("error: out of memory") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("x_*"))

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("na, flags", [(2**63, ()), (256, ("--na", str(2**40)))],
                             ids=["config_na_2^63", "flag_na_2^40"])
    def test_spectrum_beyond_physical_memory(self, capsys, tmp_path, command, na, flags):
        # a power-of-two grid passes the size rule, but its stages cannot fit
        # in physical memory: simulate refuses the colour stages, which it
        # checks first, analyze the synthesis (a direct sum of the 1 m line).
        # One error line naming the size, before anything grid-sized is
        # allocated
        scene = scene_file(tmp_path, [LINE2], na=na)
        n = s.merge_scenes(s.build_scenes(s.parse_scene_config(str(scene)))).n
        out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
               else ("--out", str(tmp_path / "x_analysis.json")))
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, command, "--scene", str(scene), *out, *flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 2**63 if na == 2**63 else 2**40
        if command == "simulate":
            what, need = "splitting and composing", csi.colour_bytes(size, 8)
        else:
            what, need = "synthesizing", sim.synthesis_bytes(size, 8, n, True)
        assert code == 2 and stdout == ""
        assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1
        assert f"{what} a {size}x8 spectrum needs {need} bytes" in err
        assert "Traceback" not in err
        assert peak < 4 << 20
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("command, targets, direct", [
        ("simulate", README_TARGETS, True),
        ("analyze", [{"kind": "line", "theta_az_deg": 2.0, "length_m": 20.0}], False),
    ], ids=["simulate_direct_sum", "analyze_closed_form"])
    def test_synthesis_beyond_physical_memory(self, cpus, capsys, tmp_path, command, targets,
                                              direct):
        # on two CPUs, the physical memory mocked here is one page short of
        # what synthesis holds: the direct sum's T over S with the blocks in
        # flight (about 15 MiB at 1024 x 256), the closed form's three
        # float64 grids and a mask (25 bytes per point).  The README scene's
        # colour stages (about 12 MiB), which simulate checks first, fit: on
        # this grid they count less than its synthesis, which no longer
        # holds a product per worker.  One error line naming the grid and
        # both byte counts, before anything grid-sized is allocated
        na, nr = (1024, 256) if direct else (2048, 256)
        scene = scene_file(tmp_path, targets, rho_r=0.1, na=na, nr=nr)
        n = s.merge_scenes(s.build_scenes(s.parse_scene_config(str(scene)))).n
        out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
               else ("--out", str(tmp_path / "x_analysis.json")))
        with cpus(2):
            need = sim.synthesis_bytes(na, nr, n, direct)
            have = (need - 1) // 4096 * 4096
            sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
            tracemalloc.start()
            try:
                with mock.patch("os.sysconf", side_effect=sysconf.__getitem__):
                    code, stdout, err = run(capsys, command, "--scene", str(scene), *out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if command == "simulate":
                assert csi.colour_bytes(na, nr) <= have
        assert code == 2 and stdout == ""
        assert err == (f"error: out of memory: synthesizing a {na}x{nr} spectrum needs "
                       f"{need} bytes, more than the {have} bytes of physical memory\n")
        assert peak < 1 << 20
        assert not list(tmp_path.glob("x*"))

    def test_memory_error_is_one_line(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        with mock.patch("sarcsi.cli.synth_spectrum", side_effect=MemoryError()):
            code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                 "--out-prefix", str(tmp_path / "x"))
        assert (code, out, err) == (2, "", "error: out of memory: allocation failed\n")

    def test_memory_error_on_a_worker_thread_is_one_line(self, cpus, capsys, tmp_path):
        # on two CPUs the 256 spectrum rows are four range-IFFT tiles, and the
        # second runs on the worker thread, where it runs out of memory: the
        # split re-raises that in the caller, which exits 2 with one line,
        # writes no product and leaves no thread running
        scene = scene_file(tmp_path, [LINE2])
        caller = threading.get_ident()
        centred_ifft = csi._centred_ifft

        def failing(x, axis):
            if threading.get_ident() != caller:
                raise MemoryError("a range tile")
            return centred_ifft(x, axis)

        before = threading.active_count()
        with cpus(2), mock.patch.object(csi, "_centred_ifft", side_effect=failing):
            code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                 "--out-prefix", str(tmp_path / "x"))
        assert (code, out, err) == (2, "", "error: out of memory: a range tile\n")
        assert not list(tmp_path.glob("x*"))
        assert threading.active_count() == before

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize(
        "amp, length_m, rho_r, na",
        [(1e307, 1.0, 0.1, 256), (1e154, 1.0, 0.1, 256), (1e306, 60.0, 1.0, 2048)],
        ids=["1e+307", "1e+154", "1e+306"],
    )
    def test_non_finite_spectrum(self, tmp_path, command, amp, length_m, rho_r, na):
        # at 1e307 the direct sum overflows, at 1e306 the closed form of a
        # 60 m line; at 1e154 |G| is finite but |G|^2 is not.  Each is one
        # error line, with no numpy warning before it, and no output.  In a
        # child process: here numpy's overflow warnings would be exceptions
        target = dict(LINE2, amp=amp, length_m=length_m)
        scene = scene_file(tmp_path, [target], rho_r=rho_r, na=na, nr=64)
        out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
               else ("--out", str(tmp_path / "x_analysis.json")))
        code, err = run_process(command, "--scene", str(scene), *out)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "not finite" in err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize(
        "argv",
        [
            ("chart", "--dx", "nan"),
            ("chart", "--sq-step", "nan"),
            ("analyze", "--scene", "{scene}", "--tol-bins", "nan"),
            ("predict", "--theta-az", "10", "--dx", "inf"),
            ("predict", "--theta-az", "10", "--fc", "abc"),
        ],
    )
    def test_non_finite_float_flag(self, tmp_path, argv):
        scene = scene_file(tmp_path, [LINE2])
        code, err = run_process(*(a.format(scene=scene) for a in argv))
        assert code == 2
        assert err.startswith("error:")
        assert f"expected a finite number, got {argv[-1]!r}" in err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("target, message", [
        (dict(ARRAY20, n=2**63),
         "out of memory: target 'array_0' of 9223372036854775808 scatterers needs "
         "221360928884514619392 bytes, more than the 1073741824 bytes of physical memory"),
        # 1e6 m at the default quarter-wavelength spacing: 128,088,614 scatterers
        (dict(LINE2, length_m=1e6),
         "out of memory: target 'line_0' of 128088614 scatterers needs 3074126736 "
         "bytes, more than the 1073741824 bytes of physical memory"),
        (dict(LINE2, length_m=1e308), "target 'line_0'"),
        (dict(SEGMENT, length_m=1e308), "target 'segment3d_0'"),
        ({"kind": "arc", "radius_m": 1e308, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
         "target 'arc_0'"),
        ({"kind": "catenary", "a_m": 120.0, "half_span_m": 1e308, "theta_inc_deg": 40.0},
         "target 'catenary_0'"),
        (dict(LINE2, spacing_m=5e-324), "target 'line_0'"),
    ], ids=["array_n_2^63", "line_1e6_m", "line_1e308_m", "segment3d_1e308_m",
            "arc_radius_1e308_m", "catenary_span_1e308_m", "line_spacing_5e-324_m"])
    def test_scatterer_count_checked_before_arrays(self, capsys, tmp_path, target, message):
        # a count whose arrays cannot fit in the 1 GiB of physical memory
        # mocked here, or that is not finite (extent over spacing overflows),
        # is one error line naming the target, before any array is built
        if not message.startswith("out of memory"):
            message += ": its extent over its sample spacing gives no finite scatterer count"
        scene = scene_file(tmp_path, [target], na=16)
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (1 << 30) // 4096}
        tracemalloc.start()
        try:
            with mock.patch("os.sysconf", side_effect=sysconf.__getitem__):
                code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                     "--out-prefix", str(tmp_path / "x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 1 << 20
        assert not list(tmp_path.glob("x*"))

    def test_whole_scene_checked_before_any_target_is_built(self, capsys, tmp_path):
        # each 3e6-scatterer array's x, y and amp (72 MB) fit in the physical
        # memory mocked here, but not the two targets' arrays together:
        # simulate holds them with their merged copy (48 bytes per scatterer,
        # 256 MiB mocked), analyze until the last is verified (24 bytes, 128
        # MiB).  Either exits 2 before any target is built
        array = dict(ARRAY20, n=3_000_000)
        scene = scene_file(tmp_path, [array, array], na=16)
        for argv, per, have in ((("simulate", "--out-prefix", str(tmp_path / "x")), 48, 256 << 20),
                                (("analyze", "--out", str(tmp_path / "x.json")), 24, 128 << 20)):
            sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
            tracemalloc.start()
            try:
                with mock.patch("os.sysconf", side_effect=sysconf.__getitem__), \
                        mock.patch("sarcsi.scene._build", side_effect=AssertionError("built")):
                    code, out, err = run(capsys, argv[0], "--scene", str(scene), *argv[1:])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 24 * 3_000_000 < have < per * 6_000_000
            assert (code, out) == (2, ""), argv[0]
            assert err == (f"error: out of memory: a scene of 6000000 scatterers needs "
                           f"{per * 6_000_000} bytes, more than the {have} bytes of physical "
                           "memory\n")
            assert peak < 1 << 20
            assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("argv, what", [
        (("chart", "--orders=-10000000000000000000:10000000000000000000"),
         "a chart of 980000000000000000049 rows"),
        (("chart", "--sq-step", "1e-5"), "a chart of 3600003 rows"),
        (("chart", "--orders=-30000:30000"), "a chart of 2940049 rows"),
        (("chart", "--sq-step", "1e-9"), "a chart of 36000000003 rows"),
        (("predict", "--theta-az", "20", "--dx", "1e300", "--orders=-300000:300000"),
         "a table of 600001 diffraction orders"),
        (("predict", "--theta-az", "20", "--dx", "1e300",
          "--orders=-10000000000000000000:10000000000000000000"),
         "a table of 20000000000000000001 diffraction orders"),
        (("analyze", "--scene", "{scene}", "--orders=-300000:300000"),
         "a table of 600001 diffraction orders"),
    ], ids=["chart_orders_1e19", "chart_step_1e-5", "chart_orders_30000", "chart_step_1e-9",
            "predict_orders_300000", "predict_orders_1e19", "analyze_orders_300000"])
    def test_rows_checked_before_they_are_built(self, capsys, tmp_path, argv, what):
        # the rows of a chart or an order table are counted before any is
        # built; beyond the 256 MiB of physical memory mocked here at 512
        # bytes a row, that is one error line naming the count, and nothing
        # is written
        scene = scene_file(tmp_path, [dict(ARRAY20, dx_m=1e300)])
        have = 256 << 20
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            with mock.patch("os.sysconf", side_effect=sysconf.__getitem__):
                code, stdout, err = run(capsys, *(a.format(scene=scene) for a in argv),
                                        "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = int(what.split()[3])
        assert (code, stdout) == (2, "")
        assert err == (f"error: out of memory: {what} needs {512 * rows} bytes, "
                       f"more than the {have} bytes of physical memory\n")
        assert peak < 1 << 20
        assert not out.exists()

    def test_non_finite_geometry_names_the_target(self, capsys, tmp_path):
        # cosh(u / a) overflows for u / a up to 1000: the positions are not
        # finite, which is the target's fault, not its amplitudes'.  One line
        # and no numpy warning (an error under the tests' warning filter)
        target = {"kind": "catenary", "a_m": 0.001, "half_span_m": 1.0, "theta_inc_deg": 40.0}
        scene = scene_file(tmp_path, [target])
        code, out, err = run(capsys, "simulate", "--scene", str(scene),
                             "--out-prefix", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert err == ("error: target 'catenary_0': its scatterer positions are not "
                       "finite (the geometry overflows)\n")
        assert not list(tmp_path.glob("x*"))


    def test_subband_split_beyond_physical_memory(self, capsys, tmp_path):
        # the closed form of a 20 m line (25 bytes per grid point) fits in
        # the physical memory mocked here, one page short of what the split
        # and composition hold: the spectrum's buffer at the direct sum's row
        # pitch and the blue raster (about 24 bytes per point), with the
        # composition's pixels and scratches.  One error line before
        # synthesis is called, and nothing written
        na, nr = 4096, 512
        line = {"kind": "line", "theta_az_deg": 2.0, "length_m": 20.0}
        scene = scene_file(tmp_path, [line], rho_r=0.1, na=na, nr=nr)
        n = s.merge_scenes(s.build_scenes(s.parse_scene_config(str(scene)))).n
        need = csi.colour_bytes(na, nr)
        have = (need - 1) // 4096 * 4096
        assert have >= sim.synthesis_bytes(na, nr, n, direct=False)
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
        with mock.patch("os.sysconf", side_effect=sysconf.__getitem__), \
                mock.patch("sarcsi.cli.synth_spectrum", side_effect=AssertionError("synthesized")):
            code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                 "--out-prefix", str(tmp_path / "x"))
        assert (code, out) == (2, "")
        assert err == (f"error: out of memory: splitting and composing a {na}x{nr} spectrum "
                       f"needs {need} bytes, more than the {have} bytes of physical memory\n")
        assert not list(tmp_path.glob("x*"))


# What the in-process fuzz (tests/test_fuzz.py) keeps as examples, a platform
# speed whose slow time overflows, and an amplitude whose spectrum does, on
# the fuzz's valid 64 x 16 line config.
PROCESS_CASES = [
    (("chart", "--orders=0:9223372036854775808"), LINE2),
    (("simulate", "--fc", "1e+308", "--rho-r", "1e+308"), LINE2),
    (("simulate", "--v", "5e-324"), LINE2),
    (("analyze", "--v", "5e-324"), LINE2),
    (("predict", "--theta-az", "0", "--fc", "1e+308", "--v", "9223372036854775808"), LINE2),
    (("analyze", "--v", "1e+308", "--rho-a", "1e+308"), LINE2),
    (("simulate",), dict(LINE2, amp=1e308)),
    (("analyze",), dict(LINE2, amp=1e308)),
]


@pytest.mark.parametrize("argv, target", PROCESS_CASES,
                         ids=[" ".join(argv) + f" amp={t.get('amp', 1)}"
                              for argv, t in PROCESS_CASES])
def test_exit_contract_in_a_child_process(tmp_path, argv, target):
    # in-process, numpy's warnings are errors; a real process prints them on
    # stderr after the error line.  So stderr is empty or one error line
    command, *flags = argv
    scene = scene_file(tmp_path, [target], na=64, nr=16)
    files = {"simulate": ("--scene", str(scene), "--out-prefix", str(tmp_path / "x")),
             "analyze": ("--scene", str(scene), "--out", str(tmp_path / "x.json"))}
    code, err = run_process(command, *files.get(command, ()), *flags)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
        return
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not list(tmp_path.glob("x*"))
    if "5e-324" in flags:
        assert err == ("error: a scatterer's slow time x / V or fast time 2 y / c is not "
                       "finite at the platform speed V = 5e-324 m/s\n")

def test_radar_flags_replace_the_base_values():
    # flags replace fields of the base; nothing else of it is recomputed
    base = s.RadarParams(9.6e9, 7600.0, 0.7, 1.0, 250.0)
    parser = cli.build_parser()
    args = parser.parse_args(["predict", "--theta-az", "0"])
    assert cli._radar(args, base) == base
    args = parser.parse_args(["predict", "--theta-az", "0", "--rho-a", "0.2", "--fdc", "1000"])
    assert cli._radar(args) == s.RadarParams(9.6e9, 7600.0, 0.2, 0.1, 1000.0)


# One valid target per kind on a 16 x 8 grid (0.8 m by 4 m half-extents).
CONTRACT_BASES = {
    "line": LINE2,
    "array": dict(ARRAY20, n=8),
    "arc": {"kind": "arc", "radius_m": 1.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
    "catenary": {"kind": "catenary", "a_m": 5.0, "half_span_m": 0.5, "theta_inc_deg": 40.0},
    "segment3d": SEGMENT,
}
CONTRACT_CASES = [
    (command, kind, field, value)
    for kind, spec in KINDS.items()
    for field in [*spec.required, *spec.optional, "amp"]
    if field != "label"
    for value in (1e308, 5e-324, 2**63)
    for command in (["simulate", "analyze"] if spec.grating else ["simulate"])
]


def _finite_json(text: str) -> None:
    def reject(constant):
        raise AssertionError(f"output holds {constant}")
    json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command, kind, field, value", CONTRACT_CASES,
                         ids=[f"{c}-{k}-{f}-{v}" for c, k, f, v in CONTRACT_CASES])
def test_every_numeric_field_keeps_the_exit_contract(capsys, tmp_path, command, kind,
                                                     field, value):
    # an extreme value in any field of any kind exits with a documented code:
    # 0 with finite products, or one error line; never a traceback (here an
    # exception out of main, or a numpy warning under the tests' filter)
    scene = scene_file(tmp_path, [dict(CONTRACT_BASES[kind], **{field: value})], na=16)
    out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
           else ("--out", str(tmp_path / "x_analysis.json")))
    code, _, err = run(capsys, command, "--scene", str(scene), *out)
    if field == "theta_inc_deg" and value == 5e-324:
        # positive in degrees, but 0 rad
        assert (code, err) == (2, "error: targets[0]: field 'theta_inc_deg' must lie in (0, 90)\n")
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.glob("x*"))
    elif command == "simulate":
        assert np.isfinite(np.loadtxt(tmp_path / "x_azspec.csv", delimiter=",",
                                      skiprows=1)).all()
        _finite_json((tmp_path / "x_report.json").read_text())
    else:
        _finite_json((tmp_path / "x_analysis.json").read_text())


def test_module_entry_point():
    import sarcsi.__main__  # noqa: F401  (importable; exercised in CI runs)


# numpy, the parts of it the package uses that numpy loads on first use, and
# the standard-library modules src/sarcsi imports (locale: argparse's gettext
# loads it as it parses).
KNOWN_IMPORTS = ("numpy", "numpy.fft", "__future__", "argparse", "collections.abc",
                 "contextlib", "contextvars", "ctypes", "dataclasses", "enum", "functools",
                 "itertools", "json", "locale", "math", "os", "pathlib", "re", "sys",
                 "threading", "typing")


def test_cli_import_leaves_out_concurrent_futures(tmp_path):
    # each module a run loads adds to its start-up: past numpy and the
    # standard-library modules the package imports, importing the CLI and a
    # simulate and an analyze run, whose stages take several tiles, load only
    # the package's own modules.  The threaded stages start plain threads, so
    # the thread pool module (about 15 ms) is not among them
    scene = scene_file(tmp_path, [LINE2])
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[4:]:\n"
        "    importlib.import_module(name)\n"
        "known = set(sys.modules)\n"
        "import sarcsi.cli\n"
        "codes = [sarcsi.cli.main(['simulate', '--scene', sys.argv[1], '--out-prefix', sys.argv[2]]),\n"
        "         sarcsi.cli.main(['analyze', '--scene', sys.argv[1], '--out', sys.argv[3]])]\n"
        "assert codes == [0, 0], codes\n"
        "print(' '.join(sorted(set(sys.modules) - known)))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(scene), str(tmp_path / "x"),
                           str(tmp_path / "x_analysis.json"), *KNOWN_IMPORTS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "x_rgb.ppm").is_file() and (tmp_path / "x_analysis.json").is_file()
    loaded = proc.stdout.splitlines()[-1].split()    # after simulate's "wrote" line
    assert "sarcsi.cli" in loaded and "concurrent.futures" not in loaded
    assert [m for m in loaded if m.partition(".")[0] != "sarcsi"] == []


def traced_functions():
    """The (module, name) pairs the benchmark's per-layer tracer wraps."""
    path = ROOT / "bench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    return trace_cli.TRACED


def test_traced_functions_exist():
    # the benchmark's per-layer tracer wraps these by name and only warns
    # when one is missing, so a rename would silently drop a layer metric
    assert traced_functions()
    for mod_name, fn_name in traced_functions():
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"


def test_traced_functions_are_called(capsys, tmp_path):
    # a name the tracer wraps can stay defined but stop being called, which
    # drops its layer metric just as silently as a rename would
    scene = scene_file(tmp_path, [LINE2], na=64, nr=16)
    with contextlib.ExitStack() as stack:
        mocks = {}
        for mod_name, fn_name in traced_functions():
            module = importlib.import_module(mod_name)
            mocks[mod_name, fn_name] = stack.enter_context(
                mock.patch.object(module, fn_name, wraps=getattr(module, fn_name)))
        for argv in (
            ("predict", "--theta-az", "20", "--dx", "0.05"),
            ("predict3d", "--theta-h", "2", "--theta-v", "-1", "--theta-inc", "40"),
            ("simulate", "--scene", str(scene), "--out-prefix", str(tmp_path / "sim")),
            ("analyze", "--scene", str(scene), "--out", str(tmp_path / "report.json")),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)
    assert [key for key, m in mocks.items() if not m.called] == []
