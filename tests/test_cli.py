import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import sarcsi as s
from sarcsi import cli, csi, simulator as sim
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
        want = s.doppler_from_squint(xband, s.high_order_squint(t, 1, xband.lam))
        assert float(fd) == pytest.approx(want, abs=1e-9)

    def test_continuous_line(self, capsys, xband, fd_of_line):
        code, out, _ = run(capsys, "predict", "--theta-az", "2")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(-2.0)
        assert float(row[2]) == pytest.approx(fd_of_line(xband, 2.0))
        assert row[4] == "red"

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
        # run on one thread per CPU; pinned to one CPU they run inline, and
        # every product must come out byte-identical.  The BLAS keeps one
        # thread in both runs, as its own thread count may change the sums
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
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
            assert proc.returncode == 0, proc.stderr
            blobs.append([prefix.with_name(prefix.name + suffix).read_bytes()
                          .replace(prefix.name.encode(), b"run")
                          for suffix in ("_rgb.ppm", "_azspec.csv", "_report.json")])
        assert blobs[0] == blobs[1]


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

    def test_analyze_checks_out_dir_before_synthesis(self, tmp_path, capsys):
        scene = scene_file(tmp_path, [LINE2])
        with mock.patch("sarcsi.analysis.synth_spectrum",
                        side_effect=AssertionError("synth_spectrum was called")):
            code, out, err = run(capsys, "analyze", "--scene", str(scene),
                                 "--out", str(tmp_path / "missing" / "a.json"))
        assert code == 2 and out == ""
        assert "output directory" in err

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
        # a power-of-two grid passes the size rule, but its 16-byte-per-point
        # spectrum cannot fit in physical memory: one error line naming the
        # size, before anything grid-sized is allocated
        scene = scene_file(tmp_path, [LINE2], na=na)
        out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
               else ("--out", str(tmp_path / "x_analysis.json")))
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, command, "--scene", str(scene), *out, *flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 2**63 if na == 2**63 else 2**40
        assert code == 2 and stdout == ""
        assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1
        assert f"{size}x8 spectrum needs {16 * size * 8} bytes" in err
        assert "Traceback" not in err
        assert peak < 4 << 20
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("command, targets, direct", [
        ("simulate", README_TARGETS, True),
        ("analyze", [{"kind": "line", "theta_az_deg": 2.0, "length_m": 20.0}], False),
    ], ids=["simulate_direct_sum", "analyze_closed_form"])
    def test_synthesis_beyond_physical_memory(self, capsys, tmp_path, command, targets, direct):
        # the 2048 x 256 spectrum (8 MiB) fits in the 20 bytes per grid point
        # of physical memory mocked here, but its synthesis does not: the
        # direct sum holds T over S beside G (about 32 bytes per point), the
        # closed form three float64 grids and a mask (25).  One error line
        # naming the grid and both byte counts, before anything grid-sized
        # is allocated
        na, nr = 2048, 256
        scene = scene_file(tmp_path, targets, rho_r=0.1, na=na, nr=nr)
        n = s.merge_scenes(s.build_scenes(s.parse_scene_config(str(scene)))).n
        need, have = sim._peak_bytes(na, nr, n, direct), 20 * na * nr
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
        out = (("--out-prefix", str(tmp_path / "x")) if command == "simulate"
               else ("--out", str(tmp_path / "x_analysis.json")))
        tracemalloc.start()
        try:
            with mock.patch("os.sysconf", side_effect=sysconf.__getitem__):
                code, stdout, err = run(capsys, command, "--scene", str(scene), *out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and stdout == ""
        assert err == (f"error: out of memory: synthesizing a {na}x{nr} spectrum needs "
                       f"{need} bytes, more than the {have} bytes of physical memory\n")
        assert 16 * na * nr < have < need
        assert peak < 1 << 20
        assert not list(tmp_path.glob("x*"))

    def test_memory_error_is_one_line(self, capsys, tmp_path):
        scene = scene_file(tmp_path, [LINE2])
        with mock.patch("sarcsi.cli.synth_spectrum", side_effect=MemoryError()):
            code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                 "--out-prefix", str(tmp_path / "x"))
        assert (code, out, err) == (2, "", "error: out of memory: allocation failed\n")

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
        ],
    )
    def test_non_finite_float_flag(self, tmp_path, argv):
        scene = scene_file(tmp_path, [LINE2])
        code, err = run_process(*(a.format(scene=scene) for a in argv))
        assert code == 2
        assert err.startswith("error:") and "finite" in err
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
        # each 3e6-scatterer array's x, y and amp (72 MB) fit in the 256 MiB
        # of physical memory mocked here, but not the two targets' arrays
        # together with their merged copy (48 bytes per scatterer)
        array = dict(ARRAY20, n=3_000_000)
        scene = scene_file(tmp_path, [array, array], na=16)
        have = 256 << 20
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": have // 4096}
        tracemalloc.start()
        try:
            with mock.patch("os.sysconf", side_effect=sysconf.__getitem__), \
                    mock.patch("sarcsi.scene._build", side_effect=AssertionError("built")):
                code, out, err = run(capsys, "simulate", "--scene", str(scene),
                                     "--out-prefix", str(tmp_path / "x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 24 * 3_000_000 < have < 48 * 6_000_000
        assert (code, out) == (2, "")
        assert err == ("error: out of memory: a scene of 6000000 scatterers needs 288000000 "
                       f"bytes, more than the {have} bytes of physical memory\n")
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


def test_cli_import_leaves_out_concurrent_futures():
    # the thread pool module is imported where a pool is made: at module
    # level it would add about 15 ms to every start of the CLI
    code = "import sys, sarcsi.cli; sys.exit('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_functions_exist():
    # the benchmark's per-layer tracer wraps these by name and only warns
    # when one is missing, so a rename would silently drop a layer metric
    path = ROOT / "bench" / "trace_cli.py"
    spec = importlib.util.spec_from_file_location("trace_cli", path)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    assert trace_cli.TRACED
    for mod_name, fn_name in trace_cli.TRACED:
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"
