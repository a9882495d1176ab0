"""Fuzz of the CLI's exit contract (Hypothesis; MacIver et al., JOSS 4(43), 2019).

Each subcommand runs in-process through main(), on flags drawn from a fixed
pool of awkward values, and simulate and analyze also on configs mutated from
a valid 64 x 16 one; any subcommand may also get an output path that cannot
be used.  Physical memory is mocked at 64 MiB, so that large requests take
the memory checks instead of allocating.  Whatever the input, the exit code
is 0, 2, 3 or 4, and not 0 with an unusable output path; stderr holds no
traceback; a nonzero exit prints exactly one error line, plus the usage for a
usage error, and writes nothing; exit 0 writes only finite numbers.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sarcsi.cli import main

MEMORY = 64 << 20
SYSCONF = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": MEMORY // 4096}
VALUES = [0, -1, 5e-324, 1e-9, 0.5, 1e308, 2**63, math.nan, math.inf]
FLAG_VALUES = st.sampled_from([repr(v) for v in VALUES])
ORDER_ENDS = [0, -1, 1, 2, 2**63, -(10**19), 10**19]
ORDERS = st.builds("{}:{}".format, st.sampled_from(ORDER_ENDS), st.sampled_from(ORDER_ENDS))
RADAR_FLAGS = ("--fc", "--v", "--rho-a", "--rho-r", "--fdc")
# subcommand -> (required flags, optional flags)
FLAGS = {
    "predict": (("--theta-az",), ("--dx", "--orders", *RADAR_FLAGS)),
    "predict3d": (("--theta-h", "--theta-v", "--theta-inc"), RADAR_FLAGS),
    "chart": ((), ("--dx", "--orders", "--sq-min", "--sq-max", "--sq-step", *RADAR_FLAGS)),
    "simulate": ((), ("--na", "--nr", "--norm", *RADAR_FLAGS)),
    "analyze": ((), ("--orders", "--tol-bins", "--na", "--nr", *RADAR_FLAGS)),
}
# A valid target of each kind on the 64 x 16 grid (3.2 m by 8 m half-extents).
TARGETS = [
    {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
    {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 8},
    {"kind": "arc", "radius_m": 1.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
    {"kind": "catenary", "a_m": 5.0, "half_span_m": 0.5, "theta_inc_deg": 40.0},
    {"kind": "segment3d", "theta_h_deg": 2.0, "theta_v_deg": -1.0, "theta_inc_deg": 40.0,
     "length_m": 1.0},
]
RADAR = {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1, "rho_r_m": 1.0}
LINE_CONFIG = {"radar": RADAR, "grid": {"na": 64, "nr": 16}, "targets": TARGETS[:1]}
LEAVES = st.sampled_from([*VALUES, "text", None, True, [], {}]).map(copy.deepcopy)
# Output paths under the run's work directory that no run can write: a name
# and a directory name past the OS's limit, and a missing directory.
WORK = "{work}"
BAD_OUTS = [f"{WORK}/{'n' * 300}", f"{WORK}/{'d' * 300}/x", f"{WORK}/missing/x"]
# A simulate prefix that fits the limit with _rgb.ppm and _azspec.csv but not
# with _report.json.  It starts with x, so check_contract sees any product
# left behind; as an --out it could be written, so only simulate draws it.
NAME_MAX = os.pathconf(tempfile.gettempdir(), "PC_NAME_MAX")
LONG_PREFIX = f"{WORK}/x{'l' * (NAME_MAX - 12)}"
BAD_PREFIXES = [*BAD_OUTS, LONG_PREFIX]


@st.composite
def argvs(draw, command):
    required, optional = FLAGS[command]
    argv = [command]
    # a few flags at a time, so that a run often gets past the first bad value
    for flag in (*required, *draw(st.lists(st.sampled_from(optional), unique=True,
                                           max_size=3))):
        argv.append(f"--orders={draw(ORDERS)}" if flag == "--orders" else flag)
        if flag != "--orders":
            argv.append(draw(FLAG_VALUES))
    if draw(st.booleans()):
        simulate = command == "simulate"
        argv += ["--out-prefix" if simulate else "--out",
                 draw(st.sampled_from(BAD_PREFIXES if simulate else BAD_OUTS))]
    return argv


@st.composite
def configs(draw):
    # drop or add fields, swap types and set pool values, anywhere
    cfg = {"radar": dict(RADAR), "grid": {"na": 64, "nr": 16},
           "targets": [dict(t) for t in draw(st.lists(st.sampled_from(TARGETS),
                                                      min_size=1, max_size=2))]}
    for _ in range(draw(st.integers(0, 3))):
        targets = cfg.get("targets") if isinstance(cfg.get("targets"), list) else []
        objects = [cfg, *(v for v in (cfg.get("radar"), cfg.get("grid"), *targets)
                          if isinstance(v, dict))]
        obj = draw(st.sampled_from(objects))
        keys = sorted(obj)
        op = draw(st.sampled_from(["drop", "add", "set"]))
        if op == "add":
            obj[draw(st.sampled_from(["extra", "spacing_m", "fdc_hz", "n", "label"]))] = \
                draw(LEAVES)
        elif keys and op == "drop":
            del obj[draw(st.sampled_from(keys))]
        elif keys:
            obj[draw(st.sampled_from(keys))] = draw(LEAVES)
    return cfg


def assert_finite_text(text: str) -> None:
    # every field that reads as a number is finite
    for line in text.splitlines():
        for field in line.lstrip("# ").split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), line


def assert_finite_json(text: str) -> None:
    def reject(constant):
        raise AssertionError(f"output holds {constant}")
    json.loads(text, parse_constant=reject)


def check_contract(argv: list[str], work: Path, refused: bool = False) -> None:
    """Run argv; refused: its output path cannot be used, so it must fail."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch("os.sysconf", side_effect=SYSCONF.__getitem__), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:    # argparse's usage errors
            code = e.code
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert code or not refused, argv
    assert "Traceback" not in err
    written = sorted(p.name for p in work.glob("x*"))
    if code:
        first, *usage = err.splitlines()
        assert first.startswith("error: "), (argv, err)
        assert not usage or (usage[0].startswith("usage: ")
                             and all(line.startswith(" ") for line in usage[1:])), (argv, err)
        assert (stdout.getvalue(), written) == ("", []), argv
        return
    assert err == "", argv
    if argv[0] == "simulate":
        assert written == ["x_azspec.csv", "x_report.json", "x_rgb.ppm"]
        assert_finite_text((work / "x_azspec.csv").read_text())
        assert_finite_json((work / "x_report.json").read_text())
    elif argv[0] == "analyze":
        assert_finite_json(stdout.getvalue())
    else:
        assert_finite_text(stdout.getvalue())


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(FLAGS)).flatmap(argvs), configs())
# what the fuzz has found: an order range of 2^63 or more orders that was
# listed (OverflowError), a bandwidth that underflowed to 0
# (ZeroDivisionError), slow time that overflowed (a numpy warning), and a
# Doppler span that overflowed (exit 0 with NaN or -Infinity written)
@example(["chart", "--orders=0:9223372036854775808"], LINE_CONFIG)
@example(["simulate", "--fc", "1e+308", "--rho-r", "1e+308"], LINE_CONFIG)
@example(["analyze", "--v", "5e-324"], LINE_CONFIG)
@example(["predict", "--theta-az", "0", "--fc", "1e+308", "--v", "9223372036854775808"],
         LINE_CONFIG)
@example(["analyze", "--v", "1e+308", "--rho-a", "1e+308"], LINE_CONFIG)
# one of each unusable output path
@example(["predict", "--theta-az", "2", "--out", BAD_OUTS[0]], LINE_CONFIG)
@example(["simulate", "--out-prefix", BAD_OUTS[1]], LINE_CONFIG)
@example(["analyze", "--out", BAD_OUTS[2]], LINE_CONFIG)
@example(["simulate", "--out-prefix", LONG_PREFIX], LINE_CONFIG)
def test_argv_keeps_the_exit_contract(argv, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        refused = any(WORK in a for a in argv)
        argv = [a.replace(WORK, tmp) for a in argv]
        if argv[0] in ("simulate", "analyze"):
            (work / "scene.json").write_text(json.dumps(cfg))
            argv = [argv[0], "--scene", str(work / "scene.json"), *argv[1:]]
            if argv[0] == "simulate" and not refused:
                argv += ["--out-prefix", str(work / "x")]
        check_contract(argv, work, refused)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["simulate", "analyze"]), configs())
def test_config_keeps_the_exit_contract(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scene.json").write_text(json.dumps(cfg))
        argv = [command, "--scene", str(work / "scene.json")]
        if command == "simulate":
            argv += ["--out-prefix", str(work / "x")]
        check_contract(argv, work)
