"""The command table's direct reader agrees with argparse wherever it accepts.

``cli._read_canonical`` reads ``COMMAND (--flag VALUE)*`` straight from
``cli._COMMANDS``; every other argv goes to the argparse parser built from
the same table.  These tests check that the reader never accepts an argv
that argparse would read differently or reject, and that the canonical
calls really skip argparse.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_langevin import cli
from test_config_cli import minimal_config

COMMANDS = list(cli._COMMANDS)


def argparse_namespace(argv):
    """vars() of argparse's Namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def same_value(a, b):
    return type(a) is type(b) and (a == b or (isinstance(a, float) and math.isnan(a)
                                              and math.isnan(b)))


def assert_reader_agrees(argv):
    """Returns whether the reader accepted argv; fails if it disagrees."""
    read = cli._read_canonical(argv)
    if read is None:
        return False
    parsed = argparse_namespace(argv)
    assert parsed is not None, f"argparse rejects {argv}, the reader accepts it"
    assert vars(read).keys() == parsed.keys()
    for dest, value in parsed.items():
        assert same_value(vars(read)[dest], value), (argv, dest)
    return True


def canonical(command, **given):
    argv = [command]
    for flag in cli._COMMANDS[command].flags:
        if flag.dest in given:
            argv += [flag.name, given[flag.dest]]
    return argv


PLAN = dict(alpha="1", smooth_l="1.5", tau="0.5", dim="2", eps="0.1")

ACCEPTED = [
    canonical("plan", **PLAN),
    canonical("plan", **PLAN, z_star_norm_sq="2", seed="3", out="plan.cfg"),
    canonical("plan", **PLAN, out=""),
    canonical("plan", **{**PLAN, "alpha": "nan", "eps": "inf"}),
    ["plan", "--eps", "0.1", "--dim", "2", "--tau", "0.5", "--smooth-l", "1.5",
     "--alpha", "1"],
    ["equilibrium", "--config", "exp.cfg"],
    ["run", "--config", "exp.cfg"],
    ["run", "--config", "exp.cfg", "--output-dir", "out"],
    ["run", "--output-dir", "out", "--config", "exp.cfg"],
    ["run", "--config", ""],
    ["couple", "--config", "exp.cfg", "--output-dir", "out"],
    ["check"],
    ["check", "--seed", "8"],
    ["check", "--seed", str(2**64 - 1)],
    ["check", "--seed", " 7 "],
    ["check", "--seed", "+7"],
    ["check", "--seed", "1_000"],
    ["gradcheck"],
    ["gradcheck", "--dim", "3", "--points", "20", "--seed", "4"],
]

DECLINED = [
    [], ["-h"], ["--help"], ["run", "-h"], ["check", "--help"],
    ["run", "--config=x"], ["run", "--conf", "x"], ["run", "--config", "a", "--config", "b"],
    ["check", "--seed", "-1"], ["check", "--seed", str(2**64)],
    ["gradcheck", "--points", "0"], ["gradcheck", "--dim", "-1"],
    ["check", "--seed"], ["run", "--config", "x", "--output-dir"], ["check", "8", "9"],
    ["bogus"], ["ru", "--config", "x"], ["run"], ["run", "--output-dir", "out"],
    ["check", "--seed", "x"], ["check", "--points", "3"], ["run", "--config", "-x"],
    ["check", "--", "8"], ["--", "check"], canonical("plan", **{**PLAN, "dim": "0"}),
    ["check", "--seed", 8],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_reader_accepts_the_canonical_spelling_as_argparse_reads_it(argv):
    assert assert_reader_agrees(argv)


@pytest.mark.parametrize("argv", DECLINED, ids=str)
def test_reader_declines_every_other_spelling(argv):
    assert cli._read_canonical(argv) is None


_VALUES = st.one_of(
    st.sampled_from(["0", "1", "7", "-1", "0.5", "1e3", "nan", "inf", "x", "", " 2",
                     "+3", "1_0", str(2**64 - 1), str(2**64), "--seed", "-h", "--",
                     "runs/out", "run"]),
    st.integers(-3, 2**65).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


@st.composite
def argvs(draw):
    """An argv of one command: a subset of its flags in any order, then
    perhaps one respelling (a repeat, ``=``, an abbreviation, help, a lost
    token, an unknown flag)."""
    command = draw(st.sampled_from(COMMANDS))
    names = draw(st.permutations([flag.name for flag in cli._COMMANDS[command].flags]))
    argv = [command]
    for name in names[:draw(st.integers(0, len(names)))]:
        argv += [name, draw(_VALUES)]
    change = draw(st.sampled_from(
        [None, None, "repeat", "equals", "abbreviate", "help", "drop", "unknown"]))
    if change == "repeat" and len(argv) > 1:
        argv += argv[1:3]
    elif change == "equals" and len(argv) > 1:
        argv[1:3] = [f"{argv[1]}={argv[2]}"]
    elif change == "abbreviate" and len(argv) > 1:
        argv[1] = argv[1][:-1]
    elif change == "help":
        argv.insert(draw(st.integers(1, len(argv))), "-h")
    elif change == "drop" and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "unknown":
        argv += ["--verbose", "1"]
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_equals_argparse_on_every_argv_it_accepts(argv):
    assert_reader_agrees(argv)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_canonical_calls_skip_argparse_with_unchanged_output(tmp_path, monkeypatch):
    config = tmp_path / "exp.cfg"
    config.write_text(minimal_config(tmp_path, checkpoint_every=20))
    coupled = tmp_path / "couple.cfg"
    coupled.write_text(minimal_config(
        tmp_path, checkpoint_every=20, init__mean_mode="explicit", init__mean="[0.0, 0.0]",
        coupled__mean_mode="explicit", coupled__mean="[0.25, 0.25]"))
    calls = [["run", "--config", str(config), "--output-dir", str(tmp_path / "r")],
             ["couple", "--config", str(coupled), "--output-dir", str(tmp_path / "c")],
             ["check", "--seed", "8"]]

    def outputs():
        results = []
        for argv in calls:
            results.append(run_main(argv))
            if argv[0] != "check":
                results.append((Path(argv[-1]) / "metrics.csv").read_bytes())
        return results

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_canonical", lambda argv: None)
        through_argparse = outputs()

    def no_argparse():
        raise AssertionError("a canonical argv was handed to argparse")

    monkeypatch.setattr(cli, "_build_parser", no_argparse)
    direct = outputs()
    assert [direct[i][0] for i in (0, 2, 4)] == [0, 0, 0]  # run, couple, check
    assert direct == through_argparse


def test_a_canonical_run_never_loads_locale(tmp_path):
    # argparse's first message lookup imports locale (through gettext); a
    # canonical call never makes one.
    config = tmp_path / "tiny.cfg"
    config.write_text(minimal_config(tmp_path))
    script = (
        "import sys\n"
        "import minmax_langevin.cli as cli\n"
        "assert cli.main(['run', '--config', sys.argv[1]]) == 0\n"
        "sys.exit('locale loaded' if 'locale' in sys.modules else 0)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_canonical_run_and_check_calls_never_import_argparse(tmp_path):
    # argparse (with gettext) is imported only to build the parser, or by a
    # converter on its error path.
    config = tmp_path / "tiny.cfg"
    config.write_text(minimal_config(tmp_path))
    script = (
        "import sys\n"
        "import minmax_langevin.cli as cli\n"
        "assert cli.main(['run', '--config', sys.argv[1]]) == 0\n"
        "assert cli.main(['check', '--seed', '3']) == 0\n"
        "loaded = sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "sys.exit(f'{loaded} imported' if loaded else 0)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_a_canonical_check_never_imports_json():
    # Only run_experiment's manifest writer imports json.
    script = (
        "import sys\n"
        "import minmax_langevin.cli as cli\n"
        "assert cli.main(['check', '--seed', '3']) == 0\n"
        "sys.exit('json imported' if 'json' in sys.modules else 0)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_canonical_run_never_loads_the_ascii_codec(tmp_path):
    # metrics.csv, manifest.json and the snapshots are encoded by
    # str.encode("ascii"), which needs no codec lookup; a text-mode file
    # opened with encoding="ascii" imports encodings.ascii on first use.
    config = tmp_path / "tiny.cfg"
    config.write_text(minimal_config(tmp_path, output__snapshots="all"))
    script = (
        "import sys\n"
        "import minmax_langevin.cli as cli\n"
        "assert cli.main(['run', '--config', sys.argv[1]]) == 0\n"
        "sys.exit('ascii codec loaded' if 'encodings.ascii' in sys.modules else 0)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert {"manifest.json", "metrics.csv"} <= set(written)
    assert any(name.startswith("snapshot_") for name in written)


def test_a_snapshot_started_run_never_loads_the_ascii_codec(tmp_path):
    # load_snapshot reads bytes and decodes them with bytes.decode("ascii"),
    # which needs no codec lookup.
    snap = tmp_path / "init.csv"
    snap.write_bytes(b"8,1,0\n" + b"0.25\n-0.5\n" * 8)
    config = tmp_path / "tiny.cfg"
    config.write_text(minimal_config(tmp_path, init__kind="snapshot", init__snapshot=snap))
    script = (
        "import sys\n"
        "import minmax_langevin.cli as cli\n"
        "assert cli.main(['run', '--config', sys.argv[1]]) == 0\n"
        "sys.exit('ascii codec loaded' if 'encodings.ascii' in sys.modules else 0)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
