import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_PEDALS_REPAIRED, GOLDEN_WORKED_WINDOWS,
                      PEDALS_STREAM_TEXT, PEDALS_TBOX_TEXT,
                      WORKED_STREAM_TEXT, WORKED_TBOX_TEXT, ts)
from rlwindow import cli
from rlwindow.errors import UnexpectedInconsistency
from rlwindow.ontology import format_tbox, parse_tbox
from rlwindow.oracle import OracleVerdict
from rlwindow.repair import add_abox_with_repair
from rlwindow.stream import WindowExtent, WindowSpec, parse_stream, window_extents
from rlwindow.synth import random_stream, random_tbox
from rlwindow.window import WindowModel

WORKED_TBOX = WORKED_TBOX_TEXT
WORKED_STREAM = WORKED_STREAM_TEXT
PEDALS_TBOX = PEDALS_TBOX_TEXT
PEDALS_STREAM = PEDALS_STREAM_TEXT
WORKED_WINDOWS = GOLDEN_WORKED_WINDOWS
PEDALS_REPAIRED = GOLDEN_PEDALS_REPAIRED

WORKED_DIFFS = """\
WINDOW [0, 2]
+ A(a)
+ B(a)
+ C(a)
+ D(a)
+ E(a)

WINDOW [1, 3]

WINDOW [2, 4]

"""

PEDALS_HALT = """\
WINDOW [0, 2]
GasPedalPressed(x) @ {0,1}

WINDOW [1, 3]
INCONSISTENT

"""


@pytest.fixture
def files(tmp_path):
    def write(tbox, stream):
        t = tmp_path / "tbox.txt"
        s = tmp_path / "stream.txt"
        t.write_text(tbox)
        s.write_text(stream)
        return str(t), str(s)
    return write


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def worked_argv(files, *extra):
    tbox, stream = files(WORKED_TBOX, WORKED_STREAM)
    return ["--tbox", tbox, "--stream", stream,
            "--width", "2", "--slide", "1", "--origin", "2", *extra]


# -- window emission ------------------------------------------------------------

def test_window_mode_prints_attributed_atoms(files, capsys):
    code, out, err = run_main(worked_argv(files), capsys)
    assert (code, err) == (0, "")
    assert out == WORKED_WINDOWS


def test_diff_mode_prints_changes_only(files, capsys):
    code, out, err = run_main(worked_argv(files, "--emit", "diff"), capsys)
    assert (code, err) == (0, "")
    assert out == WORKED_DIFFS


def test_diff_blocks_replay_to_the_window_contents(files, capsys):
    _, diff_out, _ = run_main(worked_argv(files, "--emit", "diff"), capsys)
    _, window_out, _ = run_main(worked_argv(files), capsys)

    want = {}
    for block in filter(None, window_out.split("\n\n")):
        header, *lines = block.splitlines()
        want[header] = {line.split(" @ ")[0] for line in lines}

    state = set()
    for block in filter(None, diff_out.split("\n\n")):
        header, *lines = block.splitlines()
        for line in lines:
            sign, atom = line.split(" ", 1)
            state.remove(atom) if sign == "-" else state.add(atom)
        assert state == want[header], header


def test_repair_reports_removals(files, capsys):
    tbox, stream = files(PEDALS_TBOX, PEDALS_STREAM)
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "2", "--slide", "1",
         "--origin", "2", "--repair"], capsys)
    assert (code, err) == (0, "")
    assert out == PEDALS_REPAIRED


def test_output_is_deterministic(files, capsys):
    _, first, _ = run_main(worked_argv(files, "--check-oracle"), capsys)
    _, second, _ = run_main(worked_argv(files, "--check-oracle"), capsys)
    assert first == second


def _full_render(tbox, stream, extents, hook, emit):
    """The run's stdout with --skip-inconsistent, each window rendered whole
    from attributed_atoms. It rebuilds from a new model after an
    inconsistent window on purpose: it is the referee for a run loop that
    slides on from the last consistent window instead."""
    out, wm, printed = [], None, set()
    for extent in extents:
        out.append(f"WINDOW {extent}")
        if wm is None:
            wm = WindowModel(extent)
        try:
            removals = wm.slide(stream, extent, tbox, repair=hook).removals
        except UnexpectedInconsistency:
            out += ["INCONSISTENT", ""]
            wm = None
            continue
        rows = wm.attributed_atoms()
        if emit == "window":
            out += [f"{r.atom} @ {{{','.join(map(str, sorted(r.home_timestamps)))}}}"
                    for r in rows]
            out += [f"REMOVED {o.timestamp} {o.atom}"
                    for o in sorted(removals, key=lambda o: o.sort_key)]
        else:
            atoms = {r.atom for r in rows}
            out += [f"- {a}" for a in sorted(printed - atoms)]
            out += [f"+ {a}" for a in sorted(atoms - printed)]
            printed = atoms
        out.append("")
    return "".join(line + "\n" for line in out)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans(),
       st.sampled_from(["window", "diff"]), st.sampled_from([1, 2]))
# Seed 1 without repair: [2, 5] is consistent, [3, 6] is not, and [4, 7]
# slides on from [2, 5], keeping some of its lines and changing some homes.
@example(1, False, "window", 1)
@example(1, False, "diff", 1)
def test_incremental_lines_equal_a_full_render(tmp_path_factory, seed, repair, emit, slide):
    # Cyclic TBoxes, with and without the repair hook. Without it some
    # windows are inconsistent, and the run skips them and slides on from
    # the last consistent window.
    tbox = random_tbox(seed, n_concepts=4, n_roles=2, n_axioms=6, n_negative=2,
                       acyclic=False)
    boxes = random_stream(seed + 1, n_ticks=12, atoms_per_tick=3,
                          n_individuals=3, n_concepts=4, n_roles=2)
    stream_text = "".join(f"{b.timestamp} {a}\n" for b in boxes for a in sorted(b.atoms))
    if not stream_text:
        return
    d = tmp_path_factory.mktemp("run")
    (d / "tbox").write_text(format_tbox(tbox))
    (d / "stream").write_text(stream_text)
    config = cli.RunConfig(tbox_path=str(d / "tbox"), stream_path=str(d / "stream"),
                           width=ts(3), slide=ts(slide), origin=ts(3), repair=repair,
                           unfold_depth=1, emit=emit, skip_inconsistent=True)
    out = io.StringIO()
    assert cli.run(config, out=out, err=io.StringIO()) == 0

    tbox = parse_tbox(format_tbox(tbox))
    stream = parse_stream(stream_text)
    hook = (lambda model, b: add_abox_with_repair(model, b, tbox)[1]) if repair else None
    horizon = stream[-1].timestamp
    extents = window_extents(WindowSpec(ts(3), ts(slide), ts(3)), horizon) if horizon >= ts(3) else []
    assert out.getvalue() == _full_render(tbox, stream, extents, hook, emit)


# -- inconsistency handling -------------------------------------------------------

def test_unrepaired_clash_halts_with_status_2(files, capsys):
    tbox, stream = files(PEDALS_TBOX, PEDALS_STREAM)
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "2", "--slide", "1",
         "--origin", "2"], capsys)
    assert code == 2
    assert out == PEDALS_HALT
    assert "negative inclusion violated" in err


def test_a_clashing_first_window_names_its_first_clashing_tick(files, capsys):
    # The first window ingests ticks 1 and 2 with one fixpoint, which meets
    # the clash at a first; the replay tick by tick reports z, of tick 1.
    tbox, stream = files("A & B < bot\n", "1 A(z)\n1 B(z)\n2 A(a)\n2 B(a)\n")
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "1", "--slide", "1",
         "--origin", "2"], capsys)
    assert code == 2
    assert out == "WINDOW [1, 2]\nINCONSISTENT\n\n"
    assert err == "error: window [1, 2] is inconsistent: negative inclusion violated by 'z'\n"


@pytest.mark.parametrize("emit, want", [
    ("window", PEDALS_HALT + "WINDOW [2, 4]\nBreaksPressed(x) @ {3,4}\nClutchPressed(x) @ {4}\n\n"),
    ("diff", "WINDOW [0, 2]\n+ GasPedalPressed(x)\n\nWINDOW [1, 3]\nINCONSISTENT\n\n"
             "WINDOW [2, 4]\n- GasPedalPressed(x)\n+ BreaksPressed(x)\n+ ClutchPressed(x)\n\n"),
], ids=["window", "diff"])
def test_skipping_inconsistent_windows_continues(files, capsys, emit, want):
    tbox, stream = files(PEDALS_TBOX, PEDALS_STREAM)
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "2", "--slide", "1",
         "--origin", "2", "--skip-inconsistent", "--emit", emit], capsys)
    assert (code, err) == (0, "")
    assert out == want


def test_diff_baseline_carries_past_inconsistent_windows(files, capsys):
    tbox, stream = files(PEDALS_TBOX, PEDALS_STREAM)
    code, out, _ = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "2", "--slide", "1",
         "--origin", "2", "--skip-inconsistent", "--emit", "diff"], capsys)
    assert code == 0
    blocks = out.split("\n\n")
    assert blocks[1] == "WINDOW [1, 3]\nINCONSISTENT"
    # the [2, 4] diff is taken against [0, 2], the last emitted window
    assert blocks[2].splitlines() == [
        "WINDOW [2, 4]",
        "- GasPedalPressed(x)",
        "+ BreaksPressed(x)",
        "+ ClutchPressed(x)",
    ]


# -- failure statuses --------------------------------------------------------------

def test_missing_file_reports_io_failure(files, capsys):
    tbox, _ = files(WORKED_TBOX, WORKED_STREAM)
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", "/nonexistent/stream.txt",
         "--width", "2", "--slide", "1", "--origin", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_a_reader_closing_early_ends_the_run_with_status_3(files):
    # About 1 MB of windows, far more than a pipe holds, so the run is still
    # writing when the reader closes after the first line.
    tbox, stream = files("A < B\n", "".join(f"{t} A(x{i})\n" for t in range(100)
                                             for i in range(20)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rlwindow.cli", "--tbox", tbox, "--stream", stream,
         "--width", "10", "--slide", "1", "--origin", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, proc.wait(timeout=120), err) == (b"WINDOW [0, 10]\n", 3, b"")


def test_malformed_stream_reports_parse_failure(files, capsys):
    tbox, stream = files(WORKED_TBOX, "2 A(a)\n1 B(a)\n")
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream,
         "--width", "2", "--slide", "1", "--origin", "2"], capsys)
    assert code == 4
    assert err == "parse error: timestamp 1 after 2 at line 2\n"


def test_malformed_tbox_reports_parse_failure(files, capsys):
    tbox, stream = files("A < B & C\n", WORKED_STREAM)
    code, _, err = run_main(
        ["--tbox", tbox, "--stream", stream,
         "--width", "2", "--slide", "1", "--origin", "2"], capsys)
    assert code == 4
    assert "parse error" in err


@pytest.mark.parametrize("which", [0, 1], ids=["tbox", "stream"])
def test_non_utf8_input_reports_parse_failure(files, capsys, which):
    paths = files(WORKED_TBOX, WORKED_STREAM)
    bad = paths[which]
    with open(bad, "wb") as f:
        f.write([b"A < B\n\xff\xfe < C\n", b"0 A(a)\n1 \xff\xfeB(a)\n"][which])
    code, out, err = run_main(
        ["--tbox", paths[0], "--stream", paths[1],
         "--width", "2", "--slide", "1", "--origin", "2"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"parse error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_slide_wider_than_width_is_rejected(files, capsys):
    code, _, err = run_main(worked_argv(files)[:-6] + [
        "--width", "1", "--slide", "2", "--origin", "2"], capsys)
    assert code == 4
    assert "slide" in err


def test_unfold_budget_overrun_reports_refusal(files, capsys):
    lines = [f"B{i} < A{i}\nC{i} < A{i}" for i in range(16)]
    lines.append(" & ".join(f"A{i}" for i in range(16)) + " < bot")
    tbox, stream = files("\n".join(lines) + "\n", "1 B0(a)\n")
    code, _, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "2", "--slide", "1",
         "--origin", "2", "--unfold-depth", "6"], capsys)
    assert code == 5
    assert "error:" in err and "bodies" in err


def test_an_oracle_cap_overrun_reports_refusal(files, capsys):
    # 17 atoms at one tick, two of them clashing: repair drops the pair,
    # and the definitional repair refuses the pool past its cap of 16.
    atoms = ["A(a)", "B(a)"] + [f"C{i}(a)" for i in range(1, 16)]
    tbox, stream = files("A & B < bot\n", "".join(f"0 {a}\n" for a in atoms))
    code, out, err = run_main(
        ["--tbox", tbox, "--stream", stream, "--width", "1", "--slide", "1",
         "--origin", "0", "--repair", "--check-oracle"], capsys)
    assert code == 5
    assert out.count("WINDOW ") == 1
    assert out.endswith("\nREMOVED 0 A(a)\nREMOVED 0 B(a)\n\n")
    assert err == "error: 17 occurrences exceed the cap of 16\n"


@pytest.mark.parametrize("repair", [[], ["--repair"]])
def test_a_body_of_1200_conjuncts_runs(files, capsys, repair):
    names = [f"N{i}" for i in range(1200)]
    tbox, stream = files(" & ".join(names) + " < H\nH & Z < bot\n",
                         "".join(f"{i // 600} {n}(a)\n" for i, n in enumerate(names))
                         + "1 Z(b)\n")
    code, out, err = run_main(["--tbox", tbox, "--stream", stream, "--width", "1",
                               "--slide", "1", "--origin", "1", *repair], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("WINDOW [0, 1]\nH(a) @ {0}\nN0(a) @ {0}\n")
    assert out.endswith("Z(b) @ {1}\n\n")


def _deep_run(files, capsys, tbox, stream):
    tbox, stream = files(tbox, stream)
    return run_main(["--tbox", tbox, "--stream", stream, "--width", "1", "--slide", "1",
                     "--origin", "0", "--repair", "--check-oracle"], capsys)


def test_a_body_in_1000_parentheses_reads_like_the_bare_name(files, capsys):
    deep = "(" * 1000 + "A" + ")" * 1000
    got = _deep_run(files, capsys, f"{deep} < B\n", "0 A(a)\n")
    assert got == _deep_run(files, capsys, "A < B\n", "0 A(a)\n")
    assert got == (0, "WINDOW [-1, 0]\nA(a) @ {0}\nB(a) @ {0}\n\n", "")


def test_a_body_800_existentials_deep_runs(files, capsys):
    code, out, err = _deep_run(files, capsys, "some r . " * 800 + "A < B\n",
                               "0 A(a)\n0 C(a)\n0 r(a,a)\n")
    assert (code, err) == (0, "")
    assert out == "WINDOW [-1, 0]\nA(a) @ {0}\nB(a) @ {0}\nC(a) @ {0}\nr(a,a) @ {0}\n\n"


def test_a_chain_800_deep_under_a_negative_inclusion_runs(files, capsys):
    # The rewrite puts the chain into B & C and keeps each candidate in a
    # set: hashing an interned node does not walk the chain.
    code, out, err = _deep_run(files, capsys, "some r . " * 800 + "A < B\nB & C < bot\n",
                               "0 A(a)\n0 C(a)\n0 r(a,a)\n")
    assert (code, err) == (0, "")


def test_usage_errors_follow_argparse_convention(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--tbox", "x", "--stream", "y",
                  "--width", "nonsense", "--slide", "1", "--origin", "2"])
    assert exc.value.code == 2


# -- oracle hook --------------------------------------------------------------------

def test_oracle_agreement_keeps_status_zero(files, capsys):
    code, out, err = run_main(worked_argv(files, "--check-oracle"), capsys)
    assert (code, err) == (0, "")
    assert out == WORKED_WINDOWS


def test_oracle_disagreement_reports_status_one(files, capsys, monkeypatch):
    fake = OracleVerdict(
        subject=WindowExtent(ts(0), ts(2)),
        match=False,
        diff=("engine is missing X(a)",),
    )
    monkeypatch.setattr(cli, "cross_check", lambda *a, **k: fake)
    code, out, err = run_main(worked_argv(files, "--check-oracle"), capsys)
    assert code == 1
    assert out.startswith("WINDOW [0, 2]\n")  # the offending block was emitted
    assert "oracle MISMATCH for window [0, 2]" in err
    assert "engine is missing X(a)" in err


def test_the_oracle_checks_every_window(files, capsys, monkeypatch):
    # The first two windows match; only the third disagrees.
    checked = []

    def cross_check(wm, stream, extent, tbox, ntbox=None):
        checked.append(extent)
        wrong = ("engine is missing X(a)",) if len(checked) == 3 else ()
        return OracleVerdict(subject=extent, match=not wrong, diff=wrong)

    monkeypatch.setattr(cli, "cross_check", cross_check)
    code, out, err = run_main(worked_argv(files, "--check-oracle"), capsys)
    assert code == 1
    assert out.count("WINDOW ") == 3 and out == WORKED_WINDOWS
    assert err == "oracle MISMATCH for window [2, 4]\n  engine is missing X(a)\n"


def test_truncated_rewrite_with_repair_repairs_exactly(files, capsys):
    # The r-chain from B(x0) to A(x5) is deeper than the default rewrite
    # depth of 3; repair reads the conflict off the closure all the same.
    tbox, stream = files("some r . A < A\nA & B < bot\n",
                         "0 B(x0)\n" + "".join(f"{i} r(x{i - 1},x{i})\n" for i in range(1, 6))
                         + "6 A(x5)\n")
    argv = ["--tbox", tbox, "--stream", stream, "--width", "6", "--slide", "1",
            "--origin", "6", "--repair"]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("WINDOW [0, 6]\nA(x0) @ {1}\n")
    assert out.endswith("r(x4,x5) @ {5}\nREMOVED 0 B(x0)\n\n")
    assert run_main(argv + ["--check-oracle"], capsys) == (0, out, "")


# -- calling run() as a library ------------------------------------------------------

def test_run_accepts_config_and_streams(files):
    tbox, stream = files(WORKED_TBOX, WORKED_STREAM)
    config = cli.RunConfig(tbox_path=tbox, stream_path=stream,
                           width=ts(2), slide=ts(1), origin=ts(2))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(config, out=out, err=err) == 0
    assert out.getvalue() == WORKED_WINDOWS
    assert err.getvalue() == ""


def test_run_on_an_empty_stream_emits_nothing(files):
    tbox, stream = files(WORKED_TBOX, "# nothing\n")
    config = cli.RunConfig(tbox_path=tbox, stream_path=stream,
                           width=ts(2), slide=ts(1), origin=ts(2))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(config, out=out, err=err) == 0
    assert out.getvalue() == ""


def test_run_when_the_horizon_precedes_the_origin(files):
    tbox, stream = files(WORKED_TBOX, "1 A(a)\n")
    config = cli.RunConfig(tbox_path=tbox, stream_path=stream,
                           width=ts(2), slide=ts(1), origin=ts(5))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(config, out=out, err=err) == 0
    assert out.getvalue() == ""


def test_run_refuses_a_bad_config(files):
    tbox, stream = files(WORKED_TBOX, WORKED_STREAM)
    for option, message in [
            ({"emit": "windows"}, "emit must be 'window' or 'diff', not 'windows'"),
            ({"unfold_depth": -1}, "unfold depth must be nonnegative")]:
        config = cli.RunConfig(tbox_path=tbox, stream_path=stream,
                               width=ts(2), slide=ts(1), origin=ts(2), **option)
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(config, out=out, err=err) == 4
        assert out.getvalue() == ""
        assert err.getvalue() == f"error: {message}\n"


class _Stopped(Exception):
    pass


class _StopAtSecondWindow(io.StringIO):
    """Output that raises when the second window block is written."""

    def write(self, text):
        if text.startswith("WINDOW ") and "WINDOW " in self.getvalue():
            raise _Stopped
        return super().write(text)


def test_run_prints_the_first_window_before_building_the_rest(files, extents_built):
    # Ticks 2*10^7 units apart at width and slide 1 span 2*10^7 windows;
    # the first is printed before any later extent is built.
    tbox, stream = files("A < B\n", "0 A(a)\n20000000 A(b)\n")
    config = cli.RunConfig(tbox_path=tbox, stream_path=stream,
                           width=ts(1), slide=ts(1), origin=ts(0))
    out = _StopAtSecondWindow()
    with pytest.raises(_Stopped):
        cli.run(config, out=out, err=io.StringIO())
    assert out.getvalue() == "WINDOW [-1, 0]\nA(a) @ {0}\nB(a) @ {0}\n\n"
    assert extents_built == [ts(0), ts(1)]


# -- bench ----------------------------------------------------------------------------

def test_bench_csv_shape(capsys):
    code = cli.main(["bench", "--seed", "7", "--timestamps", "40",
                     "--atoms-per-tick", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "window_end,incr_micros,scratch_micros"
    assert lines[-1].startswith("# windows=30 mismatches=0 ")
    assert len(lines) == 32
    for row in lines[1:-1]:
        end, incr, scratch = row.split(",")
        assert int(incr) >= 1 and int(scratch) >= 1


def test_bench_counts_a_wrong_home_as_a_mismatch(monkeypatch):
    # One extra home on an atom the incremental window holds leaves its
    # atoms as they were, so only a comparison of homes sees it.
    class OneWrongHome(WindowModel):
        planted = False

        def slide(self, *args, **kwargs):
            report = super().slide(*args, **kwargs)
            if not OneWrongHome.planted:
                OneWrongHome.planted = True
                atom, home = next((o.atom, t) for o in self.occurrences()
                                  for t in self._ticks if t not in self.homes(o.atom))
                self._index.add(atom, home)
            return report

    monkeypatch.setattr(cli, "WindowModel", OneWrongHome)
    assert cli.bench(7, timestamps=40, atoms_per_tick=5).mismatches >= 1
    assert OneWrongHome.planted


def test_bench_workload_is_deterministic(capsys):
    argv = ["bench", "--seed", "11", "--timestamps", "30", "--atoms-per-tick", "4"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    ends = lambda text: [row.split(",")[0] for row in text.strip().splitlines()[1:-1]]
    assert ends(first) == ends(second)
    assert "mismatches=0" in first and "mismatches=0" in second


def test_bench_requires_a_seed():
    with pytest.raises(ValueError):
        cli.bench(None)


@pytest.mark.parametrize("option, value", [
    ("timestamps", 0), ("timestamps", -5), ("timestamps", 1),
    ("overlap", -10.0), ("overlap", 100.0), ("atoms_per_tick", -3)])
def test_bench_refuses_arguments_it_cannot_run(option, value, capsys, monkeypatch):
    # Refused before the workload or a single extent is built: at 100%
    # overlap the slide would be one micro-unit wide.
    def unbuilt(*args, **kwargs):
        raise AssertionError("a refused bench built its workload")

    monkeypatch.setattr(cli, "bench_workload", unbuilt)
    monkeypatch.setattr(cli, "window_extents", unbuilt)
    with pytest.raises(ValueError):
        cli.bench(7, **{option: value})
    with pytest.raises(SystemExit) as stopped:
        cli.main(["bench", "--seed", "7", f"--{option.replace('_', '-')}", str(value)])
    assert stopped.value.code == 2
    assert "rlwindow bench: error:" in capsys.readouterr().err
