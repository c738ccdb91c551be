#!/usr/bin/env python3
"""Plant one-line faults in copies of the code, one at a time, and check
that the tier-1 tests catch each one.

The catalogue below is data. Each entry names a fault and a file, gives the
exact text to replace and the text to plant, and says what tier-1 should
make of it: "killed", or "equivalent" with a one-line reason why no test
can tell the fault from the original. Each fault runs in a fresh temporary
copy of src/ and tests/, with tier-1 under -x and a timeout; a run that
times out counts as killed, and is reported as such.

Exits non-zero if a fault marked killed survives, or if an entry's old text
no longer occurs exactly once in its file, so that the catalogue follows
refactors. Rerun it before a change that removes, renames or rewrites a
test, or that rewrites a catalogued line.

    python scripts/plant_faults.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT = 240  # seconds tier-1 may run on one fault


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    expect: str = "killed"
    reason: str = ""


STREAM = "src/rlwindow/stream.py"
WINDOW = "src/rlwindow/window.py"
CLI = "src/rlwindow/cli.py"
ONTOLOGY = "src/rlwindow/ontology.py"
ORACLE = "src/rlwindow/oracle.py"

FAULTS = [
    # Stream lines, atoms and timestamps.
    Fault("third_argument_accepted", STREAM,
          r'(?:,\s*({_NAME})\s*)?\)")', r'(?:,\s*({_NAME})\s*){0,2}\)")'),
    Fault("names_padded_by_ascii_space_only", STREAM,
          r'\(\s*({_NAME})\s*(?:,\s*({_NAME})\s*)?\)',
          r'\([ \t]*({_NAME})[ \t]*(?:,[ \t]*({_NAME})[ \t]*)?\)'),
    Fault("interning_dropped", STREAM,
          "atom = atoms[atom_text] = interned.setdefault(atom, atom)",
          "atom = atoms[atom_text] = atom"),
    Fault("sign_ignored", STREAM,
          'return cls(-micros if sign == "-" else micros)', "return cls(micros)"),
    Fault("fraction_padded_on_the_left", STREAM,
          'int(frac.ljust(6, "0"))', 'int(frac.rjust(6, "0"))'),
    Fault("comment_split_on_the_last_hash", STREAM,
          'raw.split("#", 1)[0]', 'raw.rsplit("#", 1)[0]'),
    Fault("comment_split_at_every_hash", STREAM,
          'raw.split("#", 1)[0]', 'raw.split("#")[0]', "equivalent",
          "the text before the first '#' is the first piece however often the line is split"),
    Fault("line_left_unstripped", STREAM,
          '[0].strip().split(None, 1)', '[0].split(None, 1)', "equivalent",
          "split drops the leading space and parse_atom strips the trailing; only cache keys change"),
    Fault("equal_tick_starts_a_box", STREAM,
          "if cur_ts is None or ts > cur_ts:", "if cur_ts is None or ts >= cur_ts:"),
    Fault("last_extent_dropped", STREAM,
          "// spec.slide + 1)", "// spec.slide)"),
    # Gaps of an earlier census, each closed by a test since.
    Fault("atomic_lets_base_exceptions_through", WINDOW,
          "except BaseException:", "except Exception:"),
    Fault("drop_before_keeps_the_extent", WINDOW,
          "self.extent = WindowExtent(cutoff, self.extent.end)", "pass"),
    Fault("oracle_checks_the_first_window_only", CLI,
          "if config.check_oracle:", "if config.check_oracle and extent is first:"),
    Fault("min_join_strict", WINDOW,
          "if y <= top_a:", "if y < top_a:", "equivalent",
          "a y equal to the copied operand's max is in that operand, so the copy holds it"),
    # The semi-naive round: min-join, delta tables, conjunctions, consequences.
    Fault("min_join_copies_the_larger_side", WINDOW,
          "if top_b < top_a:", "if top_b > top_a:"),
    Fault("delta_inverse_not_swapped", WINDOW,
          "return [(o, s, homes) for (s, o), homes in pairs]",
          "return [(s, o, homes) for (s, o), homes in pairs]"),
    Fault("fresh_parts_drop_earlier_terms", WINDOW,
          "out = term if out is None else self.join(out, self.at(part, x)) | term",
          "out = term"),
    Fault("consequence_filter_flipped", WINDOW,
          "if present else ann.difference(have)", "if not present else ann.difference(have)"),
    # The TBox reader: tokens, nesting, end checks, reserved names.
    Fault("some_wraps_the_whole_conjunction", ONTOLOGY,
          "return Conj(group)",
          "return Conj(group) if not isinstance(group[0], Exists) "
          "else Exists(group[0].role, Conj((group[0].filler, *group[1:])))"),
    Fault("closed_group_replaces_the_enclosing_parts", ONTOLOGY,
          "stack[-1] = stack[-1] + group if stack[-1] else group", "stack[-1] = group"),
    Fault("head_name_count_off_by_one", ONTOLOGY,
          'tk.toks[head_at:]) != 1:', 'tk.toks[head_at:]) not in (1, 2):'),
    Fault("role_inclusion_left_name_count_off_by_one", ONTOLOGY,
          'tk.toks[:head_at]) != 1:', 'tk.toks[:head_at]) not in (1, 2):'),
    # Interned concept nodes: canonical as built, one live node per structure.
    Fault("flattening_dropped", ONTOLOGY,
          "(p.parts if isinstance(p, Conj) else (p,))", "(p,)"),
    Fault("deduplication_dropped", ONTOLOGY,
          "flat = dict.fromkeys(", "flat = list("),
    Fault("role_inverse_flag_dropped_from_the_exists_key", ONTOLOGY,
          "rk = (isinstance(role, RoleInverse), role.name)", "rk = (False, role.name)"),
    Fault("live_node_table_holds_nodes_forever", ONTOLOGY,
          "_LIVE = weakref.WeakValueDictionary()", "_LIVE = {}"),
    Fault("missing_parenthesis_accepted_at_the_end", ONTOLOGY,
          '            tk.next(")")',
          '            if tk.peek()[0] is not None:\n                tk.next(")")'),
    Fault("bot_skips_its_end_check", ONTOLOGY,
          'tk.end("bot")', "pass"),
    Fault("unexpected_character_column_off_by_one", ONTOLOGY,
          "col=m.start() + 1)", "col=m.start())"),
    Fault("reserved_name_accepted_inside_inv", ONTOLOGY,
          "if inner in _RESERVED:", "if False:"),
    # CLI exit paths and referee branches.
    Fault("engine_error_in_the_window_loop_escapes", CLI,
          "        return EXIT_ENGINE\n    return EXIT_OK", "        raise\n    return EXIT_OK"),
    Fault("negative_unfold_depth_accepted", CLI,
          "if config.unfold_depth < 0:", "if config.unfold_depth < -1:"),
    Fault("oracle_misses_no_atom", ORACLE,
          'diff.append(f"engine is missing {a}")', "pass"),
    Fault("oracle_misses_no_dropped_assertion", ORACLE,
          'diff.append(f"engine dropped {o}, oracle repair keeps it")', "pass"),
]


def stale(fault):
    """Why the fault's old text cannot be planted, or None."""
    count = (ROOT / fault.path).read_text().count(fault.old)
    if count != 1:
        return f"old text occurs {count} times in {fault.path}"
    return None


def plant(fault):
    """Run tier-1 on a copy with the fault planted: 'killed', 'survived'
    or 'timed out'."""
    with tempfile.TemporaryDirectory(prefix="plant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp, fault.path)
        target.write_text(target.read_text().replace(fault.old, fault.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])),
            PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(TIER1, cwd=tmp, env=env, timeout=TIMEOUT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main():
    failed = 0
    for fault in FAULTS:
        why = stale(fault)
        if why:
            print(f"{fault.name}: STALE, {why}")
            failed += 1
    if failed:
        return 1

    start = time.perf_counter()
    for fault in FAULTS:
        t0 = time.perf_counter()
        outcome = plant(fault)
        took = time.perf_counter() - t0
        caught = outcome != "survived"
        bad = fault.expect == "killed" and not caught
        note = f" (expected equivalent: {fault.reason})" if fault.expect == "equivalent" else ""
        print(f"{fault.name}: {outcome} in {took:.1f} s{note}{'  <- FAIL' if bad else ''}",
              flush=True)
        failed += bad
    print(f"{len(FAULTS)} faults, {failed} failed, {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
