import importlib
import pathlib
import shutil
import subprocess
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import pytest

from consistent_subset import cli, exact
from consistent_subset.cli import main

from helpers import RRBB_TEXT, child_env

CYCLE_TEXT = "p ccg 3 3 1\nv 1 1\nv 2 1\nv 3 1\ne 1 2\ne 1 3\ne 2 3\n"
K2_TEXT = "p ccg 2 1 1\nv 1 1\nv 2 1\ne 1 2\n"
K4_TEXT = ("p ccg 4 6 1\nv 1 1\nv 2 1\nv 3 1\nv 4 1\n"
           "e 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
COVER43_SC = "p sc 4 3\ns 1 1 2 3\ns 2 1 3\ns 3 4\n"
CNF_2V1C = "p cnf 2 1\n1 -2 0\n"

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def rrbb_file(tmp_path):
    path = tmp_path / "rrbb.ccg"
    path.write_text(RRBB_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# solve

def test_solve_brute(capsys, rrbb_file):
    code, out, err = run(capsys, "solve", rrbb_file, "--algo", "brute")
    assert code == 0 and err == ""
    assert out == "size=2\nwitness=1,3\nalgo=brute\n"


def test_solve_tree_dp(capsys, rrbb_file):
    code, out, _ = run(capsys, "solve", rrbb_file, "--algo", "tree-dp")
    assert code == 0
    assert out == "size=2\nwitness=1,3\nalgo=tree-dp\n"


def test_solve_auto_picks_dp_on_trees(capsys, rrbb_file):
    code, out, _ = run(capsys, "solve", rrbb_file)
    assert code == 0 and out.endswith("algo=tree-dp\n")


def test_solve_auto_falls_back_on_cycles(capsys, tmp_path):
    path = tmp_path / "cycle.ccg"
    path.write_text(CYCLE_TEXT)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out.endswith("algo=brute\n")
    assert out.startswith("size=1\n")


def test_solve_tree_dp_rejects_cycle(capsys, tmp_path):
    path = tmp_path / "cycle.ccg"
    path.write_text(CYCLE_TEXT)
    code, out, err = run(capsys, "solve", str(path), "--algo", "tree-dp")
    assert code == 3 and out == ""
    assert "error:" in err


def test_solve_mscs(capsys, rrbb_file):
    code, out, _ = run(capsys, "solve", rrbb_file, "--variant", "mscs")
    assert code == 0
    assert out == "size=2\nwitness=1,4\nalgo=brute\n"


def test_solve_mscs_refuses_tree_dp(capsys, rrbb_file):
    code, _, err = run(capsys, "solve", rrbb_file, "--variant", "mscs",
                       "--algo", "tree-dp")
    assert code == 3 and "mcs only" in err


def test_solve_cap(capsys, tmp_path):
    lines = ["p ccg 21 20 1"] + [f"v {v} 1" for v in range(1, 22)] \
        + [f"e {v} {v + 1}" for v in range(1, 21)]
    path = tmp_path / "long.ccg"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "solve", str(path), "--algo", "brute")
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "solve", str(path), "--algo", "brute", "--cap", "25")
    assert code == 0 and out.startswith("size=1\n")


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.ccg"))
    assert code == 2 and "error:" in err


def test_solve_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.ccg"
    path.write_text("p ccg 1 0 1\nv 1 7\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2 and "line 2" in err and "bad.ccg" in err


# --------------------------------------------------------------------------
# verify

def test_verify_strict_pass(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 2 3\n")
    code, out, _ = run(capsys, "verify", rrbb_file, str(sub), "--variant", "mscs")
    assert code == 0
    assert out == "consistent=true\nstrict=true\n"


def test_verify_strict_fail(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 1 3\n")
    code, out, _ = run(capsys, "verify", rrbb_file, str(sub), "--variant", "mscs")
    assert code == 1
    assert out == "consistent=true\nstrict=false\n"
    # the default variant only needs plain consistency
    code, _, _ = run(capsys, "verify", rrbb_file, str(sub))
    assert code == 0


def test_verify_everything(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 1 2 3 4\n")
    for variant in ("mcs", "mscs"):
        code, out, _ = run(capsys, "verify", rrbb_file, str(sub),
                           "--variant", variant)
        assert code == 0 and out == "consistent=true\nstrict=true\n"


def test_verify_inconsistent(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 2\n")
    code, out, _ = run(capsys, "verify", rrbb_file, str(sub))
    assert code == 1 and out == "consistent=false\nstrict=false\n"


def test_verify_disconnected_graph(capsys, tmp_path):
    # a member in each part: every vertex has a same-colored nearest member
    path = tmp_path / "two.ccg"
    path.write_text("p ccg 4 2 2\nv 1 1\nv 2 1\nv 3 2\nv 4 2\ne 1 2\ne 3 4\n")
    sub = tmp_path / "s.sub"
    sub.write_text("s 1 3\n")
    code, out, err = run(capsys, "verify", str(path), str(sub))
    assert code == 3 and out == ""
    assert err == "error: graph must be connected\n"


def test_verify_subset_parse_error(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 3 1\n")
    code, _, err = run(capsys, "verify", rrbb_file, str(sub))
    assert code == 2 and "strictly increasing" in err


def test_verify_huge_header_fails_at_once(capsys, tmp_path):
    path = tmp_path / "huge.ccg"
    path.write_text("p ccg 1000000000000 0 1\n")
    sub = tmp_path / "s.sub"
    sub.write_text("s 1\n")
    code, out, err = run(capsys, "verify", str(path), str(sub))
    assert code == 2 and out == ""
    assert err == f"error: {path}: line 1: missing color line for vertex 1\n"


@pytest.mark.parametrize("bad", ["subset", "graph"])
def test_non_utf8_file_is_a_usage_error(tmp_path, bad):
    # exit 1 means "verification failed", so an undecodable input must not
    # escape as an exception (exit 1 with a traceback)
    graph = tmp_path / "g.ccg"
    graph.write_text(RRBB_TEXT)
    sub = tmp_path / "s.sub"
    sub.write_text("s 1 3\n")
    target = sub if bad == "subset" else graph
    target.write_bytes(b"s 1\xff\n" if bad == "subset" else b"p ccg\xff\n")
    argv = (["verify", str(graph), str(sub)] if bad == "subset"
            else ["solve", str(graph)])
    proc = subprocess.run([sys.executable, "-m", "consistent_subset", *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {target}: ")


# --------------------------------------------------------------------------
# gen

def test_gen_set_cover(capsys, tmp_path):
    src = tmp_path / "cover.sc"
    src.write_text(COVER43_SC)
    out_path = tmp_path / "cover.ccg"
    code, out, _ = run(capsys, "gen", "--reduction", "sc-mscs", str(src),
                       "-o", str(out_path))
    assert code == 0
    assert out.splitlines() == [f"wrote={out_path}", f"wrote={out_path}.meta"]
    assert out_path.read_text().startswith("p ccg 9 14 2\n")
    meta = (tmp_path / "cover.ccg.meta").read_text()
    assert "reduction=sc-mscs\n" in meta and "formula=k+1\n" in meta
    assert "role r2 9\n" in meta


def test_gen_pendant(capsys, tmp_path):
    src = tmp_path / "k2.ccg"
    src.write_text(K2_TEXT)
    out_path = tmp_path / "pend.ccg"
    code, _, _ = run(capsys, "gen", "--reduction", "ds-mscs", str(src),
                     "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("p ccg 10 9 2\n")


def test_gen_formula_tree(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text(CNF_2V1C)
    out_path = tmp_path / "tree.ccg"
    code, _, _ = run(capsys, "gen", "--reduction", "2sat-tree", "--M", "8",
                     str(src), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("p ccg 72 71 22\n")
    assert "M=8\n" in (tmp_path / "tree.ccg.meta").read_text()


def test_gen_apex(capsys, tmp_path):
    src = tmp_path / "k2.ccg"
    src.write_text(K2_TEXT)
    out_path = tmp_path / "apex.ccg"
    code, _, _ = run(capsys, "gen", "--reduction", "ds-mcs", str(src),
                     "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("p ccg 3 3 2\n")


def test_gen_intervals(capsys, tmp_path):
    src = tmp_path / "k4.ccg"
    src.write_text(K4_TEXT)
    out_path = tmp_path / "iv"
    code, out, _ = run(capsys, "gen", "--reduction", "vc-intervals",
                       "--p", "1", "--q", "1", str(src), "-o", str(out_path))
    assert code == 0
    assert out.splitlines() == [f"wrote={out_path}", f"wrote={out_path}.ccg",
                                f"wrote={out_path}.meta"]
    intervals = (tmp_path / "iv").read_text()
    assert intervals.startswith("i 1 ")
    assert len(intervals.splitlines()) == 4 * 4 + 4 + 1
    derived = (tmp_path / "iv.ccg").read_text()
    assert derived.startswith("p ccg 21 ")


def test_gen_is_deterministic(capsys, tmp_path):
    src = tmp_path / "cover.sc"
    src.write_text(COVER43_SC)
    outputs = []
    for name in ("a.ccg", "b.ccg"):
        out_path = tmp_path / name
        assert run(capsys, "gen", "--reduction", "sc-mscs", str(src),
                   "-o", str(out_path))[0] == 0
        outputs.append(out_path.read_bytes()
                       + (tmp_path / f"{name}.meta").read_bytes())
    assert outputs[0] == outputs[1]


def test_gen_bad_parameters(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text(CNF_2V1C)
    code, _, err = run(capsys, "gen", "--reduction", "2sat-tree", "--M", "0",
                       str(src), "-o", str(tmp_path / "x.ccg"))
    assert code == 2 and "invalid parameters" in err
    k2 = tmp_path / "k2.ccg"
    k2.write_text(K2_TEXT)
    code, _, err = run(capsys, "gen", "--reduction", "vc-intervals", str(k2),
                       "-o", str(tmp_path / "y"))
    assert code == 2 and "cubic" in err


# --------------------------------------------------------------------------
# bench

def _strip_millis(csv_text):
    rows = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        if cols[0] != "n":
            cols[5] = "-"
        rows.append(",".join(cols))
    return "\n".join(rows)


def test_bench_header_only(capsys):
    code, out, _ = run(capsys, "bench", "--count", "0")
    assert code == 0
    assert out == "n,c,seed,algo,size,millis,memo_entries\n"


def test_bench_rows(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "random-trees",
                       "--count", "3", "--max-n", "12", "--max-c", "3",
                       "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 2 * 3
    sizes = {}
    for line in lines[1:]:
        n, c, seed, algo, size, _, memo = line.split(",")
        assert algo in ("brute", "tree-dp")
        sizes.setdefault(seed, set()).add(size)
        if algo == "brute":
            assert memo == "0"
        else:
            assert int(memo) > 0
    # both solvers agreed on every instance
    assert all(len(found) == 1 for found in sizes.values())


def test_bench_deterministic_modulo_timing(capsys):
    first = run(capsys, "bench", "--count", "4", "--seed", "11")
    second = run(capsys, "bench", "--count", "4", "--seed", "11")
    assert _strip_millis(first[1]) == _strip_millis(second[1])


def test_bench_output_file(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--count", "1", "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,c,seed,algo,size,millis,memo_entries\n")


def test_bench_bad_parameters(capsys):
    assert run(capsys, "bench", "--count", "-1")[0] == 2
    assert run(capsys, "bench", "--max-c", "30")[0] == 2
    assert run(capsys, "bench", "--max-n", "21")[0] == 2


# --------------------------------------------------------------------------
# inspect and plumbing

def test_inspect(capsys, rrbb_file):
    code, out, _ = run(capsys, "inspect", rrbb_file)
    assert code == 0
    assert out == ("n=4\nm=3\ncolors=2\nconnected=true\ntree=true\nblocks=2\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_is_reused_without_state(capsys, rrbb_file, tmp_path):
    sub = tmp_path / "s.sub"
    sub.write_text("s 1 3\n")
    calls = [("verify", rrbb_file),                    # usage error: no subset
             ("verify", rrbb_file, str(sub)),
             ("verify", rrbb_file, str(sub), "--variant", "mscs"),
             ("verify", rrbb_file, str(sub))]

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    assert cli._build_parser() is cli._build_parser()
    in_sequence = [outcome(argv) for argv in calls]
    separate = []
    for argv in calls:
        cli._build_parser.cache_clear()
        separate.append(outcome(argv))
    assert in_sequence == separate
    assert [result[0] for result in in_sequence] == [("exit", 2), 0, 1, 0]
    assert in_sequence[3][1] == "consistent=true\nstrict=false\n"


def test_benchmark_hooks_are_module_globals(capsys, rrbb_file, tmp_path,
                                            monkeypatch):
    # perfbench/spans.py times the library by swapping these module
    # attributes; the commands must keep reaching the layers through them.
    hooks = [(cli, "parse_graph"), (cli, "is_consistent"),
             (cli, "is_strict_consistent"), (exact, "_consistency_scan")]
    hits = {}
    for module, name in hooks:
        label = f"{module.__name__}.{name}"
        assert hasattr(module, name), f"{label} is gone; perfbench wraps it"
        hits[label] = 0

        def counted(*args, _fn=getattr(module, name), _label=label, **kwargs):
            hits[_label] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    sub = tmp_path / "s.sub"
    sub.write_text("s 2 3\n")
    assert run(capsys, "verify", rrbb_file, str(sub))[0] == 0
    assert run(capsys, "solve", rrbb_file, "--algo", "brute")[0] == 0
    missed = [label for label, count in hits.items() if count == 0]
    assert not missed, f"not reached through the module global: {missed}"


def test_module_entry_point(tmp_path):
    path = tmp_path / "rrbb.ccg"
    path.write_text(RRBB_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "consistent_subset", "solve", str(path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "size=2\nwitness=1,3\nalgo=tree-dp\n"


def test_console_script_installed(rrbb_file):
    # The declared `consist` script must resolve to cli.main and run it the
    # way an installer's wrapper does; an installed wrapper on PATH is run too.
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "consist" in scripts, "pyproject.toml declares no consist script"
    module_name, _, attr = scripts["consist"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    wrapper = (f"import sys\nfrom {module_name} import {attr}\n"
               f"sys.argv[0] = 'consist'\nsys.exit({attr}())\n")
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("consist")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(command + ["inspect", rrbb_file],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0 and proc.stdout.startswith("n=4\n"), \
            (command, proc.stderr)
