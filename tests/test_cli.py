import json

import pytest

from backdet import cli
from backdet.formats import format_waa, parse_nba, parse_waa
from backdet.nba import nba_to_bda
from backdet.nutl import parse_nutl
from backdet.automata import Alphabet
from backdet.dot import waa_to_dot
from backdet.ltl import ltl_to_waa, parse_ltl


# one SCC {q0, q1} with mixed polarity
NON_WEAK = "alphabet: a\nstates: q0 q1\nrecurring: q0\ndelta q0 = X q1\ndelta q1 = X q0\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ltl2waa_writes_parseable_waa(tmp_path, capsys):
    out = tmp_path / "waa.txt"
    code, _, err = run_cli(capsys, "ltl2waa", "F a", "-o", str(out))
    assert code == 0
    assert "1 state, very weak, BDA bound 2" in err
    waa = parse_waa(out.read_text())
    assert waa.states == ("q_F_a",)


def test_ltl2waa_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "ltl2waa", "F (")
    assert code == cli.EXIT_PARSE
    code, _, err = run_cli(capsys, "ltl2waa", "X", "--alphabet", "X", "a")
    assert code == cli.EXIT_PARSE
    assert "letter 'X' is an LTL operator" in err


def test_waa2bda_header(tmp_path, capsys):
    waa_file = tmp_path / "waa.txt"
    run_cli(capsys, "ltl2waa", "F a", "-o", str(waa_file))
    code, out, _ = run_cli(capsys, "waa2bda", str(waa_file))
    assert code == 0
    assert "state-space-bound: 2" in out


def test_waa2bda_cap_exceeded(tmp_path, capsys):
    waa_file = tmp_path / "waa.txt"
    run_cli(capsys, "ltl2waa", "F a", "-o", str(waa_file))
    code, _, err = run_cli(capsys, "waa2bda", str(waa_file), "--enumerate", "1")
    assert code == cli.EXIT_CAP
    assert "state space has 2 families, exceeding cap 1" in err  # names the bound


def test_waa2bda_rejects_non_weak(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(NON_WEAK)
    code, _, err = run_cli(capsys, "waa2bda", str(bad))
    assert code == cli.EXIT_SEMANTIC
    assert "not weak" in err


@pytest.mark.parametrize("argv", [("run", "; z"), ("dot", "--lasso", "; z"), ("dot",)])
def test_run_and_dot_reject_non_weak(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_text(NON_WEAK)
    # the lasso's letter is outside the alphabet: parsing the file fails first
    command, *rest = argv
    code, _, err = run_cli(capsys, command, str(bad), *rest)
    assert code == cli.EXIT_SEMANTIC
    assert "not weak" in err


def test_run_reports_outputs_and_oracle(tmp_path, capsys):
    waa_file = tmp_path / "waa.txt"
    run_cli(capsys, "ltl2waa", "G a", "-o", str(waa_file))
    code, out, _ = run_cli(capsys, "run", str(waa_file), "; a")
    assert code == 0
    assert "q_G_a" in out
    assert "MISMATCH" not in out
    assert "accepted from initial set: True" in out


def test_run_rejecting_word(tmp_path, capsys):
    waa_file = tmp_path / "waa.txt"
    run_cli(capsys, "ltl2waa", "F a", "-o", str(waa_file))
    code, out, _ = run_cli(capsys, "run", str(waa_file), "; b")
    assert code == 0
    assert "accepted from initial set: False" in out
    assert "MISMATCH" not in out


def test_nba2nutl_block_count(tmp_path, capsys):
    nba_file = tmp_path / "nba.txt"
    nba_file.write_text(
        "alphabet: a b\nstates: q0\ninitial: q0\nbuchi: q0\ntrans q0 a q0\n"
    )
    out_file = tmp_path / "tuple.txt"
    code, _, err = run_cli(capsys, "nba2nutl", str(nba_file), "-o", str(out_file))
    assert code == 0
    # a count of one is singular, any other plural
    assert err == "1 NBA state, 2 fixed-point blocks, 1 tuple component\n"
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1  # one tuple component per NBA state
    parse_nutl(lines[0], Alphabet(("a", "b")))


def test_nba2nutl_rejects_duplicate_states(tmp_path, capsys):
    nba_file = tmp_path / "nba.txt"
    nba_file.write_text("alphabet: a b\nstates: q q\ninitial: q\nbuchi: q\ntrans q a q\n")
    code, _, err = run_cli(capsys, "nba2nutl", str(nba_file))
    assert code == cli.EXIT_SEMANTIC
    assert "duplicate state ids" in err


def test_nba2nutl_text_translates_to_the_pipeline_automaton(tmp_path, capsys):
    text = (
        "alphabet: a b\nstates: q0 q1 q2\ninitial: q0\nbuchi: q1\n"
        "trans q0 a q1\ntrans q0 b q0\ntrans q0 b q2\ntrans q1 a q0\ntrans q1 a q2\n"
        "trans q1 b q1\ntrans q2 a q2\ntrans q2 b q0\ntrans q2 b q1\n"
    )
    nba_file, ranks, out = tmp_path / "nba.txt", tmp_path / "ranks.txt", tmp_path / "waa.txt"
    nba_file.write_text(text)
    code, _, err = run_cli(capsys, "nba2nutl", str(nba_file), "-o", str(ranks))
    assert (code, err) == (0, "3 NBA states, 6 fixed-point blocks, 3 tuple components\n")
    assert ranks.read_text().startswith("@0 = ")
    code, _, _ = run_cli(capsys, "nutl2waa", str(ranks), "--alphabet", "a", "b", "-o", str(out))
    assert code == 0
    res = nba_to_bda(parse_nba(text))
    assert out.read_text() == format_waa(res.waa) + "# components: " + " ".join(res.initial_states) + "\n"


def test_nutl2waa_round_trip(tmp_path, capsys):
    src = tmp_path / "phi.txt"
    src.write_text("mu_0 (X).(b | (a & O X))\n")
    out = tmp_path / "waa.txt"
    code, _, err = run_cli(
        capsys, "nutl2waa", str(src), "--alphabet", "a", "b", "-o", str(out)
    )
    assert code == 0
    parse_waa(out.read_text().split("# components")[0])


def test_nutl2waa_unguarded_rejected(tmp_path, capsys):
    src = tmp_path / "phi.txt"
    src.write_text("mu_0 (X).(b | X)\n")
    code, _, err = run_cli(capsys, "nutl2waa", str(src), "--alphabet", "a", "b")
    assert code == cli.EXIT_SEMANTIC
    assert "guarded" in err


def test_nutl2waa_gives_a_letter_component_a_state(tmp_path, capsys):
    src = tmp_path / "phi.txt"
    src.write_text("a\n")
    code, out, err = run_cli(capsys, "nutl2waa", str(src), "--alphabet", "a", "b")
    assert code == 0
    assert out.endswith("delta s0 = [a]\n# components: s0\n")
    assert err == "1 state, 1 SCC, BDA bound 2\n"


@pytest.mark.parametrize("text", ["mu_0 (X,X).(a; b)", "mu_0 (X).(a; b)"])
def test_nutl2waa_bad_fix_header_is_a_parse_error(tmp_path, capsys, text):
    src = tmp_path / "phi.txt"
    src.write_text(text + "\n")
    code, _, err = run_cli(capsys, "nutl2waa", str(src), "--alphabet", "a", "b")
    assert code == cli.EXIT_PARSE
    assert err.startswith("parse error:")


def test_nutl2waa_rejects_punctuation_as_a_variable(tmp_path, capsys):
    src = tmp_path / "phi.txt"
    src.write_text("mu_0 (X).(a | O X) | &\n")
    code, _, err = run_cli(capsys, "nutl2waa", str(src), "--alphabet", "a", "b")
    assert code == cli.EXIT_PARSE
    assert err == "parse error: unexpected token '&' (at line 1, formula offset 21)\n"


def test_nutl2waa_names_the_line_of_a_malformed_formula(tmp_path, capsys):
    src = tmp_path / "phi.txt"
    src.write_text("# rank formulas\nmu_0 (X).(b | (a & O X))  # ok\n  mu_0 (X).(a | O X\n")
    code, _, err = run_cli(capsys, "nutl2waa", str(src), "--alphabet", "a", "b")
    assert code == cli.EXIT_PARSE
    assert err == "parse error: unexpected end of formula (at line 3, formula offset 17)\n"


def test_dot_output(tmp_path, capsys):
    waa_file = tmp_path / "waa.txt"
    run_cli(capsys, "ltl2waa", "F a", "-o", str(waa_file))
    code, out, _ = run_cli(capsys, "dot", str(waa_file))
    assert code == 0
    assert out.startswith("digraph waa")
    assert "q_F_a" in out
    code, out, _ = run_cli(capsys, "dot", str(waa_file), "--lasso", "; a b")
    assert code == 0
    assert out.startswith("digraph period")


def test_dot_period_graph_cap(tmp_path, capsys):
    # 11 one-state SCCs: 2^11 = 2048 families, above the default cap 1024
    chain = tmp_path / "chain.txt"
    chain.write_text("alphabet: a b\nstates: " + " ".join(f"q{i}" for i in range(11)) + "\nrecurring:\n"
                     + "".join(f"delta q{i} = [a] | X q{i + 1}\n" for i in range(10)) + "delta q10 = [a]\n")
    code, _, err = run_cli(capsys, "dot", str(chain), "--lasso", "; a")
    assert code == cli.EXIT_CAP
    assert "state space has 2048 families, exceeding cap 1024" in err
    code, out, _ = run_cli(capsys, "dot", str(chain), "--lasso", "; a", "--cap", "2048")
    assert code == 0
    assert out.startswith("digraph period")


def test_waa_to_dot_marks_recurring_and_initial_states():
    ab = Alphabet(("a", "b"))
    out = waa_to_dot(ltl_to_waa(parse_ltl("G X a", ab), ab))
    assert 'label="SCC 0 (nonrecurring)";' in out
    assert '"q_a" [label="q_a"];' in out
    assert 'label="SCC 1 (recurring)";' in out
    assert '"q_G_X_a" [shape=doublecircle, style=bold, label="q_G_X_a"];' in out


def test_waa_to_dot_draws_no_state_that_no_condition_names():
    # G a reads a at the current position: no state for a, so no orphan
    # node q_a without an edge into it
    ab = Alphabet(("a", "b"))
    out = waa_to_dot(ltl_to_waa(parse_ltl("G a", ab), ab))
    assert out.count("subgraph cluster_") == 1
    assert '"q_G_a" [shape=doublecircle, style=bold, label="q_G_a"];' in out
    assert '"q_a"' not in out


def test_check_pass_mode(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "check", "--mode", "dual", "--count", "5")
    assert code == 0
    assert "dual: pass" in out


def test_check_counterexample_writes_reproducer(capsys, tmp_path, monkeypatch):
    # force a failure by monkeypatching the sweep
    from backdet.validation import CheckReport

    def broken(seed=0, **kw):
        r = CheckReport("dual", cases=1)
        r.fail(word="; a", reason="synthetic")
        return r

    monkeypatch.setitem(cli._CHECKS, "dual", broken)
    repro = tmp_path / "cex.json"
    code, out, err = run_cli(
        capsys, "check", "--mode", "dual", "--reproducer", str(repro)
    )
    assert code == cli.EXIT_COUNTEREXAMPLE
    data = json.loads(repro.read_text())
    assert data[0]["reason"] == "synthetic"


@pytest.mark.parametrize("argv, given", [((), {}), (("--seed", "5"), {"seed": 5})])
def test_check_passes_the_seed_only_when_given(capsys, monkeypatch, argv, given):
    # without --seed the sweep runs at its own default seed (dual: 11)
    from backdet import validation

    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return validation.check_dual(**kwargs)

    monkeypatch.setitem(cli._CHECKS, "dual", spy)
    code, out, _ = run_cli(capsys, "check", "--mode", "dual", "--count", "2", *argv)
    assert code == 0 and "dual: pass" in out
    assert calls == [{"count": 2, **given}]
