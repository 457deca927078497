"""Command-line interface: outputs, exit codes, config plumbing."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cographmean

from cographmean import (
    Cotree,
    Graph,
    MeanFamily,
    closed_form_means,
    cotree_to_graph,
    emit_graph6,
    format_cotree,
    from_edge_list,
    star,
)
from cographmean.cli import _build_parser, _parse_input, main
from cographmean.enumeration import MAX_COTREE_LEAVES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mean_of_cotree_expression(capsys):
    code, out, _ = run(capsys, "mean", "J(L,U(L,L,L))")
    assert code == 0
    assert out.strip() == "23/11"


def test_mean_of_single_vertex(capsys):
    code, out, _ = run(capsys, "mean", "@")
    assert code == 0 and out.strip() == "1"


def test_local_mean_via_graph6(capsys):
    # Bw is the triangle; every vertex has local polynomial x + 2x^2 + x^3
    code, out, _ = run(capsys, "mean", "Bw", "--local", "1")
    assert code == 0 and out.strip() == "2"


def test_mean_multiple_quantities_and_poly(capsys):
    # the selector flags replace the default global-mean output
    code, out, _ = run(capsys, "mean", "J(L,L,L)", "--mstar", "--density", "--poly")
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert "mean" not in lines
    assert lines["mstar"] == "9/4"
    assert lines["density"] == "4/7"
    assert json.loads(lines["poly"]) == {"n": 3, "coeffs": ["3", "3", "1"]}


def test_mean_decimal_marking(capsys):
    code, out, _ = run(capsys, "mean", "J(L,U(L,L,L))", "--decimal")
    assert code == 0
    assert out.strip() == "23/11 ~2.090909090909"


def test_mean_falls_back_to_bruteforce_for_non_cographs(capsys):
    # Bg is the 3-path (a cograph); DQc is order 5 with an induced 4-path
    code, out, _ = run(capsys, "mean", "DQc")
    assert code == 0


def test_cotree_only_rejects_p4(capsys):
    # the 4-path in graph6
    from cographmean import emit_graph6, from_edge_list

    p4 = emit_graph6(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    code, _, err = run(capsys, "mean", p4, "--cotree-only")
    assert code == 2
    assert "error" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "mean", "J(L")
    assert code == 2 and "error" in err


def test_brute_force_cap_flag(capsys):
    from cographmean import emit_graph6, from_edge_list

    p5 = emit_graph6(from_edge_list(5, [(i, i + 1) for i in range(4)]))
    code, _, err = run(capsys, "mean", p5, "--brute-force-cap", "4")
    assert code == 2 and "cap" in err


def test_brute_force_cap_env(capsys, monkeypatch):
    from cographmean import emit_graph6, from_edge_list

    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", "4")
    p5 = emit_graph6(from_edge_list(5, [(i, i + 1) for i in range(4)]))
    code, _, err = run(capsys, "mean", p5)
    assert code == 2 and "cap" in err


def test_flag_overrides_env(capsys, monkeypatch):
    from cographmean import emit_graph6, from_edge_list

    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", "4")
    p5 = emit_graph6(from_edge_list(5, [(i, i + 1) for i in range(4)]))
    code, out, _ = run(capsys, "mean", p5, "--brute-force-cap", "24")
    assert code == 0


def test_reliability_triangle(capsys):
    code, out, _ = run(capsys, "reliability", "Bw", "--p", "1/2")
    assert code == 0 and out.strip() == "7/8"


def test_reliability_edgeless_pair(capsys):
    code, out, _ = run(capsys, "reliability", "U(L,L)", "--p", "1/2")
    assert code == 0 and out.strip() == "1/2"


def test_reliability_rejects_bad_probability(capsys):
    code, _, err = run(capsys, "reliability", "Bw", "--p", "3/2")
    assert code == 2


def test_enumerate_cographs(capsys):
    code, out, _ = run(capsys, "enumerate", "cographs", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines == sorted(lines)


def test_enumerate_connected_cographs_order2(capsys):
    code, out, _ = run(capsys, "enumerate", "connected-cographs", "2")
    assert code == 0 and out.strip() == "J(L,L)"


def test_enumerate_emit_graph6(capsys):
    code, out, _ = run(capsys, "enumerate", "connected-graphs", "3")
    assert code == 0
    assert set(out.strip().splitlines()) == {"BW", "Bw"}


def test_verify_table1_json(capsys):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "table1"
    assert all(v["status"] == "PASS" for v in payload["verdicts"])


def test_verify_table2_small(capsys):
    code, out, _ = run(capsys, "verify", "table2", "--nmax", "5")
    assert code == 0


def test_verify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "table1")
    _, out2, _ = run(capsys, "verify", "table1")
    assert out1 == out2


def test_verify_tsv_format(capsys):
    code, out, _ = run(capsys, "verify", "inequalities", "--nmax", "16", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0].split("\t")[0].strip() == "suite"


def test_unknown_suite_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["mean"])
    assert err.value.code == 2


# The stdout of these runs, byte for byte, as captured before the verdict
# loops were folded into one claim runner and one sweep runner, and (table2
# and path-conjecture at their default order 7) before graph classes were
# deduplicated by a cell-restricted code.
VERIFY_STDOUT_SHA256 = {
    "table1": "618395a1e1ee739a27ee869426d238050548b0ba6d114a3d87682335045515c9",
    "star-max --nmax 8": "7f7e93ea01338db61af7d2128f0dd1d1c9b6a4caa3835690f4b22904a5506de3",
    "skillet-min --nmax 8": "7331180a5cd2c8bf3f3e33678b9f4c9c2cec316c3504cff86f221b34f49e6443",
    "disconnected-max --nmax 9": "9919cfdfa1f2ac9aec4781dffaf6d4fc3386e77907de37dea36ea32e1f9d8557",
    "table2 --nmax 5": "072b683cfcbff90f83972c54010d4eb758322e7a464f30eb2299b8d473ed009e",
    "path-conjecture --nmax 6": "b340c46124609738dbea24b52cea2b3f7bde7b8c8e45e15b51a2bd8ef9c164eb",
    "inequalities --nmax 16": "7301d1df1689ef59e86b252118bee09ebd3c1731dea89f0c4bc5790657d5fe74",
    "local-mean": "2e30a1b01a301279f1fd2364dbb2325792c519f6b7f608a715072da803b7438f",
    "inequalities": "a4292244fad07dbb11dba0a5ded66f755eae0dc789aad8924d89244ccc66dd2b",
    "table2": "04be505c75f50a3db6db3c8551765dffde461a558f241971cc310b2c89e10eea",
    "path-conjecture": "c413cf5cf858ccc9db47456a567ec23d900b69628957dabaf891daafd6fc2cf5",
}


@pytest.mark.parametrize("arguments", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_pinned(capsys, arguments):
    code, out, _ = run(capsys, "verify", *arguments.split())
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256[arguments]


def test_enumerate_connected_graphs_7_is_pinned(capsys):
    code, out, _ = run(capsys, "enumerate", "connected-graphs", "7")
    assert code == 0
    assert out.count("\n") == 853
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"
    )


def test_verify_table1_honours_nmax(capsys):
    code, out, _ = run(capsys, "verify", "table1", "--nmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["nmax"] == 3
    (verdict,) = payload["verdicts"]
    assert verdict["parameter_range"] == "n=1..3"
    assert len(verdict["log"]) == 3


def assert_usage_error(code, out, err):
    """Exit 2, nothing on stdout, one ``error:`` line on stderr, no traceback."""
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_verify_table1_nmax_out_of_range(capsys):
    assert_usage_error(*run(capsys, "verify", "table1", "--nmax", "7"))


@pytest.mark.parametrize("suite", ["star-max", "skillet-min", "disconnected-max"])
def test_cotree_claim_nmax_past_64_is_usage_error(capsys, suite):
    assert_usage_error(*run(capsys, "verify", suite, "--nmax", "65"))


@pytest.mark.parametrize("nmax", ["8", "513", "100000"])
def test_inequalities_nmax_outside_9_to_512_is_usage_error(capsys, nmax):
    code, out, err = run(capsys, "verify", "inequalities", "--nmax", nmax)
    assert_usage_error(code, out, err)
    assert "9..512" in err


@pytest.mark.slow
def test_inequalities_pass_at_their_cap(capsys):
    code, out, _ = run(capsys, "verify", "inequalities", "--nmax", "512")
    assert code == 0
    assert all(v["status"] == "PASS" for v in json.loads(out)["verdicts"])


def test_non_integer_cap_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", "abc")
    assert_usage_error(*run(capsys, "mean", "J(L,L)"))


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("text", ["J(L,L)", "Ch"])  # a cograph and P4
def test_cap_flag_below_one_is_usage_error(capsys, cap, text):
    code, out, err = run(capsys, "mean", text, "--brute-force-cap", cap)
    assert_usage_error(code, out, err)
    assert "--brute-force-cap" in err and cap in err


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize(
    "argv", [("mean", "J(L,L)"), ("mean", "Ch"), ("reliability", "Ch", "--p", "1/2")]
)
def test_cap_env_below_one_is_usage_error(capsys, monkeypatch, cap, argv):
    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", cap)
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, out, err)
    assert "COGRAPHMEAN_BRUTE_FORCE_CAP" in err and cap in err


def test_format_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("COGRAPHMEAN_FORMAT", "xml")
    assert_usage_error(*run(capsys, "verify", "table1"))


@pytest.mark.parametrize("cap", ["-3", "abc"])
def test_verify_ignores_the_cap_env(capsys, monkeypatch, cap):
    """No verify suite uses the brute-force cap, so verify does not read it."""
    _, plain, _ = run(capsys, "verify", "table1")
    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", cap)
    code, out, err = run(capsys, "verify", "table1")
    assert (code, out, err) == (0, plain, "")


@pytest.mark.parametrize(
    "argv, expected",
    [(("mean", "J(L,L)"), "4/3"), (("reliability", "Ch", "--p", "1/2"), "5/8")],
)
def test_mean_and_reliability_ignore_the_format_env(capsys, monkeypatch, argv, expected):
    """Only verify has an output format, so only verify reads it."""
    monkeypatch.setenv("COGRAPHMEAN_FORMAT", "xml")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == expected


def test_cotree_enumeration_past_the_cap_is_usage_error(capsys):
    assert_usage_error(
        *run(capsys, "enumerate", "cographs", str(MAX_COTREE_LEAVES + 1))
    )


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # 600 kB of output: more than a pipe holds, so the writer is still
    # writing when the reader goes away.
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    err_path = tmp_path / "stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cographmean.cli", "enumerate", "cographs", "11"],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        )
    try:
        assert proc.stdout.read(1) == b"J"
    finally:
        proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert err_path.read_bytes() == b""


def _fresh_cli(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -m cographmean.cli ARGV`` in a new process with
    ``-X importtime``, and return it with the package modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cographmean.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    return done, {m for m in imported if m.split(".")[0] == "cographmean"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("mean", "J(L,U(L,L,L))"), "23/11"),
        (("mean", "Ch", "--local", "0", "--poly"), "5/2"),
        (("reliability", "Ch", "--p", "1/2"), "5/8"),
    ],
)
def test_mean_and_reliability_load_only_the_counting_modules(argv, expected):
    done, imported = _fresh_cli(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == expected
    # cli itself runs as __main__
    assert imported == {
        "cographmean",
        "cographmean.cotree",
        # the enumerate parser takes its choices from Family
        "cographmean.enumeration",
        "cographmean.errors",
        "cographmean.graph",
        "cographmean.poly",
    }


def test_fresh_verify_and_enumerate_print_what_they_printed_before():
    done, imported = _fresh_cli("verify", "table1")
    assert done.returncode == 0, done.stderr
    assert {"cographmean.verify", "cographmean.knapsack"} <= imported
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256["table1"]
    done, _ = _fresh_cli("enumerate", "cographs", "5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 24  # OEIS A000084
    assert (
        hashlib.sha256(done.stdout.encode()).hexdigest()
        == "1139b1fec9de55c7f70886705b28cd1da0f1572d90ac30b7230cfc340db56912"
    )


@pytest.mark.parametrize(
    "graph6, mean",
    [
        ("LsaCCA?_C?O?_?", "7171/1027"),  # the 13-vertex star
        ("JsaCCA?_C??", "3077/517"),  # the 11-vertex star
    ],
)
def test_graph6_starting_with_cotree_letter(capsys, graph6, mean):
    assert isinstance(_parse_input(graph6), Graph)
    code, out, _ = run(capsys, "mean", graph6)
    assert code == 0 and out.strip() == mean


def test_graph6_of_order_22_parses_as_graph6(capsys):
    text = emit_graph6(cotree_to_graph(star(22)))
    assert text.startswith("U")
    assert isinstance(_parse_input(text), Graph)
    code, out, _ = run(capsys, "mean", text)
    assert code == 0
    assert out.strip() == str(closed_form_means(MeanFamily.STAR, 22))


@pytest.mark.parametrize("text", ["J(L,L)", "L", "U (L,L)"])
def test_cotree_letters_still_parse_as_cotrees(text):
    assert isinstance(_parse_input(text), Cotree)


def test_verify_all_rejects_nmax(capsys):
    # The suites' --nmax ranges do not overlap, so one N cannot fit all of them.
    code, out, err = run(capsys, "verify", "all", "--nmax", "9")
    assert_usage_error(code, out, err)
    assert "--nmax" in err and "all" in err


_P4 = "Ch"  # the 4-path: not a cograph


def test_local_mean_skips_the_global_polynomial(capsys, monkeypatch):
    assert emit_graph6(from_edge_list(4, [(0, 1), (1, 2), (2, 3)])) == _P4

    def refuse(*args, **kwargs):
        raise AssertionError("the global polynomial is not needed for --local")

    monkeypatch.setattr("cographmean.cli.phi_bruteforce", refuse)
    # connected sets through vertex 1: {1}, {0,1}, {1,2}, {0,1,2}, {1,2,3}, {0,1,2,3}
    code, out, _ = run(capsys, "mean", _P4, "--local", "1")
    assert code == 0 and out.strip() == "5/2"


def test_bad_local_vertex_is_rejected_before_the_global_count(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the vertex is checked before the global polynomial")

    monkeypatch.setattr("cographmean.cli.phi_bruteforce", refuse)
    code, out, err = run(capsys, "mean", _P4, "--local", "4", "--poly")
    assert_usage_error(code, out, err)
    assert err == "error: vertex 4 outside 0..3\n"


@pytest.mark.parametrize(
    "extra",
    [
        ("--local", "0", "--brute-force-cap", "3"),  # the cap
        ("--local", "4"),  # VertexOutOfRange
        ("--local", "0", "--cotree-only"),  # NotACograph
    ],
)
def test_local_mean_errors_without_the_global_polynomial(capsys, extra):
    assert_usage_error(*run(capsys, "mean", _P4, *extra))


def test_local_mean_on_a_cotree_rejects_a_bad_leaf(capsys):
    code, out, err = run(capsys, "mean", "J(L,L)", "--local", "2")
    assert_usage_error(code, out, err)
    assert err == "error: vertex 2 outside 0..1\n"


@pytest.mark.parametrize(
    "text, vertex, message",
    [
        ("J(L,L)", "-1", "vertex -1 outside 0..1"),
        ("Bw", "3", "vertex 3 outside 0..2"),  # a graph6 cograph (the triangle)
        ("Ch", "4", "vertex 4 outside 0..3"),  # a graph6 non-cograph (P4)
    ],
)
def test_local_vertex_out_of_range_reads_alike_for_every_input(capsys, text, vertex, message):
    code, out, err = run(capsys, "mean", text, "--local", vertex)
    assert_usage_error(code, out, err)
    assert err == f"error: {message}\n"


def test_local_mean_with_poly_prints_both_polynomials(capsys):
    code, out, _ = run(capsys, "mean", _P4, "--local", "0", "--poly")
    assert code == 0
    first, *rest = out.strip().splitlines()
    assert first == "5/2"  # a lone quantity prints without a label
    lines = dict(line.split("\t", 1) for line in rest)
    assert json.loads(lines["poly"]) == {"n": 4, "coeffs": ["4", "3", "2", "1"]}
    assert json.loads(lines["local_poly"]) == {"n": 4, "coeffs": ["1", "1", "1", "1"]}


def test_local_mean_of_a_graph6_cograph_past_the_brute_force_cap(capsys):
    # The 30-vertex star: vertex 0 is the centre.  As a cograph its local
    # means come from the cotree, so the brute-force cap of 24 does not apply.
    text = emit_graph6(from_edge_list(30, [(0, i) for i in range(1, 30)]))
    tree = format_cotree(star(30))  # leaf 0 is the centre
    for vertex, leaf in ((0, 0), (3, 1), (29, 29)):
        code, out, err = run(capsys, "mean", text, "--local", str(vertex))
        assert code == 0, err
        assert (0, out) == run(capsys, "mean", tree, "--local", str(leaf))[:2]
    assert_usage_error(*run(capsys, "mean", text, "--local", "30"))


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.text(max_size=20),
        st.text(alphabet="JUL(), ~?@ABCDEw_`", max_size=20),
        st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=20),
    )
)
def test_mean_of_any_string_exits_cleanly(text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["mean", text])
        except SystemExit as exc:  # argparse rejects strings that look like flags
            code = exc.code
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (out.getvalue() != "")


def test_deeply_nested_cotree_is_a_usage_error(capsys):
    assert_usage_error(*run(capsys, "mean", "J(" * 2000))


def test_readme_synopses_list_every_flag():
    """Each ``* `COMMAND ...``` synopsis bullet in README.md names exactly
    the ``--flags`` of that subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullets = re.findall(r"^\* `(mean|reliability|enumerate|verify) ([^`]*)`", readme, re.M)
    readme_flags = {command: set(re.findall(r"--[a-z-]+", text)) for command, text in bullets}
    (commands,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parser_flags = {
        name: {
            flag
            for action in sub._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, sub in commands.choices.items()
    }
    assert readme_flags == parser_flags
