"""Command-line interface: outputs, exit codes, config plumbing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cographmean

from cographmean import (
    Cotree,
    Graph,
    MeanFamily,
    closed_form_means,
    cotree_to_graph,
    emit_graph6,
    star,
)
from cographmean.cli import _parse_input, main
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


def test_enumerate_shard_union(capsys):
    _, full, _ = run(capsys, "enumerate", "cographs", "5")
    parts = []
    for i in range(3):
        _, out, _ = run(capsys, "enumerate", "cographs", "5", "--shard", f"{i}/3")
        parts.extend(out.strip().splitlines())
    assert sorted(parts) == sorted(full.strip().splitlines())


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


def test_verify_golden_table1(capsys):
    code, out, _ = run(capsys, "verify", "table1", "--golden")
    assert code == 0
    payload = json.loads(out)
    assert any(v["theorem"] == "golden-diff-table1" for v in payload["verdicts"])


def test_unknown_suite_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["mean"])
    assert err.value.code == 2


# The stdout of these runs, byte for byte, as captured before the verdict
# loops were folded into one claim runner.
VERIFY_STDOUT_SHA256 = {
    "table1": "618395a1e1ee739a27ee869426d238050548b0ba6d114a3d87682335045515c9",
    "star-max --nmax 8": "7f7e93ea01338db61af7d2128f0dd1d1c9b6a4caa3835690f4b22904a5506de3",
    "skillet-min --nmax 8": "7331180a5cd2c8bf3f3e33678b9f4c9c2cec316c3504cff86f221b34f49e6443",
    "disconnected-max --nmax 9": "9919cfdfa1f2ac9aec4781dffaf6d4fc3386e77907de37dea36ea32e1f9d8557",
    "table2 --nmax 5": "072b683cfcbff90f83972c54010d4eb758322e7a464f30eb2299b8d473ed009e",
    "path-conjecture --nmax 6": "b340c46124609738dbea24b52cea2b3f7bde7b8c8e45e15b51a2bd8ef9c164eb",
    "table2 --nmax 6 --golden": "d1e4ff2c1065ce7808c169cf526abb85c1b30f2ce96f6e24ac00aa0d308a0dba",
    "table1 --golden": "435eaef8c0407c47f95021fc33073863d8d846b841b7e14ef22b0ea1b52abe9c",
    "inequalities --nmax 16": "7301d1df1689ef59e86b252118bee09ebd3c1731dea89f0c4bc5790657d5fe74",
}


@pytest.mark.parametrize("arguments", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_pinned(capsys, arguments):
    code, out, _ = run(capsys, "verify", *arguments.split())
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256[arguments]


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


def test_non_integer_cap_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COGRAPHMEAN_BRUTE_FORCE_CAP", "abc")
    assert_usage_error(*run(capsys, "mean", "J(L,L)"))


def test_invalid_shard_is_usage_error(capsys):
    assert_usage_error(
        *run(capsys, "enumerate", "connected-cographs", "5", "--shard", "3/2")
    )


def test_format_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("COGRAPHMEAN_FORMAT", "xml")
    assert_usage_error(*run(capsys, "verify", "table1"))


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


def test_missing_golden_file_is_usage_error(capsys, tmp_path):
    assert_usage_error(
        *run(capsys, "verify", "table1", "--golden", "--golden-dir", str(tmp_path))
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
