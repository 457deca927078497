"""Command-line interface: outputs, exit codes, config plumbing."""

import argparse
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import shlex
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
    Family,
    Graph,
    MeanFamily,
    closed_form_means,
    cotree_to_graph,
    emit_graph6,
    format_cotree,
    from_edge_list,
    star,
)
from cographmean.cli import _SUITES, _build_parser, _parse_input, main
from cographmean.cotree import JOIN, LEAF_TREE, UNION, canonicalize
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


# sha256 of `mean` stdout on the complement of the 24-vertex path, the order
# cap's old worst case (16,777,170 connected sets), taken while the counter
# still visited every connected set.
PATH_COMPLEMENT_24_STDOUT_SHA256 = {
    "--poly": "2126b062a54087ec6a9d90db4cfec07745b69b5e9e98490e7da80b9ce9bb9cf3",
    "--local 0": "544d3c14af45461b9243613fac344bf3c9cced094c92a02d460ca4c7aed69e30",
}


@pytest.mark.parametrize("flags", sorted(PATH_COMPLEMENT_24_STDOUT_SHA256))
def test_mean_of_the_path_complement_at_the_cap_is_pinned(capsys, flags):
    path = {(i, i + 1) for i in range(23)}
    g = from_edge_list(24, [(u, v) for v in range(24) for u in range(v) if (u, v) not in path])
    code, out, _ = run(capsys, "mean", emit_graph6(g), *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PATH_COMPLEMENT_24_STDOUT_SHA256[flags]


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
# deduplicated by a cell-restricted code; `local-mean --nmax 9`, the top of
# the structural range, before the local sweeps took every leaf from one pass.
VERIFY_STDOUT_SHA256 = {
    "table1": "618395a1e1ee739a27ee869426d238050548b0ba6d114a3d87682335045515c9",
    "star-max --nmax 8": "7f7e93ea01338db61af7d2128f0dd1d1c9b6a4caa3835690f4b22904a5506de3",
    "skillet-min --nmax 8": "7331180a5cd2c8bf3f3e33678b9f4c9c2cec316c3504cff86f221b34f49e6443",
    "disconnected-max --nmax 9": "9919cfdfa1f2ac9aec4781dffaf6d4fc3386e77907de37dea36ea32e1f9d8557",
    "table2 --nmax 5": "072b683cfcbff90f83972c54010d4eb758322e7a464f30eb2299b8d473ed009e",
    "path-conjecture --nmax 6": "b340c46124609738dbea24b52cea2b3f7bde7b8c8e45e15b51a2bd8ef9c164eb",
    "inequalities --nmax 16": "7301d1df1689ef59e86b252118bee09ebd3c1731dea89f0c4bc5790657d5fe74",
    "local-mean": "2e30a1b01a301279f1fd2364dbb2325792c519f6b7f608a715072da803b7438f",
    "local-mean --nmax 9": "e5257b4526b3c9e7a201b522fc8c63c361aeb24ca4fc37cf937b7be64b2dec76",
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


# The connected-graph sweeps at order 8, taken before they scored one-vertex
# extensions instead of deduplicated classes.
VERIFY_ORDER_8_STDOUT_SHA256 = {
    "table2": "f02ea9849100cfbc55ae8579f2ce86e1637d52cb22d65877757851b2290bddcb",
    "path-conjecture": "be280c282dc9a71abda10a620a10201438672560a197c8d5dcec0f4c1ee49dc7",
}


@pytest.mark.slow
@pytest.mark.parametrize("suite", sorted(VERIFY_ORDER_8_STDOUT_SHA256))
def test_verify_order_8_stdout_is_pinned(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--nmax", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ORDER_8_STDOUT_SHA256[suite]


# The connected-graph sweeps at order 9, their cap; taken when the cap was
# raised from 8.  Order 9 has one maximum, K4 with five edges subdivided, and
# one minimum, the path.
VERIFY_ORDER_9 = {
    "table2": ("n=9: H??ZLRO mean 996/197", "ac380a0f6892c5c8167d5a1a051ba1ab18fa9b0343a53d6e1ba07d4918f4319e"),
    "path-conjecture": ("n=9: path mean 11/3", "c328ca2a7efcd2d46cb54968f26231d9a1332d519ee538411ec51aa69e3bd46d"),
}


@pytest.mark.slow
@pytest.mark.parametrize("suite", sorted(VERIFY_ORDER_9))
def test_verify_order_9(capsys, suite):
    row, digest = VERIFY_ORDER_9[suite]
    code, out, _ = run(capsys, "verify", suite, "--nmax", "9")
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["status"] == "PASS" and row in verdict["log"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_connected_graphs_7_is_pinned(capsys):
    code, out, _ = run(capsys, "enumerate", "connected-graphs", "7")
    assert code == 0
    assert out.count("\n") == 853
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f39a11e21a91db326d834f8e3bf6d5ae85c0f04d6077d08cfbaeecbc572b0a93"
    )


# sha256 of `enumerate connected-graphs N` stdout, taken before the class
# build stopped putting every class in canonical form.
ENUMERATE_CONNECTED_GRAPHS_SHA256 = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    3: "5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129",
    4: "b0024cb6b9eb3ef85ae992cd8b602640c1806b2e8f7e7a2cf8c6d7ab7603aee5",
    5: "0e90fd086c9d638cd8fdc133931d35474b837a0a953beae89ae1015692920f61",
    6: "d0b7bbaf90fd1e431c1ae94492b7f36644d7c3e78069161158a3179ab145d0b2",
    8: "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145",
}


@pytest.mark.parametrize(
    "n", [*range(1, 7), pytest.param(8, marks=pytest.mark.slow)]
)
def test_enumerate_connected_graphs_is_pinned(capsys, n):
    code, out, _ = run(capsys, "enumerate", "connected-graphs", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_CONNECTED_GRAPHS_SHA256[n]


@pytest.mark.parametrize("n, first", [(4, "J(L,U(L,L,L))"), (5, "J(L,U(L,L,L,L))")])
def test_enumerate_connected_graphs_as_cotrees_stops_at_the_first_non_cograph(
    capsys, n, first
):
    # The star comes first in printed order; the next class is not a cograph.
    code, out, err = run(capsys, "enumerate", "connected-graphs", str(n), "--emit", "cotree")
    assert code == 2
    assert out == first + "\n"
    assert err == (
        f"error: graph has a connected order-{n} subgraph with connected complement\n"
    )


def test_every_suite_default_nmax_is_its_function_default():
    """``_SUITES`` repeats each suite's default ``--nmax``, which ``verify``
    prints as "nmax"; it must be the default of the function that takes it.
    A stand-in module records the calls of each runner, which name the
    functions."""
    for name, (default, module, runner) in _SUITES.items():
        calls = []

        class Recorder:
            def __getattr__(self, attr):
                return lambda *args: calls.append((attr, args)) or []

        runner(Recorder(), default)
        [(function, _)] = [call for call in calls if call[1] == (default,)]
        real = getattr(importlib.import_module(f"cographmean.{module}"), function)
        assert inspect.signature(real).parameters["n_max"].default == default, name


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


@pytest.mark.parametrize("nmax", ["1", "13"])
def test_local_mean_nmax_outside_2_to_12_is_usage_error(capsys, nmax):
    code, out, err = run(capsys, "verify", "local-mean", "--nmax", nmax)
    assert_usage_error(code, out, err)
    assert "2..12" in err


# `verify local-mean --nmax 12`, the top of the structural range; the six
# structural verdicts at orders 10, 11 and 12 were checked equal to the
# Fraction-based sweeps before the cap was raised from 9.
LOCAL_MEAN_12_STDOUT_SHA256 = "02094a02801a74c9088ffaed935b9686032b2fb7e338663225066c836c490cd5"


@pytest.mark.slow
def test_local_mean_passes_at_its_cap(capsys):
    code, out, _ = run(capsys, "verify", "local-mean", "--nmax", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOCAL_MEAN_12_STDOUT_SHA256


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


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_enumerate_order_zero_is_usage_error(capsys, family):
    code, out, err = run(capsys, "enumerate", family, "0")
    assert_usage_error(code, out, err)
    assert "supports" in err and err.rstrip().endswith("got 0")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("enumerate cographs 16", "cotree enumeration supports 1..15, got 16"),
        ("enumerate caterpillars 1", "caterpillar enumeration supports 2..20, got 1"),
        ("verify star-max --nmax 65", "star maximality sweep supports 7..64, got 65"),
        ("verify local-mean --nmax 13", "structural sweep supports 2..12, got 13"),
        ("verify inequalities --nmax 8", "inequality sweep supports 9..512, got 8"),
        ("mean DQc --brute-force-cap 3", "brute-force cap supports 0..3, got 5"),
        ("mean ?", "graph6 supports 1..64, got 0"),
    ],
)
def test_order_out_of_range_has_one_message_shape(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert_usage_error(code, out, err)
    assert err.strip() == f"error: {message}"


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
    ``-X importtime``, and return it with every module it imported."""
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
    return done, imported


def _package_modules(imported: set[str]) -> set[str]:
    return {m for m in imported if m.split(".")[0] == "cographmean"}


# The value types are plain slotted classes: no command loads ``dataclasses``,
# which would pull in ``inspect`` and, with it, ``ast``, ``dis`` and ``tokenize``.
_UNUSED_STDLIB = {"dataclasses", "inspect"}


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
    assert not _UNUSED_STDLIB & imported
    # cli itself runs as __main__
    assert _package_modules(imported) == {
        "cographmean",
        "cographmean.cotree",
        # bench/selfcheck.py looks up cli.generate, so cli imports it eagerly
        "cographmean.enumeration",
        "cographmean.errors",
        "cographmean.graph",
        "cographmean.poly",
    }


# What every command needs: ``cli`` and the modules it imports at start-up.
_STARTUP = {"cli", "cotree", "enumeration", "errors", "graph", "poly"}
# command -> the package modules it loads beyond those
_LOADS = {
    "mean L": set(),
    "reliability J(L,L) --p 1/2": set(),
    "enumerate cographs 3": set(),
    "verify table1": {"knapsack", "verdict", "verify"},
    "verify table2 --nmax 3": {"verdict", "verify"},
    "verify local-mean --nmax 2": {"sweeps", "verdict"},
    "verify inequalities --nmax 9": {"sweeps", "verdict"},
}


@pytest.mark.parametrize("command", _LOADS)
def test_each_command_loads_only_the_modules_it_runs(command):
    """Start-up is most of a short command, so the package modules each
    command loads are pinned: a new eager import has to change this table."""
    script = (
        "import contextlib, io, sys\n"
        "from cographmean.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('cographmean.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, *shlex.split(command)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.split()
    assert code == "0"
    assert set(modules) == {f"cographmean.{m}" for m in _STARTUP | _LOADS[command]}


def test_fresh_verify_and_enumerate_print_what_they_printed_before():
    done, imported = _fresh_cli("verify", "table1")
    assert done.returncode == 0, done.stderr
    assert {"cographmean.verify", "cographmean.knapsack"} <= imported
    assert "cographmean.sweeps" not in imported
    assert not _UNUSED_STDLIB & imported
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256["table1"]
    done, _ = _fresh_cli("enumerate", "cographs", "5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 24  # OEIS A000084
    assert (
        hashlib.sha256(done.stdout.encode()).hexdigest()
        == "1139b1fec9de55c7f70886705b28cd1da0f1572d90ac30b7230cfc340db56912"
    )


@pytest.mark.parametrize("suite", ["table2", "path-conjecture"])
def test_fresh_connected_graph_suites_do_not_load_the_knapsack(suite):
    # Only the cotree suites search by the knapsack; ``verify table1`` still
    # loads it (above).
    done, imported = _fresh_cli("verify", suite)
    assert done.returncode == 0, done.stderr
    assert "cographmean.verify" in imported
    assert "cographmean.knapsack" not in imported
    assert "cographmean.sweeps" not in imported
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == VERIFY_STDOUT_SHA256[suite]


def test_fresh_star_max_does_not_load_the_sweeps():
    done, imported = _fresh_cli("verify", "star-max", "--nmax", "8")
    assert done.returncode == 0, done.stderr
    assert {"cographmean.verify", "cographmean.knapsack"} <= imported
    assert "cographmean.sweeps" not in imported
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == VERIFY_STDOUT_SHA256["star-max --nmax 8"]


@pytest.mark.parametrize("suite", ["local-mean", "inequalities"])
def test_fresh_sweep_suites_load_neither_the_claims_nor_the_knapsack(suite):
    done, imported = _fresh_cli("verify", suite)
    assert done.returncode == 0, done.stderr
    assert _package_modules(imported) == {
        "cographmean",
        "cographmean.cotree",
        "cographmean.enumeration",
        "cographmean.errors",
        "cographmean.graph",
        "cographmean.poly",
        "cographmean.sweeps",
        "cographmean.verdict",
    }
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == VERIFY_STDOUT_SHA256[suite]


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


@pytest.mark.parametrize("text", ["J(L,L)", "L", "U (L,L)", " J(L,L)", "\t\n U(L, L) ", "  L"])
def test_cotree_letters_still_parse_as_cotrees(text):
    assert isinstance(_parse_input(text), Cotree)


def _written_cotree(rng, n: int) -> Cotree:
    """A random cotree as a user might write it: kinds drawn freely, so a
    node may share its parent's kind, and children in any order."""
    if n == 1:
        return LEAF_TREE
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return Cotree(rng.choice((JOIN, UNION)), tuple(_written_cotree(rng, p) for p in parts))


def test_local_mean_numbers_cotree_leaves_as_written(capsys, rng):
    # Leaf 0 of J(U(L,L),L,L) is in the Union, but its canonical form
    # J(L,L,U(L,L)) puts a Join leaf first.
    assert run(capsys, "mean", "J(U(L,L),L,L)", "--local", "0")[1] == "18/7\n"
    written = 0
    for _ in range(40):
        tree = _written_cotree(rng, rng.randint(2, 12))
        written += tree != canonicalize(tree)
        vertex = str(rng.randrange(tree.leaf_count))
        graph6 = emit_graph6(cotree_to_graph(tree))
        by_tree = run(capsys, "mean", tree.form, "--local", vertex)
        assert by_tree == run(capsys, "mean", graph6, "--local", vertex), tree.form
        assert by_tree[0] == 0
    assert written > 20


def test_leading_whitespace_is_skipped_only_before_a_cotree(capsys):
    assert run(capsys, "mean", " J(L,L)") == (0, "4/3\n", "")
    code, out, err = run(capsys, "mean", " Bw")
    assert_usage_error(code, out, err)
    assert err == "error: byte ' ' is outside the graph6 range\n"


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


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ cographmean ...`` line of README.md's example block, its
    ``# ...`` comment stripped, and the lines printed under it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"^```\n(.*?)^```", readme, re.M | re.S) if "$ " in b]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ cographmean "):
            examples.append((re.sub(r"\s+#.*", "", line.removeprefix("$ cographmean ")), []))
        else:
            examples[-1][1].append(line)
    return examples


@pytest.mark.parametrize("command, printed", _readme_examples())
def test_readme_examples_print_what_the_readme_shows(capsys, command, printed):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 0, err
    if printed != ["{ ... exit code 0 iff every verdict is PASS ... }"]:
        assert out.splitlines() == printed
